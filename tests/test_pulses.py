import hashlib
import math

import numpy as np
import pytest

from braidjones.braid import BraidGenerator
from braidjones.nmr import SIGMA_Y, SIGMA_Z, controlled_u
from braidjones.pulses import (
    GATE_THETA_MAX,
    PulseInstruction,
    check_gate_theta,
    compile_controlled_s,
    couple,
    format_program,
    gate_block,
    phase,
    pulse_angles,
    rot,
    simulate_program,
    verify_program,
)
from braidjones.tlrep import ReprParams, rho_generator


def _target(which, theta, inverse=False):
    params = ReprParams.from_theta(theta)
    s = rho_generator(BraidGenerator(which, -1 if inverse else 1), params)
    return controlled_u(s)


def test_gate_block_is_the_generator_image():
    for k in range(25):
        theta = math.radians(k * 1.25)
        for which in (1, 2):
            for inverse in (False, True):
                expected = rho_generator(
                    BraidGenerator(which, -1 if inverse else 1), ReprParams(theta)
                )
                assert np.array_equal(gate_block(which, theta, inverse), expected)
    with pytest.raises(ValueError) as exc:
        gate_block(3, 0.1)
    assert str(exc.value) == "which must be 1 or 2, got 3"
    with pytest.raises(ValueError) as exc:
        gate_block(1, math.radians(45))
    assert str(exc.value) == "theta must lie in [0, pi/6], got 0.7853981633974483"


def test_pulse_angles_at_zero():
    alpha, beta, gamma = pulse_angles(0.0, 2)
    assert abs(alpha - math.pi / 2) < 1e-12
    assert abs(beta - math.pi / 2) < 1e-12
    assert abs(gamma - 2 * math.pi / 3) < 1e-12


def test_pulse_angles_gamma_zero_for_first_generator():
    for theta in (0.0, 0.1, math.pi / 6):
        assert pulse_angles(theta, 1)[2] == 0.0


def test_pulse_angles_endpoint_limit():
    assert pulse_angles(math.pi / 6, 2)[2] == 0.0


def test_pulse_angles_domain():
    with pytest.raises(ValueError, match="which"):
        pulse_angles(0.1, 3)
    with pytest.raises(ValueError, match="theta"):
        pulse_angles(math.pi / 4, 2)
    with pytest.raises(ValueError, match="theta"):
        pulse_angles(-0.1, 2)


def test_check_gate_theta_allows_rounding_at_the_ends_only():
    for theta in (-1e-12, 0.0, GATE_THETA_MAX, GATE_THETA_MAX + 1e-12):
        check_gate_theta(theta)
    for theta in (-2e-12, GATE_THETA_MAX + 2e-12, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi/6\]"):
            check_gate_theta(theta)


def test_pulse_angles_gamma_continuity():
    # gamma has a square-root cusp at pi/6 (gamma ~ 5.3*sqrt(pi/6 - theta)),
    # so a 1e-4-spaced scan sees steps up to ~5.3e-2 near the endpoint; a
    # 1e-8-spaced scan at the endpoint confirms continuity there
    thetas = [k * 1e-4 for k in range(int(math.pi / 6 / 1e-4) + 1)] + [math.pi / 6]
    values = [pulse_angles(t, 2)[2] for t in thetas]
    steps = np.abs(np.diff(values))
    assert steps.max() < 6e-2
    away_from_cusp = steps[: -int(1e-3 / 1e-4)]
    assert away_from_cusp.max() < 1e-2
    fine = [math.pi / 6 - k * 1e-8 for k in range(10, -1, -1)]
    fine_steps = np.abs(np.diff([pulse_angles(t, 2)[2] for t in fine]))
    assert fine_steps.max() < 1e-3


def _gate_from_angles(theta, which):
    # exp(i*(pi - beta)) * Rz(a) * Ry(b) * Rz(c), R_v(phi) = exp(-i*phi*sigma_v/2)
    alpha, beta, gamma = pulse_angles(theta, which)
    a, b, c = (-alpha, 0.0, -alpha) if which == 1 else (2 * alpha - math.pi, gamma, 2 * alpha)
    r = lambda sigma, phi: math.cos(phi / 2) * np.eye(2) - 1j * math.sin(phi / 2) * sigma
    return np.exp(1j * (math.pi - beta)) * r(SIGMA_Z, a) @ r(SIGMA_Y, b) @ r(SIGMA_Z, c)


def test_pulse_angles_build_the_gate_images():
    for k in range(24):
        theta = k * (math.pi / 6) / 24
        params = ReprParams.from_theta(theta)
        for which in (1, 2):
            gate = _gate_from_angles(theta, which)
            forward = rho_generator(BraidGenerator(which, 1), params)
            inverse = rho_generator(BraidGenerator(which, -1), params)
            assert np.max(np.abs(gate - forward)) <= 1e-12
            assert np.max(np.abs(gate.conj().T - inverse)) <= 1e-12
    # at pi/6, delta = -2*cos(pi/3) rounds to -1.0000000000000002, so build_U's
    # off-diagonal sqrt(1 - delta^-2) is 2.1e-8 where the endpoint's is 0 (and
    # compile builds Ry(4.2e-8)), while pulse_angles returns the limit gamma = 0
    params = ReprParams.from_theta(math.pi / 6)
    gap = [
        np.max(np.abs(_gate_from_angles(math.pi / 6, which)
                      - rho_generator(BraidGenerator(which, 1), params)))
        for which in (1, 2)
    ]
    assert gap[0] <= 1e-12
    assert 0.0 < gap[1] < 1e-7


def test_instruction_validation():
    with pytest.raises(ValueError, match="kind"):
        PulseInstruction("wiggle", angle=1.0)
    with pytest.raises(ValueError, match="axis"):
        rot(2, "x", 1.0)
    with pytest.raises(ValueError, match="spin"):
        rot(3, "y", 1.0)
    with pytest.raises(ValueError, match="only an angle"):
        PulseInstruction("coupling", spin=2, angle=1.0)
    # a program is a plain tuple, and the empty one is not refused: it is the identity
    assert np.array_equal(simulate_program(()), np.eye(4))


def test_simulate_phase_instruction():
    program = (phase(0.7),)
    assert np.allclose(
        simulate_program(program), np.exp(0.7j) * np.eye(4), atol=1e-12
    )


def test_simulate_pi_rotation_on_spin_two():
    program = (rot(2, "y", math.pi),)
    block = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(simulate_program(program), np.kron(np.eye(2), block), atol=1e-12)


def test_simulate_pi_coupling():
    program = (couple(math.pi),)
    expected = np.diag(np.exp(-0.5j * math.pi * np.array([1.0, -1.0, -1.0, 1.0])))
    assert np.allclose(simulate_program(program), expected, atol=1e-12)


def test_simulate_is_time_ordered():
    # y then z must equal Rz @ Ry on spin 2
    program = (rot(2, "y", 0.5), rot(2, "z", 0.8))
    ry = simulate_program((rot(2, "y", 0.5),))
    rz = simulate_program((rot(2, "z", 0.8),))
    assert np.allclose(simulate_program(program), rz @ ry, atol=1e-12)


def test_compiled_cs1_at_zero_is_controlled_z():
    program = compile_controlled_s(1, 0.0)
    sim = simulate_program(program)
    aligned = sim / sim[0, 0]
    assert np.allclose(aligned, np.diag([1.0, 1.0, -1.0, 1.0]), atol=1e-10)


def test_compiled_fidelity_across_range():
    for which in (1, 2):
        for k in range(25):
            theta = k * (math.pi / 6) / 24
            program = compile_controlled_s(which, theta)
            assert verify_program(program, _target(which, theta)) >= 1.0 - 1e-10


def test_compiled_inverse_fidelity():
    program = compile_controlled_s(2, math.pi / 12, inverse=True)
    assert verify_program(program, _target(2, math.pi / 12, inverse=True)) >= 1.0 - 1e-10


def test_forward_inverse_composes_to_identity():
    for which in (1, 2):
        fwd = compile_controlled_s(which, math.pi / 12)
        bwd = compile_controlled_s(which, math.pi / 12, inverse=True)
        both = fwd + bwd
        assert verify_program(both, np.eye(4)) >= 1.0 - 1e-10


def test_compile_validates_arguments():
    with pytest.raises(ValueError, match="which"):
        compile_controlled_s(0, 0.1)
    with pytest.raises(ValueError, match="theta"):
        compile_controlled_s(1, 1.0)


def test_verify_program_properties():
    program = compile_controlled_s(2, math.pi / 12)
    target = _target(2, math.pi / 12)
    assert verify_program(program, target) == pytest.approx(1.0, abs=1e-12)
    assert verify_program(program, np.exp(0.3j) * target) == pytest.approx(1.0, abs=1e-12)
    assert verify_program(program, np.eye(4)) < 1.0 - 1e-3
    with pytest.raises(ValueError, match="mismatch"):
        verify_program(program, np.eye(2))


# sha256 over the printed programs on the compile command's 25-angle grid,
# both gates, with and without inverse; the format is a byte contract
COMPILE_GRID_SHA256 = "cf24970e73b1a33f338ac3799dd34ac4da9dee71e7c06e9087208a6469ec5d46"


def test_format_program_matches_golden_bytes():
    digest = hashlib.sha256()
    for k in range(25):
        for which in (1, 2):
            for inverse in (False, True):
                program = compile_controlled_s(which, math.radians(k * 1.25), inverse)
                digest.update((format_program(program) + "\n").encode("ascii"))
    assert digest.hexdigest() == COMPILE_GRID_SHA256
