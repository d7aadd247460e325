"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on a green run.
"""

import cmath
import math
import time
from contextlib import contextmanager

import numpy as np

from braidjones.braid import BraidGenerator, BraidWord, parse_braid
from braidjones.cli import preset
from braidjones.invariants import bracket_state_sum, evaluate
from braidjones.nmr import MeasurementPrecision, controlled_u, estimate_trace, trace_error_bound
from braidjones.pathmodel import AjlParams, two_projector_correspondence_check
from braidjones.pulses import (
    compile_controlled_s,
    pulse_angles,
    verify_program,
)
from braidjones.tlrep import (
    ReprParams,
    build_U,
    delta_from_theta,
    is_admissible,
    rho_generator,
    rho_word,
    tl_generators,
)

from helpers import GAPS, random_admissible, random_unitary, run_cli

PRESET_WORDS = ("trefoil", "figure8", "borromean")
GRID_RAD = tuple(math.radians(k) for k in range(31))

# Jones polynomials from the knot tables: the trefoil, the figure eight knot
# and the Borromean rings
PUBLISHED_JONES = {
    "s1^3 s2": lambda t: t + t**3 - t**4,
    "s1 s2^-1 s1 s2^-1": lambda t: t**-2 - t**-1 + 1 - t + t**2,
    "s1 s2^-1 s1 s2^-1 s1 s2^-1": (
        lambda t: -(t**3) + 3 * t**2 - 2 * t + 4 - 2 * t**-1 + 3 * t**-2 - t**-3
    ),
}


@contextmanager
def criterion(number, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {number} ({name}): PASS ({elapsed:.2f}s)")


def test_criterion_1_tl_algebra():
    with criterion(1, "TL algebra suite"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(200):
            params = ReprParams.from_theta(random_admissible(rng))
            u1, u2 = build_U(params)
            for u in (u1, u2):
                assert np.max(np.abs(u @ u - params.delta * u)) <= 1e-12
                assert abs(np.trace(u) - params.delta) <= 1e-12
            assert np.max(np.abs(u1 @ u2 @ u1 - u1)) <= 1e-12
            assert np.max(np.abs(u2 @ u1 @ u2 - u2)) <= 1e-12
            assert abs(np.trace(u1 @ u2) - 1.0) <= 1e-12
            assert abs(np.trace(u2 @ u1) - 1.0) <= 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_2_unitarity_boundary():
    with criterion(2, "unitarity boundary"):
        rng = np.random.default_rng(102)
        start = time.perf_counter()
        for _ in range(200):
            params = ReprParams.from_theta(random_admissible(rng))
            for index in (1, 2):
                rho = rho_generator(BraidGenerator(index, 1), params)
                assert np.max(np.abs(rho @ rho.conj().T - np.eye(2))) <= 1e-12
        for _ in range(50):
            lo, hi = GAPS[int(rng.integers(len(GAPS)))]
            theta = float(rng.uniform(lo + 1e-3, hi - 1e-3))
            assert not is_admissible(theta)
            u1, u2 = tl_generators(delta_from_theta(theta))
            a = cmath.exp(1j * theta)
            defect = 0.0
            for u in (u1, u2):
                rho = a * np.eye(2) + u / a
                defect = max(defect, np.max(np.abs(rho @ rho.conj().T - np.eye(2))))
            assert defect > 1e-6
        assert time.perf_counter() - start < 1.0


def test_criterion_3_oracle_equivalence():
    with criterion(3, "oracle equivalence"):
        start = time.perf_counter()
        for name in PRESET_WORDS:
            word = preset(name)
            assert len(word.letters) <= 6
            for theta in GRID_RAD:
                params = ReprParams.from_theta(theta)
                bracket = evaluate(word, params).bracket
                oracle = bracket_state_sum(word, params.A)
                assert abs(bracket - oracle) <= 1e-9
        assert time.perf_counter() - start < 5.0


def test_criterion_4_closed_form_spot_checks():
    with criterion(4, "closed-form spot checks"):
        trefoil = parse_braid("s1^3", 3)
        for theta in GRID_RAD:
            params = ReprParams.from_theta(theta)
            trace = np.trace(rho_word(trefoil, params))
            assert abs(trace - (params.A**3 - params.A**-9)) <= 1e-12
            identity_values = evaluate(BraidWord(3), params)
            assert abs(identity_values.bracket - params.delta**2) <= 1e-12


def test_criterion_5_simulator_exactness():
    with criterion(5, "simulator exactness"):
        start = time.perf_counter()
        prec = MeasurementPrecision()
        for name in PRESET_WORDS:
            word = preset(name)
            for theta in GRID_RAD:
                u = rho_word(word, ReprParams.from_theta(theta))
                assert abs(estimate_trace(u, prec) - np.trace(u)) <= 1e-10
        rng = np.random.default_rng(105)
        for dim in (2, 4):
            for _ in range(50):
                u = random_unitary(rng, dim)
                assert abs(estimate_trace(u, prec) - np.trace(u)) <= 1e-10
        assert time.perf_counter() - start < 1.0


def test_criterion_6_measurement_error_bound():
    # the per-quadrature noise is eps*Lambda and the calibrated readout
    # constant is |c| = alpha1/(2N), so the hard bound on the rescaled
    # estimate is sqrt(2)*eps*Lambda/|c| = 2*sqrt(2)*N*eps/alpha1
    with criterion(6, "measurement error bound"):
        start = time.perf_counter()
        rng = np.random.default_rng(106)
        n_dim = 2
        big_n = 2 * n_dim
        for epsilon in (1e-3, 1e-2):
            prec0 = MeasurementPrecision(epsilon=epsilon, alpha1=1.0)
            bound = trace_error_bound(n_dim, prec0)
            assert abs(bound - 2.0 * math.sqrt(2) * big_n * epsilon) < 1e-12
            violations = 0
            for seed in range(1000):
                u = random_unitary(rng, n_dim)
                prec = MeasurementPrecision(epsilon=epsilon, alpha1=1.0, seed=seed)
                if abs(estimate_trace(u, prec) - np.trace(u)) > bound:
                    violations += 1
            assert violations == 0
        assert time.perf_counter() - start < 5.0


def test_criterion_7_path_model_correspondence():
    with criterion(7, "path-model correspondence"):
        for k in range(25):
            theta = k * (math.pi / 3) / 25
            assert two_projector_correspondence_check(theta) <= 1e-12
        rng = np.random.default_rng(107)
        for _ in range(50):
            theta = float(rng.uniform(0.01, math.pi / 8))
            params = AjlParams.from_theta(theta, 3)
            for k in range(1, 7):
                ratio = (params.lam(k - 1) + params.lam(k + 1)) / params.lam(k)
                assert abs(ratio - params.d) <= 1e-12


def test_criterion_8_pulse_compiler_fidelity():
    with criterion(8, "pulse compiler fidelity"):
        for which in (1, 2):
            for k in range(25):
                theta = k * (math.pi / 6) / 24
                params = ReprParams.from_theta(theta)
                s = rho_generator(BraidGenerator(which, 1), params)
                program = compile_controlled_s(which, theta)
                assert verify_program(program, controlled_u(s)) >= 1.0 - 1e-10
                inverse = compile_controlled_s(which, theta, inverse=True)
                both = program + inverse
                assert verify_program(both, np.eye(4)) >= 1.0 - 1e-10
        alpha, beta, gamma = pulse_angles(0.0, 2)
        assert abs(alpha - math.pi / 2) <= 1e-12
        assert abs(beta - math.pi / 2) <= 1e-12
        assert abs(gamma - 2 * math.pi / 3) <= 1e-12


def test_criterion_9_cli_end_to_end(tmp_path):
    with criterion(9, "CLI end to end"):
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--preset", "trefoil", "--oracle", "--epsilon", "0", "--out", str(out)]
        first = run_cli(*args)
        assert first.returncode == 0, first.stderr
        payload = out.read_bytes()
        assert len(payload.splitlines()) == 32
        second = run_cli(*args)
        assert second.returncode == 0
        assert out.read_bytes() == payload
        # the same sweep with the oracle gate cli.ORACLE_TOL tightened to 1e-30
        corrupted = run_cli(*args, oracle_tol=1e-30)
        assert corrupted.returncode == 1, corrupted.stderr
        assert "FAIL" in corrupted.stderr


def test_criterion_10_published_jones_polynomials():
    with criterion(10, "published Jones polynomials"):
        degrees = [k / 2 for k in range(61)] + [100.0, 150.0, 337.5]
        trefoil = PUBLISHED_JONES["s1^3 s2"]
        for deg in degrees:
            params = ReprParams.from_theta(math.radians(deg))
            for word, jones in PUBLISHED_JONES.items():
                values = evaluate(parse_braid(word, 3), params)
                assert abs(values.jones - jones(values.t)) <= 1e-12
            # the preset s1^3 closes to the trefoil plus a split unknot
            values = evaluate(preset("trefoil"), params)
            assert abs(values.jones - params.delta * trefoil(values.t)) <= 1e-12
        # V(1), V(e^(-2*pi*i/3)) and V(i), word by word
        for deg, t, expected in (
            (0.0, 1.0, (1, 1, 4)),
            (30.0, cmath.exp(-2j * math.pi / 3), (1, 1, 1)),
            (337.5, 1j, (-1, -1, -2)),
        ):
            params = ReprParams.from_theta(math.radians(deg))
            for word, value in zip(PUBLISHED_JONES, expected):
                values = evaluate(parse_braid(word, 3), params)
                assert abs(values.t - t) <= 1e-12
                assert abs(values.jones - value) <= 1e-12
