import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import braidjones.cli
import braidjones.nmr
from braidjones.braid import BraidWord, parse_braid
from braidjones.cli import preset, run_sweep
from braidjones.nmr import (
    _readout,
    _unitarity_defect,
    DensityOperator,
    MeasurementPrecision,
    apply_cu,
    controlled_u,
    estimate_trace,
    measure_probe,
    prepare_rho1,
    product_operator,
    trace_error_bound,
)
from braidjones.tlrep import ReprParams, rho_word

from helpers import ADMISSIBLE_THETA, LETTER3, count_calls, random_unitary


def test_prepare_rho1_blocks():
    assert np.allclose(prepare_rho1(2, 0.0).matrix, np.eye(4) / 4, atol=1e-12)
    rho = prepare_rho1(2, 1.0)
    assert np.allclose(rho.matrix[:2, 2:], -np.eye(2) / 8, atol=1e-12)
    assert np.allclose(rho.matrix[2:, :2], -np.eye(2) / 8, atol=1e-12)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="work qubit"):
        prepare_rho1(1, 1.0)


def test_density_operator_validation():
    # each message gives the measured deviation
    with pytest.raises(ValueError) as refused:
        DensityOperator(1, np.array([[0.5, 1e-11], [0.0, 0.5]]))
    message = "density operator must be Hermitian: max |M - M^dagger| = 1.000e-11"
    assert str(refused.value) == message
    with pytest.raises(ValueError) as refused:
        DensityOperator(1, np.diag([0.5, 0.5 + 3e-12]))
    assert str(refused.value) == "density operator must have unit trace: |trace M - 1| = 3.000e-12"


def test_controlled_u_examples():
    assert np.allclose(controlled_u(np.eye(2)), np.eye(4), atol=1e-12)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    cnot = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=float,
    )
    assert np.allclose(controlled_u(sx), cnot, atol=1e-12)
    s1 = rho_word(parse_braid("s1", 3), ReprParams.from_theta(0.0))
    assert np.allclose(controlled_u(s1), np.diag([1.0, 1.0, -1.0, 1.0]), atol=1e-12)
    # (1 + 1.5e-12)^2 - 1 = 3e-12, against 2*_TOL less a 2 * 2^-50 rounding margin
    with pytest.raises(ValueError) as refused:
        controlled_u(np.diag([1.0 + 1.5e-12, 1.0]))
    message = "matrix is not unitary: max |U^dagger U - I| = 3.000e-12 > 1.998e-12"
    assert str(refused.value) == message
    with pytest.raises(ValueError, match="unitary"):
        controlled_u(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_apply_cu_identity_and_blocks():
    rho1 = prepare_rho1(2, 1.0)
    rho2 = apply_cu(rho1, np.eye(2))
    assert np.allclose(rho2.matrix, rho1.matrix, atol=1e-12)

    rng = np.random.default_rng(41)
    for _ in range(20):
        u = random_unitary(rng, 2)
        rho2 = apply_cu(rho1, u)
        assert abs(np.trace(rho2.matrix) - 1.0) < 1e-12
        assert np.max(np.abs(rho2.matrix[2:, :2] - (-u / 8))) < 1e-12
        assert np.max(np.abs(rho2.matrix[:2, 2:] - (-u.conj().T / 8))) < 1e-12


def test_apply_cu_dimension_check():
    with pytest.raises(ValueError, match="mismatch"):
        apply_cu(prepare_rho1(2, 1.0), np.eye(4))


def test_measure_probe_traceless_on_maximally_mixed():
    rho = DensityOperator(2, np.eye(4) / 4)
    assert abs(measure_probe(rho, MeasurementPrecision())) < 1e-14


def test_measure_probe_reproducible_and_bounded():
    rho2 = apply_cu(prepare_rho1(2, 1.0), np.diag([1.0, 1.0j]))
    clean = measure_probe(rho2, MeasurementPrecision())
    prec = MeasurementPrecision(epsilon=1e-2, alpha1=1.0, seed=123)
    noisy = measure_probe(rho2, prec)
    assert measure_probe(rho2, prec) == noisy
    assert abs(noisy.real - clean.real) <= 1e-2
    assert abs(noisy.imag - clean.imag) <= 1e-2
    assert noisy != clean


@given(
    seed=st.integers(0, 2**320),
    bound=st.sampled_from((5e-324, 1e-3, 5e307)) | st.floats(5e-324, 8e307),
)
@example(seed=2**200, bound=5e-324)
@example(seed=2**320 - 1, bound=5e-324)
@example(seed=0, bound=8e307)
def test_noise_draws_are_numpys_default_rng_bit_for_bit(seed, bound):
    # seeds past 2**128 have more than four uint32 words, past SeedSequence's pool; up to 2**320
    # they reach ten words
    drawn = braidjones.nmr._uniform_pair(seed, bound)
    expected = np.random.default_rng(seed).uniform(-bound, bound, size=2)
    assert [d.hex() for d in drawn] == [float(e).hex() for e in expected]


# _uniform_pair's draws as float.hex, recorded from it (numpy 2.4's default_rng gives the
# same): they pin the noise bytes whatever numpy is installed, or none, and a replacement
# generator is compared against them
UNIFORM_PAIR_HEX = {
    (0, 1e-3): ("0x1.1f3abef8a1df4p-12", "-0x1.e2cad122b98acp-12"),
    (1, 1e-3): ("0x1.8caafba25fb00p-16", "0x1.d8586d80056b2p-11"),
    (2**32 - 1, 1e-3): ("-0x1.041b243477689p-11", "-0x1.2694b379f623cp-11"),
    (2**32, 1e-3): ("0x1.98abb5cce4088p-11", "0x1.df4f074b8b800p-14"),
    (2**128 + 1, 1e-3): ("-0x1.969a999d74350p-15", "0x1.a5e5f9ede00f8p-13"),
    (2**128, 1e-3): ("0x1.739bd694c8958p-12", "-0x1.0d7f782783d48p-11"),
    (2**200, 1e-3): ("0x1.0149d289bfe66p-11", "0x1.61c949ea8d36ep-11"),
    (2**319 + 1, 1e-3): ("-0x1.849e3cf7167b2p-11", "0x1.9bd65d69124d4p-11"),
    (7, 5e-324): ("0x0.0p+0", "0x0.0000000000001p-1022"),
    (7, 5e307): ("0x1.1d06e7a6c820cp+1020", "0x1.c4855f23114bep+1021"),
}


@pytest.mark.parametrize("seed, bound", list(UNIFORM_PAIR_HEX))
def test_noise_draws_match_the_recorded_bytes(seed, bound):
    drawn = braidjones.nmr._uniform_pair(seed, bound)
    assert tuple(d.hex() for d in drawn) == UNIFORM_PAIR_HEX[seed, bound]


def test_estimate_trace_exact_cases():
    assert abs(estimate_trace(np.eye(2)) - 2.0) < 1e-10
    assert abs(estimate_trace(np.diag([1.0, -1.0]))) < 1e-10
    s1_cubed = rho_word(parse_braid("s1^3", 3), ReprParams.from_theta(0.0))
    assert abs(estimate_trace(s1_cubed)) < 1e-10


def test_estimate_trace_rejects_bad_input():
    with pytest.raises(ValueError, match="power-of-two"):
        estimate_trace(np.eye(3))
    with pytest.raises(ValueError, match="unitary"):
        estimate_trace(2.0 * np.eye(2))


def _near_unitary(dim, kind, size, seed):
    """A random unitary perturbed by about ``size``: scaled, times I + size*H, or plus size*P."""
    rng = np.random.default_rng(seed)
    v = random_unitary(rng, dim)
    if kind == "scalar":
        return v * (1.0 + size)
    e = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if kind == "hermitian":
        e = e + e.conj().T
        return v @ (np.eye(dim) + size * e / np.max(np.abs(e)))
    return v + size * e / np.max(np.abs(e))


@settings(deadline=None, max_examples=300)
@given(
    dim=st.sampled_from((2, 4)),
    kind=st.sampled_from(("scalar", "hermitian", "additive")),
    # the second range puts a scalar defect, 2*size, within rounding of controlled_u's bound
    size=st.floats(1e-13, 1e-11) | st.floats(0.999e-12, 1.001e-12),
    seed=st.integers(0, 2**32 - 1),
)
# at a bound of exactly 2*_TOL these two pass controlled_u and trip the unit-trace check
@example(dim=2, kind="scalar", size=1e-12, seed=0)
@example(dim=4, kind="scalar", size=9.998889776975375e-13, seed=15)
def test_controlled_u_is_the_one_unitarity_check(dim, kind, size, seed):
    u = _near_unitary(dim, kind, size, seed)
    try:
        rho2 = apply_cu(prepare_rho1(dim.bit_length(), 1.0), u)
    except ValueError as exc:
        assert str(exc).startswith("matrix is not unitary: ")
    else:
        assert abs(np.trace(rho2.matrix) - 1.0) <= braidjones.nmr._TOL


# inf - inf makes the NaN that each check refuses, silently: a warning is an error here
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_nan_and_inf_matrices_are_refused(bad):
    for u in (np.diag([bad, 1.0]), np.array([[1.0, bad], [0.0, 1.0]])):
        # the defect is NaN, so rho_word's drift test, defect > bound, passes u on unrepaired
        defect, bound = _unitarity_defect(np.asarray(u, dtype=complex))
        assert math.isnan(defect) and not defect > bound
        with pytest.raises(ValueError, match="matrix is not unitary"):
            controlled_u(u)
        with pytest.raises(ValueError, match="matrix is not unitary"):
            estimate_trace(u)
    for rho in (np.diag([bad, 0.5]), np.array([[0.5, bad], [bad, 0.5]])):
        with pytest.raises(ValueError, match="density operator must"):
            DensityOperator(1, rho)


def _one_matrix_defect(u):
    # the per-matrix formula, as controlled_u and rho_word each once wrote it for one U
    with np.errstate(invalid="ignore"):
        return np.abs(u.conj().T.dot(u) - np.eye(u.shape[0])).max()


POISON = (math.nan, math.inf, -math.inf, complex(0.0, math.inf), complex(math.inf, math.nan))


# a stacked defect that warned where the one-matrix formula does not would fail here
@pytest.mark.filterwarnings("error")
@settings(deadline=None, max_examples=300)
@given(
    dim=st.sampled_from((2, 4)),
    shape=st.sampled_from(("matrix", "stack of one", "stack")),
    matrices=st.lists(
        st.tuples(
            st.sampled_from(("scalar", "hermitian", "additive")),
            st.floats(0.0, 1e-9),
            st.integers(0, 2**32 - 1),
        ),
        min_size=2,
        max_size=8,
    ),
    poison=st.none() | st.tuples(st.integers(0, 2**16), st.sampled_from(POISON)),
)
def test_stacked_defect_is_each_matrix_defect_bit_for_bit(dim, shape, matrices, poison):
    stack = np.array([_near_unitary(dim, *m) for m in matrices], dtype=complex)
    if poison is not None:
        at, bad = poison
        stack.reshape(-1)[at % stack.size] = bad
    u = {"matrix": stack[0], "stack of one": stack[:1], "stack": stack}[shape]
    defect, bound = _unitarity_defect(u)
    assert bound == 2 * braidjones.nmr._TOL - dim * 2**-50
    assert np.shape(defect) == u.shape[:-2]
    expected = [float(_one_matrix_defect(m)).hex() for m in u.reshape(-1, dim, dim)]
    assert [float(x).hex() for x in np.ravel(defect)] == expected


def test_apply_cu_refuses_a_non_unitary_u_before_its_size():
    # 4x4 neither matches the 2-qubit state nor is unitary; controlled_u checks U first
    with pytest.raises(ValueError, match="not unitary"):
        apply_cu(prepare_rho1(2, 1.0), 2 * np.eye(4))


def test_trace_error_bound_rejects_a_non_power_of_two_dimension():
    with pytest.raises(ValueError, match="power-of-two"):
        trace_error_bound(3, MeasurementPrecision())


def test_estimate_trace_rejects_a_non_square_u():
    with pytest.raises(ValueError, match="square"):
        estimate_trace(np.ones((2, 3)))
    # the shape is tested before a size is read or a defect measured, by both entry points
    for u in (np.array(1.0), np.zeros((0, 0))):
        for refuse in (controlled_u, estimate_trace):
            with pytest.raises(ValueError, match="^expected a square matrix$"):
                refuse(u)


def test_estimate_trace_builds_controlled_u_once(monkeypatch):
    estimate_trace(np.eye(2))  # the calibration run is cached, not counted below
    calls = count_calls(monkeypatch, "nmr.controlled_u")
    estimate_trace(np.diag([1.0, 1.0j]), MeasurementPrecision(epsilon=1e-3))
    assert calls["nmr.controlled_u"] == 1


def test_trace_error_bound_scaling():
    # |c| = alpha1 / (2N) with N = 2^(n+1), so the bound is sqrt(2)*eps*2N/alpha1
    prec = MeasurementPrecision(epsilon=1e-3, alpha1=1.0)
    assert abs(trace_error_bound(2, prec) - math.sqrt(2) * 1e-3 * 8.0) < 1e-15
    assert trace_error_bound(2, MeasurementPrecision()) == 0.0


def test_trace_error_bound_refuses_a_bound_that_overflows():
    # the noise band 2*epsilon is finite, but dividing by |c| = 1/8 overflows
    with pytest.raises(ValueError) as exc:
        trace_error_bound(2, MeasurementPrecision(epsilon=5e307))
    assert str(exc.value) == "epsilon 5e+307 at alpha1 1.0 gives a non-finite eq9_bound"


def test_precision_validation():
    with pytest.raises(ValueError):
        MeasurementPrecision(epsilon=-1.0)
    with pytest.raises(ValueError):
        MeasurementPrecision(alpha1=0.0)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"epsilon": 1e308}, "epsilon"),
        ({"epsilon": 1e308, "alpha1": 1e300}, "epsilon"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": "7"}, "seed"),
    ],
)
def test_precision_refuses_an_unusable_noise_band_or_seed(kwargs, field):
    with pytest.raises(ValueError) as exc:
        MeasurementPrecision(**kwargs)
    assert str(exc.value).startswith(f"{field} must ")


def test_precision_accepts_a_numpy_integer_seed():
    prec = MeasurementPrecision(epsilon=1e-2, seed=np.int64(3))
    assert type(prec.seed) is int and prec == replace(prec, seed=3)
    sweeps = [run_sweep(preset("borromean"), 0.0, 30.0, 15.0, replace(prec, seed=seed))
              for seed in (np.int64(3), 3)]
    assert [r.trace_nmr for r in sweeps[0]] == [r.trace_nmr for r in sweeps[1]]


def test_precision_accepts_the_widest_finite_noise_band():
    prec = MeasurementPrecision(epsilon=5e307, seed=2**40)
    rho2 = apply_cu(prepare_rho1(2, 1.0), np.eye(2, dtype=complex))
    assert cmath.isfinite(measure_probe(rho2, prec))


def test_product_operator_caches_valid_arguments_only():
    product_operator.cache_clear()
    op = product_operator(3, 2, "y")
    assert product_operator(3, 2, "y") is op and not op.flags.writeable
    for bad in ((3, 0, "x"), (3, 4, "x"), (3, 1, "w")):
        with pytest.raises(ValueError):
            product_operator(*bad)
    assert product_operator.cache_info().currsize == 1


def test_readout_is_built_once_per_register():
    op = _readout(2)
    assert _readout(2) is op and not op.flags.writeable
    assert np.array_equal(op, product_operator(2, 1, "x") + 1j * product_operator(2, 1, "y"))


def test_sweep_prepares_the_probe_once(monkeypatch):
    calls = count_calls(monkeypatch, "nmr.prepare_rho1")
    braidjones.nmr._probe.cache_clear()
    run_sweep(preset("borromean"), 0.0, 30.0, 1.0)
    # one shared rho_1 serves the calibration and all 31 gridpoints
    assert calls["nmr.prepare_rho1"] == 1
    rho1, _ = braidjones.nmr._probe(2, 1.0)
    assert not rho1.matrix.flags.writeable


def _outcome(compute):
    """The value, or the message of the ValueError raised instead."""
    try:
        return compute()
    except ValueError as exc:
        return str(exc)


@settings(deadline=None)
@given(
    letters=st.lists(LETTER3, max_size=12),
    theta=ADMISSIBLE_THETA,
    epsilon=st.floats(0.0, 0.1),
    alpha1=st.floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_shared_probe_matches_a_fresh_pipeline(letters, theta, epsilon, alpha1, seed):
    u = rho_word(BraidWord(3, tuple(letters)), ReprParams.from_theta(theta))
    prec = MeasurementPrecision(epsilon=epsilon, alpha1=alpha1, seed=seed)

    def fresh():
        _, c = braidjones.nmr._probe.__wrapped__(2, alpha1)
        return measure_probe(apply_cu(prepare_rho1(2, alpha1), u), prec) / c

    estimate = _outcome(lambda: estimate_trace(u, prec))
    assert estimate == _outcome(fresh)
    if isinstance(estimate, complex):
        # the sweep gate's rule: the readout bound plus the float rounding it leaves out
        bound = trace_error_bound(2, prec)
        limit = bound + braidjones.cli._TRACE_ROUNDING * (2 + bound)
        assert abs(estimate - np.trace(u)) <= limit
