"""Command-line front end: knot presets, theta sweeps, pulse tools.

``sweep`` evaluates a braid closure over a grid of angles (degrees on the
interface, radians internally) and writes a CSV with 12-significant-digit
floats, one row per gridpoint.  Output bytes are fully determined by the
braid, the grid, epsilon, alpha1, the seed and whether the oracle runs.
The command exits 1 when any row violates the oracle tolerance or the
measurement error bound (with an allowance for float rounding) or holds a
non-finite value, and 2 on bad input or when the output cannot be written,
so it can serve as a CI acceptance gate.

The numerical layers are bound as the package's lazy submodules, which run
on first use.  So ``--help``, argparse's refusals, ``--braid`` parse
refusals and non-finite ``--theta-*`` refusals load no numpy; a command
that computes, or a check that lives in ``nmr``, ``tlrep`` or ``pulses``,
loads it in its handler, after the launcher has set the BLAS threading.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import re
import sys
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace

from . import invariants, nmr, pulses, tlrep
from .braid import BraidParseError, BraidWord, parse_braid

__all__ = [
    "SweepRecord",
    "PRESETS",
    "preset",
    "run_sweep",
    "emit_csv",
    "CSV_COLUMNS",
    "main",
]

PRESETS = {
    "trefoil": "s1^3",
    "figure8": "s1 s2^-1 s1 s2^-1",
    "borromean": "s1 s2^-1 s1 s2^-1 s1 s2^-1",
}

# largest |bracket - oracle| a sweep row passes
ORACLE_TOL = 1e-9

# largest cost a sweep accepts, in letter products (one 2x2 product per letter per
# gridpoint).  On grids of 7 to 3001 points a product costs 0.25 to 0.5 us, so letters
# at the budget take some 3 to 5 s, and about 1 us at a lone gridpoint, some 10 s; the
# 200000-point empty-word grid it admits takes some 15 s, at the gridpoint cost measured
# for _POINT_PRODUCTS
MAX_SWEEP_PRODUCTS = 10**7
# a gridpoint's fixed work (probe, simulator, row) in letter products.  On single-threaded
# BLAS, best of 3 to 5 runs in each of three processes, an empty-word gridpoint took 72 to
# 81 us on grids of 256 to 20001 points and 123 to 125 us alone, against 1.04 to 1.05 us
# per letter at a lone gridpoint and 0.25 to 0.48 us per letter per point on grids of 7
# to 3001 points: a ratio of about 120 at one point and 160 to 300 in blocks.  The charge stays at 50, so
# that no refusal edge moves
_POINT_PRODUCTS = 50

# gridpoints per stacked word product.  A block holds its points' ReprParams and
# InvariantValues, about 1 KB a point, and six (T, 2, 2) stacks (up to four distinct
# letters' images and the product's two buffers).  The 3001-point Borromean sweep peaked
# at 34.2 MiB RSS in one 4096-point block and at 31.5 MiB in 256-point blocks, at the same
# speed; one point at a time it peaks at 31.2 MiB
_BLOCK_POINTS = 256

# the float rounding a trace estimate may add to eq9_bound, per unit of 2 + eq9_bound.
# Five roundings lie between trace and trace_nmr on the sweep's 2x2 U: the products
# b*U_ii in rho_2's probe block, their sum, the noise addition, the division by c (c = b
# exactly for dim 2) and np.trace's sum.  Each errs by at most 2^-53 per real component,
# so sqrt(2)*2^-53 in modulus, on a quantity bounded in units of c by
# sum|U_ii| + eq9_bound <= 2 + eq9_bound.  The excess over eq9_bound is thus below
# 5*sqrt(2)*2^-53*(2 + eq9_bound), about 7.1 units; rounded up to 8
_TRACE_ROUNDING = 8 * 2.0**-53


@dataclass(frozen=True)
class SweepRecord:
    """Full results at one gridpoint; ``oracle`` is None when skipped."""

    theta_deg: float
    theta_rad: float
    A: complex
    delta: float
    trace: complex
    trace_nmr: complex
    bracket: complex
    oracle: complex | None
    f: complex
    t: complex
    jones: complex
    eq9_bound: float


# the sweep CSV header: one column per field, two (name_re,name_im) per complex field
CSV_COLUMNS = ",".join(
    f"{f.name}_re,{f.name}_im" if "complex" in f.type else f.name for f in fields(SweepRecord)
)


def preset(name: str) -> BraidWord:
    """Built-in 3-strand knot and link words."""
    word = PRESETS.get(name)
    if word is None:
        valid = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r}; valid presets: {valid}")
    return parse_braid(word, 3)


# the flags that set a sweep's grid, in run_sweep's (lo, hi, step) order
_GRID_FLAGS = ("--theta-min-deg", "--theta-max-deg", "--theta-step-deg")


def _check_finite_grid(lo: float, hi: float, step: float) -> None:
    """Refuse a NaN or infinite grid value by its flag; this check loads no numpy."""
    for flag, value in zip(_GRID_FLAGS, (lo, hi, step)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite")


def run_sweep(
    b: BraidWord,
    lo: float,
    hi: float,
    step: float,
    prec: nmr.MeasurementPrecision | None = None,
    with_oracle: bool = False,
) -> list[SweepRecord]:
    """One record per angle ``lo + k * step`` degrees up to ``hi``, in grid order.

    The grid holds ``int((hi - lo) / step + 1e-9) + 1`` angles: the slack keeps
    an endpoint that lies a whole number of steps from ``lo`` but rounds short.
    ``prec`` None means ``nmr.MeasurementPrecision()``: an exact readout,
    built at call time so that importing cli loads no numpy.

    Before any gridpoint, and in this order, the sweep refuses: a NaN or
    infinite ``lo``, ``hi`` or ``step``; a step that is not positive or
    ``hi`` below ``lo``; with the oracle, a word ``check_state_sum_size``
    refuses; a cost over MAX_SWEEP_PRODUCTS, where each gridpoint costs its
    letters, _POINT_PRODUCTS and, with the oracle, one product per state-sum
    term (a count that overflows is refused as a float, inf included); an
    inadmissible angle; and a vanishing calibration or a non-finite error
    bound.  Each refusal is a ValueError that names its CLI flag or angle.
    Gridpoints then run in blocks of at most _BLOCK_POINTS: one
    ``invariants.evaluate`` call per block builds the block's word products
    as one stack, and then each gridpoint in turn runs the simulator and the
    oracle; the point at index k perturbs its trace estimate with seed
    prec.seed + k.  A check that fails at a gridpoint raises ValueError
    naming the angle; a check on the word itself, such as a word not on
    three strands, names the first angle.
    """
    lo, hi, step = float(lo), float(hi), float(step)
    _check_finite_grid(lo, hi, step)
    if step <= 0.0:
        raise ValueError(f"--theta-step-deg must be positive, got {step!r}")
    if hi < lo:
        raise ValueError(f"--theta-max-deg {hi!r} is below --theta-min-deg {lo!r}")
    steps = (hi - lo) / step + 1e-9
    # int() refuses an overflowed (inf) count; each gridpoint costs at least one
    # product, so a count over the budget is refused as the float it is
    points = int(steps) + 1 if steps < MAX_SWEEP_PRODUCTS else steps + 1
    terms = 0
    if with_oracle:
        try:
            terms = invariants.check_state_sum_size(b)
        except ValueError as exc:
            raise ValueError(f"--oracle: {exc}") from None
    cost = points * (len(b) + _POINT_PRODUCTS + terms)
    if cost > MAX_SWEEP_PRODUCTS:
        oracle = f" plus {terms} --oracle terms" if with_oracle else ""
        raise ValueError(
            f"{'/'.join(_GRID_FLAGS)}: {points:.12g} gridpoints of {len(b)} letters{oracle} "
            f"cost {cost:.12g} letter products, over MAX_SWEEP_PRODUCTS = {MAX_SWEEP_PRODUCTS}"
        )
    grid = [(deg, math.radians(deg)) for deg in (lo + k * step for k in range(points))]
    for deg, theta in grid:
        if not tlrep.is_admissible(theta):
            raise ValueError(f"theta = {deg} deg is outside the admissible angle set")
    if prec is None:
        prec = nmr.MeasurementPrecision()
    # rho(b) is 2x2 on three strands; the bound does not depend on the seed
    try:
        bound = nmr.trace_error_bound(2, prec)
    except ValueError as exc:
        # each refusal starts with the refused field, epsilon or alpha1: the flag's name
        raise ValueError(f"--{exc}") from None
    records = []
    for start in range(0, points, _BLOCK_POINTS):
        block = grid[start:start + _BLOCK_POINTS]
        # until the simulator loop, a refusal names the block's first angle: ReprParams
        # refuses no angle the pre-pass admitted, and the block's product only the word
        deg = block[0][0]
        try:
            params = [tlrep.ReprParams.from_theta(theta) for _, theta in block]
            points_values = zip(block, params, invariants.evaluate(b, params))
            for idx, ((deg, theta), p, values) in enumerate(points_values, start):
                trace_nmr = nmr.estimate_trace(values.unitary, replace(prec, seed=prec.seed + idx))
                oracle = invariants.bracket_state_sum(b, p.A) if with_oracle else None
                records.append(SweepRecord(
                    theta_deg=deg,
                    theta_rad=theta,
                    A=p.A,
                    delta=p.delta,
                    trace=values.trace,
                    trace_nmr=trace_nmr,
                    bracket=values.bracket,
                    oracle=oracle,
                    f=values.f,
                    t=values.t,
                    jones=values.jones,
                    eq9_bound=bound,
                ))
        except ValueError as exc:
            raise ValueError(f"theta = {deg} deg: {exc}") from None
    return records


def _cells(v: float | complex | None) -> str:
    """A float fills one CSV cell, a complex two (re,im), a skipped oracle two blanks."""
    if v is None:
        return ","
    if isinstance(v, complex):
        return f"{v.real:.12g},{v.imag:.12g}"
    return f"{v:.12g}"


def emit_csv(records: list[SweepRecord], destination) -> None:
    """Header plus one row per record to the text stream ``destination``.

    A row lists the record's fields in ``SweepRecord`` order; it is
    byte-deterministic for fixed inputs.
    """
    destination.write(CSV_COLUMNS + "\n")
    for r in records:
        destination.write(",".join(map(_cells, vars(r).values())) + "\n")


def _check_records(records: list[SweepRecord]) -> tuple[list[str], tuple[float, float] | None]:
    """Violated gates, one message each, and the worst |bracket - oracle| with its angle.

    Each row's oracle gap is held to ORACLE_TOL, and its |trace - trace_nmr|
    to its own ``eq9_bound`` plus the rounding allowance
    _TRACE_ROUNDING * (2 + eq9_bound): one rule at every epsilon, which at a
    bound of 0 (epsilon 0, or a bound that underflows) is about 1.8e-15.
    NaN fails every gate and counts as the largest gap, a tie goes to the
    first angle, and without an oracle the worst is None.
    """
    problems = []
    gaps = []
    for r in records:
        bad = [k for k, v in vars(r).items() if v is not None and not cmath.isfinite(v)]
        if bad:
            problems.append(f"theta={r.theta_deg} deg: non-finite {', '.join(bad)}")
        if r.oracle is not None:
            gap = abs(r.bracket - r.oracle)
            if not gap <= ORACLE_TOL:
                problems.append(
                    f"theta={r.theta_deg} deg: |bracket - oracle| = {gap:.3e} > {ORACLE_TOL:.3e}"
                )
            gaps.append((gap, r.theta_deg))
        drift = abs(r.trace - r.trace_nmr)
        limit = r.eq9_bound + _TRACE_ROUNDING * (2.0 + r.eq9_bound)
        if not drift <= limit:
            problems.append(
                f"theta={r.theta_deg} deg: |trace - trace_nmr| = {drift:.3e} > {limit:.3e}"
            )
    worst = max(gaps, key=lambda g: math.inf if math.isnan(g[0]) else g[0], default=None)
    return problems, worst


# a negative decimal float literal, exponent or not, or a negative inf or nan: -1, -.5, -1E16
_NEGATIVE_NUMBER = re.compile(
    r"-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)\Z", re.IGNORECASE
)


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reads every negative float literal after a flag as its value
    and raises its refusals as ValueError.

    Stock argparse knows only ``-1`` and ``-1.5`` as numbers: it takes
    ``-1e16`` for an option and refuses ``--epsilon -1e-3`` as ``expected one
    argument``.  Here such a value reaches the flag, so the program's own
    check answers; an unknown flag or a missing value is refused as before,
    but as a ValueError that ``main`` prints as one ``error:`` line, with no
    usage block.  ``--help`` still exits through SystemExit.  The hook is
    argparse's ``_negative_number_matcher``, the same on Python 3.10 to 3.13;
    subparsers are built with this same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="braidjones",
        description="Jones polynomial values of 3-strand braid closures, "
        "with a simulated ensemble quantum computer in the loop.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate a braid closure over a theta grid")
    source = sweep.add_mutually_exclusive_group(required=True)
    source.add_argument("--braid", help='3-strand braid word, e.g. "s1 s2^-1 s1 s2^-1"')
    source.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        help="built-in knot or link; trefoil (s1^3) closes to the trefoil plus a "
        "split unknot, so its jones is delta*(t + t^3 - t^4)",
    )
    sweep.add_argument("--theta-min-deg", type=float, default=0.0)
    sweep.add_argument("--theta-max-deg", type=float, default=30.0)
    sweep.add_argument("--theta-step-deg", type=float, default=1.0)
    sweep.add_argument("--epsilon", type=float, default=0.0, help="measurement precision")
    sweep.add_argument("--alpha1", type=float, default=1.0, help="probe polarization")
    sweep.add_argument("--seed", type=int, default=0, help="noise seed")
    sweep.add_argument("--oracle", action="store_true", help="run the state-sum cross-check")
    sweep.add_argument("--out", help="CSV path (default: stdout)")

    angles = sub.add_parser("angles", help="print the pulse angles alpha, beta, gamma")
    angles.add_argument("--theta-deg", type=float, required=True)
    angles.add_argument("--which", type=int, choices=(1, 2), required=True)

    compile_p = sub.add_parser("compile", help="compile and verify a controlled gate")
    compile_p.add_argument("--theta-deg", type=float, required=True)
    compile_p.add_argument("--which", type=int, choices=(1, 2), required=True)
    compile_p.add_argument("--inverse", action="store_true")
    return parser


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        braid = preset(args.preset) if args.preset else parse_braid(args.braid, 3)
    except BraidParseError as exc:
        raise ValueError(f"--braid: {exc}") from None
    grid = (args.theta_min_deg, args.theta_max_deg, args.theta_step_deg)
    _check_finite_grid(*grid)
    try:
        prec = nmr.MeasurementPrecision(epsilon=args.epsilon, alpha1=args.alpha1, seed=args.seed)
    except ValueError as exc:
        # each message starts with the refused field, which is also the flag's name
        raise ValueError(f"--{exc}") from None
    # a refused sweep raises here, before --out is opened, so it leaves the file as it was
    records = run_sweep(braid, *grid, prec, with_oracle=args.oracle)
    destination = nullcontext(sys.stdout)
    if args.out is not None:
        try:
            destination = open(args.out, "w", newline="")
        except OSError as exc:
            raise ValueError(f"--out {args.out}: cannot write: {exc.strerror}") from None
    with destination as out:
        emit_csv(records, out)
        out.flush()
    problems, worst = _check_records(records)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    summary = f"{len(records)} gridpoints, {len(problems)} violations"
    if worst is not None:
        gap, deg = worst
        summary += f", worst |bracket - oracle| = {gap:.1e} at theta={deg:.12g} deg"
    print(summary, file=sys.stderr)
    return 1 if problems else 0


def _gate_theta(deg: float) -> float:
    """``--theta-deg`` in radians; ``pulses`` decides the domain, the refusal names the flag."""
    theta = math.radians(deg)
    try:
        pulses.check_gate_theta(theta)
    except ValueError:
        bound = math.degrees(pulses.GATE_THETA_MAX)
        raise ValueError(f"--theta-deg must lie in [0, {bound:g}], got {deg!r}") from None
    return theta


def _cmd_angles(args: argparse.Namespace) -> int:
    alpha, beta, gamma = pulses.pulse_angles(_gate_theta(args.theta_deg), args.which)
    print(f"alpha={alpha!r}")
    print(f"beta={beta!r}")
    print(f"gamma={gamma!r}")
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    theta = _gate_theta(args.theta_deg)
    program = pulses.compile_controlled_s(args.which, theta, inverse=args.inverse)
    block = pulses.gate_block(args.which, theta, args.inverse)
    fidelity = pulses.verify_program(program, nmr.controlled_u(block))
    print(pulses.format_program(program))
    print(f"fidelity={fidelity!r}")
    return 0


def main(argv: list[str] | None = None) -> int:
    handlers = {"sweep": _cmd_sweep, "angles": _cmd_angles, "compile": _cmd_compile}
    try:
        args = build_parser().parse_args(argv)
        status = handlers[args.command](args)
        sys.stdout.flush()
        return status
    except ValueError as exc:
        # one line, even when a refused token or --out path holds a line break
        print("error:", str(exc).replace("\n", "\\n"), file=sys.stderr)
        return 2
    except OSError as exc:
        # only output raises OSError here: an --out path that cannot be opened is a ValueError
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        if sys.stdout is sys.__stdout__:
            # the interpreter flushes stdout on exit; let the unwritten bytes go to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
