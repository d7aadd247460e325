"""Command-line front end: knot presets, theta sweeps, pulse tools.

``sweep`` evaluates a braid closure over a grid of angles (degrees on the
interface, radians internally) and writes a CSV with 12-significant-digit
floats, one row per gridpoint.  Output bytes are fully determined by the
braid, grid, epsilon and seed.  The command exits 1 when any row violates
the oracle tolerance or the measurement error bound or holds a non-finite
value, and 2 on bad input or when the output cannot be written, so it can
serve as a CI acceptance gate.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace

from .braid import BraidGenerator, BraidWord, parse_braid
from .invariants import bracket_state_sum, check_state_sum_size, evaluate
from .nmr import MeasurementPrecision, controlled_u, estimate_trace, trace_error_bound
from .pulses import (
    GATE_THETA_MAX,
    check_gate_theta,
    compile_controlled_s,
    format_program,
    pulse_angles,
    verify_program,
)
from .tlrep import ReprParams, is_admissible, rho_generator

__all__ = [
    "SweepRecord",
    "PRESETS",
    "preset",
    "default_grid",
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

# exact header order of the sweep CSV
CSV_COLUMNS = (
    "theta_deg,theta_rad,A_re,A_im,delta,trace_re,trace_im,"
    "trace_nmr_re,trace_nmr_im,bracket_re,bracket_im,oracle_re,oracle_im,"
    "f_re,f_im,t_re,t_im,jones_re,jones_im,eq9_bound"
)

_EXACT_TRACE_TOL = 1e-10
_DEFAULT_ORACLE_TOL = 1e-9

# largest theta grid a sweep accepts; the grid list is built in memory
MAX_GRID_POINTS = 10**6


@dataclass(frozen=True)
class SweepRecord:
    """Full results at one gridpoint; ``bracket_oracle`` is None when skipped."""

    theta_deg: float
    theta_rad: float
    A: complex
    delta: float
    trace_exact: complex
    trace_nmr: complex
    bracket: complex
    bracket_oracle: complex | None
    f: complex
    t: complex
    jones: complex
    eq9_bound: float


def preset(name: str) -> BraidWord:
    """Built-in 3-strand knot and link words."""
    word = PRESETS.get(name)
    if word is None:
        valid = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r}; valid presets: {valid}")
    return parse_braid(word, 3)


def default_grid() -> list[float]:
    """0..30 degrees inclusive in 1-degree steps (31 values)."""
    return [float(k) for k in range(31)]


def run_sweep(
    b: BraidWord,
    thetas_deg: list[float],
    prec: MeasurementPrecision = MeasurementPrecision(),
    with_oracle: bool = False,
) -> list[SweepRecord]:
    """One record per grid angle, in grid order; deterministic for a fixed seed.

    Gridpoints are evaluated serially in input order; the point at index k
    perturbs its trace estimate with seed prec.seed + k.  Every angle must
    be admissible, the word must have three strands and, with the oracle,
    pass ``check_state_sum_size`` over the whole grid; the calibration
    constant must not vanish and the error bound must be finite.  These
    checks run before any gridpoint.  A check that fails at a gridpoint
    raises ValueError naming the angle.
    """
    if b.strands != 3:
        raise ValueError(f"sweeps need a 3-strand word, got {b.strands} strands")
    grid = [(deg, math.radians(deg)) for deg in map(float, thetas_deg)]
    if with_oracle:
        try:
            check_state_sum_size(b, len(grid))
        except ValueError as exc:
            raise ValueError(f"--oracle: {exc}") from None
    for deg, theta in grid:
        if not is_admissible(theta):
            raise ValueError(f"theta = {deg} deg is outside the admissible angle set")
    # rho(b) is 2x2 on three strands; the bound does not depend on the seed
    try:
        bound = trace_error_bound(2, prec)
    except ValueError as exc:
        # each refusal starts with the refused field, epsilon or alpha1: the flag's name
        raise ValueError(f"--{exc}") from None
    records = []
    for idx, (deg, theta) in enumerate(grid):
        try:
            params = ReprParams.from_theta(theta)
            values = evaluate(b, params)
            trace_nmr = estimate_trace(values.unitary, replace(prec, seed=prec.seed + idx))
            oracle = bracket_state_sum(b, params.A) if with_oracle else None
        except ValueError as exc:
            raise ValueError(f"theta = {deg} deg: {exc}") from None
        records.append(SweepRecord(
            theta_deg=deg,
            theta_rad=theta,
            A=params.A,
            delta=params.delta,
            trace_exact=values.trace,
            trace_nmr=trace_nmr,
            bracket=values.bracket,
            bracket_oracle=oracle,
            f=values.f,
            t=values.t,
            jones=values.jones,
            eq9_bound=bound,
        ))
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


def _check_records(
    records: list[SweepRecord], oracle_tol: float
) -> tuple[list[str], tuple[float, float] | None]:
    """Violated gates, one message each, and the worst |bracket - oracle| with its angle.

    Each row's trace estimate is held to its own ``eq9_bound``; a bound of
    0 (epsilon 0, or a bound that underflows) means an exact estimate, held
    to _EXACT_TRACE_TOL.  NaN fails every gate and counts as the largest
    gap, a tie goes to the first angle, and without an oracle the worst is
    None.
    """
    problems = []
    gaps = []
    for r in records:
        bad = [k for k, v in vars(r).items() if v is not None and not cmath.isfinite(v)]
        if bad:
            problems.append(f"theta={r.theta_deg} deg: non-finite {', '.join(bad)}")
        if r.bracket_oracle is not None:
            gap = abs(r.bracket - r.bracket_oracle)
            if not gap <= oracle_tol:
                problems.append(
                    f"theta={r.theta_deg} deg: |bracket - oracle| = {gap:.3e} > {oracle_tol:.3e}"
                )
            gaps.append((gap, r.theta_deg))
        drift = abs(r.trace_exact - r.trace_nmr)
        limit = r.eq9_bound or _EXACT_TRACE_TOL
        if not drift <= limit:
            problems.append(
                f"theta={r.theta_deg} deg: |trace - trace_nmr| = {drift:.3e} > {limit:.3e}"
            )
    worst = max(gaps, key=lambda g: math.inf if math.isnan(g[0]) else g[0], default=None)
    return problems, worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    sweep.add_argument(
        "--oracle-tol",
        type=float,
        default=_DEFAULT_ORACLE_TOL,
        help="tolerance for |bracket - oracle| (test hook; default 1e-9)",
    )

    angles = sub.add_parser("angles", help="print the pulse angles alpha, beta, gamma")
    angles.add_argument("--theta-deg", type=float, required=True)
    angles.add_argument("--which", type=int, choices=(1, 2), required=True)

    compile_p = sub.add_parser("compile", help="compile and verify a controlled gate")
    compile_p.add_argument("--theta-deg", type=float, required=True)
    compile_p.add_argument("--which", type=int, choices=(1, 2), required=True)
    compile_p.add_argument("--inverse", action="store_true")
    return parser


def _cmd_sweep(args: argparse.Namespace) -> int:
    braid = preset(args.preset) if args.preset else parse_braid(args.braid, 3)
    for flag in ("theta_min_deg", "theta_max_deg", "theta_step_deg", "oracle_tol"):
        if not math.isfinite(getattr(args, flag)):
            raise ValueError(f"--{flag.replace('_', '-')} must be finite")
    if args.oracle_tol <= 0.0:
        raise ValueError("--oracle-tol must be positive")
    try:
        prec = MeasurementPrecision(epsilon=args.epsilon, alpha1=args.alpha1, seed=args.seed)
    except ValueError as exc:
        # each message starts with the refused field, which is also the flag's name
        raise ValueError(f"--{exc}") from None
    lo, hi, step = args.theta_min_deg, args.theta_max_deg, args.theta_step_deg
    if step <= 0.0:
        raise ValueError(f"--theta-step-deg must be positive, got {step!r}")
    span = hi - lo
    if span < 0.0:
        raise ValueError(f"--theta-max-deg {hi!r} is below --theta-min-deg {lo!r}")
    steps = span / step + 1e-9
    if not steps < MAX_GRID_POINTS:
        raise ValueError(f"--theta-step-deg gives more than {MAX_GRID_POINTS} grid points")
    grid = [lo + k * step for k in range(int(steps) + 1)]
    # a refused sweep raises here, before --out is opened, so it leaves the file as it was
    records = run_sweep(braid, grid, prec, with_oracle=args.oracle)
    destination = nullcontext(sys.stdout)
    if args.out:
        try:
            destination = open(args.out, "w", newline="")
        except OSError as exc:
            raise ValueError(f"--out {args.out}: cannot write: {exc.strerror}") from None
    with destination as out:
        emit_csv(records, out)
        out.flush()
    problems, worst = _check_records(records, args.oracle_tol)
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
        check_gate_theta(theta)
    except ValueError:
        bound = math.degrees(GATE_THETA_MAX)
        raise ValueError(f"--theta-deg must lie in [0, {bound:g}], got {deg!r}") from None
    return theta


def _cmd_angles(args: argparse.Namespace) -> int:
    alpha, beta, gamma = pulse_angles(_gate_theta(args.theta_deg), args.which)
    print(f"alpha={alpha!r}")
    print(f"beta={beta!r}")
    print(f"gamma={gamma!r}")
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    theta = _gate_theta(args.theta_deg)
    program = compile_controlled_s(args.which, theta, inverse=args.inverse)
    params = ReprParams.from_theta(theta)
    s = rho_generator(BraidGenerator(args.which, -1 if args.inverse else 1), params)
    fidelity = verify_program(program, controlled_u(s))
    print(format_program(program))
    print(f"fidelity={fidelity!r}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"sweep": _cmd_sweep, "angles": _cmd_angles, "compile": _cmd_compile}
    try:
        status = handlers[args.command](args)
        sys.stdout.flush()
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # only output raises OSError here: an --out path that cannot be opened is a ValueError
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        if sys.stdout is sys.__stdout__:
            # the interpreter flushes stdout on exit; let the unwritten bytes go to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
