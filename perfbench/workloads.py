"""Benchmark workloads and the checks every command's output must pass.

A workload is an endless sequence of rounds; a round is a short list of
``braidjones`` commands that together cover the workload's input mix once.
Runs stop only at round boundaries, so every run sees whole rounds and the
mix (and every per-command call count) is the same from run to run.

Every braid word and noise seed comes from ``random.Random(seed)``: the
program under test receives only command-line arguments.

The output checks recompute what they can from the CSV alone and never
trust the CLI's own exit-status gate, which passes NaN and inf inputs.
"""

from __future__ import annotations

import cmath
import math
import random
import re
from dataclasses import dataclass
from typing import Callable, Iterator

CSV_HEADER = (
    "theta_deg,theta_rad,A_re,A_im,delta,trace_re,trace_im,"
    "trace_nmr_re,trace_nmr_im,bracket_re,bracket_im,oracle_re,oracle_im,"
    "f_re,f_im,t_re,t_im,jones_re,jones_im,eq9_bound"
)

# The CSV prints 12 significant digits, so each field carries up to 5e-12
# relative rounding; 1e-11 of an identity's scale admits that and no more.
ROW_TOL = 1e-11
ORACLE_TOL = 1e-9
FIDELITY_MIN = 1.0 - 1e-10

# Exponent sums I(b) of the CLI presets, from their words:
# trefoil s1^3, figure8 (s1 s2^-1)^2, borromean (s1 s2^-1)^3.
PRESET_EXPONENT_SUMS = {"trefoil": 3, "figure8": 0, "borromean": 0}

LETTERS = ("s1", "s2", "s1^-1", "s2^-1")

# Layer functions a traced command can reach; see traced.py.
TRACED_FUNCTIONS = (
    "braid.parse_braid",
    "tlrep.from_theta",
    "tlrep.rho_word",
    "tlrep.rho_generator",
    "tlrep.build_U",
    "invariants.evaluate",
    "invariants.bracket_state_sum",
    "invariants.compose_tl",
    "invariants.closure_loop_count",
    "nmr.estimate_trace",
    "nmr.prepare_rho1",
    "nmr.apply_cu",
    "nmr.controlled_u",
    "nmr.measure_probe",
    "nmr.trace_error_bound",
    "pulses.compile_controlled_s",
    "pulses.verify_program",
    "pulses.simulate_program",
    "pulses.format_program",
    "cli.main",
    "cli.run_sweep",
    "cli.emit_csv",
)

_SWEEP_PATH = (
    "braid.parse_braid",
    "tlrep.from_theta",
    "tlrep.rho_word",
    "tlrep.rho_generator",
    "tlrep.build_U",
    "invariants.evaluate",
    "nmr.estimate_trace",
    "nmr.prepare_rho1",
    "nmr.apply_cu",
    "nmr.controlled_u",
    "nmr.measure_probe",
    "nmr.trace_error_bound",
    "cli.main",
    "cli.run_sweep",
    "cli.emit_csv",
)
_ORACLE_PATH = (
    "invariants.bracket_state_sum",
    "invariants.compose_tl",
    "invariants.closure_loop_count",
)
_COMPILE_PATH = (
    "tlrep.from_theta",
    "tlrep.rho_generator",
    "tlrep.build_U",
    "nmr.controlled_u",
    "pulses.compile_controlled_s",
    "pulses.verify_program",
    "pulses.simulate_program",
    "pulses.format_program",
    "cli.main",
)


@dataclass(frozen=True)
class Command:
    """One ``braidjones`` invocation and what its output must look like.

    Sweeps carry their grid (0 deg upwards in ``step_deg`` steps, ``points``
    rows) and the exponent sum of their word; ``points == 0`` marks a
    ``compile`` command.
    """

    args: tuple[str, ...]
    points: int = 0
    step_deg: float = 0.0
    exponent_sum: int = 0
    oracle: bool = False

    @property
    def units(self) -> int:
        """Work units of a successful run: CSV rows, or one verified gate."""
        return self.points if self.points else 1


@dataclass(frozen=True)
class Workload:
    """A named round generator.

    ``tail_pct`` is the percentile reported as ``cmd_s.tail``: the highest
    one that leaves at least ten commands beyond it in the shortest 24-s
    run seen (15 commands for dense-grid and oracle, 18 for long-word, 100
    for compile).  It is fixed per workload because a run holds a varying
    number of rounds, and a percentile that moved with the count would
    jump between command kinds of very different cost.
    """

    name: str
    rounds: Callable[[int], Iterator[list[Command]]]
    reaches: tuple[str, ...]  # traced functions that must record calls
    tail_pct: float


def _sweep(source: tuple[str, ...], exponent_sum: int, step_deg: float | None,
           points: int, epsilon: float, seed: int | None = None,
           oracle: bool = False) -> Command:
    args = ["sweep", *source]
    if step_deg is None:
        step_deg = 1.0  # the CLI's default 0..30 deg grid
    else:
        args += ["--theta-min-deg", "0", "--theta-max-deg", "30",
                 "--theta-step-deg", repr(step_deg)]
    args += ["--epsilon", repr(epsilon)]
    if seed is not None:
        args += ["--seed", str(seed)]
    if oracle:
        args.append("--oracle")
    return Command(tuple(args), points, step_deg, exponent_sum, oracle)


def _preset(name: str) -> tuple[tuple[str, ...], int]:
    return ("--preset", name), PRESET_EXPONENT_SUMS[name]


def _random_word(rng: random.Random, length: int) -> tuple[tuple[str, ...], int]:
    letters = rng.choices(LETTERS, k=length)
    exponent_sum = sum(-1 if letter.endswith("^-1") else 1 for letter in letters)
    return ("--braid", " ".join(letters)), exponent_sum


def _dense_grid(seed: int) -> Iterator[list[Command]]:
    rng = random.Random(seed)
    while True:
        yield [
            _sweep(*_preset(name), 0.01, 3001, 1e-3, seed=rng.randrange(2**31))
            for name in PRESET_EXPONENT_SUMS
        ]


def _oracle(seed: int) -> Iterator[list[Command]]:
    rng = random.Random(seed)
    while True:
        presets = [_sweep(*_preset(name), None, 31, 0.0, oracle=True)
                   for name in PRESET_EXPONENT_SUMS]
        words = [_sweep(*_random_word(rng, length), 10.0, 4, 0.0, oracle=True)
                 for length in (10, 12)]
        yield presets + words


def _long_word(seed: int) -> Iterator[list[Command]]:
    rng = random.Random(seed)
    while True:
        yield [
            _sweep(*_random_word(rng, length), 5.0, 7, 1e-3, seed=rng.randrange(2**31))
            for length in (1_000, 3_000, 10_000)
        ]


def _compile(seed: int) -> Iterator[list[Command]]:
    """Acceptance criterion 8's 25 angles, each a round of four gates."""
    rng = random.Random(seed)
    angles = [repr(k * 1.25) for k in range(25)]
    while True:
        rng.shuffle(angles)
        for deg in angles:
            yield [
                Command(("compile", "--theta-deg", deg, "--which", str(which), *inverse))
                for which in (1, 2)
                for inverse in ((), ("--inverse",))
            ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-grid", _dense_grid, _SWEEP_PATH, 33.0),
        Workload("oracle", _oracle, _SWEEP_PATH + _ORACLE_PATH, 33.0),
        Workload("long-word", _long_word, _SWEEP_PATH, 40.0),
        Workload("compile", _compile, _COMPILE_PATH, 90.0),
    )
}


def check_output(cmd: Command, stdout: bytes) -> str | None:
    """Why a command's (exit 0) output is wrong, or None when it passes."""
    try:
        text = stdout.decode("ascii")
    except UnicodeDecodeError:
        return "output is not ASCII"
    if not text.endswith("\n"):
        return "output does not end in a newline"
    lines = text[:-1].split("\n")
    return _check_sweep(cmd, lines) if cmd.points else _check_compile(lines)


def _check_sweep(cmd: Command, lines: list[str]) -> str | None:
    if lines[0] != CSV_HEADER:
        return "wrong CSV header"
    if len(lines) - 1 != cmd.points:
        return f"expected {cmd.points} CSV rows"
    for k, line in enumerate(lines[1:]):
        reason = _check_row(cmd, k, line.split(","))
        if reason:
            return reason
    return None


def _close(x: complex, y: complex, scale: float) -> bool:
    return abs(x - y) <= ROW_TOL * max(1.0, scale)


def _check_row(cmd: Command, k: int, fields: list[str]) -> str | None:
    if len(fields) != 20:
        return "wrong CSV field count"
    if cmd.oracle and "" in fields[11:13]:
        return "oracle columns empty with --oracle"
    if not cmd.oracle:
        if fields[11:13] != ["", ""]:
            return "oracle columns filled without --oracle"
        fields[11:13] = ["0", "0"]
    try:
        v = [float(f) for f in fields]
    except ValueError:
        return "unparsable CSV field"
    if not all(math.isfinite(x) for x in v):
        return "non-finite CSV field"
    theta_deg = k * cmd.step_deg
    if abs(v[0] - theta_deg) > 1e-9:
        return "theta_deg is not the requested grid"
    theta = math.radians(theta_deg)
    a = cmath.exp(1j * theta)
    delta = -2.0 * math.cos(2.0 * theta)
    trace, trace_nmr = complex(v[5], v[6]), complex(v[7], v[8])
    bracket, oracle = complex(v[9], v[10]), complex(v[11], v[12])
    f, t, jones = complex(v[13], v[14]), complex(v[15], v[16]), complex(v[17], v[18])
    i_b = cmd.exponent_sum
    loop = delta * delta - 2.0
    if not _close(v[1], theta, theta):
        return "theta_rad != radians(theta_deg)"
    if not _close(complex(v[2], v[3]), a, 1.0):
        return "A != exp(i theta)"
    if not _close(v[4], delta, 2.0):
        return "delta != -2cos(2 theta)"
    if not _close(t, a**-4, 1.0):
        return "t != A^-4"
    if not _close(bracket, trace + a**i_b * loop, abs(trace) + abs(loop)):
        return "bracket != trace + A^I (delta^2 - 2)"
    if not _close(f, (-(a**3)) ** (-i_b) * bracket, abs(bracket)):
        return "f != (-A^3)^-I bracket"
    if jones != f:
        return "jones != f"
    if abs(trace_nmr - trace) > v[19] + ROW_TOL * max(1.0, abs(trace)):
        return "|trace_nmr - trace| > eq9_bound"
    if cmd.oracle and abs(oracle - bracket) > ORACLE_TOL + ROW_TOL * max(1.0, abs(bracket)):
        return "|oracle - bracket| > 1e-9"
    return None


_INSTRUCTION_RE = re.compile(
    r"(?:ROT spin=[12] axis=[yz] |COUPLE |PHASE )angle=(\S+)\Z"
)


def _check_compile(lines: list[str]) -> str | None:
    *program, last = lines
    if not program:
        return "empty pulse program"
    for line in program:
        m = _INSTRUCTION_RE.match(line)
        if m is None:
            return "malformed pulse instruction"
        try:
            if not math.isfinite(float(m.group(1))):
                return "non-finite pulse angle"
        except ValueError:
            return "unparsable pulse angle"
    if not last.startswith("fidelity="):
        return "missing fidelity line"
    try:
        fidelity = float(last[len("fidelity="):])
    except ValueError:
        return "unparsable fidelity"
    if not fidelity >= FIDELITY_MIN:
        return "fidelity < 1 - 1e-10"
    return None
