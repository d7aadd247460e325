"""End-to-end and per-layer benchmark of the braidjones CLI.

    python3 perfbench/run.py --workload dense-grid --seed 0 --seconds 24 --trace 0

Run from a checkout's root; ``--workload all`` runs every workload in turn.
Each workload is a closed loop with one client: one ``python -m braidjones``
child at a time, with PYTHONPATH set to the checkout's ``src``.  The
benchmark starts no threads and no other processes.  It runs whole rounds
until ``--seconds`` of workload time have passed, then checks every
command's output (workloads.py) and compares it with the recorded goldens
(goldens.json).

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` every round runs twice, untraced and under traced.py
(alternating which goes first), and the last line reports the per-layer
metrics, as means per traced command, plus the tracing overhead.
DESIGN.md says why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from traced import TRACE_MARKER
from workloads import TRACED_FUNCTIONS, WORKLOADS, Command, Workload, check_output

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
SETUP_RUNS = 9
COMMAND_TIMEOUT_S = 30.0  # ten times the slowest command at the seed


@dataclass
class Result:
    cmd: Command
    traced: bool
    wall_s: float
    cpu_s: float
    maxrss_kib: int
    exit_code: int
    stdout: bytes
    stderr: str
    trace: dict | None = None
    failure: str | None = None
    wrong: bool = False  # a failure other than a clean refusal (exit 2)


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def spawn(argv: list[str], env: dict[str, str]) -> tuple[float, float, int, int, bytes, bytes]:
    """Run argv to completion; wall, user+sys CPU, maxrss, exit code, stdout, stderr."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks: dict[int, list[bytes]] = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    deadline = start + COMMAND_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        for f in (proc.stdout, proc.stderr):
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            events = sel.select(timeout=max(0.0, deadline - time.perf_counter()))
            if not events:
                proc.kill()
                chunks[proc.stderr.fileno()].append(b"benchmark: command timed out\n")
                break
            for key, _ in events:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    out, err = (b"".join(chunks[f.fileno()]) for f in (proc.stdout, proc.stderr))
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, code, out, err


def run_command(cmd: Command, traced: bool, env: dict[str, str]) -> Result:
    entry = [str(HERE / "traced.py")] if traced else ["-m", "braidjones"]
    wall, cpu, rss, code, out, err = spawn([sys.executable, *entry, *cmd.args], env)
    text = err.decode(errors="replace")
    trace = None
    if traced:
        body, _, last = text.rstrip("\n").rpartition("\n")
        if not last.startswith(TRACE_MARKER):
            body, last = text, ""
        text = body + "\n" if body else ""
        trace = json.loads(last[len(TRACE_MARKER):]) if last else None
    return Result(cmd, traced, wall, cpu, rss, code, out, text, trace)


def argv_key(cmd: Command) -> str:
    return hashlib.sha256("\0".join(cmd.args).encode()).hexdigest()


def judge(r: Result, goldens: dict[str, str]) -> None:
    """Set r.failure (and r.wrong) from the exit status, checks and goldens."""
    if r.exit_code != 0:
        first = r.stderr.splitlines()[0] if r.stderr.strip() else "(no stderr)"
        r.failure = f"exit {r.exit_code}: {first}"
        r.wrong = r.exit_code != 2 or not first.startswith("error: ")
        return
    r.failure = check_output(r.cmd, r.stdout)
    if r.failure is None:
        golden = goldens.get(argv_key(r.cmd))
        if golden is not None and golden != hashlib.sha256(r.stdout).hexdigest():
            r.failure = "output bytes differ from the golden"
    r.wrong = r.failure is not None


def setup_run(env: dict[str, str]) -> float:
    """Wall time of a fresh ``python -m braidjones --help``."""
    wall, _, _, code, _, err = spawn([sys.executable, "-m", "braidjones", "--help"], env)
    if code != 0:
        raise SystemExit(f"benchmark: braidjones --help failed: {err.decode(errors='replace')}")
    return wall


def run_loop(workload: Workload, seed: int, seconds: float, trace: bool,
             env: dict[str, str]) -> tuple[list[tuple[list[Result], float]], list[float]]:
    """Run whole rounds until ``seconds`` of workload time have passed.

    Returns each round's results with its wall time, and SETUP_RUNS set-up
    times.  The set-up runs are spread evenly over the loop, so that they
    see the same machine conditions as the workload (a shared host's speed
    changes within seconds); their time is not workload time.
    """
    setup_run(env)  # warms the bytecode and file caches
    rounds: list[tuple[list[Result], float]] = []
    setups: list[float] = []
    work_s = 0.0
    for index, round_ in enumerate(workload.rounds(seed)):
        if work_s >= seconds:
            break
        if len(setups) < SETUP_RUNS and work_s >= len(setups) * seconds / SETUP_RUNS:
            setups.append(setup_run(env))
        start = time.perf_counter()
        modes = (False, True) if index % 2 == 0 else (True, False)
        results = [run_command(cmd, traced, env)
                   for traced in (modes if trace else (False,)) for cmd in round_]
        rounds.append((results, time.perf_counter() - start))
        work_s += rounds[-1][1]
    setups.extend(setup_run(env) for _ in range(SETUP_RUNS - len(setups)))
    return rounds, setups


def ranked_walls(results: list[Result]) -> list[float]:
    """Wall times in rank order; a failed command ranks after every success."""
    return [r.wall_s for r in sorted(results, key=lambda r: (r.failure is not None, r.wall_s))]


def median_rank(walls: list[float]) -> float:
    n = len(walls)
    return (walls[(n - 1) // 2] + walls[n // 2]) / 2.0


def end_to_end(rounds: list[tuple[list[Result], float]], setup_s: float,
               tail_pct: float) -> tuple[dict, dict]:
    results = [r for rs, _ in rounds for r in rs]
    walls = ranked_walls(results)
    n = len(walls)
    tail_index = max(0, math.ceil(tail_pct / 100.0 * n) - 1)  # nearest rank
    ok = [r for r in results if r.failure is None]
    metrics = {
        "setup_s": (setup_s, "s"),
        # the median over rounds shrugs off a slow spell of the host
        "units_per_s": (statistics.median(
            sum(r.cmd.units for r in rs if r.failure is None) / wall for rs, wall in rounds),
            "1/s"),
        "cmd_s.p50": (median_rank(walls), "s"),
        "cmd_s.tail": (walls[tail_index], "s"),
        "cmd_cpu_s.p50": (statistics.median(r.cpu_s for r in results), "s"),
        "peak_rss_mib": (max(r.maxrss_kib for r in results) / 1024.0, "MiB"),
        "ok_ratio": (len(ok) / n, "ratio"),
    }
    detail = {
        "cmd_s.tail": {"percentile": tail_pct, "samples": n, "beyond": n - 1 - tail_index},
        "fail_ratio": (n - len(ok)) / n,
        "rounds": len(rounds),
        "loop_s": sum(wall for _, wall in rounds),
    }
    return metrics, detail


def per_layer(results: list[Result], workload: Workload) -> tuple[dict, dict]:
    traced = [r for r in results if r.traced]
    if any(r.trace is None for r in traced):
        raise SystemExit("benchmark: a traced command wrote no trace summary")
    n = len(traced)
    calls = {f: sum(r.trace["calls"].get(f, 0) for r in traced) for f in TRACED_FUNCTIONS}
    self_s = {f: sum(r.trace["self_s"].get(f, 0.0) for r in traced) for f in TRACED_FUNCTIONS}
    wall_s = {f: sum(r.trace["wall_s"].get(f, 0.0) for r in traced) for f in TRACED_FUNCTIONS}

    missing = [f for f in workload.reaches if calls[f] == 0]
    if missing:
        raise SystemExit(
            f"benchmark: traced functions recorded no calls on {workload.name}: "
            + ", ".join(missing)
        )

    points = sum(r.cmd.points for r in traced)
    metrics: dict[str, tuple[float, str]] = {}
    for f in TRACED_FUNCTIONS:
        if not f.startswith("cli."):
            metrics[f"{f}.calls"] = (calls[f] / n, "count/cmd")
        if f != "invariants.closure_loop_count":
            metrics[f"{f}.self_s"] = (self_s[f] / n, "s/cmd")
    for f in ("cli.main", "cli.run_sweep"):
        metrics[f"{f}.wall_s"] = (wall_s[f] / n, "s/cmd")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    untraced = [r for r in results if not r.traced]
    metrics.update({
        "braid.letters": (sum(r.trace["letters"] for r in traced) / n, "count/cmd"),
        "tlrep.rho_word.per_point": (ratio(calls["tlrep.rho_word"], points), "ratio"),
        "tlrep.build_U.per_letter": (
            ratio(calls["tlrep.build_U"], calls["tlrep.rho_generator"]), "ratio"),
        "nmr.calibration_runs": (
            (calls["nmr.prepare_rho1"] - calls["nmr.estimate_trace"]) / n, "count/cmd"),
        "cli.points": (points / n, "count/cmd"),
        "cli.pool.threads": (sum(r.trace["pool_threads"] for r in traced) / n, "count/cmd"),
        "cli.run_sweep.concurrency": (
            ratio(sum(r.trace["pool_busy_s"] for r in traced), wall_s["cli.run_sweep"]),
            "ratio"),
        "trace.overhead_ratio": (
            median_rank(ranked_walls(traced)) / median_rank(ranked_walls(untraced)), "ratio"),
    })
    expected_zero = {f"{f}.calls": calls[f] for f in TRACED_FUNCTIONS
                     if f not in workload.reaches}
    detail = {
        "traced_commands": n,
        "calibration_runs_per_cmd": [
            r.trace["calls"].get("nmr.prepare_rho1", 0)
            - r.trace["calls"].get("nmr.estimate_trace", 0) for r in traced],
        "expected_zero": expected_zero,
    }
    return metrics, detail


def provenance(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "braidjones").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel": platform.release(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 goldens: dict[str, str]) -> dict:
    rounds, setups = run_loop(workload, seed, seconds, trace, child_env())
    results = [r for rs, _ in rounds for r in rs]
    for r in results:
        judge(r, goldens)
    if trace:
        metrics, detail = per_layer(results, workload)
    else:
        metrics, detail = end_to_end(rounds, statistics.median(setups), workload.tail_pct)
    failures = Counter(r.failure for r in results if r.failure)
    failed = sum(failures.values())
    golden_checked = sum(argv_key(r.cmd) in goldens for r in results)

    print(f"== {workload.name}  seed={seed}  trace={int(trace)}  "
          f"commands={len(results)}  failed={failed}  fail_ratio={failed / len(results):.4g}  "
          f"golden-checked={golden_checked}")
    for reason, count in failures.most_common():
        print(f"   failed {count}x: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"   {name:34s} {value:.6g} {unit}")
    print(json.dumps({"workload": workload.name, "provenance": provenance(seed),
                      "failures": failures, "golden_checked": golden_checked, **detail}))
    return {
        "correct": not any(r.wrong for r in results),
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "braidjones" / "__init__.py").is_file():
        print(f"benchmark: no braidjones sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    goldens = json.loads(GOLDENS.read_text())["outputs"]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = {name: run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace), goldens) for name in names}
    if len(reports) == 1:
        result = reports[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{w}:{m}": v for w, r in reports.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
