"""Run the benchmark on a parent commit and on this checkout, in alternating pairs.

    python tools/bench_pair.py --workload long-word [--pairs 10] [--parent HEAD]

The parent is checked out into a temporary ``git worktree``; the change is
this checkout's working tree, uncommitted edits included (the report's
``change.dirty`` says whether ``src/`` or ``perfbench/`` had any).  Each pair runs
``perfbench/run.py --trace 0`` once on each side, at run.py's own seed
and duration, each side with its own copy of the benchmark, and the side
that goes first alternates from pair to pair.  The workload is one that
``BENCHMARK.json`` names.  ``BENCH_<workload>.json`` is written to the
checkout's root.  It holds every run's raw JSON lines and,
for each end-to-end metric ``BENCHMARK.json`` declares, each side's median
and quartiles, the change-to-parent ratio of the medians, the pairs the
change won and a verdict:

- ``unresolved``: the parent's quartile spread, relative to its median,
  exceeds the metric's bound, so the runs cannot show a move that size;
- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``better``: of at least ten pairs, the change won nine tenths or more
  (ties count for neither side), and its median beats the parent's by more
  than the parent's quartile spread;
- ``same``: none of these.

It also holds each side's commands per run (the result line's ``attempted``)
and their median, printed next to ``peak_rss_mib``: the driver's peak RSS
grows with the commands a run completes.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def last_metrics(lines: list[str]) -> dict[str, float]:
    """Metric values from a run's JSON lines: the last line is the run's result."""
    return {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}


def summarize(parent: list[list[str]], change: list[list[str]], end_to_end: list[dict]) -> dict:
    """Per-metric statistics of paired runs; run i of each side forms pair i.

    Each run is its list of JSON lines.  ``end_to_end`` is BENCHMARK.json's
    list of metrics, each with its ``name``, ``better`` and ``bound``.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on both sides")
    p_runs = [last_metrics(r) for r in parent]
    c_runs = [last_metrics(r) for r in change]
    out = {}
    for spec in end_to_end:
        name, bound = spec["name"], spec["bound"]
        sign = 1.0 if spec["better"] == "higher" else -1.0
        p = [r[name] for r in p_runs]
        c = [r[name] for r in c_runs]
        p1, pm, p3 = quartiles(p)
        c1, cm, c3 = quartiles(c)
        wins = sum(sign * (y - x) > 0 for x, y in zip(p, c))
        ratio = cm / pm if pm else None
        spread = p3 - p1
        if pm and spread / abs(pm) > bound:
            verdict = "unresolved"
        elif pm and sign * (cm - pm) / abs(pm) < -bound:
            verdict = "worse"
        elif len(p) >= 10 and wins >= 0.9 * len(p) and sign * (cm - pm) > spread:
            verdict = "better"
        else:
            verdict = "same"
        out[name] = {
            "parent": {"q1": p1, "median": pm, "q3": p3, "runs": p},
            "change": {"q1": c1, "median": cm, "q3": c3, "runs": c},
            "ratio": ratio,
            "wins": wins,
            "pairs": len(p),
            "bound": bound,
            "better": spec["better"],
            "verdict": verdict,
        }
    return out


def commands(runs: dict[str, list[list[str]]]) -> dict:
    """Each side's commands per run (the result line's ``attempted``) and their median."""
    out = {}
    for side, rs in runs.items():
        counts = [json.loads(r[-1])["attempted"] for r in rs]
        out[side] = {"median": statistics.median(counts), "runs": counts}
    return out


def run_side(root: Path, workload: str) -> list[str]:
    """One benchmark run in ``root``; its stdout lines that hold JSON."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    return [line for line in proc.stdout.splitlines() if line.startswith("{")]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # one workload per call: run.py's ``all`` reports its metrics under per-workload keys
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", default="HEAD")
    args = parser.parse_args(argv)
    parent_sha = git("rev-parse", args.parent)
    # the change side is what perfbench runs: the package sources and the benchmark itself
    change = {"base": git("rev-parse", "HEAD"),
              "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench"))}
    runs: dict[str, list[list[str]]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        tree = Path(tmp) / "parent"
        git("worktree", "add", "--detach", str(tree), parent_sha)
        try:
            roots = {"parent": tree, "change": ROOT}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_side(roots[side], args.workload))
                print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
        finally:
            git("worktree", "remove", "--force", str(tree))
    report = {
        "workload": args.workload,
        "parent": parent_sha,
        "change": change,
        "correct": {side: all(json.loads(r[-1])["correct"] for r in rs)
                    for side, rs in runs.items()},
        "metrics": summarize(runs["parent"], runs["change"], bench["end_to_end"]),
        "commands": commands(runs),
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.workload}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    cmds = report["commands"]
    for name, m in report["metrics"].items():
        line = (f"{name:14s} parent {m['parent']['median']:.6g}  change {m['change']['median']:.6g}"
                f"  ratio {m['ratio'] if m['ratio'] is None else format(m['ratio'], '.4f')}"
                f"  wins {m['wins']}/{m['pairs']}  {m['verdict']}")
        if name == "peak_rss_mib":
            line += f"  commands parent {cmds['parent']['median']:g}  change {cmds['change']['median']:g}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
