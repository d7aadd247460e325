"""Run one braidjones command with its layer functions traced.

    PYTHONPATH=src python3 perfbench/traced.py sweep --preset trefoil

Wraps each function in ``workloads.TRACED_FUNCTIONS`` in a span recorder,
rebinding the wrapper in every ``braidjones`` namespace that holds the
function (``rho_word`` lives in ``cli``, ``invariants`` and ``tlrep``;
rebinding it in only one would let calls bypass the wrapper), then calls
``braidjones.cli.main(argv)``.  The command's stdout, stderr and exit
status are unchanged, except that one extra stderr line, starting with
``TRACE_MARKER``, carries the per-function sums as JSON once it ends.

Spans stay in memory until then.  A span's self time is its duration minus
the time its child spans cover on the same thread.  Spans opened by the
sweep's pool threads have no parent on their own thread and take the open
``cli.run_sweep`` span as parent; every span whose parent is ``run_sweep``
is gridpoint work, which gives the pool's thread count and busy time.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

from workloads import TRACED_FUNCTIONS

TRACE_MARKER = "#perfbench-trace "
SWEEP_SPAN = "cli.run_sweep"


class Tracer:
    def __init__(self) -> None:
        # closed spans: (id, name, start, end, parent id, thread id, self seconds)
        self.spans: list[tuple[int, str, float, float, int | None, int, float]] = []
        self.letters = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._sweep_id: int | None = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1][0] if stack else self._sweep_id
            frame = [next(self._ids), 0.0]  # span id, child seconds on this thread
            stack.append(frame)
            if name == SWEEP_SPAN:
                self._sweep_id = frame[0]
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if name == SWEEP_SPAN:
                    self._sweep_id = None
                if stack:
                    stack[-1][1] += end - start
                self.spans.append(
                    (frame[0], name, start, end, parent, threading.get_ident(),
                     end - start - frame[1])
                )

        return traced

    def summary(self) -> dict:
        calls: Counter[str] = Counter()
        self_s: defaultdict[str, float] = defaultdict(float)
        wall_s: defaultdict[str, float] = defaultdict(float)
        sweep_ids = {s[0] for s in self.spans if s[1] == SWEEP_SPAN}
        pool_threads = set()
        pool_busy_s = 0.0
        for _, name, start, end, parent, thread, own in self.spans:
            calls[name] += 1
            self_s[name] += own
            wall_s[name] += end - start
            if parent in sweep_ids:
                pool_threads.add(thread)
                pool_busy_s += end - start
        return {
            "calls": calls,
            "self_s": self_s,
            "wall_s": wall_s,
            "letters": self.letters,
            "pool_threads": len(pool_threads),
            "pool_busy_s": pool_busy_s,
        }


def install(tracer: Tracer) -> None:
    import braidjones  # noqa: F401  (loads every submodule)

    namespaces = [m for n, m in sys.modules.items()
                  if n == "braidjones" or n.startswith("braidjones.")]
    for name in TRACED_FUNCTIONS:
        module_name, func = name.split(".")
        module = sys.modules[f"braidjones.{module_name}"]
        if func == "from_theta":
            cls = module.ReprParams
            cls.from_theta = classmethod(tracer.wrap(name, cls.__dict__[func].__func__))
            continue
        original = getattr(module, func)
        target = original
        if func == "parse_braid":
            target = _count_letters(tracer, original)
        wrapped = tracer.wrap(name, target)
        for ns in namespaces:
            for attr in [a for a, v in vars(ns).items() if v is original]:
                setattr(ns, attr, wrapped)


def _count_letters(tracer: Tracer, parse_braid):
    def parse(*args, **kwargs):
        word = parse_braid(*args, **kwargs)
        tracer.letters += len(word)
        return word

    return parse


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    try:
        return sys.modules["braidjones.cli"].main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARKER + json.dumps(tracer.summary()) + "\n")
        sys.stderr.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
