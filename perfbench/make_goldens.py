"""Record goldens.json: the sha256 of every passing command's stdout.

    python3 perfbench/make_goldens.py

Covers the first rounds of each workload at the default seed (0), which
includes every ``compile`` command and every preset oracle sweep, since
their arguments do not depend on the seed.  Keys are the sha256 of the
command's arguments joined by NUL bytes.  Run it only on a commit whose
outputs are the reference: the benchmark fails any later command whose
bytes differ.
"""

from __future__ import annotations

import hashlib
import itertools
import json

from run import GOLDENS, argv_key, child_env, judge, run_command
from workloads import WORKLOADS

SEED = 0
ROUNDS = {"dense-grid": 8, "oracle": 8, "long-word": 8, "compile": 25}


def main() -> None:
    env = child_env()
    outputs: dict[str, str] = {}
    for name, workload in WORKLOADS.items():
        for round_ in itertools.islice(workload.rounds(SEED), ROUNDS[name]):
            for cmd in round_:
                r = run_command(cmd, False, env)
                judge(r, {})
                if r.failure is None:
                    outputs[argv_key(cmd)] = hashlib.sha256(r.stdout).hexdigest()
                elif r.wrong:
                    raise SystemExit(f"{name}: {' '.join(cmd.args)[:120]}: {r.failure}")
        print(f"{name}: {len(outputs)} outputs recorded so far")
    GOLDENS.write_text(json.dumps({"seed": SEED, "outputs": outputs}, indent=1,
                                  sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
