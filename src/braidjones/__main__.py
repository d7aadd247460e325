"""The command-line launcher: ``python -m braidjones`` and the ``braidjones`` script."""

from __future__ import annotations

import os


def main(argv: list[str] | None = None) -> int:
    # Every product the program makes is 2x2 or 4x4, so OpenBLAS's thread
    # start-up costs CPU and saves nothing.  The variable is read when numpy
    # loads, hence before cli is imported; a user's own setting wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as run

    return run(argv)


if __name__ == "__main__":
    raise SystemExit(main())
