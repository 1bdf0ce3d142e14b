"""The ``serve`` command with the layer wrappers installed.

    python3 perfbench/serve_traced.py --trace-dir DIR serve STORE [serve options]

Installs the wrappers of ``ledger.py``, then runs
``repro-experiments serve STORE [serve options]`` itself, so the traced
and the untraced server share one code path and one set of defaults.
When SIGINT stops the server it writes this process's spans to
``DIR/<pid>.json``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import ledger


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", type=Path, required=True)
    args, serve_argv = parser.parse_known_args(argv)
    traced = ledger.install(args.trace_dir, "server")

    from repro.experiments.cli import main as cli_main

    try:
        return cli_main(serve_argv)
    finally:
        traced.dump()


if __name__ == "__main__":
    sys.exit(main())
