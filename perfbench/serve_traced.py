"""Run `canopydw.service.serve` with the benchmark's span wrappers installed.

Usage: python3 perfbench/serve_traced.py --root WH --bind 127.0.0.1:0 --trace-out FILE

Serves until SIGTERM or SIGINT, then writes its spans and counts to FILE.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tracing import Tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--bind", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from canopydw import service

    tracer = Tracer(phase="serve")
    tracer.install()
    try:
        service.serve(service.ServiceConfig(bind_address=args.bind, warehouse_root=Path(args.root)))
    finally:
        tracer.uninstall()
        tracer.dump(Path(args.trace_out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
