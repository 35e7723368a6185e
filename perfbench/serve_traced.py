"""Run the job service with the benchmark's layer wrappers installed.

    python3 perfbench/serve_traced.py --port 8765 --cache-dir DIR --spans OUT

The service-mix traced run starts its server through this launcher rather
than ``repro-floorplan serve``: it wraps every layer (see :mod:`tracing`)
and then calls :func:`repro.service.server.serve` with the CLI's defaults.
On SIGINT the server stops and the recorded spans are written to
``--spans``.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from tracing import Tracer, install, install_service  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    from repro.core.config import FloorplanConfig
    from repro.service.server import serve

    tracer = Tracer()
    install(tracer)
    install_service(tracer)
    tracer.active = True
    try:
        serve(FloorplanConfig(cache_dir=args.cache_dir), port=args.port)
    finally:
        tracer.active = False
        tracer.dump(args.spans)


if __name__ == "__main__":
    main()
