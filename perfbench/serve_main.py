"""Launch ``repro serve``, optionally with the benchmark's layer wrappers.

Usage::

    python3 perfbench/serve_main.py [--dump SPANS.json] -- serve --port 0 ...

Everything after ``--`` goes to the ``repro`` command line unchanged.
With ``--dump``, the layer wrappers of :mod:`layers` are installed
before the service starts and their span totals are written to
``SPANS.json`` when it shuts down (on SIGTERM).
"""

from __future__ import annotations

import sys

import common


def main(argv: list) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    dump = own[own.index("--dump") + 1] if "--dump" in own else None
    common.bootstrap()
    tracer = None
    if dump:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
    from repro.cli import main as repro_main

    status = repro_main(cli_args)
    if tracer is not None:
        from tracer import write_json

        write_json(dump, tracer.snapshot())
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
