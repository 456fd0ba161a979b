"""``repro serve`` with the benchmark's span recorder installed.

    python3 perfbench/serve_launcher.py TRACE_OUT [repro CLI arguments ...]

Installs the spans, runs ``repro.cli.main`` with the remaining arguments
(the same server code the untraced pass starts with ``python -m repro``),
and when the CLI returns after SIGINT writes the per-layer metrics and the
spans to ``TRACE_OUT``.
"""

from __future__ import annotations

import sys

import spans


def main(trace_out: str, argv: list) -> int:
    from repro.cli import main as cli_main

    tracer = spans.install(spans.Tracer())
    status = cli_main(argv)
    tracer.dump(trace_out, layers=spans.layer_metrics(tracer))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
