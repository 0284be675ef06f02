"""Run one `urlab` subcommand with every layer entry point traced.

    python3 perfbench/traced_urlab.py SPANS.json SUBCOMMAND [urlab args...]

Same as ``python3 -m urlab SUBCOMMAND ...`` except that the spans of the
run are written to SPANS.json when it ends.
"""

import sys

import spans

if __name__ == "__main__":
    spans_path = sys.argv[1]
    tracer = spans.Tracer()
    spans.install(tracer)
    from urlab import cli
    try:
        status = cli.main(sys.argv[2:])
    finally:
        tracer.restore()
    tracer.dump(spans_path)
    sys.exit(status)
