"""Run the gpwork command line in this interpreter with every public gpwork
function traced, then write the spans.

    PYTHONPATH=src python3 perfbench/traced_cli.py SPANS_FILE CLI_ARGS...
"""

import sys

import gpwork.cli
from tracer import Tracer


def main():
    spans, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return gpwork.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main())
