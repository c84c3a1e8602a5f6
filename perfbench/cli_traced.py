"""Run ``procmat.cli`` with the benchmark's span wrappers installed.

Usage: python perfbench/cli_traced.py <procmat command line>

Spans are written to the file named by the PERFBENCH_SPANS environment
variable when the command ends.
"""

import os
import sys

import procmat.cli
from tracing import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = procmat.cli.main(sys.argv[1:])
    finally:
        tracer.dump(os.environ["PERFBENCH_SPANS"])
    sys.exit(code)
