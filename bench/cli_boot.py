"""Run the atomkit command line under the span tracer.

    python3 bench/cli_boot.py SPANS ARG...

Behaves like ``python -m atomkit.cli ARG...`` (same stdout, stderr and
exit status) and also writes the spans of the run, with the time taken
by ``import atomkit.cli``, to SPANS.
"""

import sys
import time

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import atomkit.cli
    import_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    tracer.install()
    try:
        return atomkit.cli.main(argv)
    finally:
        tracer.restore()
        tracer.dump(out, {"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main())
