"""Traced `huffseq` process for the cli-cold workload.

Usage: python3 cli_child.py SPANS_JSON CLI_ARGS...

Runs the CLI like the console script does, with huffseq's public functions
wrapped by the span recorder, and writes the spans, the interpreter start
time and the import time to SPANS_JSON when the CLI returns.
"""

import time

START = time.monotonic()

import sys  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import huffseq.cli
    import_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    tracer.install()
    rc = None
    try:
        rc = huffseq.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out_path, start_monotonic=START, import_s=import_s, rc=rc)
    return rc


if __name__ == "__main__":
    sys.exit(main())
