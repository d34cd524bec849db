"""Run one ``longlasso`` CLI command with the benchmark's tracer installed.

usage: python3 bench/cli_traced.py SPANS_OUT COMMAND [ARGS...]

The parent benchmark launches this in place of ``python3 -m longlasso`` for
the traced run of the CLI workload.  The import of ``longlasso.cli`` is
recorded as the ``cli.import`` span; the spans are written to SPANS_OUT
when the command ends, and the exit code is the command's own.
"""
import sys
import time


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    from longlasso import cli

    t1 = time.perf_counter()
    import tracing

    tracer = tracing.Tracer()
    tracer.span("cli.import", t0, t1)
    tracer.install()
    try:
        return cli.run(argv)
    finally:
        tracer.uninstall()
        tracer.write(spans_out)


if __name__ == "__main__":
    sys.exit(main())
