"""Run one ``bbcage`` command line in this fresh interpreter, as the console
script does: ``sys.exit(bbcage.cli.main(argv))``.

    python3 cagebench/child.py TRACE_OUT ARG...

With TRACE_OUT other than ``-`` every layer is traced and the spans,
kept in memory meanwhile, are written there as JSON when the command ends,
whatever its outcome.
"""

import json
import sys


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    if trace_out == "-":
        from bbcage import cli

        return cli.main(argv)
    import tracer

    t = tracer.Tracer()
    tracer.install(t)
    from bbcage import cli

    try:
        return cli.main(argv)
    finally:
        with open(trace_out, "w", encoding="ascii") as fh:
            json.dump(t.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
