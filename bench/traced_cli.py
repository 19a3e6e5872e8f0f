"""Run one `delone` CLI command with the outside-in tracer installed.

    python3 bench/traced_cli.py TRACE_OUT <delone arguments...>

Behaves like `python3 -m delone.cli <delone arguments...>` (same report,
same exit code, same traceback on a crash) and writes the spans to
TRACE_OUT (JSON index) and TRACE_OUT.bin (arrays) when the command ends.
"""

import sys

import tracer


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    tracer.install(tr)
    cli = sys.modules["delone.cli"]
    try:
        code = cli.main(argv)
    finally:
        tr.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
