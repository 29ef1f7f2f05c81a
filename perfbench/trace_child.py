"""Run one ``alcove`` CLI command in this process with spans recorded.

    python3 perfbench/trace_child.py SPANS.json RUN_ID -- ARGV...

The package must be importable (the benchmark puts ``src`` on PYTHONPATH).
The spans and counts are written to SPANS.json when the command returns;
the exit code is the command's.
"""

from __future__ import annotations

import sys

from spans import Tracer, install


def main() -> int:
    out, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_child.py SPANS.json RUN_ID -- ARGV...")
    tracer = Tracer(run_id)
    install(tracer)
    import alcove.cli
    code = alcove.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
