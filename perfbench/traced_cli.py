"""Run one hawkesdecomp CLI command in this fresh interpreter with the tracer
installed, and write its spans and counters as JSON::

    python3 perfbench/traced_cli.py OUT_JSON COMMAND [ARGS...]

The import of ``hawkesdecomp.cli`` is timed before anything else of the
program is loaded.  The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import program


def main() -> int:
    out_path = Path(sys.argv[1])
    argv = sys.argv[2:]
    program.use_checkout_src()
    start = time.perf_counter()
    import hawkesdecomp.cli

    import_s = time.perf_counter() - start
    program.check_imported(hawkesdecomp.cli)

    import tracer as tr

    tracer = tr.Tracer()
    tr.install(tracer, cli=True)
    try:
        code = hawkesdecomp.cli.main(argv)
    finally:
        tracer.restore()
    doc = {"import_s": import_s, "exit_code": code, "spans": tracer.spans, "counts": tracer.counts}
    out_path.write_text(json.dumps(doc) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
