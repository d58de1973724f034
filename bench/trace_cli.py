"""Run one ``rotospin`` CLI command with layer spans recorded.

    python bench/trace_cli.py SPANS.json ARG...

Same as ``python -m rotospin.cli ARG...`` except that the package import
is timed first, span wrappers are installed before ``main`` runs, and the
spans plus the import figures are written to SPANS.json at exit.
"""

import json
import sys
from time import perf_counter


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import tracer

    imports = tracer.import_rotospin()
    t0 = perf_counter()
    import rotospin.cli
    imports["cli.import_s"] = perf_counter() - t0

    trace = tracer.Tracer()
    trace.install()
    code = 1
    try:
        code = rotospin.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"imports": imports, "spans": trace.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
