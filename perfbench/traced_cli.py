"""Run the bregperm CLI with the benchmark's span wrappers installed.

Usage: python traced_cli.py SPANS_FILE ARG...

Behaves like `python -m bregperm.cli ARG...` and, on the way out, writes
the spans of the run (and how long `import bregperm` took) to SPANS_FILE.
"""

import sys
from pathlib import Path
from time import perf_counter

if __name__ == "__main__":
    start = perf_counter()
    import bregperm  # noqa: F401  (timed: the import is part of every CLI call)

    import_s = perf_counter() - start
    import bregperm.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.import_s.append(import_s)
    tracer.install()
    try:
        code = bregperm.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.save(Path(sys.argv[1]))
    sys.exit(code)
