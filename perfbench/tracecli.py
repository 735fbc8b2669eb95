"""Run one trophom CLI command with timing spans and save them.

    python3 tracecli.py SPANS.json <trophom cli arguments...>

trophom must be importable (the benchmark sets PYTHONPATH to its src/).
The exit code is the command's own.
"""

import json
import sys
import time

import spans

if __name__ == "__main__":
    out_path, argv = sys.argv[1], sys.argv[2:]
    spans.import_layers()
    cli = sys.modules["trophom.cli"]
    tracer = spans.Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        wall = time.perf_counter() - start
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(wall), fh)
    sys.exit(code)
