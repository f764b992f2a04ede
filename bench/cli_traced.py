"""`gelfond ARGS...` under the span tracer, for the traced cli-session rounds.

Prints the CLI's own output on stdout, then one JSON line on stderr with the import
time of gelfond.cli, the per-layer metrics and the spans.
"""

import json
import sys
import time

_t0 = time.perf_counter()
import gelfond.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

from tracer import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = gelfond.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    print(json.dumps({"import_s": IMPORT_S, "metrics": tracer.metrics(),
                      "spans": tracer.spans}), file=sys.stderr)
    sys.exit(code)
