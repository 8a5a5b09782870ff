"""One benchmark pass in a fresh interpreter.

Usage: python3 child.py SPAWN_TIME [PASS_FILE]

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process (the clock is shared by all processes on Linux), so ``setup_s``
covers interpreter start-up and the import of ``heatcert.cli``. Without
PASS_FILE the process only imports and reports ``setup_s``. PASS_FILE is a
JSON object ``{"invocations": [argv, ...], "trace": bool, "spans": path,
"pass_id": int}``; the invocations run back to back through
``heatcert.cli.main`` and the last line of stdout is a JSON result.
"""

import sys
import time

SPAWN = float(sys.argv[1])

import heatcert.cli  # noqa: E402  (the import is what setup_s measures)

SETUP_S = time.monotonic() - SPAWN

import json  # noqa: E402
import resource  # noqa: E402


def run_pass(spec: dict) -> dict:
    main = heatcert.cli.main
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer(spec["pass_id"])
        main = tracer.install()
    exits = []
    t0 = time.perf_counter()
    for argv in spec["invocations"]:
        try:
            exits.append(main(argv))
        except Exception as e:  # a crash is a failed invocation, not a lost pass
            print(f"{argv[:2]} raised {type(e).__name__}: {e}", file=sys.stderr)
            exits.append(f"raised {type(e).__name__}")
    verdict_s = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"setup_s": SETUP_S, "verdict_s": verdict_s, "exits": exits,
           "peak_rss_mb": peak_kb / 1024.0}
    if tracer is not None:
        tracer.write_spans(spec["spans"])
        out["layers"] = tracer.summary()
    return out


if __name__ == "__main__":
    if len(sys.argv) > 2:
        with open(sys.argv[2]) as fh:
            result = run_pass(json.load(fh))
    else:
        result = {"setup_s": SETUP_S}
    print(json.dumps(result))
