"""heatcert benchmark: seeded CLI workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each pass runs the workload's ``heatcert``
invocations through ``heatcert.cli.main`` in a fresh interpreter (a closed
loop of one client: the next pass starts when the last one ended), and
passes repeat until ``--seconds`` have gone by. Outputs are checked against
independent oracles after the timed region. An invocation marked as a known
defect runs once, untimed; its check is printed and recorded but is not part
of ``correct``. Human-readable lines go first; the last line of stdout is
the JSON result. The result, with an environment record, is also written to
``perfbench/out/results/``, and traced runs write their spans to
``perfbench/out/spans/``.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` passes alternate between untraced and traced and the result
carries the per-layer metrics, including the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from statistics import median
from pathlib import Path

import numpy as np
import scipy

import oracle
import workloads
from stats import tail
from tracer import COUNTS, per_layer_metrics, report_counts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"

SETUP_PROBES = 4      # import-only interpreter starts per run, besides the passes
RUN_LIMIT_S = 170     # a run gives up rather than overrun its 180 s allowance

END_TO_END = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}


def environment() -> dict:
    """Machine and library record stored with every result."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            threads = int(fn())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                            if k in os.environ},
    }


class Runner:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.trace = trace
        self.tag = f"{workload}-s{seed}-t{int(trace)}"
        self.work = OUT / "work" / self.tag
        self.spans = OUT / "spans" / f"{self.tag}.jsonl"
        self.start = time.monotonic()
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        # the warm-up start caches heatcert's bytecode, as an installed
        # package has it, whatever the caller's environment says
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def spawn(self, *args) -> dict:
        """Start a fresh interpreter on child.py and return its JSON result."""
        left = RUN_LIMIT_S - (time.monotonic() - self.start)
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(CHILD), repr(t0), *args],
                              cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=max(left, 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def run_pass(self, invocations, k: int, traced: bool) -> dict:
        pass_dir = self.work / f"pass{k}"
        pass_dir.mkdir()
        reports = [pass_dir / f"{inv.label}.json" for inv in invocations]
        argvs = [[*inv.argv, "--out", str(path)] for inv, path in zip(invocations, reports)]
        spec = self.work / f"pass{k}.json"
        spec.write_text(json.dumps({"invocations": argvs, "trace": traced,
                                    "spans": str(self.spans), "pass_id": k}))
        res = self.spawn(str(spec))
        res["traced"] = traced
        res["reports"] = [p.read_text() if p.is_file() else None for p in reports]
        return res


def check_outputs(invocations, passes) -> tuple[int, Counter, float]:
    """Oracle checks on every pass; returns the invocations attempted, each
    distinct failure with the number of passes it occurred in, and the time
    the checks took. Reports of later passes must repeat the first pass byte
    for byte; the oracles run once on the first pass."""
    t0 = time.perf_counter()
    first = passes[0]
    verdicts = [oracle.check(inv, code, text) for inv, code, text
                in zip(invocations, first["exits"], first["reports"])]
    failures = Counter()
    for res in passes:
        for i, inv in enumerate(invocations):
            errors = verdicts[i]
            if (res["exits"][i], res["reports"][i]) != (first["exits"][i],
                                                        first["reports"][i]):
                errors = ["output differs from the first pass"] + oracle.check(
                    inv, res["exits"][i], res["reports"][i])
            if errors:
                failures[f"{inv.label}: " + "; ".join(errors)] += 1
    return len(passes) * len(invocations), failures, time.perf_counter() - t0


def layer_metrics(workload, passes) -> tuple[dict, list[str]]:
    """Per-layer metrics as medians over the traced passes, and a check that
    each layer the workload should exercise has spans with non-zero time."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    rows = []
    for p in traced:
        lay = p["layers"]
        row = dict(lay["counts"])
        row.update(report_counts([json.loads(t) for t in p["reports"] if t],
                                 sum(len(t.encode()) for t in p["reports"] if t)))
        for name in lay["self_s"]:
            row[f"{name}.self_s"] = lay["self_s"][name]
            row[f"{name}.calls"] = lay["calls"][name]
            module = name.split(".", 1)[0]
            row[f"{module}.self_s"] = row.get(f"{module}.self_s", 0.0) + lay["self_s"][name]
        rows.append(row)
    metrics = {}
    for name, unit in per_layer_metrics():
        if name == "trace_overhead_s":
            value = (median([p["verdict_s"] for p in traced])
                     - median([p["verdict_s"] for p in plain]))
        elif name in COUNTS:
            value = median([r.get(name, 0) for r in rows])
        else:
            # a traced name the program no longer has is missing, not zero
            value = median([r[name] for r in rows]) if name in rows[0] else None
        metrics[name] = {"value": value, "unit": unit}
    errors = []
    for layer in workloads.EXERCISES[workload]:
        for row in rows:
            calls = sum(v for k, v in row.items()
                        if k.startswith(layer + ".") and k.endswith(".calls"))
            if not (calls > 0 and row.get(f"{layer}.self_s", 0.0) > 0):
                errors.append(f"{layer} has no spans with time on {workload}")
                break
    return metrics, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "heatcert" / "cli.py").is_file():
        print(f"error: no heatcert sources under {SRC}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, bool(args.trace))
    shutil.rmtree(runner.work, ignore_errors=True)
    runner.work.mkdir(parents=True)
    if runner.trace:
        runner.spans.parent.mkdir(parents=True, exist_ok=True)
        runner.spans.write_text("")
    built = workloads.build(args.workload, args.seed, runner.work)
    invocations = [inv for inv in built if not inv.known_defect]
    known = [inv for inv in built if inv.known_defect]

    runner.spawn()  # warm-up: byte-compiles heatcert and fills the page cache
    setup = [runner.spawn()["setup_s"] for _ in range(SETUP_PROBES)]
    passes, walls = [], []
    t0 = time.monotonic()
    while True:
        traced = runner.trace and len(passes) % 2 == 1
        start = time.monotonic()
        passes.append(runner.run_pass(invocations, len(passes), traced))
        walls.append(time.monotonic() - start)
        enough = not runner.trace or any(p["traced"] for p in passes)
        # start another pass only if it should end within half a pass of
        # --seconds, so that on average the passes fill --seconds
        if enough and time.monotonic() - t0 + median(walls) / 2 > args.seconds:
            break
    measured_s = time.monotonic() - t0
    setup += [p["setup_s"] for p in passes]
    attempted, failures, check_s = check_outputs(invocations, passes)
    defects = {}
    if known:
        # once, untimed, in a fresh interpreter; reported but not in `correct`
        probe = runner.run_pass(known, "known", False)
        defects = {inv.label: {"defect": inv.known_defect,
                               "errors": oracle.check(inv, code, text)}
                   for inv, code, text in zip(known, probe["exits"], probe["reports"])}
    failed = sum(failures.values())
    plain = [p for p in passes if not p["traced"]]
    verdict = [p["verdict_s"] for p in plain]

    end_to_end = {
        "verdict_s": median(verdict),
        "setup_s": median(setup),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
        "pass_ratio": (attempted - failed) / attempted,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    trace_errors = []
    if runner.trace:
        metrics, trace_errors = layer_metrics(args.workload, passes)
    correct = failed == 0 and not trace_errors

    env = environment()
    t = tail(verdict)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)} in {measured_s:.1f} s  oracle {check_s:.1f} s")
    print(f"  verdict_s    median {end_to_end['verdict_s']:.4f} s  n={len(verdict)}  "
          + (f"p{t[0]} {t[1]:.4f} s" if t else "(tail percentile needs >= 20 samples)"))
    print(f"  setup_s      median {end_to_end['setup_s']:.4f} s  n={len(setup)}")
    print(f"  peak_rss_mb  median {end_to_end['peak_rss_mb']:.1f} MB  n={len(plain)}")
    print(f"  fail_ratio   {failed}/{attempted} = {failed / attempted:.4f}  "
          f"(pass_ratio {end_to_end['pass_ratio']:.4f})")
    for note, count in failures.items():
        print(f"  FAILED in {count} of {len(passes)} passes: {note}")
    for label, d in defects.items():
        state = ("still shows: " + "; ".join(d["errors"]) if d["errors"]
                 else "no longer shows; the invocation can join the timed passes")
        print(f"  KNOWN DEFECT {label} ({d['defect']}), run once untimed: {state}")
    for err in trace_errors:
        print(f"  TRACE CHECK: {err}")
    if runner.trace:
        for name, m in metrics.items():
            print(f"  {name:46s} {m['value']!s:>24} {m['unit']}")
    print(f"  env: {json.dumps(env)}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": correct, "attempted": attempted,
              "failed": failed, "fail_ratio": failed / attempted, "failures": failures,
              "trace_errors": trace_errors, "known_defects": defects,
              "metrics": metrics, "env": env,
              "samples": {"verdict_s": verdict, "setup_s": setup,
                          "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
                          "traced_verdict_s": [p["verdict_s"] for p in passes
                                               if p["traced"]]}}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{runner.tag}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(runner.work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
