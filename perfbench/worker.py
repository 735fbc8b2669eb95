"""One measured run of one workload, in its own process.

    python3 worker.py --workload NAME --seed N --seconds S --src DIR
                      [--trace] [--setup-only]

Set-up (interpreter, imports, targets, warm-up) ends with a line ``ready``
on stdout, which is where run.py stops its set-up clock.  Then the closed
loop runs ops for S seconds, every op is checked, and the last stdout line
is a JSON object with the op counts, the end-to-end metrics as measured,
the host probe's time (see probe.py) and, with --trace, the per-layer
metrics of a traced replay of the same ops.
"""

from __future__ import annotations

import argparse
import array
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CLOCK = time.perf_counter
STARTUP_SAMPLES = 5
TRACE_BATCH = 100

# Percentile reported as op_ms_tail.  Fixed per workload so that it is the
# same on every run; each is the highest percentile that keeps at least ten
# ops beyond it at the op count a run reaches here.
TAIL_PERCENTILE = {"claims-cli": 75, "search-3col": 99,
                   "dispatch-reuse": 99, "dispatch-fresh": 99}


def _import_trophom(src: str):
    sys.path.insert(0, src)
    import trophom
    import spans
    spans.import_layers()
    where = os.path.realpath(os.path.dirname(trophom.__file__))
    if where != os.path.realpath(os.path.join(src, "trophom")):
        raise SystemExit(f"measured trophom is {where}, not the one in {src}")
    return trophom


def _startup_ms(src: str, host) -> tuple:
    """Median start of a bare interpreter, and the added cost of importing
    trophom.cli, over interleaved samples."""
    env = dict(os.environ, PYTHONPATH=src)
    bare, cli = [], []
    for _ in range(STARTUP_SAMPLES):
        for code, into in (("pass", bare), ("import trophom.cli", cli)):
            host.tick()
            t0 = CLOCK()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            into.append((CLOCK() - t0) * 1e3)
    return statistics.median(bare), statistics.median(cli) - \
        statistics.median(bare)


def _tail(lat_ms: list, pct: float) -> tuple:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(lat_ms)
    value = ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]
    return value, sum(1 for x in ordered if x > value)


def _loop(wl, seconds: float, items, host) -> tuple:
    """Closed loop: ops back to back until `seconds` have passed and a
    whole number of the workload's passes is done.  Inputs are made,
    results digested and the host probed between ops, outside each
    latency."""
    latencies = array.array("d")
    digests = []
    start = CLOCK()
    while CLOCK() - start < seconds or len(latencies) % wl.PASS:
        host.tick()
        item = next(items)
        t0 = CLOCK()
        try:
            result = wl.run(item)
        except Exception as e:  # an op that raises is a failed op
            latencies.append(CLOCK() - t0)
            digests.append(e)
            continue
        latencies.append(CLOCK() - t0)
        digests.append(wl.digest(item, result))
    return latencies, digests


def _check(wl, digests) -> tuple:
    """(reasons ops failed, share of decided instances that were
    satisfiable)."""
    errors = []
    verdicts = []
    for item, digest in zip(wl.again(), digests):
        if isinstance(digest, Exception):
            errors.append(f"raised {type(digest).__name__}: {digest}")
            continue
        try:
            why = wl.check(item, digest)
        except Exception as e:  # a check that cannot read the output
            why = f"check raised {type(e).__name__}: {e}"
        if why:
            errors.append(why)
        verdict = wl.verdict(item, digest)
        if verdict is not None:
            verdicts.append(verdict)
    return errors, sum(verdicts) / max(1, len(verdicts))


def _timed(wl, item) -> float:
    """Seconds one op takes; an op that raises was already counted as
    failed by the measured loop."""
    t0 = CLOCK()
    try:
        wl.run(item)
    except Exception:
        pass
    return CLOCK() - t0


def _traced_replay(wl, count: int, host):
    """Run the same ops twice more, chunk by chunk: once plain, once under
    the tracer, so that host drift hits both alike.  Returns (LayerStats,
    plain busy s, traced busy s)."""
    import spans
    import workloads
    stats = spans.LayerStats()
    tracer = spans.Tracer()
    items = itertools.islice(wl.again(), count)
    plain = traced = 0.0
    cli = isinstance(wl, workloads.ClaimsCli)
    while True:
        chunk = list(itertools.islice(items, 1 if cli else TRACE_BATCH))
        if not chunk:
            break
        host.tick()
        plain += sum(_timed(wl, item) for item in chunk)
        wl.traced = True
        if not cli:
            tracer.install()
        start = CLOCK()
        try:
            traced += sum(_timed(wl, item) for item in chunk)
        finally:
            tracer.uninstall()
            wl.traced = False
        if not cli:
            stats.feed(tracer.dump(CLOCK() - start))
            tracer.clear()
    for path in getattr(wl, "spans_files", ()):
        with open(path, encoding="utf-8") as fh:
            stats.feed(json.load(fh))
    return stats, plain, traced


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    trophom = _import_trophom(args.src)
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    work_dir = None
    try:
        if cls is workloads.ClaimsCli:
            work_dir = os.path.join(ROOT, ".perfbench_work",
                                    f"{args.workload}-{os.getpid()}")
            os.makedirs(work_dir)
            wl = cls(args.seed, work_dir, args.src)
        else:
            wl = cls(trophom, args.seed)
        wl.warm_up()
        items = wl.stream()
        print("ready", flush=True)
        if args.setup_only:
            return
        host = probe.Probe()
        lat, digests = _loop(wl, args.seconds, items, host)
        who = resource.RUSAGE_CHILDREN if work_dir else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        ops, busy = len(lat), sum(lat)
        errors, sat_share = _check(wl, digests)
        del digests
        lat_ms = [x * 1e3 for x in lat]
        pct = TAIL_PERCENTILE[args.workload]
        tail, beyond = _tail(lat_ms, pct)
        result = {
            "attempted": ops,
            "failed": len(errors),
            "errors": errors[:5],
            "metrics": {
                "ops_per_s": ops / busy,
                "op_ms_p50": statistics.median(lat_ms),
                "op_ms_tail": tail,
                "error_rate": len(errors) / ops,
                "peak_rss_mb": peak_rss_mb,
            },
            "sat_share": sat_share,
            "tail": {"percentile": pct, "beyond": beyond, "samples": ops},
            "probe_ms": host.median_ms(),
            "provenance": {
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "trophom": trophom.__file__,
            },
        }
        if args.trace:
            trace_host = probe.Probe()
            interp_ms, import_ms = _startup_ms(args.src, trace_host)
            stats, plain, traced = _traced_replay(wl, ops, trace_host)
            layer = stats.metrics()
            layer["cli.interpreter_ms"] = interp_ms
            layer["cli.import_ms"] = import_ms
            layer["trace.overhead_ratio"] = traced / plain - 1
            result.update({
                "layer_metrics": layer,
                "missing": sorted(stats.missing),
                "trace_problems": stats.problems,
                "trace_probe_ms": trace_host.median_ms(),
            })
        print(json.dumps(result), flush=True)
    finally:
        if work_dir:
            shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
