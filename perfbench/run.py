"""trophom benchmark: four seeded workloads, end-to-end and per-layer metrics.

One run of one workload (the last stdout line is the result JSON):

    python3 perfbench/run.py --workload search-3col --seed 1 --seconds 20 \
        --trace 0

--trace 0 reports the end-to-end metrics: ops_per_s, op_ms_p50,
op_ms_tail, peak_rss_mb and setup_s.  Op timings are scaled for the
host's speed (see probe.py); the raw values are in the provenance line.
error_rate is printed but left out of the JSON metrics, where a value that
is 0 on every correct run cannot serve; the result line carries it as
failed/attempted.  --trace 1 replays the same ops with timing spans around
trophom's public functions and reports the per-layer metrics instead.
Every workload once, as a table:

    python3 perfbench/run.py --all --seed 1 --seconds 20

Parent against change, in alternating pairs with one seed per pair
(each directory holds a trophom checkout with src/trophom):

    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR --pairs 10 \
        [--workload NAME] [--claim METRIC]

Only the standard library is used.  trophom is imported from src/ of the
checkout, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("claims-cli", "search-3col", "dispatch-reuse", "dispatch-fresh")
SETUP_RUNS = 6
DEADLINE_S = 170

# name -> (unit, better)
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_tail": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
PER_LAYER = {
    "cli.interpreter_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "formats.parse_s": ("s", "lower"),
    "formats.parse_vertices_per_s": ("vertex/s", "higher"),
    "formats.serialize_s": ("s", "lower"),
    "gadgets.build_s": ("s", "lower"),
    "gadgets.vertices_built": ("count", "higher"),
    "solver.calls": ("count", "lower"),
    "solver.self_s": ("s", "lower"),
    "solver.nodes": ("count", "lower"),
    "solver.ac_passes": ("count", "lower"),
    "solver.us_per_node": ("us", "lower"),
    "solver.us_per_pass": ("us", "lower"),
    "solver.passes_per_node": ("ratio", "lower"),
    "cores.core_calls": ("count", "lower"),
    "cores.core_s": ("s", "lower"),
    "cores.retract_attempts": ("count", "lower"),
    "cores.retract_hit_ratio": ("ratio", "higher"),
    "poly.dispatch_calls": ("count", "higher"),
    "poly.self_s": ("s", "lower"),
    "poly.plan_s": ("s", "lower"),
    "poly.plan_share": ("ratio", "lower"),
    "poly.strategy_s": ("s", "lower"),
    "poly.target_repeat_share": ("ratio", "higher"),
    "poly.fallback_share": ("ratio", "lower"),
    "poly.route.CoreReduced": ("ratio", "higher"),
    "poly.route.AllForcing": ("ratio", "higher"),
    "poly.route.TwoSat": ("ratio", "higher"),
    "poly.route.UniqueFeature": ("ratio", "higher"),
    "poly.route.SplitColours": ("ratio", "higher"),
    "poly.route.ExactFallback": ("ratio", "lower"),
    "verify.oracle_s": ("s", "lower"),
    "verify.oracle_share": ("ratio", "lower"),
    "verify.checks": ("count", "higher"),
    "verify.checks_failed": ("count", "lower"),
    "graphs.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _spawn_worker(src, workload, seed, seconds, extra, deadline):
    """Start worker.py; return (seconds until it printed ready, stdout
    after that).  Its stderr passes through."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--src", src] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} did not finish in time") from None
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload} worker failed "
                         f"(exit {proc.returncode})")
    return ready, out


def _git(root, *args):
    try:
        return subprocess.run(["git", "-C", root, *args], capture_output=True,
                              text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def measure(root, workload, seed, seconds, trace, deadline=None) -> dict:
    """One run of one workload against root/src: the worker's result plus
    setup_s and provenance.

    setup_s is the median over SETUP_RUNS fresh worker processes, taken
    before and after the measured one so that a slow spell of the host
    does not decide it."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "trophom", "__init__.py")):
        raise BenchError(f"no trophom sources under {src}")
    if deadline is None:
        deadline = time.time() + DEADLINE_S

    def setup_only():
        return _spawn_worker(src, workload, seed, seconds, ["--setup-only"],
                             deadline)[0]

    extra = ["--trace"] if trace else []
    before = 0 if trace else SETUP_RUNS // 2
    setups = [setup_only() for _ in range(before)]
    ready, out = _spawn_worker(src, workload, seed, seconds, extra, deadline)
    setups.append(ready)
    setups += [setup_only() for _ in range(SETUP_RUNS - len(setups))
               if not trace]
    result = json.loads(out.strip().splitlines()[-1])
    raw = dict(result["metrics"], setup_s=statistics.median(setups))
    # setup_s stays as measured: it is mostly process start-up, which the
    # probe did not track.
    result["metrics"] = {
        name: raw[name] if name in ("setup_s", "error_rate") else
        probe.scale(raw[name], END_TO_END[name][0], result["probe_ms"])
        for name in raw}
    if trace:
        layer = result["layer_metrics"]
        for name, (unit, _) in PER_LAYER.items():
            layer[name] = probe.scale(layer.get(name), unit,
                                      result["trace_probe_ms"])
    commit = _git(root, "rev-parse", "HEAD") or "none"
    dirty = bool(_git(root, "status", "--porcelain", "--untracked-files=no"))
    result["provenance"].update({
        "workload": workload, "seed": seed, "seconds": seconds,
        "commit": commit, "dirty": dirty if commit != "none" else None,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "probe_ms": result["probe_ms"], "raw": raw,
        "setup_samples_s": setups})
    return result


def _report(result, trace) -> dict:
    """Print the readable lines for one run and return its result line."""
    prov = result["provenance"]
    print(f"workload {prov['workload']}  seed {prov['seed']}  "
          f"{result['attempted']} ops, {result['failed']} failed")
    table = PER_LAYER if trace else END_TO_END
    source = result["layer_metrics"] if trace else result["metrics"]
    metrics = {}
    for name, (unit, _) in table.items():
        value = source.get(name)
        metrics[name] = {"value": value, "unit": unit}
        shown = "missing" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:<30} {shown}")
    if trace:
        print(f"  missing functions: {', '.join(result['missing']) or 'none'}")
        for problem in result["trace_problems"]:
            print(f"  trace problem: {problem}")
    else:
        tail = result["tail"]
        print(f"  {'error_rate':<30} {result['metrics']['error_rate']:.6g} "
              f"ratio ({result['failed']} of {result['attempted']} ops)")
        print(f"  op_ms_tail is p{tail['percentile']}: {tail['beyond']} of "
              f"{tail['samples']} ops beyond it")
    print(f"  satisfiable share of decided instances: "
          f"{result['sat_share']:.3f}")
    for err in result["errors"]:
        print(f"failed op: {err}", file=sys.stderr)
    print(f"  op timings scaled for host speed; probe took "
          f"{result['probe_ms']:.3f} ms against {probe.NOMINAL_MS} ms")
    print("provenance " + json.dumps(prov))
    return {"correct": result["failed"] == 0 and
            not result.get("trace_problems"),
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def _table(results):
    """Every end-to-end metric of every workload, one row per workload."""
    names = ["ops_per_s", "op_ms_p50", "op_ms_tail", "error_rate",
             "setup_s", "peak_rss_mb"]
    units = [END_TO_END.get(n, ("ratio",))[0] for n in names]
    print(f"{'workload':<16}" + "".join(f"{n:>14}" for n in names))
    print(f"{'':<16}" + "".join(f"{u:>14}" for u in units))
    for workload, res in results.items():
        m = res["metrics"]
        print(f"{workload:<16}" + "".join(f"{m[n]:>14.5g}" for n in names)
              + f"   tail p{res['tail']['percentile']}, "
              f"{res['tail']['beyond']} of {res['tail']['samples']} beyond")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base, change, workloads, pairs, seed, seconds, claim):
    """Alternate parent and change runs; one row per workload and metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"]
                  for m in json.load(fh)["end_to_end"]}
    for workload in workloads:
        runs = {base: [], change: []}
        for i in range(pairs):
            order = (base, change) if i % 2 == 0 else (change, base)
            for side in order:
                res = measure(side, workload, seed + i, seconds, False)
                if res["failed"]:
                    print(f"{workload} on {side}: {res['failed']} failed ops",
                          file=sys.stderr)
                runs[side].append(res["metrics"])
        print(f"\n{workload}  ({pairs} pairs, seeds {seed}.."
              f"{seed + pairs - 1})")
        print(f"  {'metric':<14}{'parent q1/median/q3':>30}"
              f"{'change q1/median/q3':>30}  verdict")
        for name, (unit, better) in END_TO_END.items():
            b = [m[name] for m in runs[base]]
            c = [m[name] for m in runs[change]]
            bq, cq = _quartiles(b), _quartiles(c)
            sign = 1 if better == "lower" else -1
            worse = sign * (cq[1] - bq[1]) / bq[1]
            spread = max((q[2] - q[0]) / q[1] for q in (bq, cq))
            all_better = all(sign * (y - x) < 0 for x in b for y in c)
            if spread > bounds[name] and not all_better:
                verdict = f"unresolved (spread {spread:.1%})"
            elif worse > bounds[name]:
                verdict = f"WORSE by {worse:.1%}"
            else:
                verdict = (f"ok, {'worse' if worse > 0 else 'better'} "
                           f"by {abs(worse):.1%}")
            if name == claim:
                won = sum(1 for x, y in zip(b, c) if sign * (y - x) < 0)
                verdict += f"; change won {won} of {pairs} pairs"
            print(f"  {name:<14}{_fmt(bq, unit):>30}{_fmt(cq, unit):>30}  "
                  f"{verdict}")


def _fmt(q, unit):
    return f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g} {unit}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload once and print a table")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--claim", choices=tuple(END_TO_END))
    args = ap.parse_args(argv)
    try:
        if args.compare:
            workloads = [args.workload] if args.workload else WORKLOADS
            compare(*(os.path.abspath(d) for d in args.compare), workloads,
                    args.pairs, args.seed, args.seconds, args.claim)
        elif args.all:
            results = {w: measure(ROOT, w, args.seed, args.seconds, False)
                       for w in WORKLOADS}
            lines = {w: _report(r, False) for w, r in results.items()}
            _table(results)
            print(json.dumps(lines))
        elif args.workload:
            res = measure(ROOT, args.workload, args.seed, args.seconds,
                          bool(args.trace))
            print(json.dumps(_report(res, bool(args.trace))))
        else:
            ap.error("give --workload, --all or --compare")
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
