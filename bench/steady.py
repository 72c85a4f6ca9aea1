"""Steadiness and tracing-overhead report for one workload.

    python3 bench/steady.py --workload oracle-check --seeds 1-10 [--traced 2]

Runs bench/run.py once per seed (one process at a time), then prints each
end-to-end metric's median, quartiles and spread, the spread being the
interquartile range as a share of the median.  Each spread is checked
against the metric's bound in BENCHMARK.json: it must stay within the
bound, and within a third of it to count as steady (setup_s is exempt from
the spread check, as in the acceptance rule).  With --traced N it also makes
N traced runs and reports the tracing overhead: the traced run's median
operation latency minus the untraced one, and the span bookkeeping cost the
traced run measures itself.  The last line is a JSON summary, with the
median of each per-layer metric over the traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: wrong answer")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for line in lines:
        if line.startswith("run "):
            values["run"] = json.loads(line[len("run "):])
    return values


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--traced", type=int, default=0, help="traced runs to make")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = _seeds(args.seeds)

    runs = []
    for seed in seeds:
        runs.append(_run(args.workload, seed, seconds, 0))
        print(f"seed {seed}: " + "  ".join(f"{k} {v:.5g}" for k, v in runs[-1].items()
                                           if k != "run"), flush=True)
    summary = {"workload": args.workload, "seeds": seeds, "metrics": {}}
    steady = True
    print(f"{args.workload}: {len(runs)} runs of {seconds} s")
    print(f"{'metric':<22}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}  verdict"
          "  (unscaled spread)")
    for m in spec["end_to_end"]:
        s = summarize([r[m["name"]] for r in runs])
        s["unscaled_spread"] = summarize([r["run"]["unscaled"][m["name"]] for r in runs])["spread"]
        if m["name"] == "setup_s":
            verdict = "exempt"
        elif s["spread"] > m["bound"]:
            verdict, steady = "OVER BOUND", False
        elif s["spread"] > m["bound"] / 3:
            verdict, steady = "over bound/3", False
        else:
            verdict = "steady"
        summary["metrics"][m["name"]] = s
        print(f"{m['name']:<22}{s['median']:>12.5g}{s['q1']:>12.5g}{s['q3']:>12.5g}"
              f"{s['spread']:>9.4f}{m['bound']:>7}  {verdict}  ({s['unscaled_spread']:.4f})")

    cal = summarize([r["run"]["calibration_ms"] for r in runs])
    summary["calibration_ms"] = cal
    summary["calibrations_per_run"] = statistics.median(r["run"]["calibrations"] for r in runs)
    print(f"calibration job: median {cal['median']:.4f} ms, spread {cal['spread']:.4f}, "
          f"{summary['calibrations_per_run']:g} timings a run")

    if args.traced:
        traced = [_run(args.workload, s, seconds, 1) for s in seeds[: args.traced]]
        op = statistics.median(t["trace.op_ms_p50"] for t in traced)
        base = summary["metrics"]["latency_ms_p50"]["median"]
        spans = statistics.median(t["trace.overhead_ms"] for t in traced)
        summary["tracing_overhead"] = {"traced_minus_untraced_p50_ms": op - base,
                                       "span_bookkeeping_ms_per_op": spans}
        summary["per_layer_median"] = {
            m["name"]: statistics.median(t[m["name"]] for t in traced) for m in spec["per_layer"]}
        print(f"tracing overhead: traced p50 {op:.4f} ms - untraced p50 {base:.4f} ms = "
              f"{op - base:+.4f} ms ({(op - base) / base:+.1%}); "
              f"span bookkeeping {spans:.4f} ms per op")
    summary["steady"] = steady
    print(json.dumps(summary))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
