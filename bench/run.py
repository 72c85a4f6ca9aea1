"""fareybridge benchmark: one seeded workload, every metric by name and unit.

    python3 bench/run.py --workload distance-long --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 gives the end-to-end metrics
listed in BENCHMARK.json, --trace 1 the per-layer ones.  See
bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))
import corpus  # noqa: E402
import worker  # noqa: E402

SETUP_SAMPLES = 9  # fresh set-up-only processes
CLI_PROCESSES = 9  # fresh CLI processes, each paired with a reference process
HELD_OUT_SEED = 424242  # never used while tuning; re-check claims on it
CHILD_TIMEOUT_S = 150
# Mean time of worker.calibrate() on the 2-vCPU machine the bounds were set
# on.  Times taken inside a worker are reported at this speed.
CALIBRATION_NOMINAL_MS = 2.0
# Median wall time of a fresh reference worker on that machine while
# calibrate() took CALIBRATION_NOMINAL_MS.  Fresh CLI processes are reported
# at this speed.
REFERENCE_NOMINAL_MS = 105.0
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("FAREY_", "PYTHON"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_worker(spec: dict) -> dict:
    """Result of one fresh worker process; a wrong answer raises Wrong."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")],
        input=json.dumps(spec) + "\n", capture_output=True, text=True,
        env=_child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout)
    if "wrong" in result:
        raise worker.Wrong(result["wrong"])
    return result


def _cli_import_ms(stderr: str) -> float:
    """Cumulative import time of the package and its CLI, from -X importtime."""
    total = 0
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            _, cumulative, name = line[len("import time:"):].split("|")
            if name.strip() in ("fareybridge", "fareybridge.cli"):
                total += int(cumulative)
    return total / 1e3


def _cli_sample(it: dict, trace: bool) -> tuple[float, float | None, float]:
    """Wall ms of one fresh `python -m fareybridge` answering `it`, answer
    checked, and its import time from -X importtime when tracing, both
    divided by how much slower than nominal a fresh reference worker,
    timed right before, ran; then the wall ms unscaled."""
    t0 = time.perf_counter()
    _run_worker({"mode": "reference"})
    slow = (time.perf_counter() - t0) * 1e3 / REFERENCE_NOMINAL_MS
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + ["-m", "fareybridge"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + it["argv"], capture_output=True, text=True,
                          env=_child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    wall = (time.perf_counter() - t0) * 1e3
    err, imported = proc.stderr, None
    if trace:
        imported = _cli_import_ms(err) / slow
        err = "\n".join(l for l in err.splitlines() if not l.startswith("import time:"))
    worker.check_cli_output(it, proc.returncode, proc.stdout, err)
    return wall / slow, imported, wall


def _provenance(args) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    return {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0], "commit": commit,
    }


def _end_to_end(res, setup, cli_wall, slow) -> dict:
    """Loop times divided by `slow`, how much slower than nominal the
    calibration ran; set-up and CLI-process times come scaled already."""
    return {
        "ops_per_s": (res["ops_per_s"] * slow, "1/s"),
        "latency_ms_p50": (res["p50_ms"] / slow, "ms"),
        "latency_ms_p90": (res["p90_ms"] / slow, "ms"),
        "ok_frac": ((res["attempted"] - res["failed"]) / res["attempted"], "ratio"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "cli_process_ms_p50": (statistics.median(cli_wall), "ms"),
    }


def _per_layer(res, cli_imports, slow) -> dict:
    """Per-layer metrics; times taken in the worker divided by `slow`."""
    ops = res["attempted"]
    totals, counts = res["totals"], res["counts"]
    out = {}
    for name, unit in PER_LAYER:
        if name.endswith((".busy_ms", ".self_ms")):
            key = name.rsplit(".", 1)[0] + (".self" if name.endswith(".self_ms") else "")
            out[name] = (totals.get(key, 0.0) * 1e3 / ops / slow, unit)
        elif name == "rationals.cf_max_entry":
            out[name] = (counts.get(name, 0), unit)
        elif unit == "count" and not name.startswith("ops."):
            out[name] = (counts.get(name, 0) / ops, unit)
    outcomes = dict(res["outcomes"])
    for p in res["probes"]:
        outcomes[p["outcome"]] = outcomes.get(p["outcome"], 0) + 1
    attempted = sum(outcomes.values())
    for kind in ("ok", "resource_limit", "untyped_error", "bad_exit", "wrong"):
        out["ops." + kind] = (outcomes.get(kind, 0), "count")
    out["fail_frac"] = ((attempted - outcomes.get("ok", 0)) / attempted, "ratio")
    out["cli.import.ms"] = (statistics.median(cli_imports), "ms")
    out["trace.op_ms_p50"] = (res["p50_ms"] / slow, "ms")
    out["trace.overhead_ms"] = (res["span_cost_s"] * res["outer_spans"] / ops * 1e3 / slow, "ms")
    return {name: out[name] for name, _ in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fareybridge" / "__init__.py").is_file():
        print(f"fareybridge sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    print("provenance " + json.dumps(_provenance(args)), flush=True)
    spec = {"workload": args.workload, "seed": args.seed}
    cli_op = corpus.cli_process_op(args.workload)
    try:
        res = _run_worker({**spec, "mode": "run", "trace": bool(args.trace),
                           "seconds": args.seconds})
        # One process at a time: the fresh set-up and CLI processes run
        # after the measuring worker has exited.  Each set-up time is
        # divided by how much slower than nominal the calibration job ran
        # in the same process right after it.
        setup, raw_setup = [], []
        for _ in range(SETUP_SAMPLES if not args.trace else 0):
            r = _run_worker({**spec, "mode": "setup"})
            setup.append(r["setup_s"] * CALIBRATION_NOMINAL_MS / r["calibration_ms"])
            raw_setup.append(r["setup_s"])
        cli_wall, cli_imports, raw_cli = zip(*(_cli_sample(cli_op, bool(args.trace))
                                               for _ in range(CLI_PROCESSES)))
    except worker.Wrong as e:
        print(f"WRONG ANSWER: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1

    print(f"{res['passes']} passes, {res['loop_s']:.1f} s in the loop; "
          f"{res['attempted']} attempted, {res['failed']} failed")
    for p in res["probes"]:
        print(f"known defect {p['probe']}: {p['outcome']}")
    slow = res["calibration_ms"] / CALIBRATION_NOMINAL_MS
    run = {"passes": res["passes"], "loop_s": res["loop_s"],
           "calibration_ms": res["calibration_ms"], "calibrations": res["calibrations"],
           "slow": slow}
    if args.trace:
        metrics = _per_layer(res, cli_imports, slow)
    else:
        unscaled = _end_to_end(res, raw_setup, raw_cli, 1.0)
        run["unscaled"] = {k: v for k, (v, _) in unscaled.items()}
        metrics = _end_to_end(res, setup, cli_wall, slow)
    print("run " + json.dumps(run))
    print(json.dumps({
        "correct": True, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
