"""One fresh, single-threaded process running one workload.

Reads a one-line JSON spec on stdin and writes one JSON result line on
stdout.

mode "reference": time the calibration job a few times and exit, without
touching the program; run.py times this whole process as a reference for
fresh CLI processes.  mode "setup": import the workload's modules, run the
warm-up, report the time taken and then the calibration job's time, exit.
mode "run": the same set-up, then a closed loop with one
caller over whole passes until the time is up, then one attempt at each
known-defect probe.  Each pass is generated from the seed before it starts
and each answer is checked after its operation, both outside the timed
region.  With "trace" set, each operation is split into spans around the
calls the benchmark makes into fareybridge's public functions, and the
calls that the outer call contains are repeated on the same input so that
the outer call's self time can be reported.
"""

from __future__ import annotations

import importlib
import gc
import io
import json
import random
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from xml.etree import ElementTree

import corpus
import reference as R

perf = time.perf_counter

fb = cli = oracle = errors = None  # bound by _load(); imported inside set-up


def _load(workload: str) -> None:
    global fb, cli, oracle, errors
    fb = importlib.import_module("fareybridge")
    if workload != "distance-long":
        cli = importlib.import_module("fareybridge.cli")
        oracle = importlib.import_module("fareybridge.oracle")
    errors = importlib.import_module("fareybridge.errors")


class Wrong(Exception):
    """A wrong answer; it fails the whole run."""


# ---------------------------------------------------------------- tracing

_NULL = nullcontext()


def _no_span(name):
    return _NULL


class _Span:
    __slots__ = ("durations", "name", "t0")

    def __init__(self, durations, name):
        self.durations = durations
        self.name = name

    def __enter__(self):
        self.t0 = perf()

    def __exit__(self, *exc):
        dt = perf() - self.t0
        d = self.durations
        d[self.name] = d.get(self.name, 0.0) + dt


class Tracer:
    """Spans of one operation share a dict; totals are folded in per op."""

    def __init__(self):
        self.durations: dict[str, float] = {}
        self.totals: dict[str, float] = defaultdict(float)
        self.spans = 0

    def span(self, name):
        self.spans += 1
        return _Span(self.durations, name)

    def fold(self, selfs) -> None:
        """Add this op's spans to the totals; selfs lists (outer, inner
        names): outer's self time is its duration minus the inner ones."""
        d = self.durations
        for outer, inner in selfs:
            if outer in d:
                self.totals[outer + ".self"] += d[outer] - sum(d.get(n, 0.0) for n in inner)
        for name, dt in d.items():
            self.totals[name] += dt
        d.clear()

    def span_cost(self, n: int = 20000) -> float:
        """Seconds one empty span costs, measured on a scratch dict."""
        scratch = Tracer()
        t0 = perf()
        for _ in range(n):
            with scratch.span("x"):
                pass
        return (perf() - t0) / n


# ---------------------------------------------------------------- helpers


def _pairs(path_objs):
    return [tuple((v.p, v.q) for v in p.vertices) for p in path_objs]


def _check_geodesic_set(gs, it, x, y):
    if gs.length != it["d"]:
        raise Wrong(f"length {gs.length}, reference {it['d']}")
    problem = R.check_paths(_pairs(gs.paths), x, y, it["d"], it["n"])
    if problem:
        raise Wrong(problem)


def _check_doc_paths(doc_paths, want_paths):
    if doc_paths != [[R.fmt(v) for v in p] for p in want_paths]:
        raise Wrong("serialized paths differ from the returned ones")


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------- library ops
# Each op is (run, check, inner).  run(it, span) is the timed operation;
# check(it, result) raises Wrong; inner(it, result, span, counts) repeats the
# contained public calls on the same input (traced runs only) and returns the
# (outer, inner names) pairs for self time.


def _parse_pair(it, span):
    with span("rationals.parse_slope"):
        x = fb.parse_slope(it["x"])
        y = fb.parse_slope(it["y"])
    return x, y


def _inner_cf(x, y, span, counts):
    with span("rationals.normalize_pair"):
        _, image = fb.normalize_pair(x, y)
    with span("rationals.cf_expand"):
        cf = fb.cf_expand(image)
    if counts is not None:
        counts["rationals.cf_entries"] += len(cf)
        counts["rationals.cf_max_entry"] = max(counts["rationals.cf_max_entry"], max(cf.entries))


def _inner_ladder(x, y, span, counts, edges=False):
    _inner_cf(x, y, span, counts)
    with span("farey.ladder"):
        lad = fb.ladder(x, y)
    if edges:
        with span("farey.edges"):
            lad.edges()
    if counts is not None:
        counts["farey.ladder.triangles"] += lad.triangle_count
        counts["farey.ladder.vertices"] += len(lad.vertices())
    return lad


def run_distance(it, span):
    x, y = _parse_pair(it, span)
    with span("farey.distance"):
        return fb.distance(x, y)


def check_distance(it, d):
    if d != it["d"]:
        raise Wrong(f"distance({it['x']}, {it['y']}) = {d}, reference {it['d']}")


def inner_distance(it, d, span, counts):
    x, y = fb.parse_slope(it["x"]), fb.parse_slope(it["y"])
    _inner_ladder(x, y, span, counts, edges=True)
    return [("farey.distance", ("farey.ladder",))]


def run_geodesics(it, span):
    x, y = _parse_pair(it, span)
    with span("farey.all_geodesics"):
        gs = fb.all_geodesics(x, y)
    with span("cli.serialize"):
        text = _dumps(cli.geodesic_set_to_jsonable(gs))
    return gs, text


def check_geodesics(it, result):
    gs, text = result
    _check_geodesic_set(gs, it, R.parse(it["x"]), R.parse(it["y"]))
    doc = json.loads(text)
    if (doc["distance"], doc["count"], doc["unique"]) != (it["d"], it["n"], it["n"] == 1):
        raise Wrong(f"serialized geodesic set disagrees: {text[:120]}")
    _check_doc_paths(doc["geodesics"], _pairs(gs.paths))


def _inner_geodesic_set(gs, span, counts, text):
    with span("farey.validate"):
        fb.GeodesicSet(gs.source, gs.target, gs.length,
                       tuple(fb.FareyPath(p.vertices) for p in gs.paths))
    if counts is not None:
        counts["farey.geodesics.counted"] += len(gs.paths)
        counts["farey.geodesics.path_vertices"] += sum(len(p.vertices) for p in gs.paths)
        counts["cli.json_bytes"] += len(text)


def inner_geodesics(it, result, span, counts):
    gs, text = result
    _inner_ladder(gs.source, gs.target, span, counts)
    _inner_geodesic_set(gs, span, counts, text)
    return [("farey.all_geodesics", ("farey.ladder",))]


def _run_classify(it, span, include):
    link = fb.TwoBridgeLink(it["q"], it["p"])
    with span("bridge.classify_02"):
        rep = fb.classify_02(link, include_geodesics=include)
    with span("cli.serialize"):
        text = _dumps(cli.report_to_jsonable(rep))
    return rep, text


def run_classify(it, span):
    return _run_classify(it, span, True)


def run_classify_nogeo(it, span):
    return _run_classify(it, span, False)


def check_classify(it, result):
    rep, text = result
    want = (it["d"], True, it["n"] == 1)
    if (rep.distance, rep.keen, rep.strongly_keen) != want:
        raise Wrong(f"classify_02 S({it['q']},{it['p']}): {rep}, reference {want}")
    doc = json.loads(text)
    if (doc["distance"], doc["keen"], doc["strongly_keen"]) != want:
        raise Wrong(f"serialized report disagrees: {text[:120]}")
    if it["op"] == "classify-nogeo":
        if rep.geodesics is not None or "geodesics" in doc:
            raise Wrong("geodesics returned although include_geodesics=False")
        return
    _check_geodesic_set(rep.geodesics, it, R.INF, (it["p"], it["q"]))
    _check_doc_paths(doc["geodesics"], _pairs(rep.geodesics.paths))


def inner_classify(it, result, span, counts):
    rep, text = result
    slope = fb.TwoBridgeLink(it["q"], it["p"]).slope
    with span("farey.all_geodesics"):
        gs = fb.all_geodesics(fb.INFINITY, slope)
    _inner_ladder(fb.INFINITY, slope, span, counts)
    if rep.geodesics is not None:
        _inner_geodesic_set(rep.geodesics, span, counts, text)
    elif counts is not None:
        counts["cli.json_bytes"] += len(text)
    return [("bridge.classify_02", ("farey.all_geodesics",)),
            ("farey.all_geodesics", ("farey.ladder",))]


def run_unique(it, span):
    x, y = _parse_pair(it, span)
    with span("farey.is_unique_geodesic"):
        return fb.is_unique_geodesic(x, y)


def check_unique(it, u):
    if u is not (it["n"] == 1):
        raise Wrong(f"is_unique_geodesic({it['x']}, {it['y']}) = {u}, reference count {it['n']}")


def inner_unique(it, u, span, counts):
    _inner_cf(fb.parse_slope(it["x"]), fb.parse_slope(it["y"]), span, counts)
    return []


# ---------------------------------------------------------------- CLI ops


@contextmanager
def _cold_oracle():
    """Empty the oracle's shared subgraph cache for the duration, then put it
    back as it was: a repeated inner call then costs what the first call
    did, and the outer calls see the cache the untraced run would."""
    cache = getattr(oracle, "_SUBGRAPHS", None)
    if cache is None:
        yield
        return
    saved = cache.copy()
    cache.clear()
    try:
        yield
    finally:
        cache.clear()
        cache.update(saved)


def _tamper(doc):
    """One-path copy of a geodesics document with an interior vertex
    dropped: vertices two steps apart on a geodesic are never adjacent, so
    the boundary check must reject it."""
    path = doc["geodesics"][0]
    bad = dict(doc, geodesics=[path[:1] + path[2:]], count=1)
    if "distance" in bad and "x" in bad:
        bad["distance"] = len(path) - 2
    return bad


def run_cli(it, span):
    out, err = io.StringIO(), io.StringIO()
    with span("cli.run"):
        code = cli.run(it["argv"], out=out, err=err)
    text = out.getvalue()
    back = rejected = None
    want = it["want"]
    if code == 0 and want.get("json") and want["cmd"] in ("geodesics", "classify-2bridge"):
        reader = (cli.geodesic_set_from_jsonable if want["cmd"] == "geodesics"
                  else cli.report_from_jsonable)
        with span("cli.deserialize"):
            doc = json.loads(text)
            back = reader(doc)
        if want["d"] >= 2:
            bad = _tamper(doc)
            with span("cli.deserialize"):
                try:
                    reader(bad)
                    rejected = False
                except errors.DomainError:
                    rejected = True
    return code, text, err.getvalue(), back, rejected


def _fields(text):
    """Text output as ({first word: rest of line}, [paths])."""
    fields, paths = {}, []
    for line in text.splitlines():
        if " -> " in line and not line.startswith("ladder "):
            paths.append(tuple(R.parse(s) for s in line.split(" -> ")))
        else:
            key, _, value = line.partition(" ")
            fields.setdefault(key, value.strip())
    return fields, paths


def _expect(got, want, what):
    if got != want:
        raise Wrong(f"{what}: got {got!r}, reference {want!r}")


def check_cli_output(it, code, out, err):
    """Exit code, stderr and stdout of one CLI call against the reference."""
    want = it["want"]
    if "Traceback" in err:
        raise Wrong(f"traceback on stderr for {it['argv']}")
    _expect(code, it["exit"], f"exit code of {it['argv']}")
    if code != 0:
        prefix = {64: "usage error:", 2: "resource limit:"}.get(code, "error:")
        if out or not err.startswith(prefix):
            raise Wrong(f"{it['argv']} exited {code} with stdout {out[:60]!r}, stderr {err[:60]!r}")
        return
    if err:
        raise Wrong(f"stderr on success for {it['argv']}: {err[:80]!r}")
    cmd, js = want["cmd"], want.get("json")
    if js:
        doc = json.loads(out)
        _expect(doc["v"], 1, "schema version")
    else:
        doc, paths = _fields(out)
    if cmd == "cf":
        got = doc["cf"] if js else [int(a) for a in out.strip()[1:-1].split(",") if a]
        _expect(got, want["cf"], "cf")
    elif cmd == "eval":
        _expect(doc["slope"] if js else out.strip(), want["slope"], "eval")
    elif cmd == "distance":
        _expect(doc["distance"] if js else int(out), want["d"], "distance")
    elif cmd in ("geodesics", "classify-2bridge"):
        x = R.INF if cmd == "classify-2bridge" else R.parse(want["x"])
        y = R.parse(want["slope"] if cmd == "classify-2bridge" else want["y"])
        if js:
            paths = [tuple(R.parse(s) for s in p) for p in doc["geodesics"]]
        d = int(doc["distance"])
        _expect(d, want["d"], "distance")
        if cmd == "geodesics":
            unique = doc["unique"] if js else doc["unique"] == "true"
            _expect(unique, want["n"] == 1, "unique")
        else:
            _expect(doc["slope"], want["slope"], "slope")
            _expect(int(doc["components"]), want["components"], "components")
            sk = doc["strongly_keen"] if js else doc["strongly_keen"] == "true"
            _expect(sk, want["n"] == 1, "strongly_keen")
        problem = R.check_paths(paths, x, y, want["d"], want["n"])
        if problem:
            raise Wrong(f"{it['argv']}: {problem}")
    elif cmd == "ladder":
        _check_ladder_output(want, out, doc)
    elif cmd == "classify-03":
        _expect(int(doc["distance"]), want["d"], "distance")
        _expect(doc["case"], want["case"], "case")
    elif cmd == "gen-keen":
        if js:
            got = (doc["link"], doc["slope"], doc["distance"])
        else:
            words = out.split()
            got = (words[0], words[2], int(words[4]))
        _expect(got, (want["link"], want["slope"], want["d"]), "gen-keen")


def _check_ladder_output(want, out, doc):
    type_text = "(" + ",".join(map(str, want["type"])) + ")"
    if want["render"] == "svg":
        root = ElementTree.fromstring(out)
        ns = "{http://www.w3.org/2000/svg}"
        _expect(len(root.findall(ns + "polygon")), want["triangles"], "svg triangles")
        _expect(len(root.findall(ns + "circle")), len(want["type"]), "svg pivots")
    elif want["render"] == "ascii":
        head = out.splitlines()[0].split()
        _expect((head[5], int(head[6])), (type_text, want["triangles"]), "ascii header")
        runs = [line for line in out.splitlines() if line.startswith("run ")]
        _expect(len(runs), len(want["type"]), "ascii runs")
    elif want["json"]:
        _expect((doc["type"], doc["triangles"], len(doc["pivots"])),
                (want["type"], want["triangles"], len(want["type"])), "ladder")
    else:
        _expect((doc["type"], int(doc["triangles"]), len(doc["pivots"].split())),
                (type_text, want["triangles"], len(want["type"])), "ladder")


def check_cli(it, result):
    code, out, err, back, rejected = result
    check_cli_output(it, code, out, err)
    if back is not None:
        gs = back if it["want"]["cmd"] == "geodesics" else back.geodesics
        _expect(_pairs(gs.paths), [tuple(R.parse(s) for s in p)
                                   for p in json.loads(out)["geodesics"]], "read-back paths")
    if rejected is False:
        raise Wrong(f"a path with a non-edge was read back without error: {it['argv']}")


def inner_cli(it, result, span, counts):
    """Repeat the library calls `cli.run` makes for this argv."""
    want = it["want"]
    if result[0] != 0:
        return [("cli.run", ())]
    cmd, argv = want["cmd"], it["argv"]
    inner = ["rationals.parse_slope"]
    selfs = []
    slopes = [a for a in argv if "/" in a and cmd in ("cf", "distance", "geodesics", "ladder")]
    with span("rationals.parse_slope"):
        parsed = [fb.parse_slope(s) for s in slopes]
    if cmd == "cf":
        with span("rationals.cf_expand"):
            fb.cf_expand(parsed[0])
        inner.append("rationals.cf_expand")
    elif cmd == "eval":
        with span("rationals.cf_eval"):
            fb.cf_eval([int(a) for a in argv[-1].split(",")])
        inner.append("rationals.cf_eval")
    elif cmd == "distance":
        with span("farey.distance"):
            fb.distance(*parsed)
        inner.append("farey.distance")
        selfs.append(("farey.distance", ("farey.ladder",)))
    elif cmd == "geodesics":
        with span("farey.all_geodesics"):
            gs = fb.all_geodesics(*parsed)
        inner.append("farey.all_geodesics")
        if want["json"]:
            with span("cli.serialize"):
                text = _dumps(cli.geodesic_set_to_jsonable(gs))
            inner.append("cli.serialize")
            if counts is not None:
                counts["cli.json_bytes"] += len(text)
        selfs.append(("farey.all_geodesics", ("farey.ladder",)))
    elif cmd == "ladder":
        inner.append("farey.ladder")
        lad = _inner_ladder(*parsed, span, counts)
        if want["render"]:
            name = "render." + want["render"]
            fn = cli.render.render_svg if want["render"] == "svg" else cli.render.render_ascii
            with span(name):
                drawing = fn(lad)
            inner.append(name)
            if counts is not None and want["render"] == "svg":
                counts["render.svg_bytes"] += len(drawing)
        else:
            with span("farey.spine"):
                fb.spine(lad)
            inner.append("farey.spine")
    elif cmd == "classify-2bridge":
        link = fb.TwoBridgeLink(int(argv[-2]), int(argv[-1]))
        parsed = [fb.INFINITY, link.slope]
        with span("bridge.classify_02"):
            rep = fb.classify_02(link)
        inner.append("bridge.classify_02")
        if want["json"]:
            with span("cli.serialize"):
                text = _dumps(cli.report_to_jsonable(rep))
            inner.append("cli.serialize")
            if counts is not None:
                counts["cli.json_bytes"] += len(text)
        with span("farey.all_geodesics"):
            fb.all_geodesics(*parsed)
        selfs += [("bridge.classify_02", ("farey.all_geodesics",)),
                  ("farey.all_geodesics", ("farey.ladder",))]
    elif cmd == "classify-03":
        with span("bridge.classify_03"):
            fb.classify_03(fb.CompositeLink(tuple(
                fb.TwoBridgeLink(*map(int, s.split("/"))) for s in argv if "/" in s)))
        inner.append("bridge.classify_03")
    elif cmd == "gen-keen":
        n = int(argv[argv.index("gen-keen") + 1])
        entries = ([int(a) for a in argv[-1].split(",")] if "--entries" in argv else None)
        with span("bridge.make_strongly_keen_example"):
            fb.make_strongly_keen_example(n, entries)
        inner.append("bridge.make_strongly_keen_example")
    if cmd in ("distance", "geodesics", "classify-2bridge"):
        _inner_ladder(*parsed, span, counts, edges=cmd == "distance")
    if "--oracle" in argv and cmd in ("distance", "geodesics", "classify-2bridge"):
        x, y = parsed
        with span("oracle.bound_ladder"):
            bound = max(1, *(max(abs(v.p), v.q) for v in fb.ladder(x, y).vertices()))
        fn = oracle.bounded_distance if cmd == "distance" else oracle.bruteforce_geodesics
        name = "oracle." + fn.__name__
        with nullcontext() if it.get("repeat") else _cold_oracle():
            with span(name):
                fn(x, y, bound)
        inner += ["oracle.bound_ladder", name]
        if counts is not None:
            counts["oracle.bound"] += bound
            counts["oracle.box_vertices"] += R.box_vertices(bound)
    return [("cli.run", tuple(inner))] + selfs


OPS = {
    "distance": (run_distance, check_distance, inner_distance),
    "geodesics": (run_geodesics, check_geodesics, inner_geodesics),
    "classify": (run_classify, check_classify, inner_classify),
    "classify-nogeo": (run_classify_nogeo, check_classify, inner_classify),
    "unique": (run_unique, check_unique, inner_unique),
    "cli": (run_cli, check_cli, inner_cli),
}


# ---------------------------------------------------------------- the loop


def classify_outcome(it, exc, result) -> str:
    """ok, resource_limit, untyped_error or bad_exit for one attempt."""
    if exc is not None:
        return "resource_limit" if isinstance(exc, errors.ResourceLimit) else "untyped_error"
    if it["op"] == "cli" and result[0] != it["exit"]:
        return "resource_limit" if result[0] == 2 else "bad_exit"
    return "ok"


def attempt(it, span):
    """(latency s, outcome, result); raises Wrong on a wrong answer."""
    run, check, _ = OPS[it["op"]]
    exc = result = None
    t0 = perf()
    try:
        result = run(it, span)
    except Exception as e:  # every failure is counted, none stops the run
        exc = e
    dt = perf() - t0
    outcome = classify_outcome(it, exc, result)
    if outcome == "ok":
        check(it, result)
    return dt, outcome, result


def percentile(ranked, q):
    """Nearest-rank percentile of sorted (failed, seconds) samples: every
    failure ranks above every success."""
    return ranked[max(0, -(-len(ranked) * q // 100) - 1)][1]


CALIBRATION_EVERY_S = 0.25
SETUP_CALIBRATIONS = 5
REFERENCE_CALIBRATIONS = 10
_CAL_M = R.random_unimodular(random.Random("calibration"), 24)
_CAL_PAIR = (R.apply(_CAL_M, R.INF), R.apply(_CAL_M, R.evaluate([3, 1, 2, 4] * 30)))


def _calibration_job() -> None:
    R.ladder_vertices(*_CAL_PAIR)
    seen = {}
    for p in range(-40, 41):
        for q in range(1, 41):
            seen.setdefault(R.canonical(p, q), len(seen))


def calibrate() -> float:
    """Seconds of a fixed pure-Python job that shares no code with the
    program: big-integer Möbius maps, tuple sets, gcds and a dict.  It runs
    in this process between operations, with the cyclic collector off so
    that the program's heap cannot slow it.  It runs once untimed first,
    because the operation before it leaves the CPU caches in a state of its
    own: a first run right after an --oracle query took 4-5 % longer than
    a second one."""
    gc.disable()
    try:
        _calibration_job()
        t0 = perf()
        _calibration_job()
        return perf() - t0
    finally:
        gc.enable()


def timed_loop(passes, seconds, tracer):
    """Whole passes until `seconds` of loop time (calibrations excluded),
    calibrating every CALIBRATION_EVERY_S.

    Returns every attempt as (failed, seconds), outcome and count tallies,
    the mean calibration, and totals.  The mean, not the median: the
    machine's speed flips between fast and slow spells within milliseconds,
    and an operation that takes tens of milliseconds pays for the slow ones
    in proportion to their share of the time."""
    span = tracer.span if tracer else _no_span
    samples = []
    outcomes = defaultdict(int)
    counts = defaultdict(int)
    outer_spans = n_passes = 0
    clock = 0.0
    cal = [calibrate()]
    last_cal = perf()
    for ops in passes:
        t_pass = perf()
        cal_in_pass = 0.0
        for it in ops:
            before = tracer.spans if tracer else 0
            dt, outcome, result = attempt(it, span)
            samples.append((outcome != "ok", dt))
            outcomes[outcome] += 1
            if tracer:
                outer_spans += tracer.spans - before
                selfs = []
                if outcome == "ok":
                    selfs = OPS[it["op"]][2](it, result, span, counts)
                tracer.fold(selfs)
            if perf() - last_cal >= CALIBRATION_EVERY_S:
                t_cal = perf()
                cal.append(calibrate())
                last_cal = perf()
                cal_in_pass += last_cal - t_cal
        clock += perf() - t_pass - cal_in_pass
        n_passes += 1
        if clock >= seconds:
            break
    return {
        "samples": samples, "outcomes": outcomes, "counts": counts,
        "passes": n_passes, "loop_s": clock, "outer_spans": outer_spans,
        "calibration_ms": statistics.mean(cal) * 1e3, "calibrations": len(cal),
    }


def run_probes(probes):
    out = []
    for it in probes:
        _, outcome, _ = attempt(it, _no_span)
        out.append({"probe": it["probe"], "outcome": outcome})
    return out


def _calibration_ms(n: int) -> float:
    return statistics.mean(calibrate() for _ in range(n)) * 1e3


def measure(spec: dict) -> dict:
    if spec["mode"] == "reference":
        return {"calibration_ms": _calibration_ms(REFERENCE_CALIBRATIONS)}
    workload = spec["workload"]
    warmup = corpus.warmup(workload)
    t0 = perf()
    _load(workload)
    for it in warmup:
        _, outcome, _ = attempt(it, _no_span)
        if outcome != "ok":
            raise SystemExit(f"warm-up operation failed ({outcome}): {it}")
    result = {"setup_s": perf() - t0}
    if spec["mode"] == "setup":
        result["calibration_ms"] = _calibration_ms(SETUP_CALIBRATIONS)
    if spec["mode"] == "run":
        tracer = Tracer() if spec["trace"] else None
        loop = timed_loop(corpus.passes(workload, spec["seed"]), spec["seconds"], tracer)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        loop["probes"] = run_probes(corpus.probes(workload, spec["seed"]))
        ranked = sorted(loop.pop("samples"))
        failed = sum(bad for bad, _ in ranked)
        result.update(
            loop, attempted=len(ranked), failed=failed,
            ops_per_s=(len(ranked) - failed) / sum(dt for _, dt in ranked),
            p50_ms=percentile(ranked, 50) * 1e3, p90_ms=percentile(ranked, 90) * 1e3,
            peak_rss_mb=rss_kb / 1024,
        )
        if tracer:
            result.update(totals=tracer.totals, span_cost_s=tracer.span_cost())
    return result


def main() -> None:
    spec = json.loads(sys.stdin.readline())
    try:
        result = measure(spec)
    except Wrong as e:
        result = {"wrong": str(e)}
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
