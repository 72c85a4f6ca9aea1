from __future__ import annotations

import io
import json
import math
import pathlib
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

from fareybridge import bridge, cli, farey, oracle, render
from fareybridge.cli import (
    geodesic_set_from_jsonable,
    geodesic_set_to_jsonable,
    report_from_jsonable,
    report_to_jsonable,
    run,
)
from fareybridge.errors import DomainError, OracleBudget, ResourceLimit, SpineUndefined
from fareybridge.rationals import (
    INFINITY,
    ZERO,
    ExtendedRational,
    MobiusMap,
    cf_eval,
    is_adjacent,
    parse_slope,
    reduce,
)

sl = parse_slope


def invoke(*argv: str):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(*argv: str) -> dict:
    code, out, err = invoke("--json", *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------- happy paths

def test_cf_plain():
    code, out, _ = invoke("cf", "79/182")
    assert code == 0
    assert out == "[2,3,3,2,3]\n"


def test_cf_json():
    d = invoke_json("cf", "79/182")
    assert d == {"v": 1, "op": "cf", "slope": "79/182", "cf": [2, 3, 3, 2, 3]}


def test_eval_plain():
    code, out, _ = invoke("eval", "2,3,3,2,3")
    assert (code, out) == (0, "79/182\n")


def test_eval_json_roundtrips_cf():
    d = invoke_json("eval", "2,3,3,2,3")
    assert d["slope"] == "79/182"
    back = invoke_json("cf", d["slope"])
    assert back["cf"] == [2, 3, 3, 2, 3]


def test_distance_plain():
    code, out, _ = invoke("distance", "1/0", "19/42")
    assert (code, out) == (0, "4\n")


def test_distance_json():
    d = invoke_json("distance", "1/0", "19/42")
    assert d == {"v": 1, "op": "distance", "x": "1/0", "y": "19/42", "distance": 4}


def test_geodesics_plain():
    code, out, _ = invoke("geodesics", "1/0", "1/2")
    assert code == 0
    assert out.splitlines() == [
        "distance 2",
        "unique false",
        "1/0 -> 0/1 -> 1/2",
        "1/0 -> 1/1 -> 1/2",
    ]


def test_geodesics_json_roundtrip():
    d = invoke_json("geodesics", "1/0", "19/42")
    assert d["count"] == len(d["geodesics"]) == 2
    assert geodesic_set_from_jsonable(d) == farey.all_geodesics(INFINITY, sl("19/42"))


def test_ladder_summary():
    code, out, _ = invoke("ladder", "1/0", "19/42")
    assert code == 0
    assert out.splitlines() == [
        "type (2,4,1,3)",
        "triangles 10",
        "pivots 0/1 1/2 4/9 5/11",
        "spine 1/0 0/1 1/2 4/9 5/11 19/42",
    ]


def test_ladder_json_spine_null_when_undefined():
    d = invoke_json("ladder", "1/0", "1/2")
    assert d["type"] == [2]
    assert d["spine"] is None


def test_ladder_render_ascii():
    code, out, _ = invoke("ladder", "1/0", "3/10", "--render", "ascii")
    assert code == 0
    assert "run 1" in out and "pivot 0/1" in out
    assert "spine  1/0 0/1 1/3 3/10" in out


def test_ladder_render_svg():
    code, out, _ = invoke("ladder", "1/0", "19/42", "--render", "svg")
    assert code == 0
    assert out.startswith("<svg")
    assert out.count("<polygon") == 10
    assert out.count('class="pivot"') == 4


@pytest.mark.parametrize("entries, moved", [
    ([2], False), ([3], False), ([3, 3], False), ([2, 3, 3, 2, 3], True),
], ids=["1/2", "1/3", "3/10", "moved [2,3,3,2,3]"])
def test_every_ladder_reader_agrees_on_the_spine(entries, moved):
    # the library, the JSON and text summaries and both drawings: each
    # reads no spine for the type-(2) ladder, and the same vertices otherwise
    m = MobiusMap(123, 47, 34, 13) if moved else MobiusMap(1, 0, 0, 1)
    x, y = m.apply(INFINITY), m.apply(cf_eval(entries))
    l = farey.ladder(x, y)
    pair = ("--", str(x), str(y))
    summary = invoke("ladder", *pair)[1].splitlines()[-1]
    ascii_spine = render.render_ascii(l).splitlines()[-1]
    svg = render.render_svg(l)
    if entries == [2]:
        with pytest.raises(SpineUndefined):
            farey.spine(l)
        assert invoke_json("ladder", *pair)["spine"] is None
        assert summary == "spine (undefined: fewer than 3 triangles)"
        assert ascii_spine == "spine  (undefined: fewer than 3 triangles)"
        assert "<polyline" not in svg
        return
    want = [str(v) for v in farey.spine(l).vertices]
    assert len(want) == len(entries) + 2 and want[0] == str(x) and want[-1] == str(y)
    assert invoke_json("ladder", *pair)["spine"] == want
    assert summary == "spine " + " ".join(want)
    assert ascii_spine == "spine  " + " ".join(want)
    # the polyline's points, read back to vertices through the drawing's layout
    at = {
        f"{render._MARGIN + slot * render._X_STEP},{render._RAIL_Y[rail]}": str(v)
        for v, (slot, rail) in render._layout(l).items()
    }
    [points] = [line.split('points="')[1].split('"')[0]
                for line in svg.splitlines() if line.startswith("<polyline")]
    assert [at[p] for p in points.split()] == want


def test_classify_2bridge_json_roundtrip():
    d = invoke_json("classify-2bridge", "10", "3")
    assert d["subject"] == "S(10,3)"
    assert d["slope"] == "3/10"
    assert d["components"] == 2
    assert d["distance"] == 3
    assert d["keen"] is True and d["strongly_keen"] is True
    rebuilt = report_from_jsonable(d)
    assert rebuilt == bridge.classify_02(bridge.TwoBridgeLink(10, 3))
    assert rebuilt.geodesics == bridge.classify_02(bridge.TwoBridgeLink(10, 3)).geodesics


def test_classify_2bridge_plain():
    code, out, _ = invoke("classify-2bridge", "2", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "S(2,1)  (0,2)-splitting"
    assert "distance 2" in lines
    assert "keen true" in lines
    assert "strongly_keen false" in lines


def test_classify_03_json():
    d = invoke_json("classify-03", "3/1", "5/2")
    assert d["summands"] == ["S(3,1)", "S(5,2)"]
    assert d["distance"] == 1
    assert d["case"] == "iii"
    assert d["keen"] is False


def test_classify_03_distance_zero_json():
    d = invoke_json("classify-03", "0/1")
    assert d["distance"] == 0
    assert d["case"] == "0"
    assert d["keen"] is None


def test_classify_03_plain_undetermined():
    code, out, _ = invoke("classify-03", "0/1")
    assert code == 0
    assert "keen undetermined" in out


def test_gen_keen():
    code, out, _ = invoke("gen-keen", "3")
    assert (code, out) == (0, "S(10,3)  slope 3/10  distance 3  strongly keen\n")
    d = invoke_json("gen-keen", "4", "--entries", "3,4,5")
    assert d["entries"] == [3, 4, 5]
    assert d["distance"] == 4
    link = bridge.TwoBridgeLink(*map(int, d["link"][2:-1].split(",")))
    assert bridge.splitting_distance_02(link) == 4


def test_report_jsonable_roundtrip_without_geodesics():
    rep = bridge.classify_03(bridge.CompositeLink((bridge.TwoBridgeLink(3, 1),)))
    assert report_from_jsonable(report_to_jsonable(rep)) == rep


def test_geodesic_set_jsonable_roundtrip():
    gs = farey.all_geodesics(sl("1/3"), sl("3/4"))
    assert geodesic_set_from_jsonable(geodesic_set_to_jsonable(gs)) == gs


def test_geodesic_set_formats_each_distinct_vertex_once(monkeypatch):
    m = MobiusMap(123, 47, 34, 13)
    x, y = m.apply(INFINITY), m.apply(cf_eval([5] + [2] * 8 + [7]))
    calls = 0
    real_str = ExtendedRational.__str__

    def counting_str(self):
        nonlocal calls
        calls += 1
        return real_str(self)

    # counted from the walk through the output: the walk names each vertex
    # from its ints, so no slope is formatted but "x" and "y"
    monkeypatch.setattr(ExtendedRational, "__str__", counting_str)
    gs = farey.all_geodesics(x, y)
    doc = geodesic_set_to_jsonable(gs)
    again = gs._rows()
    monkeypatch.undo()
    assert calls == 2
    distinct = {v for p in gs.paths for v in p.vertices}
    assert len(gs.paths) == 55 and len(distinct) == 20
    # the rows share their texts, one string object per distinct vertex,
    # made once: each later output reads the same objects
    texts = {id(s): s for t in doc["geodesics"] for s in t}
    assert sorted(texts.values()) == sorted(map(str, distinct))
    assert again == doc["geodesics"]
    assert {id(s) for t in again for s in t} == texts.keys()
    # read back, no two paths share a vertex object, and the output is the same
    back = geodesic_set_from_jsonable(doc)
    assert len({id(v) for p in back.paths for v in p.vertices}) == sum(
        len(p.vertices) for p in back.paths
    )
    assert geodesic_set_to_jsonable(back) == doc


def test_geodesic_sets_past_the_named_bits_are_formatted_on_first_read(monkeypatch):
    # the target has more bits than all_geodesics names as it walks
    y = cf_eval([3] * 300 + [2] * 4 + [5])
    assert y.q.bit_length() > farey._NAMED_BITS
    calls = 0
    real_str = ExtendedRational.__str__

    def counting_str(self):
        nonlocal calls
        calls += 1
        return real_str(self)

    formatted = 0
    real_slope_text = farey._slope_text

    def counting_slope_text(p, q):
        nonlocal formatted
        formatted += 1
        return real_slope_text(p, q)

    # the vertices are named on the first output, each distinct one once,
    # and the texts are kept: a second output formats nothing
    monkeypatch.setattr(ExtendedRational, "__str__", counting_str)
    monkeypatch.setattr(farey, "_slope_text", counting_slope_text)
    gs = farey.all_geodesics(INFINITY, y)
    assert (calls, formatted) == (0, 0)
    doc = geodesic_set_to_jsonable(gs)
    first = (calls, formatted)
    again = gs._rows()
    monkeypatch.undo()
    assert gs._paths is None
    distinct = {v for p in gs.paths for v in p.vertices}
    assert len(gs.paths) == 8 and first == (2, len(distinct))
    assert (calls, formatted) == first
    assert again == doc["geodesics"] and again is not doc["geodesics"]
    assert len({id(s) for t in again for s in t}) == len(distinct)
    assert {id(s) for t in again for s in t} == {id(s) for t in doc["geodesics"] for s in t}
    assert doc["geodesics"] == [[str(v) for v in p.vertices] for p in gs.paths]


@pytest.mark.parametrize("x, y", [
    ("1/0", "1/0"), ("1/0", "1/2"), ("1/0", "79/182"), ("1/3", "3/4"), ("-3/7", "5/11"),
    ("1/0", str(cf_eval([3] + [2] * 6 + [4]))),
])
def test_every_geodesic_set_serializes_to_the_same_rows(x, y):
    x, y = sl(x), sl(y)
    walked = farey.all_geodesics(x, y)
    built = farey.GeodesicSet(x, y, walked.length, walked.paths)
    doc = geodesic_set_to_jsonable(walked)
    read = geodesic_set_from_jsonable(json.loads(json.dumps(doc)))
    checked = oracle.bruteforce_geodesics(x, y, cli._oracle_bound(x, y))
    rows = [[str(v) for v in p.vertices] for p in walked.paths]
    assert doc["geodesics"] == rows
    for gs in (built, read, checked):
        assert gs == walked and geodesic_set_to_jsonable(gs) == doc


def test_output_builds_no_path(monkeypatch):
    argvs = [
        (*flags, *argv)
        for argv in (("geodesics", "1/0", "19/42"), ("geodesics", "--", "-3/7", "5/11"),
                     ("geodesics", "2/5", "2/5"), ("classify-2bridge", "182", "79"),
                     ("classify-2bridge", "1", "0"))
        for flags in ((), ("--json",), ("--oracle",), ("--oracle", "--json"))
    ]
    link = bridge.TwoBridgeLink(610, 233)
    want = [invoke(*argv) for argv in argvs], report_to_jsonable(bridge.classify_02(link))

    def refused(vertices):
        raise AssertionError("path built")

    monkeypatch.setattr(farey, "_path", refused)
    got = [invoke(*argv) for argv in argvs], report_to_jsonable(bridge.classify_02(link))
    assert got == want
    assert all(code == 0 for code, _, _ in got[0])


# ---------------------------------------------------------------- oracle flag

def test_oracle_flag_accepts_correct_results():
    for argv in (
        ("--oracle", "distance", "1/0", "19/42"),
        ("--oracle", "geodesics", "1/0", "1/2"),
        ("--oracle", "classify-2bridge", "10", "3"),
        ("--oracle", "distance", "1/3", "3/4"),
    ):
        code, _, err = invoke(*argv)
        assert code == 0, err


def test_oracle_mismatch_exits_1_with_an_error_prefix(monkeypatch):
    monkeypatch.setattr(oracle, "bounded_distance", lambda x, y, bound: 99)
    monkeypatch.setattr(
        oracle,
        "bruteforce_geodesics",
        lambda x, y, bound, cap: farey.all_geodesics(INFINITY, sl("1/3")),
    )
    for argv in (
        ("distance", "1/0", "19/42"),
        ("geodesics", "1/0", "1/2"),
        ("classify-2bridge", "10", "3"),
    ):
        for flags in (("--oracle",), ("--json", "--oracle")):
            code, out, err = invoke(*flags, *argv)
            assert (code, out) == (1, ""), argv
            assert err.startswith("error: oracle disagrees"), err


# ---------------------------------------------------------------- JSON readers

def _without_interior_vertex(doc: dict) -> dict:
    path = doc["geodesics"][0]
    return dict(doc, geodesics=[path[:1] + path[2:]], distance=len(path) - 2)


@pytest.mark.parametrize(
    "argv, reader",
    [
        (("geodesics", "1/0", "19/42"), geodesic_set_from_jsonable),
        (("classify-2bridge", "42", "19"), report_from_jsonable),
    ],
)
def test_readers_reject_inconsistent_geodesics(argv, reader):
    doc = invoke_json(*argv)
    assert doc["distance"] == 4
    for bad in (
        dict(doc, geodesics=[]),
        dict(doc, distance=7),
        _without_interior_vertex(doc),
    ):
        with pytest.raises(DomainError):
            reader(bad)


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _with(**fields):
    return lambda doc: dict(doc, **fields)


_READERS = {
    "geodesics": (("geodesics", "1/0", "19/42"), geodesic_set_from_jsonable),
    "report": (("classify-2bridge", "42", "19"), report_from_jsonable),
}
_EITHER = [
    ("empty object", lambda doc: {}),
    ("list for the document", lambda doc: [doc]),
    ("null for the document", lambda doc: None),
    ("null geodesics", _with(geodesics=None)),
    ("vertex 5", _with(geodesics=[[5, "1/2"]])),
    ("path 5", _with(geodesics=[5])),
    ("float distance", _with(distance=4.0)),
    ("bool distance", _with(distance=True)),
    ("string distance", _with(distance="4")),
]
_MALFORMED = [(kind, *case) for kind in _READERS for case in _EITHER] + [
    ("geodesics", "no x", _without("x")),
    ("geodesics", "null x", _with(x=None)),
    ("geodesics", "int y", _with(y=5)),
    ("report", "no note", _without("note")),
    ("report", "no geodesics_y", _without("geodesics_y")),
    ("report", "null geodesics_x", _with(geodesics_x=None)),
    ("report", "string keen", _with(keen="yes")),
    ("report", "int strongly_keen", _with(strongly_keen=1)),
    ("report", "int splitting", _with(splitting=5)),
    ("report", "splitting 07", _with(splitting="07")),
    ("report", "case zz", _with(case="zz")),
    ("report", "null exact", _with(exact=None)),
    ("report", "null subject", _with(subject=None)),
]


@pytest.mark.parametrize(
    "kind, change", [(kind, change) for kind, _, change in _MALFORMED],
    ids=[f"{kind}: {name}" for kind, name, _ in _MALFORMED],
)
def test_readers_reject_malformed_documents(kind, change):
    argv, reader = _READERS[kind]
    doc = invoke_json(*argv)
    assert doc["distance"] == 4
    reader(doc)
    with pytest.raises(DomainError):
        reader(change(doc))


# ---------------------------------------------------------------- failure modes

def test_usage_errors_exit_64():
    for argv in (
        ("frobnicate",),
        ("distance", "1/0"),
        ("distance", "abc", "1/2"),
        ("eval", "2,x"),
        ("classify-03", "5-2"),
        ("classify-2bridge", "ten", "3"),
        ("ladder", "1/0", "1/2", "--render", "png"),
        (),
    ):
        code, _, err = invoke(*argv)
        assert code == 64, argv


def test_domain_errors_exit_1():
    for argv in (
        ("cf", "1/0"),  # outside [0, 1)
        ("cf", "3/2"),
        ("ladder", "1/0", "1/0"),
        ("ladder", "1/0", "0/1"),
        ("classify-2bridge", "4", "2"),
        ("gen-keen", "1"),
        ("gen-keen", "3", "--entries", "2,3"),
    ):
        code, _, err = invoke(*argv)
        assert code == 1, argv
        assert err


def test_caps_from_the_environment_past_the_int_str_digit_limit(monkeypatch):
    monkeypatch.setenv(farey.GEO_CAP_ENV, "9" * 5000)
    code, out, err = invoke("geodesics", "1/0", "1/2")
    assert (code, out.splitlines()[0], err) == (0, "distance 2", "")
    for env, cmd in ((farey.GEO_CAP_ENV, "geodesics"), (farey.LADDER_CAP_ENV, "ladder")):
        monkeypatch.setenv(env, "-1" + "0" * 5000)
        code, out, err = invoke(cmd, "1/0", "19/42")
        assert (code, out) == (1, "")
        assert err == f"error: {env} must be positive, got -1{'0' * 5000}\n"
        monkeypatch.setenv(env, "abc")
        code, out, err = invoke(cmd, "1/0", "19/42")
        assert (code, out, err) == (1, "", f"error: {env} must be an integer, got 'abc'\n")


def test_resource_limits_exit_2(monkeypatch):
    code, _, err = invoke("--geo-cap", "1", "geodesics", "1/0", "1/2")
    assert code == 2 and "cap" in err
    code, _, err = invoke("--ladder-cap", "3", "ladder", "1/0", "19/42")
    assert code == 2
    # about 7.3e41 geodesics, under the cap but past sys.maxsize: the count
    # cannot be written as len(), and nothing is listed, nor walked by a
    # repr in a failure report
    def refused(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(farey, "_follow", refused)
    y = str(cf_eval([2] * 200))
    q, p = str(cf_eval([2] * 200).q), str(cf_eval([2] * 200).p)
    for flags in ((), ("--json",)):
        for argv in (("geodesics", "1/0", y), ("classify-2bridge", q, p)):
            code, out, err = invoke(*flags, "--geo-cap", str(10**60), *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("resource limit: 7345448671") and "Traceback" not in err


def test_geodesics_of_a_long_expansion():
    code, out, err = invoke("geodesics", "1/0", str(cf_eval([3] * 600)))
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["distance 601", "unique true"]


def test_help_exits_zero():
    code, _, _ = invoke("--help")
    assert code == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fareybridge", "cf", "3/10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "[3,3]\n"


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_closed_stdout_exits_1_without_a_traceback(flags):
    # 4,181 paths: far more output than a pipe holds, so the write meets the
    # closed end
    y = str(cf_eval([2] * 17))
    assert y == "1136689/2744210"
    proc = subprocess.Popen(
        [sys.executable, "-m", "fareybridge", *flags, "geodesics", "1/0", y],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(64)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == ""  # no traceback, and no flush error at exit


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="limits a Linux child's memory")
@pytest.mark.parametrize("flags, command", [
    ((), "geodesics"), (("--json",), "geodesics"), ((), "classify-2bridge"),
], ids=["geodesics", "json-geodesics", "classify-2bridge"])
def test_out_of_memory_exits_2_without_a_traceback(flags, command):
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no address-space limit")
    # 1,346,269 geodesics of 31 vertices: their rows and text do not fit in
    # 512 MB of address space, so building or writing them runs out of memory
    y = cf_eval([2] * 30)
    pair = ("1/0", str(y)) if command == "geodesics" else (str(y.q), str(y.p))
    limit = 512 << 20

    def limited():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "fareybridge", *flags, "--geo-cap", str(10**8), command, *pair],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        preexec_fn=limited,
        timeout=120,
    )
    err = proc.stderr.decode()
    assert proc.returncode == 2, err[-2000:]
    assert err.startswith("resource limit:") and "Traceback" not in err, err[-2000:]


# ---------------------------------------------------------------- golden output

_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text()
)


@pytest.mark.parametrize("case", _GOLDEN, ids=lambda c: " ".join(c["argv"]) or "(no args)")
def test_golden_output(case):
    assert invoke(*case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


# ---------------------------------------------------------------- huge integers

def test_slopes_past_the_int_str_digit_limit_are_written_exactly():
    slope = bridge.make_strongly_keen_example(9000, [3] * 8999).slope
    code, out, err = invoke("gen-keen", "9000")
    assert (code, err) == (0, "")
    assert parse_slope(out.split("  slope ")[1].split()[0]) == slope
    d = invoke_json("gen-keen", "9000")
    assert parse_slope(d["slope"]) == slope
    code, out, err = invoke("eval", ",".join(["3"] * 9000))
    assert (code, err) == (0, "")
    assert parse_slope(out) == cf_eval([3] * 9000)


def test_entries_past_the_int_str_digit_limit():
    nines = "9" * 5000
    code, out, err = invoke("cf", "1/" + nines)
    assert (code, out, err) == (0, f"[{nines}]\n", "")
    code, out, err = invoke("--json", "cf", "1/" + nines)
    assert (code, err) == (0, "")
    assert out == f'{{"v":1,"op":"cf","slope":"1/{nines}","cf":[{nines}]}}\n'
    for cmd in ("distance", "ladder"):
        code, out, err = invoke(cmd, "1/0", "1/" + nines)
        assert (code, out) == (2, "")
        assert err.startswith(f"resource limit: ladder needs 1{'0' * 4999}1 vertices")
        # a cap past the limit is printed in the refusal too
        cap = "1" + "0" * 5000
        code, out, err = invoke("--ladder-cap", cap, cmd, "1/0", "1/" + cap + "0")
        assert (code, out) == (2, "")
        assert err.startswith("resource limit:") and "Traceback" not in err
        assert err.endswith(f"cap is {cap}\n")


def test_integer_tokens_past_the_int_str_digit_limit():
    nines = "9" * 5000
    code, out, err = invoke("eval", nines + ",3")
    assert (code, out, err) == (0, f"3/2{'9' * 4999}8\n", "")  # 3/(3*nines + 1)
    code, out, err = invoke("classify-2bridge", nines, "1")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        f"S({nines},1)  (0,2)-splitting",
        f"slope 1/{nines}",
        "components 1",
        "distance 2",
        "case 02",
        "keen true",
        "strongly_keen true",
        f"note {bridge.KEEN_02_NOTE}",
        f"1/0 -> 0/1 -> 1/{nines}",
    ]
    d = invoke_json("classify-2bridge", nines, "1")
    assert (d["slope"], d["distance"], d["strongly_keen"]) == (f"1/{nines}", 2, True)
    d = invoke_json("classify-03", f"{nines}/1", "3/1")
    assert (d["summands"], d["case"]) == ([f"S({nines},1)", "S(3,1)"], "iii")
    code, out, err = invoke("--json", "gen-keen", "3", "--entries", f"{nines},3")
    assert (code, err) == (0, "")
    assert out.startswith(f'{{"v":1,"op":"gen-keen","n":3,"entries":[{nines},3],')
    assert invoke("--geo-cap", nines, "geodesics", "1/0", "1/2")[0] == 0
    assert invoke("--ladder-cap", nines, "ladder", "1/0", "19/42")[0] == 0
    # malformed integers keep argparse's own wording
    assert invoke("classify-2bridge", nines + "x", "1")[2] == (
        f"usage error: argument q: invalid int value: '{nines}x'\n"
    )
    assert invoke("--geo-cap", "x", "geodesics", "1/0", "1/2")[2] == (
        "usage error: argument --geo-cap: invalid int value: 'x'\n"
    )


def test_gen_keen_past_memory_is_a_resource_limit():
    for n in (2**62, 10**20):
        with pytest.raises(ResourceLimit):
            bridge.make_strongly_keen_example(n)
    for n in (str(2**62), str(10**20), "9" * 5000):
        code, out, err = invoke("gen-keen", n)
        assert (code, out) == (2, ""), n
        assert err.startswith("resource limit: ")
        assert err.endswith(" default entries do not fit in memory\n")


# ---------------------------------------------------------------- oracle box

def _ladder_box(x, y) -> int:
    verts = (x, y) if x == y or is_adjacent(x, y) else farey.ladder(x, y).vertices()
    return max(max(abs(v.p), v.q) for v in verts)


def _box_pairs(seed: int, n: int):
    """Seeded slope pairs with denominators up to 60; a third of them moved
    by a unimodular map with one-digit entries, a third by one with
    30-digit entries."""
    rng = random.Random(seed)

    def slope():
        if rng.random() < 0.1:
            return rng.choice((INFINITY, ZERO))
        q = rng.randint(1, 60)
        return reduce(rng.randint(-2 * q, 2 * q), q)

    pairs = []
    for i in range(n):
        x, y = slope(), slope()
        if i % 3:
            digits = 1 if i % 3 == 1 else 30
            a, c = rng.randrange(1, 10**digits), rng.randrange(1, 10**digits)
            g = math.gcd(a, c)
            a, c = a // g, c // g
            d = pow(a, -1, c) if c > 1 else 0
            m = MobiusMap(a, (a * d - 1) // c, c, d)
            x, y = m.apply(x), m.apply(y)
        pairs.append((x, y))
    return pairs


def test_oracle_bound_is_the_box_of_the_ladder():
    inside = 0
    for x, y in _box_pairs(11, 3000):
        want = _ladder_box(x, y)
        if want > oracle.DEFAULT_ORACLE_BUDGET:
            with pytest.raises(OracleBudget):
                cli._oracle_bound(x, y)
        else:
            assert cli._oracle_bound(x, y) == want, (x, y)
            inside += 1
    assert inside >= 2000


def test_oracle_check_builds_no_ladder(monkeypatch):
    built = []
    real_ladder = farey._ladder

    def counted(*args, **kwargs):
        built.append(args)
        return real_ladder(*args, **kwargs)

    # distance builds its ladder only for the ladder cap; the oracle check adds none
    monkeypatch.setattr(farey, "_ladder", counted)
    for argv in (("distance", "1/0", "19/42"), ("distance", "--", "-3/7", "5/11")):
        del built[:]
        assert invoke(*argv)[0] == 0
        alone = len(built)
        assert invoke("--oracle", *argv)[0] == 0
        assert len(built) == 2 * alone == 2, argv

    def no_ladder(*args, **kwargs):
        raise AssertionError("ladder built")

    monkeypatch.setattr(farey, "_ladder", no_ladder)
    for argv in (
        ("geodesics", "1/0", "19/42"),
        ("geodesics", "--", "-3/7", "5/11"),
        ("classify-2bridge", "42", "19"),
        ("classify-2bridge", "1", "0"),
        ("distance", "1/3", "1/2"),
        ("distance", "2/5", "2/5"),
    ):
        for flags in (("--oracle",), ("--oracle", "--json")):
            code, out, err = invoke(*flags, *argv)
            assert (code, err) == (0, ""), argv


def test_oracle_answers_in_a_wide_box_within_a_second():
    # a box of bound 1000 holds 1.2 million slopes; the search from both
    # ends maps only their neighborhoods
    for argv, want in (
        (("distance", "1/0", "3/1000"), "3\n"),
        (("geodesics", "1/0", "3/1000"),
         "distance 3\nunique true\n1/0 -> 0/1 -> 1/333 -> 3/1000\n"),
    ):
        start = time.perf_counter()
        code, out, err = invoke("--oracle", *argv)
        assert time.perf_counter() - start < 1, argv
        assert (code, out, err) == (0, want, ""), argv


def test_oracle_box_over_the_budget_exits_2_before_any_bfs(monkeypatch):
    # every oracle search walks the box through _adjacent
    def no_bfs(self, p, q):
        raise AssertionError("BFS ran")

    monkeypatch.setattr(oracle.BoundedSubgraph, "_adjacent", no_bfs)
    long = cf_eval([3] * 12)
    for argv in (
        ("geodesics", "1/0", "1/10000000"),
        ("geodesics", "1/0", str(long)),
        ("distance", "1/0", str(long)),
        ("classify-2bridge", str(long.q), str(long.p)),
        ("geodesics", "1/0", "1/8193"),
    ):
        start = time.perf_counter()
        code, out, err = invoke("--oracle", *argv)
        assert time.perf_counter() - start < 1, argv
        assert (code, out) == (2, ""), argv
        assert err.startswith("resource limit: oracle check would need bound at least "), err
    assert cli._oracle_bound(INFINITY, sl("1/8192")) == oracle.DEFAULT_ORACLE_BUDGET


BRANCHY = "225058681/543339720"  # [2]*23: 75,025 geodesics, an oracle box of 13860
OVER_BUDGET = "resource limit: oracle check would need bound at least 13860 > budget 8192\n"


def test_oracle_budget_is_refused_before_the_command_runs(monkeypatch):
    def ran(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(farey, "all_geodesics", ran)
    monkeypatch.setattr(bridge, "classify_02", ran)
    for argv in (("geodesics", "1/0", BRANCHY), ("classify-2bridge", "543339720", "225058681")):
        for flags in (("--oracle",), ("--oracle", "--json")):
            assert invoke(*flags, *argv) == (2, "", OVER_BUDGET), argv


def test_oracle_budget_comes_after_the_link_and_before_the_caps():
    long = cf_eval([3] * 12)  # a ladder of 38 vertices, an oracle box past the budget
    assert invoke("--oracle", "--geo-cap", "10", "geodesics", "1/0", BRANCHY) == (
        2, "", OVER_BUDGET
    )
    code, out, err = invoke("--oracle", "--ladder-cap", "3", "distance", "1/0", str(long))
    assert (code, out) == (2, "")
    assert err.startswith("resource limit: oracle check would need bound at least "), err
    assert invoke("--oracle", "classify-2bridge", "4", "2") == (
        1, "", "error: p, q must be coprime, got S(4, 2)\n"
    )


def test_oracle_checks_what_is_printed(monkeypatch):
    real = farey.GeodesicSet._rows

    def reversed_rows(gs):
        # the command's walked set prints its rows reversed; the oracle's,
        # built from its paths, does not
        rows = real(gs)
        return rows[::-1] if gs._walk is not None else rows

    monkeypatch.setattr(farey.GeodesicSet, "_rows", reversed_rows)
    for argv in (("geodesics", "1/0", "1/2"), ("classify-2bridge", "182", "79")):
        for flags in (("--oracle",), ("--oracle", "--json")):
            code, out, err = invoke(*flags, *argv)
            assert (code, out) == (1, ""), argv
            assert err.startswith("error: oracle disagrees on geodesics("), err
    monkeypatch.setattr(oracle, "bounded_distance", lambda x, y, bound: 99)
    assert invoke("--oracle", "distance", "1/0", "19/42") == (
        1, "", "error: oracle disagrees on distance(1/0, 19/42): oracle 99, computed 4\n"
    )


def test_oracle_enumerates_under_the_commands_geo_cap(monkeypatch):
    # FAREY_GEO_CAP=1 refuses the 2 paths to 1/2 unless --geo-cap lifts it,
    # for the command and for its oracle check alike
    monkeypatch.setenv(farey.GEO_CAP_ENV, "1")
    for argv in (("geodesics", "1/0", "1/2"), ("classify-2bridge", "2", "1")):
        for flags in ((), ("--json",)):
            code, out, err = invoke(*flags, "--oracle", "--geo-cap", "10", *argv)
            assert (code, err) == (0, ""), argv
            assert out == invoke(*flags, "--geo-cap", "10", *argv)[1]
            code, out, err = invoke(*flags, "--oracle", *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("resource limit: 2 geodesics for 1/0 -> 1/2, cap is 1"), err


def test_ladder_cap_is_checked_when_distance_answers_directly():
    for argv in (("distance", "1/0", "0/1"), ("distance", "1/0", "1/0")):
        assert invoke("--ladder-cap", "0", *argv) == (1, "", "error: cap must be positive, got 0\n")


def test_oracle_box_stops_at_the_budget():
    # the whole box of [3]*30000 would read 30000 convergents of up to
    # 15,000 digits each
    y = cf_eval([3] * 30000)
    budget = oracle.DEFAULT_ORACLE_BUDGET
    tracemalloc.start()
    try:
        bound = farey._ladder_box(INFINITY, y, budget)
        with pytest.raises(OracleBudget, match=rf"would need bound at least {bound} > budget"):
            cli._oracle_bound(INFINITY, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bound > budget
    assert peak <= 4 * 2**20, peak
