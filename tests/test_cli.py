from __future__ import annotations

import io
import json
import pathlib
import subprocess
import sys

import pytest

from fareybridge import bridge, farey, oracle
from fareybridge.cli import (
    geodesic_set_from_jsonable,
    geodesic_set_to_jsonable,
    report_from_jsonable,
    report_to_jsonable,
    run,
)
from fareybridge.errors import DomainError
from fareybridge.rationals import INFINITY, cf_eval, parse_slope

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
        lambda x, y, bound: farey.all_geodesics(INFINITY, sl("1/3")),
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


def test_resource_limits_exit_2():
    code, _, err = invoke("--geo-cap", "1", "geodesics", "1/0", "1/2")
    assert code == 2 and "cap" in err
    code, _, err = invoke("--ladder-cap", "3", "ladder", "1/0", "19/42")
    assert code == 2


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


# ---------------------------------------------------------------- golden output

_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text()
)


@pytest.mark.parametrize("case", _GOLDEN, ids=lambda c: " ".join(c["argv"]) or "(no args)")
def test_golden_output(case):
    assert invoke(*case["argv"]) == (case["exit"], case["stdout"], case["stderr"])
