"""Command-line interface and the JSON schema (v1) for machine output.

Exit codes: 0 success, 1 domain error, 2 resource cap exceeded, 64 usage.
JSON objects are flat, carry a "v": 1 field, and are emitted with fixed
key order and separators, so identical inputs give byte-identical output.
"""

from __future__ import annotations

import os
import sys

# argparse, json and oracle are imported inside the functions that use them
# (argparse in _build_parser, oracle in _oracle): at module level they would
# add to every import of the JSON helpers, which need none of them, and json
# and oracle to the start of every command that needs neither.
from . import bridge, farey, render
from .errors import (
    DomainError,
    FareyBridgeError,
    OracleBudget,
    ResourceLimit,
    SpineUndefined,
)
from .farey import FareyPath, GeodesicSet
from .rationals import (
    INFINITY,
    ExtendedRational,
    _cf_expand,
    _check_type,
    _int_text,
    _parse_int,
    cf_eval,
    parse_slope,
)

__all__ = [
    "main",
    "run",
    "geodesic_set_to_jsonable",
    "geodesic_set_from_jsonable",
    "report_to_jsonable",
    "report_from_jsonable",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1


# ---------------------------------------------------------------- serialization

def geodesic_set_to_jsonable(gs: GeodesicSet) -> dict:
    # A walked set's rows come straight off its steps: no path is built for
    # them.  len() refuses a count past sys.maxsize before any row is walked.
    _check_type("the geodesic set", GeodesicSet, gs)
    count = len(gs)
    return {
        "x": str(gs.source),
        "y": str(gs.target),
        "distance": gs.length,
        "unique": count == 1,
        "count": count,
        "geodesics": gs._rows(),
    }


def _fields(d, **types) -> list:
    """The values of the fields named in types, in that order; DomainError
    unless d is an object holding each of them with a value of its type (or
    one of its types).  The types are exact, as json.loads gives them, so a
    bool or a float is never taken for an int."""
    if type(d) is not dict:
        raise DomainError(f"expected a JSON object, got {type(d).__name__}")
    values = []
    for key, kinds in types.items():
        if key not in d:
            raise DomainError(f"missing field {key!r}")
        value = d[key]
        kinds = kinds if isinstance(kinds, tuple) else (kinds,)
        if type(value) not in kinds:
            names = " or ".join(k.__name__ for k in kinds)
            raise DomainError(f"field {key!r} must be {names}, got {type(value).__name__}")
        values.append(value)
    return values


def _geodesic_set(x: str, y: str, length: int, paths: list) -> GeodesicSet:
    """Parse a serialized geodesic set; the public constructors check it."""
    if not all(type(p) is list and all(type(s) is str for s in p) for p in paths):
        raise DomainError("geodesics must be lists of slopes written as strings")
    return GeodesicSet(
        parse_slope(x),
        parse_slope(y),
        length,
        tuple(FareyPath(tuple(parse_slope(s) for s in path)) for path in paths),
    )


def geodesic_set_from_jsonable(d: dict) -> GeodesicSet:
    return _geodesic_set(*_fields(d, x=str, y=str, distance=int, geodesics=list))


def report_to_jsonable(r: bridge.SplittingReport) -> dict:
    _check_type("the report", bridge.SplittingReport, r)
    out = {
        "subject": r.subject,
        "splitting": r.splitting,
        "distance": r.distance,
        "case": r.case,
        "keen": r.keen,
        "strongly_keen": r.strongly_keen,
        "exact": r.exact,
        "note": r.note,
    }
    gs = r.geodesics
    if gs is not None:
        len(gs)  # refuses a count past sys.maxsize before any row is walked
        out["geodesics"] = gs._rows()
        out["geodesics_x"] = str(gs.source)
        out["geodesics_y"] = str(gs.target)
    return out


def report_from_jsonable(d: dict) -> bridge.SplittingReport:
    tri = (bool, type(None))
    fields = _fields(  # SplittingReport's fields, in order
        d, subject=str, splitting=str, distance=int, case=str, keen=tri, strongly_keen=tri,
        exact=bool, note=str,
    )
    gs = None
    if "geodesics" in d:
        x, y, paths = _fields(d, geodesics_x=str, geodesics_y=str, geodesics=list)
        gs = _geodesic_set(x, y, fields[2], paths)
    return bridge.SplittingReport(*fields, gs)


def _dump(payload: dict) -> str:
    import json

    try:
        return json.dumps(payload, separators=(",", ":"))
    except ValueError:  # an int past sys.int_max_str_digits, e.g. a cf entry
        return _dump_value(payload)


def _dump_value(v) -> str:
    """What json.dumps writes for v with compact separators, ints at any size."""
    import json

    if isinstance(v, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_dump_value(w)}" for k, w in v.items()) + "}"
    if isinstance(v, list):
        return "[" + ",".join(map(_dump_value, v)) + "]"
    if type(v) is int:
        return _int_text(v)
    return json.dumps(v)


# ---------------------------------------------------------------- arg parsing

class _UsageError(Exception):
    pass


# argparse.ArgumentParser whose error raises _UsageError, so a usage error
# exits 64 where argparse would sys.exit(2); made by the first _build_parser.
_Parser = None


def _bad(message: str) -> Exception:
    """The error a type converter raises for argparse to report as message.
    The converters run only inside parse_args, so argparse is loaded."""
    from argparse import ArgumentTypeError

    return ArgumentTypeError(message)


def _slope(text: str) -> ExtendedRational:
    try:
        return parse_slope(text)
    except DomainError as e:
        raise _bad(str(e)) from None


def _int(text: str) -> int:
    try:
        return _parse_int(text)
    except ValueError:
        raise _bad(f"invalid int value: {text!r}") from None


def _entry_list(text: str) -> list[int]:
    try:
        entries = [_parse_int(t) for t in text.replace(" ", "").split(",") if t]
    except ValueError:
        raise _bad(f"not a comma-separated int list: {text!r}")
    if not entries:
        raise _bad("empty entry list")
    return entries


def _qp(text: str) -> bridge.TwoBridgeLink:
    parts = text.split("/")
    if len(parts) != 2:
        raise _bad(f"expected q/p, got {text!r}")
    try:
        q, p = _parse_int(parts[0]), _parse_int(parts[1])
    except ValueError:
        raise _bad(f"expected integers q/p, got {text!r}")
    try:
        return bridge.TwoBridgeLink(q, p)
    except DomainError as e:
        raise _bad(str(e)) from None


def _build_parser():
    global _Parser
    if _Parser is None:
        import argparse

        class Parser(argparse.ArgumentParser):
            def error(self, message):
                raise _UsageError(message)

        _Parser = Parser

    parser = _Parser(
        prog="fareybridge",
        description="Farey graph geodesics and 2-bridge splitting distances.",
    )
    parser.add_argument("--json", action="store_true", help="machine output (schema v1)")
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="re-check distance/geodesic results against the brute-force oracle",
    )
    parser.add_argument("--ladder-cap", type=_int, help="max ladder vertices (ladder, distance)")
    parser.add_argument("--geo-cap", type=_int, help="max enumerated geodesics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cf", help="continued fraction of a slope in [0,1)")
    p.add_argument("slope", type=_slope)

    p = sub.add_parser("eval", help="evaluate entries a1,a2,... to a slope")
    p.add_argument("entries", type=_entry_list)

    p = sub.add_parser("distance", help="Farey graph distance between two slopes")
    p.add_argument("x", type=_slope)
    p.add_argument("y", type=_slope)

    p = sub.add_parser("geodesics", help="all geodesics between two slopes")
    p.add_argument("x", type=_slope)
    p.add_argument("y", type=_slope)

    p = sub.add_parser("ladder", help="triangle strip between two slopes")
    p.add_argument("x", type=_slope)
    p.add_argument("y", type=_slope)
    p.add_argument("--render", choices=("ascii", "svg"), help="draw the strip")

    p = sub.add_parser("classify-2bridge", help="(0,2)-splitting report for S(q,p)")
    p.add_argument("q", type=_int)
    p.add_argument("p", type=_int)

    p = sub.add_parser(
        "classify-03", help="(0,3)-splitting report for S(q1,p1) [# S(q2,p2)]"
    )
    p.add_argument("summands", type=_qp, nargs="+", metavar="q/p")

    p = sub.add_parser(
        "gen-keen", help="2-bridge link with strongly keen (0,2)-splitting, distance n"
    )
    p.add_argument("n", type=_int)
    p.add_argument("--entries", type=_entry_list, help="CF entries, all >= 3, length n-1")

    return parser


# ---------------------------------------------------------------- oracle check

def _oracle():
    from . import oracle

    return oracle


def _oracle_bound(x: ExtendedRational, y: ExtendedRational) -> int:
    """The oracle's box, farey._ladder_box(x, y), which holds every geodesic.
    Over the oracle budget: OracleBudget, as soon as the box passes it, and
    no BFS."""
    budget = _oracle().DEFAULT_ORACLE_BUDGET
    bound = farey._ladder_box(x, y, budget)
    if bound > budget:
        raise OracleBudget(
            f"oracle check would need bound at least {_int_text(bound)} > budget {budget}"
        )
    return bound


def _oracle_check(x, y, bound: int, payload: dict, geo_cap: int | None) -> None:
    """FareyBridgeError unless the oracle, in the box and under geo_cap, finds
    the payload's distance and, when it lists geodesics, the same rows in order."""
    oracle = _oracle()
    got = payload["distance"]
    if "geodesics" not in payload:
        want = oracle.bounded_distance(x, y, bound)
        if want != got:
            raise FareyBridgeError(
                f"oracle disagrees on distance({x}, {y}): oracle {want}, computed {got}"
            )
        return
    want = oracle.bruteforce_geodesics(x, y, bound, cap=geo_cap)
    rows, theirs = payload["geodesics"], want._rows()
    if want.length != got or rows != theirs:
        raise FareyBridgeError(
            f"oracle disagrees on geodesics({x}, {y}): oracle {len(theirs)} paths of "
            f"length {want.length}, computed {len(rows)} of length {got}"
            + (", in other rows" if (len(rows), got) == (len(theirs), want.length) else "")
        )


# ---------------------------------------------------------------- subcommands
# Each handler returns the JSON payload without "v" and "op"; each text
# renderer builds the plain output from that same payload.  A ladder drawing
# is returned as a string and written as it is.

def _cf(args) -> dict:
    return {"slope": str(args.slope), "cf": list(_cf_expand(args.slope).entries)}


def _eval(args) -> dict:
    return {"cf": list(args.entries), "slope": str(cf_eval(args.entries))}


def _distance(args) -> dict:
    d = farey.distance(args.x, args.y, vertex_cap=args.ladder_cap)
    return {"x": str(args.x), "y": str(args.y), "distance": d}


def _geodesics(args) -> dict:
    return geodesic_set_to_jsonable(farey.all_geodesics(args.x, args.y, cap=args.geo_cap))


def _ladder(args) -> dict | str:
    l = farey.ladder(args.x, args.y, vertex_cap=args.ladder_cap)
    if args.render == "ascii":
        return render.render_ascii(l)
    if args.render == "svg":
        return render.render_svg(l)
    try:
        spine_strs = [str(v) for v in farey.spine(l).vertices]
    except SpineUndefined:
        spine_strs = None
    return {
        "x": str(args.x),
        "y": str(args.y),
        "type": list(l.runs),
        "triangles": l.triangle_count,
        "pivots": [str(p) for p in l.pivots],
        "spine": spine_strs,
    }


def _classify_2bridge(args) -> dict:
    link = bridge.TwoBridgeLink(args.q, args.p)
    return {
        "slope": str(link.slope),
        "components": bridge.components(link),
        **report_to_jsonable(bridge.classify_02(link, cap=args.geo_cap)),
    }


def _classify_03(args) -> dict:
    composite = bridge.CompositeLink(tuple(args.summands))
    return {
        "summands": [str(s) for s in composite.summands],
        **report_to_jsonable(bridge.classify_03(composite)),
    }


def _gen_keen(args) -> dict:
    link = bridge.make_strongly_keen_example(args.n, args.entries)
    return {
        "n": args.n,
        "entries": list(_cf_expand(link.slope).entries),
        "link": str(link),
        "slope": str(link.slope),
        "distance": args.n,
        "strongly_keen": True,
    }


def _tri(value: bool | None) -> str:
    return "undetermined" if value is None else str(value).lower()


def _geodesics_text(r: dict) -> list[str]:
    return [
        f"distance {r['distance']}",
        f"unique {str(r['unique']).lower()}",
        *(" -> ".join(p) for p in r["geodesics"]),
    ]


def _ladder_text(r: dict) -> list[str]:
    spine = r["spine"]
    return [
        f"type ({','.join(map(str, r['type']))})",
        f"triangles {r['triangles']}",
        "pivots " + " ".join(r["pivots"]),
        "spine (undefined: fewer than 3 triangles)" if spine is None
        else "spine " + " ".join(spine),
    ]


def _report_text(r: dict) -> list[str]:
    """The command's own fields, which precede "subject", then the report."""
    split = r["splitting"]
    lines = [f"{r['subject']}  ({split[0]},{split[1]})-splitting"]
    for key, value in r.items():
        if key == "subject":
            break
        lines.append(f"{key} {' '.join(value) if isinstance(value, list) else value}")
    lines += [
        f"distance {r['distance']}",
        f"case {r['case']}",
        f"keen {_tri(r['keen'])}",
        f"strongly_keen {_tri(r['strongly_keen'])}",
    ]
    if r["note"]:
        lines.append(f"note {r['note']}")
    return lines + [" -> ".join(p) for p in r.get("geodesics", ())]


# command: (handler, text renderer, the pair of slopes --oracle checks, or None)
_COMMANDS = {
    "cf": (_cf, lambda r: ["[" + ",".join(map(_int_text, r["cf"])) + "]"], None),
    "eval": (_eval, lambda r: [r["slope"]], None),
    "distance": (_distance, lambda r: [str(r["distance"])], lambda a: (a.x, a.y)),
    "geodesics": (_geodesics, _geodesics_text, lambda a: (a.x, a.y)),
    "ladder": (_ladder, _ladder_text, None),
    "classify-2bridge": (
        _classify_2bridge,
        _report_text,
        lambda a: (INFINITY, bridge.TwoBridgeLink(a.q, a.p).slope),
    ),
    "classify-03": (_classify_03, _report_text, None),
    "gen-keen": (
        _gen_keen,
        lambda r: [f"{r['link']}  slope {r['slope']}  distance {r['n']}  strongly keen"],
        None,
    ),
}


def run(argv: list[str], out=None, err=None) -> int:
    """Parse argv and execute; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=err)
        return 64
    except SystemExit as e:  # --help and friends
        return int(e.code or 0)

    handler, text, pair = _COMMANDS[args.command]
    try:
        # The box is sized before any work; the check reads what is printed.
        box = pair(args) if args.oracle and pair else None
        bound = _oracle_bound(*box) if box else None
        result = handler(args)
        if box:
            _oracle_check(*box, bound, result, args.geo_cap)
    except ResourceLimit as e:
        print(f"resource limit: {e}", file=err)
        return 2
    except FareyBridgeError as e:
        print(f"error: {e}", file=err)
        return 1
    if isinstance(result, str):
        out.write(result)
    elif args.json:
        print(_dump({"v": SCHEMA_VERSION, "op": args.command, **result}), file=out)
    else:
        print("\n".join(text(result)), file=out)
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left: exit 1, and quiet the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
