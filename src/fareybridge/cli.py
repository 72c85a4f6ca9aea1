"""Command-line interface and the JSON schema (v1) for machine output.

Exit codes: 0 success, 1 domain error, 2 resource cap exceeded, 64 usage.
JSON objects are flat, carry a "v": 1 field, and are emitted with fixed
key order and separators, so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bridge, farey, oracle, render
from .errors import (
    DegenerateLadder,
    DomainError,
    EmptyLadder,
    FareyBridgeError,
    ResourceLimit,
    SpineUndefined,
)
from .farey import FareyPath, GeodesicSet
from .rationals import ExtendedRational, cf_eval, cf_expand, parse_slope

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
    return {
        "x": str(gs.source),
        "y": str(gs.target),
        "distance": gs.length,
        "unique": gs.unique,
        "count": len(gs.paths),
        "geodesics": [[str(v) for v in p.vertices] for p in gs.paths],
    }


def geodesic_set_from_jsonable(d: dict) -> GeodesicSet:
    paths = tuple(
        FareyPath(tuple(parse_slope(s) for s in path)) for path in d["geodesics"]
    )
    return GeodesicSet(
        parse_slope(d["x"]), parse_slope(d["y"]), d["distance"], paths
    )


def report_to_jsonable(r: bridge.SplittingReport) -> dict:
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
    if r.geodesics is not None:
        out["geodesics"] = geodesic_set_to_jsonable(r.geodesics)["geodesics"]
        out["geodesics_x"] = str(r.geodesics.source)
        out["geodesics_y"] = str(r.geodesics.target)
    return out


def report_from_jsonable(d: dict) -> bridge.SplittingReport:
    gs = None
    if "geodesics" in d:
        paths = tuple(
            FareyPath(tuple(parse_slope(s) for s in path)) for path in d["geodesics"]
        )
        gs = GeodesicSet(
            parse_slope(d["geodesics_x"]),
            parse_slope(d["geodesics_y"]),
            paths[0].length,
            paths,
        )
    return bridge.SplittingReport(
        subject=d["subject"],
        splitting=d["splitting"],
        distance=d["distance"],
        case=d["case"],
        keen=d["keen"],
        strongly_keen=d["strongly_keen"],
        exact=d["exact"],
        note=d["note"],
        geodesics=gs,
    )


def _dump(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"))


# ---------------------------------------------------------------- arg parsing

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 64
        raise _UsageError(message)


def _slope(text: str) -> ExtendedRational:
    try:
        return parse_slope(text)
    except DomainError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _entry_list(text: str) -> list[int]:
    try:
        entries = [int(t) for t in text.replace(" ", "").split(",") if t]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not entries:
        raise argparse.ArgumentTypeError("empty entry list")
    return entries


def _qp(text: str) -> bridge.TwoBridgeLink:
    parts = text.split("/")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected q/p, got {text!r}")
    try:
        q, p = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers q/p, got {text!r}")
    try:
        return bridge.TwoBridgeLink(q, p)
    except DomainError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _build_parser() -> _Parser:
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
    parser.add_argument("--ladder-cap", type=int, help="max ladder vertices (ladder, distance)")
    parser.add_argument("--geo-cap", type=int, help="max enumerated geodesics")
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
    p.add_argument("q", type=int)
    p.add_argument("p", type=int)

    p = sub.add_parser(
        "classify-03", help="(0,3)-splitting report for S(q1,p1) [# S(q2,p2)]"
    )
    p.add_argument("summands", type=_qp, nargs="+", metavar="q/p")

    p = sub.add_parser(
        "gen-keen", help="2-bridge link with strongly keen (0,2)-splitting, distance n"
    )
    p.add_argument("n", type=int)
    p.add_argument("--entries", type=_entry_list, help="CF entries, all >= 3, length n-1")

    return parser


# ---------------------------------------------------------------- oracle check

def _oracle_bound(x: ExtendedRational, y: ExtendedRational) -> int:
    """A bound provably containing every geodesic between x and y: the box
    around all ladder vertices (or just the endpoints when no ladder exists)."""
    try:
        verts = farey.ladder(x, y).vertices()
    except (EmptyLadder, DegenerateLadder):
        verts = (x, y)
    return max(1, *(max(abs(v.p), v.q) for v in verts))


def _oracle_check_distance(x, y, got: int) -> str | None:
    want = oracle.bounded_distance(x, y, _oracle_bound(x, y))
    if want != got:
        return f"oracle disagrees on distance({x}, {y}): oracle {want}, ladder {got}"
    return None


def _oracle_check_geodesics(gs: GeodesicSet) -> str | None:
    want = oracle.bruteforce_geodesics(
        gs.source, gs.target, _oracle_bound(gs.source, gs.target)
    )
    ours = {tuple(p.vertices) for p in gs.paths}
    theirs = {tuple(p.vertices) for p in want.paths}
    if ours != theirs or want.length != gs.length:
        return (
            f"oracle disagrees on geodesics({gs.source}, {gs.target}): "
            f"oracle {len(theirs)} paths of length {want.length}, "
            f"ladder {len(ours)} of length {gs.length}"
        )
    return None


# ---------------------------------------------------------------- subcommands

def _cmd_cf(args, out) -> int:
    cf = cf_expand(args.slope)
    if args.json:
        print(
            _dump(
                {
                    "v": SCHEMA_VERSION,
                    "op": "cf",
                    "slope": str(args.slope),
                    "cf": list(cf.entries),
                }
            ),
            file=out,
        )
    else:
        print(str(cf), file=out)
    return 0


def _cmd_eval(args, out) -> int:
    slope = cf_eval(args.entries)
    if args.json:
        print(
            _dump(
                {
                    "v": SCHEMA_VERSION,
                    "op": "eval",
                    "cf": list(args.entries),
                    "slope": str(slope),
                }
            ),
            file=out,
        )
    else:
        print(str(slope), file=out)
    return 0


def _cmd_distance(args, out, err) -> int:
    d = farey.distance(args.x, args.y, vertex_cap=args.ladder_cap)
    if args.oracle:
        problem = _oracle_check_distance(args.x, args.y, d)
        if problem:
            print(problem, file=err)
            return 1
    if args.json:
        print(
            _dump(
                {
                    "v": SCHEMA_VERSION,
                    "op": "distance",
                    "x": str(args.x),
                    "y": str(args.y),
                    "distance": d,
                }
            ),
            file=out,
        )
    else:
        print(d, file=out)
    return 0


def _cmd_geodesics(args, out, err) -> int:
    gs = farey.all_geodesics(args.x, args.y, cap=args.geo_cap)
    if args.oracle:
        problem = _oracle_check_geodesics(gs)
        if problem:
            print(problem, file=err)
            return 1
    if args.json:
        payload = {"v": SCHEMA_VERSION, "op": "geodesics"}
        payload.update(geodesic_set_to_jsonable(gs))
        print(_dump(payload), file=out)
    else:
        print(f"distance {gs.length}", file=out)
        print(f"unique {str(gs.unique).lower()}", file=out)
        for p in gs.paths:
            print(str(p), file=out)
    return 0


def _cmd_ladder(args, out) -> int:
    l = farey.ladder(args.x, args.y, vertex_cap=args.ladder_cap)
    if args.render == "ascii":
        out.write(render.render_ascii(l))
        return 0
    if args.render == "svg":
        out.write(render.render_svg(l))
        return 0
    try:
        spine_strs = [str(v) for v in farey.spine(l).vertices]
    except SpineUndefined:
        spine_strs = None
    if args.json:
        print(
            _dump(
                {
                    "v": SCHEMA_VERSION,
                    "op": "ladder",
                    "x": str(args.x),
                    "y": str(args.y),
                    "type": list(l.runs),
                    "triangles": l.triangle_count,
                    "pivots": [str(p) for p in l.pivots],
                    "spine": spine_strs,
                }
            ),
            file=out,
        )
    else:
        print(f"type ({','.join(map(str, l.runs))})", file=out)
        print(f"triangles {l.triangle_count}", file=out)
        print("pivots " + " ".join(str(p) for p in l.pivots), file=out)
        if spine_strs is None:
            print("spine (undefined: fewer than 3 triangles)", file=out)
        else:
            print("spine " + " ".join(spine_strs), file=out)
    return 0


def _emit_report(args, out, rep: bridge.SplittingReport, op: str, extra: dict) -> int:
    if args.json:
        payload = {"v": SCHEMA_VERSION, "op": op}
        payload.update(extra)
        payload.update(report_to_jsonable(rep))
        print(_dump(payload), file=out)
    else:
        print(f"{rep.subject}  ({rep.splitting[0]},{rep.splitting[1]})-splitting", file=out)
        for key, value in extra.items():
            print(f"{key} {value}", file=out)
        print(f"distance {rep.distance}", file=out)
        print(f"case {rep.case}", file=out)
        print(f"keen {_tri(rep.keen)}", file=out)
        print(f"strongly_keen {_tri(rep.strongly_keen)}", file=out)
        if rep.note:
            print(f"note {rep.note}", file=out)
        if rep.geodesics is not None:
            for p in rep.geodesics.paths:
                print(str(p), file=out)
    return 0


def _tri(value: bool | None) -> str:
    return "undetermined" if value is None else str(value).lower()


def _cmd_classify_2bridge(args, out, err) -> int:
    link = bridge.TwoBridgeLink(args.q, args.p)
    rep = bridge.classify_02(link, cap=args.geo_cap)
    if args.oracle:
        problem = _oracle_check_geodesics(rep.geodesics)
        if problem:
            print(problem, file=err)
            return 1
    extra = {
        "slope": str(link.slope),
        "components": bridge.components(link),
    }
    return _emit_report(args, out, rep, "classify-2bridge", extra)


def _cmd_classify_03(args, out) -> int:
    composite = bridge.CompositeLink(tuple(args.summands))
    rep = bridge.classify_03(composite)
    extra = {"summands": [str(s) for s in composite.summands]}
    if not args.json:
        extra = {"summands": " ".join(str(s) for s in composite.summands)}
    return _emit_report(args, out, rep, "classify-03", extra)


def _cmd_gen_keen(args, out) -> int:
    entries = tuple(args.entries) if args.entries else None
    link = bridge.make_strongly_keen_example(args.n, entries)
    used = entries if entries is not None else (3,) * (args.n - 1)
    if args.json:
        print(
            _dump(
                {
                    "v": SCHEMA_VERSION,
                    "op": "gen-keen",
                    "n": args.n,
                    "entries": list(used),
                    "link": str(link),
                    "slope": str(link.slope),
                    "distance": args.n,
                    "strongly_keen": True,
                }
            ),
            file=out,
        )
    else:
        print(
            f"{link}  slope {link.slope}  distance {args.n}  strongly keen",
            file=out,
        )
    return 0


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

    try:
        if args.command == "cf":
            return _cmd_cf(args, out)
        if args.command == "eval":
            return _cmd_eval(args, out)
        if args.command == "distance":
            return _cmd_distance(args, out, err)
        if args.command == "geodesics":
            return _cmd_geodesics(args, out, err)
        if args.command == "ladder":
            return _cmd_ladder(args, out)
        if args.command == "classify-2bridge":
            return _cmd_classify_2bridge(args, out, err)
        if args.command == "classify-03":
            return _cmd_classify_03(args, out)
        if args.command == "gen-keen":
            return _cmd_gen_keen(args, out)
        raise AssertionError(f"unhandled command {args.command}")
    except ResourceLimit as e:
        print(f"resource limit: {e}", file=err)
        return 2
    except (DomainError, FareyBridgeError) as e:
        print(f"error: {e}", file=err)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
