"""End-to-end checks of the console command, each in a process of its own.

    python tests/console_checks.py fareybridge               # installed
    PYTHONPATH=src python tests/console_checks.py python -m fareybridge

The arguments are the command to run.  The checks cover what the in-process
tests cannot see: exit codes and tracebacks of real processes, a closed
pipe, the environment's caps, each process's max RSS, and the sha256 of
large outputs, pinned.  Each check prints one line; the first that fails
raises AssertionError.  Importing this module runs nothing.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tempfile

import fareybridge as fb


def _ok(cmd: list[str], *args: str, code: int = 0, env: dict | None = None) -> tuple[bytes, float]:
    """stdout and max RSS in MB of one process, which must exit with code
    and print no traceback."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([*cmd, *args], stdout=out, stderr=err,
                                env=None if env is None else {**os.environ, **env})
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    assert proc.returncode == code and b"Traceback" not in stderr, (
        args[:3], proc.returncode, stderr[-2000:])
    return stdout, usage.ru_maxrss / 1024


def _moved_map(seed: int, digits: int) -> fb.MobiusMap:
    """A unimodular map whose first column holds two coprime numbers of
    `digits` digits, drawn from random.Random(seed)."""
    rng = random.Random(seed)
    low, high = 10 ** (digits - 1), 10**digits
    while True:
        a, c = rng.randrange(low, high), rng.randrange(low, high)
        if math.gcd(a, c) == 1:
            break
    d = pow(a, -1, c)
    return fb.MobiusMap(a, (a * d - 1) // c, c, d)


def _same_rows(text: bytes, doc: bytes, n: int) -> None:
    """The text rows of a geodesics output are the JSON rows, n of them."""
    text_rows = text.decode().splitlines()[2:]
    json_rows = [" -> ".join(r) for r in json.loads(doc)["geodesics"]]
    assert len(json_rows) == n and text_rows == json_rows, (len(json_rows), n)


def check(cmd: list[str]) -> None:
    out, _ = _ok(cmd, "distance", "1/0", "79/182")
    assert out == b"6\n", out
    print("distance 1/0 79/182: 6")
    _ok(cmd, "--oracle", "--geo-cap", "10", "geodesics", "1/0", "1/2", env={"FAREY_GEO_CAP": "1"})
    print("--geo-cap 10 overrides FAREY_GEO_CAP=1")

    # the reader closes the pipe after one line: no traceback
    proc = subprocess.Popen([*cmd, "geodesics", "1/0", "1136689/2744210"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    proc.wait()
    assert b"Traceback" not in err, err[-2000:]
    print(f"geodesics to a closed pipe: exit {proc.returncode}, no traceback")

    # about 7.3e41 geodesics, under the cap but past sys.maxsize: exit 2
    _ok(cmd, "--geo-cap", str(10**60), "geodesics", "1/0", str(fb.cf_eval([2] * 200)), code=2)
    print("7.3e41 geodesics under a cap of 10**60: exit 2")

    # about 10^356 geodesics over a 20,001-entry slope: refused on the count
    # before any convergent is made, so in about 16 MB max RSS; listing the
    # convergents before the cap check takes 94 MB
    rng = random.Random(1)
    y = str(fb.cf_eval([rng.choice((1, 3, 4)) for _ in range(20000)] + [3]))
    _, rss_mb = _ok(cmd, "geodesics", "1/0", y, code=2)
    print(f"10^356 geodesics: exit 2, max RSS {rss_mb:.1f} MB")
    assert rss_mb < 40, rss_mb

    _ok(cmd, "--oracle", "--json", "geodesics", "1/0", "2378/5741")
    print("--oracle --json geodesics 1/0 2378/5741: exit 0")

    # a fan of 30,000 triangles, its rim walked by addition
    lines = _ok(cmd, "ladder", "1/0", "1/30000")[0].decode().splitlines()
    assert "type (30000)" in lines and "triangles 30000" in lines, lines[:4]
    print("ladder 1/0 1/30000: type (30000), triangles 30000")

    # the same fan moved by a 48-digit map and drawn: one rim line of
    # 30,001 vertices, and no traceback
    m = _moved_map(48, 48)
    x, y = str(m.apply(fb.INFINITY)), str(m.apply(fb.reduce(1, 30000)))
    out, _ = _ok(cmd, "ladder", "--render", "ascii", "--", x, y)
    rims = [line.split(" rim ")[1].split() for line in out.decode().splitlines()
            if line.startswith("run ")]
    print(f"moved fan drawn: rims of {[len(rim) for rim in rims]} vertices")
    assert [len(rim) for rim in rims] == [30001], [len(rim) for rim in rims]

    # a ladder of 1,080 triangles over [3]*360, moved by a seeded 24-digit
    # map: its JSON, ASCII and SVG bytes, pinned
    m = _moved_map(24, 24)
    x, y = str(m.apply(fb.INFINITY)), str(m.apply(fb.cf_eval([3] * 360)))
    want = {
        "json": "9b41730420162a938f73992e383c0fda7e8d6a104d45046a6e798070dd71feee",
        "ascii": "536d61ac9a008961505a3c9fb4c87e976378c678f68f3403ac6658875c2c6014",
        "svg": "393233658e9c21caca56864ee137317f1eb1a335e583d2a46d944f21e294ceb4",
    }
    for name, flags in (("json", ["--json", "ladder"]), ("ascii", ["ladder", "--render", "ascii"]),
                        ("svg", ["ladder", "--render", "svg"])):
        out, _ = _ok(cmd, *flags, "--", x, y)
        digest = hashlib.sha256(out).hexdigest()
        print(f"moved [3]*360 ladder, {name}: {len(out)} bytes, sha256 {digest}")
        assert digest == want[name], (name, digest)

    # 4,181 geodesics; and 55 that branch, then run forced through [3]*300
    # to a target past 512 bits: named on output, the forced run listed once
    for y, n in (("1136689/2744210", 4181), (str(fb.cf_eval([2] * 8 + [3] * 300)), 55)):
        text, doc = (_ok(cmd, *flags, "geodesics", "1/0", y)[0] for flags in ([], ["--json"]))
        _same_rows(text, doc, n)
        print(f"geodesics 1/0 {y[:20]}...: {n} rows, text and JSON agree")

    # 75,025 geodesics of 24 vertices, in text and with --json: the rows
    # agree, the bytes are pinned, and each process stays under 100 MB max
    # RSS (89 MB in both modes when the bound was set)
    y = str(fb.cf_eval([2] * 23))
    want = {
        "text": "5fc4a706b86f16828a093386431f50d443d54cc07512227ac54885f94164ecd6",
        "json": "6898f877b9066097b2b18c4a0599ad51d5f245e99da99d4a3396a59d99a7157e",
    }
    out = {}
    for mode, flags in (("text", []), ("json", ["--json"])):
        out[mode], rss_mb = _ok(cmd, *flags, "geodesics", "1/0", y)
        digest = hashlib.sha256(out[mode]).hexdigest()
        print(f"75,025 geodesics, {mode}: max RSS {rss_mb:.1f} MB, sha256 {digest}")
        assert rss_mb < 100, rss_mb
        assert digest == want[mode], (mode, digest)
    _same_rows(out["text"], out["json"], 75025)
    print("75,025 geodesics: text and JSON rows agree")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        raise SystemExit(__doc__)
    check(sys.argv[1:])
