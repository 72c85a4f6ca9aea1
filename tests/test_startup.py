"""What a fresh process imports: the CLI loads argparse (and with it
gettext) only when run parses an argv, the oracle only under --oracle and
json only when it writes JSON, and nothing loads dataclasses or typing.  Checked on sys.modules in a new interpreter, so the result does
not depend on timing or on what this test process has imported."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("dataclasses", "inspect", "typing", "argparse", "gettext", "json", "fareybridge.oracle")

_SCRIPT = f"""
import io, sys
sys.path.insert(0, {str(SRC)!r})

def loaded(stage):
    print(stage, *[m for m in {HEAVY!r} if m in sys.modules])

import fareybridge
loaded("package")
from fareybridge import cli
loaded("import")
assert hasattr(cli, "render")
for argv in (["distance", "1/0", "79/182"], ["--json", "distance", "1/0", "79/182"],
             ["--oracle", "distance", "1/0", "79/182"]):
    assert cli.run(argv, out=io.StringIO()) == 0
    loaded(argv[0])
"""


def _stages() -> dict[str, list[str]]:
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _SCRIPT], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return {stage: mods for stage, *mods in map(str.split, proc.stdout.splitlines())}


def test_cli_loads_oracle_and_json_only_when_asked():
    stages = _stages()
    argparse = ["argparse", "gettext"]
    assert stages == {
        "package": [],
        "import": [],
        "distance": argparse,
        "--json": [*argparse, "json"],
        "--oracle": [*argparse, "json", "fareybridge.oracle"],
    }
