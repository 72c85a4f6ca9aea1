"""Ladder drawings: a two-rail strip, as ASCII text or standalone SVG.

Pivots sit on alternating rails (first run's pivot on the bottom); each
fan's rim runs along the opposite rail.  Vertices are placed left to
right in first-appearance order, which reproduces the usual strip picture
with the spine zigzagging between the rails.
"""

from __future__ import annotations

from .farey import Ladder, _spine
from .rationals import ExtendedRational, _check_type

__all__ = ["render_ascii", "render_svg"]


def _layout(l: Ladder) -> dict[ExtendedRational, tuple[int, int]]:
    """vertex -> (slot, rail); rail 0 is the top, 1 the bottom.

    x, where the first rim starts, and the first pivot take slots 0 and 1.
    Every later pivot ends the rim before it, so it is placed already, and
    each rim places only the vertices it adds.
    """
    pos = {l.x: (0, 0), l.pivots[0]: (1, 1)}
    slot = 2
    for j, rim in enumerate(l.rims):
        for v in rim:
            if v not in pos:  # on the rail opposite the pivot's
                pos[v] = (slot, j % 2)
                slot += 1
    return pos


def render_ascii(l: Ladder) -> str:
    """Textual strip: run table, label strip, pivots and spine."""
    _check_type("the ladder", Ladder, l)
    lines = [
        f"ladder {l.x} -> {l.y}   type ({','.join(map(str, l.runs))})   "
        f"{l.triangle_count} triangles"
    ]
    strip = " ".join(
        ("L" if j % 2 == 0 else "R") * a for j, a in enumerate(l.runs)
    )
    lines.append(f"strip  {strip}")
    for j, (pivot, rim) in enumerate(zip(l.pivots, l.rims)):
        label = "L" if j % 2 == 0 else "R"
        rim_text = " ".join(str(v) for v in rim)
        lines.append(f"run {j + 1}  {label} x{l.runs[j]}  pivot {pivot}  rim {rim_text}")
    lines.append("pivots " + " ".join(str(p) for p in l.pivots))
    sp = _spine(l)
    lines.append("spine  " + ("(undefined: fewer than 3 triangles)" if sp is None
                              else " ".join(str(v) for v in sp.vertices)))
    return "\n".join(lines) + "\n"


_X_STEP = 90
_RAIL_Y = (50, 170)
_MARGIN = 60


def render_svg(l: Ladder) -> str:
    """Standalone SVG: one polygon per triangle, one circle per pivot."""
    _check_type("the ladder", Ladder, l)
    pos = _layout(l)

    def xy(v: ExtendedRational) -> tuple[int, int]:
        slot, rail = pos[v]
        return _MARGIN + slot * _X_STEP, _RAIL_Y[rail]

    width = _MARGIN * 2 + (max(s for s, _ in pos.values())) * _X_STEP
    height = 220
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        "<style>"
        ".triangle{stroke:#444;stroke-width:1.5;fill-opacity:0.45}"
        ".lab-L{fill:#bcd9ef}.lab-R{fill:#f3d1a8}"
        ".pivot{fill:#c0392b}"
        ".spine{stroke:#c0392b;stroke-width:2.5;fill:none;stroke-dasharray:7 4}"
        ".vlabel{font:13px monospace;fill:#222}"
        "</style>",
    ]
    for tri in l.triangles:
        pts = " ".join(f"{xy(v)[0]},{xy(v)[1]}" for v in tri.vertices)
        parts.append(
            f'<polygon class="triangle lab-{tri.label}" points="{pts}"/>'
        )
    sp = _spine(l)
    if sp is not None:
        pts = " ".join(f"{xy(v)[0]},{xy(v)[1]}" for v in sp.vertices)
        parts.append(f'<polyline class="spine" points="{pts}"/>')
    for p in l.pivots:
        x, y = xy(p)
        parts.append(f'<circle class="pivot" cx="{x}" cy="{y}" r="6"/>')
    for v, (slot, rail) in pos.items():
        x, y = xy(v)
        ty = y - 14 if rail == 0 else y + 24
        parts.append(f'<text class="vlabel" x="{x - 12}" y="{ty}">{v}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
