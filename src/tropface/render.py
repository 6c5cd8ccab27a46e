"""Deterministic SVG figures for 3-row arrangements, drawn in the plane
obtained by quotienting out the all-ones direction.

Every coordinate is exact until the final formatting step, which rounds
to a fixed milli-unit grid, so a given arrangement and viewport always
produce byte-identical output.  Each hyperplane is drawn as three rays
from its projected apex (one per pair of rows that can tie), bounded
cells are shaded, and apexes carry their 1-based column label.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key

from .complex import enumerate_types
from .tropical import Arrangement, as_point, project_to_plane, realize_type

_WIDTH = 720  # pixel width; height follows the viewport's aspect ratio

_FILL_2CELL = "#c9d4ee"
_STROKE_1CELL = "#8fa3d6"
_COLOR_RAY = "#30313a"
_COLOR_VERTEX = "#1a1a1a"
_COLOR_APEX = "#b03030"


def _fmt(q: Fraction) -> str:
    """Fixed 3-decimal formatting on an exact milli-unit grid."""
    mill = round(q * 1000)
    sign = "-" if mill < 0 else ""
    mill = abs(mill)
    return f"{sign}{mill // 1000}.{mill % 1000:03d}"


def _ray_directions(n: int) -> tuple:
    # the tie locus of a pair of rows runs along the projected image of
    # the remaining coordinate axis, into the sector where that row loses
    dirs = []
    for m in range(n):
        e = [Fraction(0)] * n
        e[m] = Fraction(1)
        dirs.append(project_to_plane(e))
    return tuple(dirs)


def _clip_ray(p, direction, box):
    """Parameter range [t0, t1] where p + t*direction stays in box, with
    t >= 0; None when the ray misses the box."""
    x0, x1, y0, y1 = box
    tmin = Fraction(0)
    tmax = None
    for c, dc, lo, hi in ((p[0], direction[0], x0, x1),
                          (p[1], direction[1], y0, y1)):
        if dc == 0:
            if not lo <= c <= hi:
                return None
            continue
        ta, tb = (lo - c) / dc, (hi - c) / dc
        if ta > tb:
            ta, tb = tb, ta
        if ta > tmin:
            tmin = ta
        if tmax is None or tb < tmax:
            tmax = tb
    if tmax is None or tmax < tmin:
        return None
    return tmin, tmax


def _ccw_order(points):
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if dy > 0 or (dy == 0 and dx > 0) else 1

    def cmp(a, b):
        ha, hb = half(a), half(b)
        if ha != hb:
            return ha - hb
        cross = ((a[0] - cx) * (b[1] - cy)) - ((a[1] - cy) * (b[0] - cx))
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    return sorted(points, key=cmp_to_key(cmp))


def default_viewport(points) -> tuple:
    """Box around the given plane points with a proportional margin."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = (x1 - x0 + y1 - y0) / 8 + 1
    return (x0 - pad, x1 + pad, y0 - pad, y1 + pad)


def render_svg(arr: Arrangement, viewport=None) -> str:
    """Draw the arrangement (n = 3 only) and its bounded cells as SVG."""
    if arr.n != 3:
        raise ValueError("rendering is only defined for 3-row arrangements")

    cells = enumerate_types(arr)
    vertex_cells = [c for c in cells if c.dimension == 0]
    vertex_pt = {c.type: project_to_plane(realize_type(arr, c.type))
                 for c in vertex_cells}
    apexes = [project_to_plane(arr.column(j)) for j in range(arr.d)]

    if viewport is None:
        viewport = default_viewport(apexes + list(vertex_pt.values()))
    x0, x1, y0, y1 = as_point(viewport)
    if not (x0 < x1 and y0 < y1):
        raise ValueError("empty viewport")
    box = (x0, x1, y0, y1)

    scale = Fraction(_WIDTH) / (x1 - x0)
    height = (y1 - y0) * scale

    def px(p):
        return ((p[0] - x0) * scale, (y1 - p[1]) * scale)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_WIDTH} {_fmt(height)}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_fmt(height)}" '
        f'fill="#ffffff"/>',
    ]

    # shaded bounded 2-cells: polygon over their 0-dimensional faces
    for cell in cells:
        if cell.dimension != 2 or not cell.bounded:
            continue
        corners = [vertex_pt[v.type] for v in vertex_cells
                   if cell.type <= v.type]
        pts = " ".join(f"{_fmt(a)},{_fmt(b)}"
                       for a, b in (px(p) for p in _ccw_order(corners)))
        out.append(f'<polygon points="{pts}" fill="{_FILL_2CELL}" '
                   f'stroke="none"/>')

    # bounded 1-cells: segments between their two endpoints
    for cell in cells:
        if cell.dimension != 1 or not cell.bounded:
            continue
        ends = [vertex_pt[v.type] for v in vertex_cells
                if cell.type <= v.type]
        if len(ends) != 2:
            raise RuntimeError("bounded segment without exactly 2 endpoints")
        (ax, ay), (bx, by) = px(ends[0]), px(ends[1])
        out.append(f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" '
                   f'x2="{_fmt(bx)}" y2="{_fmt(by)}" '
                   f'stroke="{_STROKE_1CELL}" stroke-width="5"/>')

    # hyperplanes: three rays per apex, clipped to the viewport
    directions = _ray_directions(arr.n)
    for apex in apexes:
        for direction in directions:
            clipped = _clip_ray(apex, direction, box)
            if clipped is None:
                continue
            t0, t1 = clipped
            a = (apex[0] + t0 * direction[0], apex[1] + t0 * direction[1])
            b = (apex[0] + t1 * direction[0], apex[1] + t1 * direction[1])
            (ax, ay), (bx, by) = px(a), px(b)
            out.append(f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" '
                       f'x2="{_fmt(bx)}" y2="{_fmt(by)}" '
                       f'stroke="{_COLOR_RAY}" stroke-width="1.5"/>')

    # 0-cells of the complex
    for cell in vertex_cells:
        cxp, cyp = px(vertex_pt[cell.type])
        out.append(f'<circle cx="{_fmt(cxp)}" cy="{_fmt(cyp)}" r="4" '
                   f'fill="{_COLOR_VERTEX}"/>')

    # apex labels, 1-based column indices
    for j, apex in enumerate(apexes):
        axp, ayp = px(apex)
        out.append(f'<circle cx="{_fmt(axp)}" cy="{_fmt(ayp)}" r="3" '
                   f'fill="{_COLOR_APEX}"/>')
        out.append(f'<text x="{_fmt(axp + 6)}" y="{_fmt(ayp - 6)}" '
                   f'font-family="monospace" font-size="16" '
                   f'fill="{_COLOR_APEX}">{j + 1}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
