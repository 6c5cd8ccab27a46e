"""Deterministic SVG figures for 3-row arrangements, drawn in the plane
obtained by quotienting out the all-ones direction.

Every coordinate is exact and an int.  The render reads the leaves of
the cell search ``complex._search``, sorted once on their bits, and
builds no cell and no matrix.  Everything is drawn on one integer grid
of den steps per plane unit, den the lcm of 8 * (n + 1) * ``arr._scale``
and the given viewport's denominators.  Each 0-cell's point is
``tropical._realize``'s integer numerators over (n + 1) * ``arr._scale``,
an apex is its integer column from ``arr._icols`` times n + 1, and each
is scaled onto the grid once, when it is made, and projected to the
plane by subtracting the last coordinate.  The factor 8 keeps the
default viewport's margin, (dx + dy) / 8 + 1 plane units, on the grid.
Pixel coordinates depend only on ratios of grid distances, so the grid
chosen never changes a byte.  Ray ends, pixel coordinates and the corner
order are worked out in ints.  A pixel coordinate is rounded to the
nearest milli-unit, halves to even (as ``round`` does on a
``Fraction``), so a given arrangement and viewport always produce
byte-identical output.  Each hyperplane is drawn as three rays from its
projected apex (one per pair of rows that can tie), bounded cells are
shaded, and apexes carry their 1-based column label.
"""

from __future__ import annotations

from functools import cmp_to_key
from math import lcm
from operator import itemgetter

from .boolmat import _expect
from .complex import DEFAULT_ENUM_CAP, _search
from .tropical import Arrangement, _realize, as_point

_WIDTH = 720  # pixel width; height follows the viewport's aspect ratio
_MILLS = 1000 * _WIDTH

# the tie locus of a pair of rows runs along the projected image of the
# remaining coordinate axis, into the sector where that row loses; the
# axes e_1, e_2, e_3 project to these
_RAYS = ((1, 0), (0, 1), (-1, -1))

_FILL_2CELL = "#c9d4ee"
_STROKE_1CELL = "#8fa3d6"
_COLOR_RAY = "#30313a"
_COLOR_VERTEX = "#1a1a1a"
_COLOR_APEX = "#b03030"


def _round(num: int, den: int) -> int:
    """The integer nearest num/den (den > 0), halves to even, as
    ``round(Fraction(num, den))``."""
    q, r = divmod(num, den)
    r *= 2
    if r > den or (r == den and q & 1):
        q += 1
    return q


def _fmt(mill: int) -> str:
    """Fixed 3-decimal formatting of a count of milli-units."""
    sign = "-" if mill < 0 else ""
    whole, frac = divmod(abs(mill), 1000)
    return f"{sign}{whole}.{frac:03d}"


def _clip_ray(p, direction, box):
    """Parameter range [t0, t1] where p + t*direction stays in box, with
    t >= 0; None when the ray misses the box.  Every value is an int and
    each component of ``direction`` is 0, 1 or -1, so t0 and t1 are ints
    too."""
    x0, x1, y0, y1 = box
    tmin = 0
    tmax = None
    for c, dc, lo, hi in ((p[0], direction[0], x0, x1),
                          (p[1], direction[1], y0, y1)):
        if dc == 0:
            if not lo <= c <= hi:
                return None
            continue
        ta, tb = (lo - c) * dc, (hi - c) * dc  # dividing by ±1
        if ta > tb:
            ta, tb = tb, ta
        if ta > tmin:
            tmin = ta
        if tmax is None or tb < tmax:
            tmax = tb
    if tmax is None or tmax < tmin:
        return None
    return tmin, tmax


def _ccw_order(corners):
    """Corners sorted counter-clockwise about their centroid, from the
    ray that leaves it to the right.  Each corner starts with its integer
    coordinates; offsets from the centroid are taken times the corner
    count, which keeps them integer and changes no comparison."""
    k = len(corners)
    sx = sum(c[0] for c in corners)
    sy = sum(c[1] for c in corners)

    def half(a):
        dx, dy = a[0], a[1]
        return 0 if dy > 0 or (dy == 0 and dx > 0) else 1

    def cmp(a, b):
        ha, hb = half(a), half(b)
        if ha != hb:
            return ha - hb
        cross = a[0] * b[1] - a[1] * b[0]
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    offsets = [(k * c[0] - sx, k * c[1] - sy, c) for c in corners]
    return [a[2] for a in sorted(offsets, key=cmp_to_key(cmp))]


def _check_viewport(viewport) -> tuple:
    """The viewport (xmin, xmax, ymin, ymax) as four Fractions; raises
    ValueError unless it holds four values that bound a non-empty box.
    The ``render`` command checks its ``--viewport`` here too."""
    box = as_point(viewport)
    if len(box) != 4:
        raise ValueError(f"viewport must hold 4 values, not {len(box)}")
    if not (box[0] < box[1] and box[2] < box[3]):
        raise ValueError("empty viewport")
    return box


def render_svg(arr: Arrangement, viewport=None) -> str:
    """Draw the arrangement (n = 3 only) and its bounded cells as SVG."""
    _expect(arr, Arrangement)
    if arr.n != 3:
        raise ValueError("rendering is only defined for 3-row arrangements")
    box = None if viewport is None else _check_viewport(viewport)

    # the cells in bit order, as enumerate_types sorts them
    leaves = _search(arr, DEFAULT_ENUM_CAP)
    leaves.sort(key=itemgetter(0))

    # one integer grid for everything drawn, of den steps per plane unit:
    # _realize gives each 0-cell's point over unit steps, the integer
    # columns times n + 1 give the apexes over them, and each point is
    # scaled onto the grid once, when made, and projected to the plane
    unit = (arr.n + 1) * arr._scale
    den = lcm(8 * unit, *(v.denominator for v in box or ()))
    fine = den // unit
    vertex_pts = []  # (bits, x, y) of each 0-cell
    for bits, cols, dim, _ in leaves:
        if dim == 0:
            v = _realize(arr, cols, 1)
            if v is None:
                raise RuntimeError("a 0-cell without a point")
            vertex_pts.append((bits, fine * (v[0] - v[2]),
                               fine * (v[1] - v[2])))
    k = fine * (arr.n + 1)  # grid steps per step of arr._icols
    apexes = [(k * (c[0] - c[2]), k * (c[1] - c[2])) for c in arr._icols]
    if box is None:
        # the points' bounding box, with a margin of (dx + dy) / 8 + 1
        # plane units, which den's factor 8 keeps integer
        xs = [p[0] for p in apexes] + [p[1] for p in vertex_pts]
        ys = [p[1] for p in apexes] + [p[2] for p in vertex_pts]
        pad = (max(xs) - min(xs) + max(ys) - min(ys)) // 8 + den
        box = (min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad)
    else:
        box = tuple(v.numerator * (den // v.denominator) for v in box)
    x0, x1, y0, y1 = box
    width = x1 - x0

    def mills(x, y):
        """Pixel coordinates of the grid point (x, y), in milli-units."""
        return (_round(_MILLS * (x - x0), width),
                _round(_MILLS * (y1 - y), width))

    height = _fmt(_round(_MILLS * (y1 - y0), width))
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{height}" '
        f'fill="#ffffff"/>',
    ]

    # each vertex once: its type's bits, then (x, y, pixel x, pixel y)
    vertices = [(bits, (x, y, *map(_fmt, mills(x, y))))
                for bits, x, y in vertex_pts]

    def faces(bits):
        # the vertices whose type contains the cell's type
        return [v for vbits, v in vertices if not bits & ~vbits]

    # shaded bounded 2-cells: polygon over their 0-dimensional faces
    for bits, _, dim, bounded in leaves:
        if dim != 2 or not bounded:
            continue
        pts = " ".join(f"{v[2]},{v[3]}" for v in _ccw_order(faces(bits)))
        out.append(f'<polygon points="{pts}" fill="{_FILL_2CELL}" '
                   f'stroke="none"/>')

    # bounded 1-cells: segments between their two endpoints
    for bits, _, dim, bounded in leaves:
        if dim != 1 or not bounded:
            continue
        ends = faces(bits)
        if len(ends) != 2:
            raise RuntimeError("bounded segment without exactly 2 endpoints")
        (_, _, ax, ay), (_, _, bx, by) = ends
        out.append(f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" '
                   f'stroke="{_STROKE_1CELL}" stroke-width="5"/>')

    # hyperplanes: three rays per apex, clipped to the viewport
    for px, py in apexes:
        for dx, dy in _RAYS:
            clipped = _clip_ray((px, py), (dx, dy), box)
            if clipped is None:
                continue
            t0, t1 = clipped
            ax, ay = mills(px + t0 * dx, py + t0 * dy)
            bx, by = mills(px + t1 * dx, py + t1 * dy)
            out.append(f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" '
                       f'x2="{_fmt(bx)}" y2="{_fmt(by)}" '
                       f'stroke="{_COLOR_RAY}" stroke-width="1.5"/>')

    # 0-cells of the complex
    for _, (_, _, cx, cy) in vertices:
        out.append(f'<circle cx="{cx}" cy="{cy}" r="4" '
                   f'fill="{_COLOR_VERTEX}"/>')

    # apex labels, 1-based column indices, offset by 6 pixels; adding an
    # even count of milli-units commutes with rounding halves to even
    for j, apex in enumerate(apexes):
        ax, ay = mills(*apex)
        out.append(f'<circle cx="{_fmt(ax)}" cy="{_fmt(ay)}" r="3" '
                   f'fill="{_COLOR_APEX}"/>')
        out.append(f'<text x="{_fmt(ax + 6000)}" y="{_fmt(ay - 6000)}" '
                   f'font-family="monospace" font-size="16" '
                   f'fill="{_COLOR_APEX}">{j + 1}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
