"""SVG rendering: chord diagrams of the pairing involution and fundamental
polygons in the upper half-plane or the unit disk.

All geometry is exact until the final coordinate formatting; elliptic
interior points are computed as exact rational pairs (for the order-2
midpoint) or rational multiples of sqrt(3) (for the order-3 center) and
only converted to floats when written out.  Output bytes are deterministic
for a fixed symbol and spec.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import REVERSE, FareyError, InvalidSymbolError


@dataclass
class RenderSpec:
    style: str = "chords"          # chords | halfplane | disk
    width: int = 600
    height: int = 400
    xmin: float = -0.25
    xmax: float = 1.25
    stroke: str = "#1f4e79"
    accent: str = "#c0392b"
    background: str = "#ffffff"

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise InvalidSymbolError("render dimensions must be positive")
        if not self.xmax > self.xmin:
            raise InvalidSymbolError("empty x-range")


def _fmt(x):
    return "%.2f" % x


def _svg(spec, body):
    head = ('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">' % (spec.width, spec.height,
                                      spec.width, spec.height))
    bg = '<rect width="%d" height="%d" fill="%s"/>' % (
        spec.width, spec.height, spec.background)
    return head + bg + "".join(body) + "</svg>"


def render_chords(sym, spec=None):
    """Chord diagram of the involution: one dot per arc on a circle, a
    chord per paired orbit, filled dots for order-3 arcs and hollow dots
    for order-2 arcs."""
    spec = spec or RenderSpec(style="chords")
    n = sym.n
    cx, cy = spec.width / 2.0, spec.height / 2.0
    rad = 0.42 * min(spec.width, spec.height)
    pts = []
    for k in range(n):
        ang = -math.pi / 2 + 2 * math.pi * k / n
        pts.append((cx + rad * math.cos(ang), cy + rad * math.sin(ang)))
    body = ['<circle cx="%s" cy="%s" r="%s" fill="none" stroke="#999999"/>'
            % (_fmt(cx), _fmt(cy), _fmt(rad))]
    for i in range(n):
        j = sym.pairing[i]
        if i < j:
            body.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" '
                        'class="chord"/>' % (_fmt(pts[i][0]), _fmt(pts[i][1]),
                                             _fmt(pts[j][0]), _fmt(pts[j][1]),
                                             spec.stroke))
    for k in range(n):
        x, y = pts[k]
        if sym.pairing[k] == k:
            if sym.ell[k] == 3:
                body.append('<circle cx="%s" cy="%s" r="5.00" fill="%s" '
                            'class="dot3"/>' % (_fmt(x), _fmt(y), spec.accent))
            else:
                body.append('<circle cx="%s" cy="%s" r="5.00" fill="%s" '
                            'stroke="%s" class="dot2"/>'
                            % (_fmt(x), _fmt(y), spec.background, spec.accent))
        else:
            body.append('<circle cx="%s" cy="%s" r="2.50" fill="%s"/>'
                        % (_fmt(x), _fmt(y), spec.stroke))
    return _svg(spec, body)


def order2_center(sym, i):
    """Exact rational (x, y) of the interior point of an order-2 arc:
    the image of i under the arc matrix."""
    m = sym.arc_mat(i)
    den = m.c * m.c + m.d * m.d
    return (Fraction(m.a * m.c + m.b * m.d, den), Fraction(m.det(), den))


def order3_center(sym, i):
    """Interior point of an order-3 arc as (x, y_coeff) with y = y_coeff *
    sqrt(3): the image of rho = (1 + i sqrt 3)/2 under the reversed arc
    matrix."""
    m = sym.arc_mat(i) * REVERSE
    a, b, c, d = m.entries()
    den = c * c + c * d + d * d
    x = Fraction(2 * a * c + a * d + b * c + 2 * b * d, 2 * den)
    y = Fraction(m.det(), 2 * den)
    return (x, y)


def elliptic_center(sym, i):
    """(x, y) floats of the interior point splitting elliptic arc i."""
    if sym.ell[i] == 2:
        x, y = order2_center(sym, i)
        return float(x), float(y)
    x, y = order3_center(sym, i)
    return float(x), float(y) * math.sqrt(3)


class _Plane:
    """World-to-screen transform for the half-plane picture."""

    def __init__(self, spec):
        self.spec = spec
        self.scale = spec.width / (spec.xmax - spec.xmin)
        self.ytop = spec.height / self.scale

    def pt(self, x, y):
        return ((x - self.spec.xmin) * self.scale,
                self.spec.height - y * self.scale)


def _cusp_x(c):
    return None if c.is_infinity else c.num / c.den


def _geodesic_path(plane, x1, x2):
    """SVG path of the full geodesic between boundary points (None = inf)."""
    if x1 is None and x2 is None:
        raise FareyError("degenerate geodesic")
    if x1 is None or x2 is None:
        x = x2 if x1 is None else x1
        sx, sy = plane.pt(x, 0)
        tx, ty = plane.pt(x, plane.ytop)
        return 'M %s %s L %s %s' % (_fmt(sx), _fmt(sy), _fmt(tx), _fmt(ty))
    lo, hi = sorted((x1, x2))
    r = (hi - lo) / 2.0
    sx, sy = plane.pt(lo, 0)
    tx, ty = plane.pt(hi, 0)
    return 'M %s %s A %s %s 0 0 1 %s %s' % (
        _fmt(sx), _fmt(sy), _fmt(r * plane.scale), _fmt(r * plane.scale),
        _fmt(tx), _fmt(ty))


def _geodesic_to_interior(plane, x, pt):
    """Path from boundary point x (None = inf) to an interior point."""
    px, py = pt
    if x is None or px == x:
        base = (px, plane.ytop) if x is None else (x, 0.0)
        sx, sy = plane.pt(*base)
        tx, ty = plane.pt(px, py)
        return 'M %s %s L %s %s' % (_fmt(sx), _fmt(sy), _fmt(tx), _fmt(ty))
    # center of the circle through (x, 0) and pt, orthogonal to the axis
    c = (px * px + py * py - x * x) / (2.0 * (px - x))
    r = abs(c - x)
    sx, sy = plane.pt(x, 0)
    tx, ty = plane.pt(px, py)
    sweep = 1 if x < px else 0
    return 'M %s %s A %s %s 0 0 %d %s %s' % (
        _fmt(sx), _fmt(sy), _fmt(r * plane.scale), _fmt(r * plane.scale),
        sweep, _fmt(tx), _fmt(ty))


def _halfplane_segments(sym):
    """The drawing plan: a list of ("full", x1, x2) and ("half", x, pt)
    entries in world coordinates; elliptic arcs split at their center."""
    segs = []
    for i in range(sym.n):
        r, s = sym.arc(i)
        if sym.pairing[i] == i:
            t = elliptic_center(sym, i)
            segs.append(("half", _cusp_x(r), t, sym.ell[i]))
            segs.append(("half", _cusp_x(s), t, sym.ell[i]))
        else:
            segs.append(("full", _cusp_x(r), _cusp_x(s), 0))
    return segs


def render_polygon(sym, spec=None):
    """Fundamental polygon drawing, half-plane or disk style."""
    spec = spec or RenderSpec(style="halfplane")
    if spec.style == "disk":
        return _render_disk(sym, spec)
    plane = _Plane(spec)
    body = []
    ax_y = plane.pt(0, 0)[1]
    body.append('<line x1="0.00" y1="%s" x2="%s" y2="%s" stroke="#bbbbbb"/>'
                % (_fmt(ax_y), _fmt(float(spec.width)), _fmt(ax_y)))
    for seg in _halfplane_segments(sym):
        if seg[0] == "full":
            path = _geodesic_path(plane, seg[1], seg[2])
            body.append('<path d="%s" fill="none" stroke="%s"/>' % (path, spec.stroke))
        else:
            path = _geodesic_to_interior(plane, seg[1], seg[2])
            body.append('<path d="%s" fill="none" stroke="%s"/>' % (path, spec.accent))
    return _svg(spec, body)


def _cayley(x, y):
    # (i - z)/(i + z) for z = x + iy
    den = x * x + (1.0 + y) ** 2
    if den == 0:
        return (-1.0, 0.0)
    re = (1.0 - x * x - y * y) / den
    im = (-2.0 * x) / den
    return (re, im)


def _sample_geodesic(x1, x2, k=48):
    """Sample points of the half-plane geodesic between boundary points."""
    pts = []
    big = 10.0 ** 6
    if x1 is None or x2 is None:
        x = x2 if x1 is None else x1
        for j in range(k + 1):
            y = big ** (1.0 - j / k) - (1.0 if j == k else 0.0)
            pts.append((x, max(y, 0.0)))
        if x1 is None:
            return pts
        return pts[::-1]
    c = (x1 + x2) / 2.0
    r = abs(x2 - x1) / 2.0
    a1 = math.pi if x1 < x2 else 0.0
    a2 = 0.0 if x1 < x2 else math.pi
    for j in range(k + 1):
        t = a1 + (a2 - a1) * j / k
        pts.append((c + r * math.cos(t), r * math.sin(t)))
    return pts


def _sample_to_interior(x, pt, k=48):
    px, py = pt
    if x is None:
        out = [(px, py * ((10.0 ** 4) ** (1.0 - j / k))) for j in range(k + 1)]
        out[-1] = (px, py)
        return out
    if px == x:
        return [(x, py * j / k) for j in range(k + 1)]
    c = (px * px + py * py - x * x) / (2.0 * (px - x))
    r = abs(c - x)
    a1 = math.atan2(0.0, x - c)
    a2 = math.atan2(py, px - c)
    return [(c + r * math.cos(a1 + (a2 - a1) * j / k),
             r * math.sin(a1 + (a2 - a1) * j / k)) for j in range(k + 1)]


def _render_disk(sym, spec):
    cx, cy = spec.width / 2.0, spec.height / 2.0
    rad = 0.45 * min(spec.width, spec.height)
    body = ['<circle cx="%s" cy="%s" r="%s" fill="none" stroke="#bbbbbb"/>'
            % (_fmt(cx), _fmt(cy), _fmt(rad))]

    def screen(p):
        re, im = _cayley(*p)
        return (cx + rad * re, cy - rad * im)

    for seg in _halfplane_segments(sym):
        if seg[0] == "full":
            pts = _sample_geodesic(seg[1], seg[2])
            color = spec.stroke
        else:
            pts = _sample_to_interior(seg[1], seg[2])
            color = spec.accent
        coords = " ".join("%s,%s" % (_fmt(px), _fmt(py))
                          for px, py in (screen(p) for p in pts))
        body.append('<polyline points="%s" fill="none" stroke="%s"/>'
                    % (coords, color))
    return _svg(spec, body)
