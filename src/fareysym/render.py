"""SVG rendering: chord diagrams of the pairing involution and fundamental
polygons in the upper half-plane or the unit disk.

Nothing is sampled: each geodesic is drawn as the curve it is in its
model, from its two ends alone.  In the half-plane that is a vertical
segment or a circle arc centred on the real axis; in the disk it is an arc
of the circle orthogonal to the boundary circle, or a diameter.  The ends
are exact until the final coordinate formatting: cusps are rationals, and
the interior point splitting an elliptic arc is the fixed point of that
arc's gluing, whose coordinates are correctly rounded quotients of ints
(the height of an order-3 point times sqrt(3)).  Output bytes are
deterministic for a fixed symbol and spec.
"""

import math
import numbers
from collections import namedtuple

from .exact import FareyError, InvalidSymbolError, _int_arg, _shown

STYLES = ("chords", "halfplane", "disk")
STROKE = "#1f4e79"
ACCENT = "#c0392b"
BACKGROUND = "#ffffff"
# the largest width or height in pixels: rendering divides both as floats
MAX_SIDE = 10**6


def _finite_real(x):
    """True iff x is a real number other than a bool whose float is
    finite.  A Decimal is not real: its difference with a float raises."""
    try:
        return (type(x) is not bool and isinstance(x, numbers.Real)
                and math.isfinite(x))
    except OverflowError:  # an int or Fraction beyond the float range
        return False


class RenderSpec(namedtuple("RenderSpec", "style width height xmin xmax")):
    """What to draw: a style of STYLES, the picture's size in pixels and,
    for the half-plane, the x-range shown.  Like Cusp and IMat, an
    immutable tuple that compares and hashes as its fields do; the
    constructor checks every field, and _make and so _replace call it."""

    __slots__ = ()

    def __new__(cls, style="chords", width=600, height=400, xmin=-0.25,
                xmax=1.25):
        if style not in STYLES:
            raise InvalidSymbolError("unknown render style %s (expected one of %s)"
                                     % (_shown(style), ", ".join(STYLES)))
        for x in (width, height):
            _int_arg(x, 1, MAX_SIDE + 1, "render dimensions must be positive "
                     "ints up to %d" % MAX_SIDE, InvalidSymbolError)
        if not (_finite_real(xmin) and _finite_real(xmax)
                and _finite_real(xmax - xmin)):
            # no values in the message: repr of a huge int raises
            raise InvalidSymbolError("render x-range ends must be finite reals "
                                     "with a finite difference")
        if not xmax > xmin:
            raise InvalidSymbolError("empty x-range")
        return tuple.__new__(cls, (style, width, height, xmin, xmax))

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


def _svg(spec, body):
    head = ('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">' % (spec.width, spec.height,
                                      spec.width, spec.height))
    bg = '<rect width="%d" height="%d" fill="%s"/>' % (
        spec.width, spec.height, BACKGROUND)
    return head + bg + "".join(body) + "</svg>"


# the dot of arc k in the chords style, keyed by sym.ell.get(k)
_DOTS = {3: '<circle cx="%.2f" cy="%.2f" r="5.00" fill="' + ACCENT
            + '" class="dot3"/>',
         2: '<circle cx="%.2f" cy="%.2f" r="5.00" fill="' + BACKGROUND
            + '" stroke="' + ACCENT + '" class="dot2"/>',
         None: '<circle cx="%.2f" cy="%.2f" r="2.50" fill="' + STROKE + '"/>'}


def _checked_spec(spec, default):
    """spec, or RenderSpec(style=default) for None; anything else that is
    not a RenderSpec raises InvalidSymbolError naming it."""
    if spec is None:
        return RenderSpec(style=default)
    if not isinstance(spec, RenderSpec):
        raise InvalidSymbolError("a render spec is a RenderSpec, got %s"
                                 % _shown(spec))
    return spec


def render_chords(sym, spec=None):
    """Chord diagram of the involution: one dot per arc on a circle, a
    chord per paired orbit, filled dots for order-3 arcs and hollow dots
    for order-2 arcs.  The symbol is validated first."""
    sym.validate()
    spec = _checked_spec(spec, "chords")
    if spec.style != "chords":
        raise InvalidSymbolError("render_chords draws the chords style; the "
                                 "%s style comes from render_polygon" % spec.style)
    n = sym.n
    cx, cy = spec.width / 2.0, spec.height / 2.0
    rad = 0.42 * min(spec.width, spec.height)
    pts = []
    for k in range(n):
        ang = -math.pi / 2 + 2 * math.pi * k / n
        pts.append((cx + rad * math.cos(ang), cy + rad * math.sin(ang)))
    body = ['<circle cx="%.2f" cy="%.2f" r="%.2f" fill="none" stroke="#999999"/>'
            % (cx, cy, rad)]
    for i in range(n):
        j = sym.pairing[i]
        if i < j:
            body.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" '
                        'class="chord"/>' % (*pts[i], *pts[j], STROKE))
    body += [_DOTS[sym.ell.get(k)] % pts[k] for k in range(n)]
    return _svg(spec, body)


def elliptic_center(sym, i):
    """(x, y) floats of the interior point splitting elliptic arc i: the
    fixed point of its gluing (a, b, c, d) in the upper half-plane,
    x = (a - d)/2c and y = 1/|c| for order 2 or sqrt(3) * 1/2|c| for
    order 3.  Each quotient of ints is correctly rounded.  An arc that is
    not elliptic raises FareyError."""
    a, _, c, d = sym.gluing(i)
    mu = sym.ell.get(i)
    if mu is None:
        raise FareyError("arc %s is not elliptic" % _shown(i))
    y = 1 / abs(c) if mu == 2 else 1 / (2 * abs(c)) * math.sqrt(3)
    return (a - d) / (2 * c), y


class _Plane:
    """World-to-screen transform for the half-plane picture."""

    def __init__(self, spec):
        self.spec = spec
        self.scale = spec.width / (spec.xmax - spec.xmin)
        self.ytop = spec.height / self.scale

    def pt(self, x, y):
        return ((x - self.spec.xmin) * self.scale,
                self.spec.height - y * self.scale)


def _geodesic_path(plane, x1, x2):
    """SVG path of the full geodesic between boundary points (None = inf),
    at most one of them infinite."""
    if x1 is None or x2 is None:
        x = x2 if x1 is None else x1
        sx, sy = plane.pt(x, 0)
        tx, ty = plane.pt(x, plane.ytop)
        return 'M %.2f %.2f L %.2f %.2f' % (sx, sy, tx, ty)
    lo, hi = sorted((x1, x2))
    r = (hi - lo) / 2.0 * plane.scale
    sx, sy = plane.pt(lo, 0)
    tx, ty = plane.pt(hi, 0)
    return 'M %.2f %.2f A %.2f %.2f 0 0 1 %.2f %.2f' % (sx, sy, r, r, tx, ty)


def _geodesic_to_interior(plane, x, pt):
    """Path from boundary point x (None = inf) to an interior point."""
    px, py = pt
    if x is None or px == x:
        base = (px, plane.ytop) if x is None else (x, 0.0)
        sx, sy = plane.pt(*base)
        tx, ty = plane.pt(px, py)
        return 'M %.2f %.2f L %.2f %.2f' % (sx, sy, tx, ty)
    # center of the circle through (x, 0) and pt, orthogonal to the axis
    c = (px * px + py * py - x * x) / (2.0 * (px - x))
    r = abs(c - x) * plane.scale
    sx, sy = plane.pt(x, 0)
    tx, ty = plane.pt(px, py)
    sweep = 1 if x < px else 0
    return 'M %.2f %.2f A %.2f %.2f 0 0 %d %.2f %.2f' % (sx, sy, r, r, sweep,
                                                          tx, ty)


def _halfplane_segments(sym):
    """The drawing plan: a list of ("full", x1, x2) and ("half", x, pt)
    entries in world coordinates, x None at infinity; elliptic arcs split
    at their center.  Each vertex is made a float once."""
    xs = [v.num / v.den if v.den else None for v in sym.vertices]
    xs.append(xs[0])
    segs = []
    for i, j in enumerate(sym.pairing):
        if j == i:
            t = elliptic_center(sym, i)
            segs.append(("half", xs[i], t))
            segs.append(("half", xs[i + 1], t))
        else:
            segs.append(("full", xs[i], xs[i + 1]))
    return segs


def _disk_path(b, w, cx, cy, rad):
    """SVG path of the disk geodesic from the boundary point b to the point
    w (on the boundary or inside), both complex, in a picture of the unit
    disk centred at (cx, cy) with radius rad.

    The geodesic lies on the circle through b and w orthogonal to the unit
    circle.  Its centre is c = b + t*i*b on the tangent at b, with
    |c - b| = |c - w| = |t|, which gives
    t = |w - b|^2 / (2 Re((w - b) conj(i b))).  The arc inside the disk is
    less than a half circle (large-arc 0); the sign of
    Im(conj(b - c)(w - c)) tells whether it turns clockwise from b to w.
    When w lies on the diameter through b the denominator vanishes, the
    circle degenerates to that diameter and the path is a straight segment.
    """
    sx, sy = cx + rad * b.real, cy - rad * b.imag
    tx, ty = cx + rad * w.real, cy - rad * w.imag
    den = 2 * ((w - b) * (1j * b).conjugate()).real
    if den == 0:
        return "M %.2f %.2f L %.2f %.2f" % (sx, sy, tx, ty)
    t = abs(w - b) ** 2 / den
    c = b + t * 1j * b
    # screen y points down, so a clockwise turn in the disk is SVG's positive sweep
    sweep = 1 if ((b - c).conjugate() * (w - c)).imag < 0 else 0
    r = abs(t) * rad
    return "M %.2f %.2f A %.2f %.2f 0 0 %d %.2f %.2f" % (sx, sy, r, r, sweep,
                                                          tx, ty)


def _to_disk(x, y=0.0):
    """The point x + iy of the closed upper half-plane (x None for infinity)
    as a complex number in the unit disk, under z -> (i + conj z)/(i - conj z),
    the complex conjugate of the Cayley map (i - z)/(i + z).  It sends
    infinity to -1 and 0 to 1, and maps geodesics onto geodesics."""
    if x is None:
        return complex(-1.0, 0.0)
    z = complex(x, -y)
    return (1j + z) / (1j - z)


def render_polygon(sym, spec=None):
    """Fundamental polygon drawing, half-plane or disk style: one path per
    segment of _halfplane_segments, a full arc in STROKE and each half of
    an elliptic arc in ACCENT.  The style chooses only the background line
    or circle and the path a segment takes.  The symbol is validated
    first: its vertex order leaves no arc (infinity, infinity)."""
    sym.validate()
    spec = _checked_spec(spec, "halfplane")
    if spec.style == "chords":
        raise InvalidSymbolError("render_polygon draws the halfplane or disk "
                                 "style; chords come from render_chords")
    if spec.style == "disk":
        cx, cy = spec.width / 2.0, spec.height / 2.0
        rad = 0.45 * min(spec.width, spec.height)
        body = ['<circle cx="%.2f" cy="%.2f" r="%.2f" fill="none" '
                'stroke="#bbbbbb"/>' % (cx, cy, rad)]
        def path(full, x, end):
            w = _to_disk(end) if full else _to_disk(*end)
            return _disk_path(_to_disk(x), w, cx, cy, rad)
    else:
        plane = _Plane(spec)
        ax_y = plane.pt(0, 0)[1]
        body = ['<line x1="0.00" y1="%.2f" x2="%.2f" y2="%.2f" '
                'stroke="#bbbbbb"/>' % (ax_y, spec.width, ax_y)]
        def path(full, x, end):
            return (_geodesic_path if full else _geodesic_to_interior)(
                plane, x, end)
    for kind, x, end in _halfplane_segments(sym):
        full = kind == "full"
        body.append('<path d="%s" fill="none" stroke="%s"/>'
                    % (path(full, x, end), STROKE if full else ACCENT))
    return _svg(spec, body)
