import cmath
import hashlib
import math
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from fareysym.exact import (INFINITY, REVERSE, ZERO, Cusp, FareyError,
                            InvalidSymbolError, arc_matrix)
from fareysym.symbol import FareySymbol
from fareysym.render import (MAX_SIDE, RenderSpec, _disk_path, _to_disk,
                             elliptic_center, render_chords, render_polygon)

# sha256 over the chord and half-plane SVGs (default specs) of the unimodular
# and then the normalized symbol of Gamma0(N)
SVG_DIGESTS = {
    1: "f841609f7a3eb61c4237716fbec24637550252c1a32cd68f3974bd6227351fdb",
    2: "f230e4990a7a526cbbf6fcbceb291e66be02f1ef0830cdb11e28689c6dd0592a",
    13: "51dd3d5139bed4a44b2a931f5e08285f47047f542b434f3825e1213d4e424b3d",
    15: "29f33cd84edf2709a5d01dff2510906a2eb7c8a2cf19d9807678c6e965979347",
    37: "425fd9b9b79a598e0426e1a9589a3200dff9cab107f51bda39f56a6a4a0ef49d",
    180: "19ab9aa99cda9dbd755016aff82dd369bf5452f2ec2e07264d173fd78360f953",
}

# sha256 over the disk-style SVG of the unimodular and then the normalized
# symbol of each level in SVG_DIGESTS
DISK_DIGESTS = {
    1: "57768130ca483aec56568aa3038c96d9717007e116ebc643e5d513cdbc1b6279",
    2: "d6822298881a3b58f26d2455f1c39d8bce0f5b28efc264f9e26ef299175d2bf3",
    13: "df47326a4fb57abec810a045bf318c308586973738d1a87da99b3f70c18be023",
    15: "fc87e6a95ab4709f81ca9b89c656ff697062d3c6e7a6869d9cf30e54ed886de6",
    37: "30712c1049cef176785101780c425211c5c18a0f075a0505aa7904dcff12081c",
    180: "054e701336a3c4c2f188c63230c578b21530805ed830e5789d566139684fbacb",
}


def order2_center(sym, i):
    """Exact rational (x, y) of the interior point of an order-2 arc: the
    image of i under the arc matrix, a reference independent of the
    gluing."""
    a, b, c, d = arc_matrix(*sym.arc(i))
    den = c * c + d * d
    return (Fraction(a * c + b * d, den), Fraction(a * d - b * c, den))


def order3_center(sym, i):
    """Interior point of an order-3 arc as (x, y_coeff) with y = y_coeff *
    sqrt(3): the image of rho = (1 + i sqrt 3)/2 under the reversed arc
    matrix, a reference independent of the gluing."""
    a, b, c, d = arc_matrix(*sym.arc(i)) * REVERSE
    den = c * c + c * d + d * d
    x = Fraction(2 * a * c + a * d + b * c + 2 * b * d, 2 * den)
    y = Fraction(a * d - b * c, 2 * den)
    return (x, y)


def reference_center(sym, i):
    """The floats of the exact reference point of elliptic arc i."""
    if sym.ell[i] == 2:
        x, y = order2_center(sym, i)
        return float(x), float(y)
    x, y = order3_center(sym, i)
    return float(x), float(y) * math.sqrt(3)


def counts_in(svg):
    return (svg.count('class="chord"'), svg.count('class="dot3"'),
            svg.count('class="dot2"'))


class TestChords:
    @pytest.mark.parametrize("N,chords,dot3,dot2", [
        (15, 5, 0, 0),
        (13, 1, 2, 2),
        (1, 0, 1, 1),
    ])
    def test_fixture_counts(self, symbol_for, N, chords, dot3, dot2):
        svg = render_chords(symbol_for(N))
        assert counts_in(svg) == (chords, dot3, dot2)
        ET.fromstring(svg)

    def test_counts_match_classification(self, symbol_for):
        for N in range(1, 51):
            s = symbol_for(N)
            svg = render_chords(s)
            cc = s.class_counts()
            chords, dot3, dot2 = counts_in(svg)
            assert chords == cc["hyperbolic"] + cc["parabolic"], N
            assert dot3 == cc["elliptic3"] and dot2 == cc["elliptic2"], N

    def test_deterministic_bytes(self, symbol_for):
        a = render_chords(symbol_for(22))
        b = render_chords(symbol_for(22))
        assert a == b


class TestPolygon:
    def test_infinity_ray_is_vertical_line(self, symbol_for):
        svg = render_polygon(symbol_for(2), RenderSpec(style="halfplane"))
        # arc (infinity, 0): a straight segment at the x of 0
        assert '<line' in svg or ' L ' in svg
        ET.fromstring(svg)

    def test_semicircle_geometry(self, symbol_for):
        spec = RenderSpec(style="halfplane", width=600, height=400,
                          xmin=-0.25, xmax=1.25)
        svg = render_polygon(symbol_for(1), spec)
        # the full arcs are emitted as SVG A-paths with one radius
        assert ' A ' in svg
        ET.fromstring(svg)

    def test_order2_center_exact(self, symbol_for):
        s = symbol_for(2)
        i = next(i for i, mu in s.ell.items() if mu == 2)
        assert s.arc(i)[0].num == 0  # the elliptic arc (0, 1)
        assert order2_center(s, i) == (Fraction(1, 2), Fraction(1, 2))

    def test_order3_center_fixed_by_gluing(self, symbol_for):
        # the order-3 rotation must fix its interior point: check the exact
        # coordinates satisfy g(z) = z via the quadratic it solves
        s = symbol_for(13)
        i = next(i for i, mu in s.ell.items() if mu == 3)
        x, y = order3_center(s, i)  # the point is x + y*sqrt(3)*i
        g = s.gluing(i)
        # g fixes z iff c z^2 + (d - a) z - b = 0; plug in z = x + i y sqrt 3
        a, b, c, d = g.entries()
        re = c * (x * x - 3 * y * y) + (d - a) * x - b
        im = c * 2 * x * y + (d - a) * y
        assert re == 0 and im == 0

    def test_elliptic_center_is_the_reference_rounded(self, symbol_for,
                                                      normalized_for):
        # the gluing's fixed point, each coordinate one correctly rounded
        # quotient of ints, equals the float of the arc-matrix image
        # exactly, on every elliptic arc of both representations
        seen = 0
        for N in range(1, 301):
            for sym in (symbol_for(N), normalized_for(N)):
                for i in sym.ell:
                    assert elliptic_center(sym, i) == reference_center(sym, i), (N, i)
                    seen += 1
        assert seen == 508

    def test_an_arc_that_is_not_elliptic_has_no_center(self, symbol_for):
        # raised a bare KeyError
        sym = symbol_for(11)
        assert 0 not in sym.ell
        with pytest.raises(FareyError, match="^arc 0 is not elliptic$"):
            elliptic_center(sym, 0)

    def test_a_degenerate_arc_is_refused(self):
        # the arc (infinity, infinity) has no geodesic; validation refuses
        # its vertex order before anything is drawn
        sym = FareySymbol([INFINITY, INFINITY, ZERO, Cusp(1, 1)], [1, 0, 3, 2])
        for style in ("halfplane", "disk"):
            with pytest.raises(InvalidSymbolError, match="^vertices read from "
                               r"\(infinity, 0\) are not increasing at 1/1, 1/0$"):
                render_polygon(sym, RenderSpec(style=style))

    def test_an_invalid_symbol_is_refused_first(self):
        # the area-0 symbol validate refuses is drawn in no style
        flat = FareySymbol([INFINITY, ZERO], [0, 1], {0: 2, 1: 2})
        with pytest.raises(InvalidSymbolError, match="area 0"):
            render_chords(flat)
        for style in ("halfplane", "disk"):
            with pytest.raises(InvalidSymbolError, match="area 0"):
                render_polygon(flat, RenderSpec(style=style))

    def test_disk_style(self, symbol_for):
        svg = render_polygon(symbol_for(13), RenderSpec(style="disk"))
        # circle arcs, not sampled polylines; TestDiskIsExact checks them
        assert " A " in svg and "polyline" not in svg
        ET.fromstring(svg)

    def test_deterministic(self, symbol_for):
        spec = RenderSpec(style="halfplane")
        assert render_polygon(symbol_for(37), spec) == \
            render_polygon(symbol_for(37), spec)


@pytest.mark.parametrize("N", sorted(SVG_DIGESTS))
def test_chord_and_halfplane_bytes_are_pinned(symbol_for, normalized_for, N):
    h = hashlib.sha256()
    for sym in (symbol_for(N), normalized_for(N)):
        h.update(render_chords(sym, RenderSpec(style="chords")).encode())
        h.update(render_polygon(sym, RenderSpec(style="halfplane")).encode())
    assert h.hexdigest() == SVG_DIGESTS[N]


@pytest.mark.parametrize("N", sorted(DISK_DIGESTS))
def test_disk_bytes_are_pinned(symbol_for, normalized_for, N):
    h = hashlib.sha256()
    for sym in (symbol_for(N), normalized_for(N)):
        h.update(render_polygon(sym, RenderSpec(style="disk")).encode())
    assert h.hexdigest() == DISK_DIGESTS[N]


def halfplane_geodesic(e1, e2, k=16):
    """Points strictly between the ends of the half-plane geodesic from e1
    to e2, each a complex number or None for infinity; e1 is on the
    boundary."""
    if e1 is None or e2 is None or e1.real == e2.real:
        x = (e2 if e1 is None else e1).real
        ys = sorted(e.imag for e in (e1, e2) if e is not None)
        if len(ys) == 2:
            return [complex(x, ys[0] + (ys[1] - ys[0]) * j / k) for j in range(1, k)]
        # a ray up to infinity, from the real axis or from an interior point
        base, js = (1.0, range(-20, 21)) if ys[0] == 0 else (ys[0], range(1, 21))
        return [complex(x, base * 2.0 ** j) for j in js]
    m = (abs(e2) ** 2 - e1.real ** 2) / (2 * (e2.real - e1.real))
    a1, a2 = cmath.phase(e1 - m), cmath.phase(e2 - m)
    r = abs(e1 - m)
    return [m + cmath.rect(r, a1 + (a2 - a1) * j / k) for j in range(1, k)]


def segment_distance(q, a, b):
    if a == b:
        return abs(q - a)
    t = min(max(((q - a) / (b - a)).real, 0.0), 1.0)
    return abs(q - a - t * (b - a))


def arc_circle(x1, y1, x2, y2, r, large, sweep):
    """Centre, radius, start angle and signed sweep of an SVG arc with
    rx = ry = r and no rotation, by SVG 1.1 F.6.5 and F.6.6."""
    hx, hy = (x1 - x2) / 2, (y1 - y2) / 2
    r = max(r, math.hypot(hx, hy))
    coef = math.sqrt(max(0.0, (r * r - hx * hx - hy * hy) / (hx * hx + hy * hy)))
    if large == sweep:
        coef = -coef
    ccx, ccy = coef * hy, -coef * hx
    centre = complex(ccx + (x1 + x2) / 2, ccy + (y1 + y2) / 2)
    u, v = complex(hx - ccx, hy - ccy), complex(-hx - ccx, -hy - ccy)
    theta = cmath.phase(u)
    delta = cmath.phase(v / u) % (2 * math.pi)
    if not sweep:
        delta -= 2 * math.pi
    return centre, r, theta, delta


class TestDiskIsExact:
    """Every disk path is the geodesic it stands for: a circle rebuilt
    from the arc command passes within 0.5 px of points sampled on the
    half-plane geodesic and carried over by the Cayley map, and meets the
    boundary circle at right angles; points on a straight path lie within
    0.5 px of it."""

    W, H = 600, 400

    def screen(self, z):
        cx, cy, rad = self.W / 2, self.H / 2, 0.45 * min(self.W, self.H)
        w = -1 if z is None else ((1j - z) / (1j + z)).conjugate()
        return complex(cx + rad * w.real, cy - rad * w.imag)

    def plan(self, sym):
        def pt(c):
            return None if c.is_infinity else complex(c.num / c.den)
        for i in range(sym.n):
            r, s = sym.arc(i)
            if sym.pairing[i] != i:
                yield pt(r), pt(s)
                continue
            p = complex(*reference_center(sym, i))
            yield pt(r), p
            yield pt(s), p

    def check(self, sym):
        svg = render_polygon(sym, RenderSpec(style="disk", width=self.W,
                                             height=self.H))
        paths = [e.get("d") for e in ET.fromstring(svg)
                 if e.tag.endswith("path")]
        plan = list(self.plan(sym))
        assert len(paths) == len(plan)
        disk_centre, rad = complex(self.W / 2, self.H / 2), 0.45 * min(self.W, self.H)
        for d, (e1, e2) in zip(paths, plan):
            f = d.split()
            a, b = complex(float(f[1]), float(f[2])), complex(float(f[-2]), float(f[-1]))
            assert abs(a - self.screen(e1)) < 0.01 and abs(b - self.screen(e2)) < 0.01, d
            samples = [self.screen(z) for z in halfplane_geodesic(e1, e2)]
            if f[3] == "L" or a == b:
                # a diameter, or an arc whose ends round to one point
                for q in samples:
                    assert segment_distance(q, a, b) < 0.5, (d, q)
                continue
            assert f[3] == "A" and f[4] == f[5] and f[6:9] == ["0", "0", f[8]], d
            c, r, theta, delta = arc_circle(a.real, a.imag, b.real, b.imag,
                                            float(f[4]), int(f[7]), int(f[8]))
            for q in samples:
                # distance from q to the drawn part of the circle
                turned = cmath.phase((q - c) / cmath.rect(1, theta))
                if turned * delta >= 0 and abs(turned) <= abs(delta):
                    off = abs(abs(q - c) - r)
                else:
                    off = min(abs(q - a), abs(q - b))
                assert off < 0.5, (d, q)
            # the circles meet at right angles iff |c - O|^2 = r^2 + rad^2
            assert abs(abs(c - disk_centre) - math.hypot(r, rad)) < 0.5, d

    def test_levels_up_to_60(self, symbol_for, normalized_for):
        for N in range(1, 61):
            for sym in (symbol_for(N), normalized_for(N)):
                self.check(sym)

    @pytest.mark.parametrize("N", [180, 210, 420])
    def test_large_levels(self, symbol_for, normalized_for, N):
        for sym in (symbol_for(N), normalized_for(N)):
            self.check(sym)

    def test_diameters_are_straight(self, symbol_for):
        # level 1: the halves of the order-2 arc (inf, 0) meet at i, the
        # disk centre; the order-3 halves are arcs
        svg = render_polygon(symbol_for(1), RenderSpec(style="disk"))
        assert svg.count(" L ") == 2 and svg.count(" A ") == 2
        # the geodesic (-p/q, q/p) passes through i as well
        for p, q in ((2, 1), (3, 7), (41, 13)):
            b, w = _to_disk(-p / q), _to_disk(q / p)
            assert " L " in _disk_path(b, w, 300.0, 200.0, 180.0)


class TestSpec:
    def test_bad_dimensions(self):
        with pytest.raises(FareyError):
            RenderSpec(width=0)
        with pytest.raises(FareyError):
            RenderSpec(xmin=2.0, xmax=1.0)

    @pytest.mark.parametrize("style", ["bogus", "Disk", "", None])
    def test_unknown_style(self, style):
        with pytest.raises(InvalidSymbolError, match="style"):
            RenderSpec(style=style)

    def test_polygon_refuses_chords(self, symbol_for):
        with pytest.raises(InvalidSymbolError, match="chords"):
            render_polygon(symbol_for(13), RenderSpec(style="chords"))

    @pytest.mark.parametrize("style", ["halfplane", "disk"])
    def test_chords_refuse_polygon_styles(self, symbol_for, style):
        with pytest.raises(InvalidSymbolError, match=style):
            render_chords(symbol_for(13), RenderSpec(style=style))

    @pytest.mark.parametrize("render, spec", [
        (render_chords, "x"), (render_chords, ("chords", 10, 10, 0, 1)),
        (render_polygon, ("disk", 10, 10, 0, 1)), (render_polygon, ())])
    def test_a_spec_that_is_no_render_spec_is_refused(self, symbol_for,
                                                      render, spec):
        # the first three raised a bare AttributeError and () drew the
        # default spec
        with pytest.raises(InvalidSymbolError,
                           match="^a render spec is a RenderSpec, got "):
            render(symbol_for(11), spec)

    @pytest.mark.parametrize("dims", [{"width": 1.5}, {"width": True},
                                      {"width": "5"}, {"height": 400.0},
                                      {"height": None}, {"width": 10**400},
                                      {"height": 10**400}, {"width": 10**5000},
                                      {"height": MAX_SIDE + 1}])
    def test_dimensions_must_be_ints(self, dims):
        # unchecked, a float width writes a truncated header over
        # coordinates computed from the float
        with pytest.raises(InvalidSymbolError, match="ints"):
            RenderSpec(**dims)

    @pytest.mark.parametrize("ends", [
        {"xmax": float("inf")}, {"xmin": float("-inf")}, {"xmin": float("nan")},
        {"xmin": "a"}, {"xmax": None}, {"xmin": True}, {"xmax": 1j},
        {"xmax": 10 ** 5000}, {"xmin": -1e308, "xmax": 1e308}])
    def test_x_range_must_be_finite_reals(self, ends):
        # unchecked, an infinite end divides by zero, a str compares with a
        # TypeError and a huge int overflows its float
        with pytest.raises(InvalidSymbolError, match="finite reals"):
            RenderSpec(**ends)

    @pytest.mark.parametrize("field", ["style", "width", "height", "xmin", "xmax"])
    def test_fields_cannot_be_assigned(self, field):
        # a plain class took spec.width = 0 past every check, and
        # render_polygon then divided by zero
        spec = RenderSpec(style="halfplane")
        with pytest.raises(AttributeError):
            setattr(spec, field, 0)
        assert spec == RenderSpec(style="halfplane")

    @pytest.mark.parametrize("change, message", [
        ({"width": 0}, "ints"), ({"height": 1.5}, "ints"),
        ({"style": "bogus"}, "style"), ({"xmin": float("nan")}, "finite reals"),
        ({"xmax": -1}, "empty x-range")])
    def test_replace_checks_its_fields(self, change, message):
        with pytest.raises(InvalidSymbolError, match=message):
            RenderSpec(style="halfplane")._replace(**change)

    def test_make_checks_its_fields(self):
        with pytest.raises(InvalidSymbolError, match="finite reals"):
            RenderSpec._make(("disk", 600, 400, float("nan"), 1.25))
        spec = RenderSpec._make(("disk", 300, 200, -1, 2))
        assert spec == RenderSpec("disk", 300, 200, -1, 2)
        assert spec._replace(width=600) == RenderSpec("disk", 600, 200, -1, 2)

    def test_a_spec_is_a_value(self):
        spec = RenderSpec(style="disk", width=300)
        assert repr(spec) == ("RenderSpec(style='disk', width=300, height=400, "
                              "xmin=-0.25, xmax=1.25)")
        assert spec == RenderSpec("disk", 300, 400, -0.25, 1.25)
        assert spec == ("disk", 300, 400, -0.25, 1.25)
        assert spec != RenderSpec(style="disk")
        assert hash(spec) == hash(RenderSpec("disk", 300))
        assert len({spec, RenderSpec("disk", 300), RenderSpec()}) == 2
        match spec:
            case RenderSpec(style, width, xmin=xmin):
                assert (style, width, xmin) == ("disk", 300, -0.25)

    def test_x_range_takes_any_finite_real(self, symbol_for):
        spec = RenderSpec(style="halfplane", xmin=Fraction(-1, 4), xmax=1)
        assert render_polygon(symbol_for(13), spec).startswith("<svg")

    @pytest.mark.parametrize("style", ["chords", "halfplane", "disk"])
    def test_largest_dimensions_render(self, symbol_for, style):
        # beyond the cap, a width of 10**400 overflowed its float
        spec = RenderSpec(style=style, width=MAX_SIDE, height=MAX_SIDE)
        draw = render_chords if style == "chords" else render_polygon
        svg = draw(symbol_for(13), spec)
        ET.fromstring(svg)
        assert 'width="%d"' % MAX_SIDE in svg and "inf" not in svg
