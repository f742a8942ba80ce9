"""Exact arithmetic on P^1(Q) and 2x2 integer matrices.

Everything here is arbitrary-precision integer arithmetic; there is no
floating point and no rational division.  Circular-order and membership
predicates are expressed through the cross product
D((p:q), (p':q')) = p*q' - p'*q alone.
"""

from math import gcd


class FareyError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSymbolError(FareyError):
    pass


class NotNormalizedError(FareyError):
    """Raised by factorization of a symbol that is not normalized."""

    def __init__(self, arc_index, message=None):
        self.arc_index = arc_index
        super().__init__(message or "symbol is not normalized (arc %d)" % arc_index)


class Cusp:
    """A point of P^1(Q) as a coprime pair (num : den) with den >= 0.

    Infinity is (1 : 0).  The constructor canonicalizes: gcd is divided
    out and the sign is moved to the numerator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if num == 0 and den == 0:
            raise FareyError("(0, 0) does not define a point of P^1(Q)")
        g = gcd(num, den)
        num //= g
        den //= g
        if den < 0 or (den == 0 and num < 0):
            num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("Cusp is immutable")

    def __eq__(self, other):
        return isinstance(other, Cusp) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return "Cusp(%d, %d)" % (self.num, self.den)

    def __str__(self):
        return "%d/%d" % (self.num, self.den)

    @property
    def is_infinity(self):
        return self.den == 0

    def height_bits(self):
        """Naive height log2 max(|num|, den), rounded up to the bit length."""
        return max(abs(self.num), self.den).bit_length()

    @staticmethod
    def parse(text):
        """Parse "p/q" (or a bare integer "p") into a Cusp."""
        if "/" in text:
            p, q = text.split("/")
            return Cusp(int(p), int(q))
        return Cusp(int(text), 1)


_SET_NUM, _SET_DEN = Cusp.num.__set__, Cusp.den.__set__


def _coprime_cusp(num, den):
    """The Cusp of a pair known to be coprime: only the sign is fixed."""
    if den < 0 or (den == 0 and num < 0):
        num, den = -num, -den
    x = object.__new__(Cusp)
    _SET_NUM(x, num)
    _SET_DEN(x, den)
    return x


INFINITY = Cusp(1, 0)
ZERO = Cusp(0, 1)


def cross(r, s):
    """D(r, s) = r.num*s.den - s.num*r.den; zero iff r == s."""
    return r.num * s.den - s.num * r.den


class IMat:
    """A 2x2 integer matrix [[a, b], [c, d]].

    Used both for arc matrices (primitive columns, det > 0) and for group
    elements (det 1, compared modulo sign).
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *args):
        raise AttributeError("IMat is immutable")

    def __repr__(self):
        return "IMat(%d, %d, %d, %d)" % (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        return (isinstance(other, IMat) and self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __mul__(self, other):
        return IMat(self.a * other.a + self.b * other.c,
                    self.a * other.b + self.b * other.d,
                    self.c * other.a + self.d * other.c,
                    self.c * other.b + self.d * other.d)

    def __neg__(self):
        return IMat(-self.a, -self.b, -self.c, -self.d)

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def adjugate(self):
        return IMat(self.d, -self.b, -self.c, self.a)

    def inverse(self):
        """Inverse of a det +-1 matrix (stays integral)."""
        det = self.det()
        if det == 1:
            return self.adjugate()
        if det == -1:
            return -self.adjugate()
        raise FareyError("inverse requires det +-1, got %d" % det)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def psl_normalize(self):
        """Scale by -1 if needed so the first nonzero entry of (a,b,c,d) is > 0."""
        for x in (self.a, self.b, self.c, self.d):
            if x > 0:
                return self
            if x < 0:
                return -self
        raise FareyError("zero matrix has no PSL2 normalization")

    def psl_key(self):
        return self.psl_normalize().entries()

    def psl_eq(self, other):
        return self.psl_key() == other.psl_key()

    def is_identity_psl(self):
        m = self.psl_normalize()
        return m.a == 1 and m.b == 0 and m.c == 0 and m.d == 1

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        r = IDENTITY
        m = self
        while e:
            if e & 1:
                r = r * m
            m = m * m
            e >>= 1
        return r

    def apply(self, x):
        """Moebius action on a cusp: (p:q) -> (a p + b q : c p + d q)."""
        return self.apply_all((x,))[0]

    def apply_all(self, cusps):
        """The images of cusps, as a list; the det is computed once.

        A det +-1 matrix has an integral inverse, so it maps coprime pairs
        to coprime pairs: its images only need the sign fixed, not Cusp's
        gcd.  Any other nonzero det goes through the canonical Cusp(...).
        """
        a, b, c, d = self.a, self.b, self.c, self.d
        det = a * d - b * c
        if det == 0:
            raise FareyError("moebius action needs det != 0")
        make = _coprime_cusp if det == 1 or det == -1 else Cusp
        return [make(a * x.num + b * x.den, c * x.num + d * x.den) for x in cusps]

    def size(self):
        """Sum of absolute values of the entries (word-problem measure)."""
        return abs(self.a) + abs(self.b) + abs(self.c) + abs(self.d)


IDENTITY = IMat(1, 0, 0, 1)
# Right factor turning an arc matrix into the matrix of the reversed arc.
REVERSE = IMat(0, -1, 1, 0)
# Order-2 rotation swapping 0 and infinity while fixing i.
ORDER2 = IMat(0, 1, -1, 0)
# Order-3 rotation fixing rho = (1 + i*sqrt(3))/2; satisfies 1 + t + t^2 = 0.
ORDER3 = IMat(0, -1, 1, -1)

# Classification tags.
CLS_IDENTITY = "identity"
CLS_ELLIPTIC2 = "elliptic2"
CLS_ELLIPTIC3 = "elliptic3"
CLS_PARABOLIC = "parabolic"
CLS_HYPERBOLIC = "hyperbolic"


def classify(g):
    """Trace classification of a det-1 integer matrix.

    Returns one of the CLS_* tags; elliptic order is 2 iff the trace is 0
    and 3 iff the trace is +-1 (no other elliptic traces occur in SL2(Z)).
    """
    if g.det() != 1:
        raise FareyError("classification is defined for det-1 matrices")
    t = abs(g.trace())
    if t == 0:
        return CLS_ELLIPTIC2
    if t == 1:
        return CLS_ELLIPTIC3
    if t == 2:
        return CLS_IDENTITY if g.is_identity_psl() else CLS_PARABOLIC
    return CLS_HYPERBOLIC


def arc_matrix(r, s):
    """Primitive positive-determinant matrix whose columns represent (r, s).

    Sign convention making the result deterministic: the first column is the
    canonical representative of r (second entry >= 0, positive first entry
    at infinity); the second column's sign is then forced by det > 0.
    The determinant is the width of the arc.
    """
    d = cross(r, s)
    if d == 0:
        raise FareyError("degenerate arc (%s, %s)" % (r, s))
    if d > 0:
        return IMat(r.num, s.num, r.den, s.den)
    return IMat(r.num, -s.num, r.den, -s.den)


def exact_div(m, k):
    """Divide all entries by k, raising if the division is not exact."""
    a, b, c, d = m.entries()
    if a % k or b % k or c % k or d % k:
        raise InvalidSymbolError("matrix %r is not divisible by %d" % (m, k))
    return IMat(a // k, b // k, c // k, d // k)
