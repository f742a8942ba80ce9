"""Exact arithmetic on P^1(Q) and 2x2 integer matrices.

Everything here is arbitrary-precision integer arithmetic; there is no
floating point and no rational division.  Circular-order and membership
predicates are expressed through the cross product
D((p:q), (p':q')) = p*q' - p'*q alone.  A point is a Cusp, the coprime
2-tuple (num, den); a matrix is an IMat, the 4-tuple (a, b, c, d) of its
entries.  Both unpack, compare and hash as the plain tuple does, so a Cusp
equals the pair (num, den).
"""

from collections import namedtuple
from math import gcd


class FareyError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSymbolError(FareyError):
    pass


class NotNormalizedError(FareyError):
    """Raised by factorization of a symbol that is not normalized."""

    def __init__(self, arc_index):
        self.arc_index = arc_index
        super().__init__("symbol is not normalized (arc %d)" % arc_index)


def _int_str(x):
    """str(x) for an int of any size.  CPython refuses to write more digits
    than sys.get_int_max_str_digits() (4300 by default), a process-wide
    setting left alone here: a longer int is split at a power of 10 into
    halves written alone.  Below the limit the bytes are str(x)'s."""
    try:
        return int.__repr__(x)
    except ValueError:
        if x < 0:
            return "-" + _int_str(-x)
        k = x.bit_length() * 3 // 20  # about half its decimal digits
        hi, lo = divmod(x, 10 ** k)
        return _int_str(hi) + _int_str(lo).zfill(k)


def _int_of(text):
    """int(text), also past CPython's digit limit (see _int_str): a longer
    run of ASCII digits, with or without a sign, is read in halves."""
    try:
        return int(text)
    except ValueError:
        body = text.strip()
        digits = body[1:] if body[:1] in ("+", "-") else body
        if not (digits.isascii() and digits.isdigit()):
            raise
        k = len(digits) // 2
        value = _int_of(digits[:k]) * 10 ** (len(digits) - k) + _int_of(digits[k:])
        return -value if body[0] == "-" else value


def _shown(value):
    """repr(value) for an error message.  An int whose repr passes 200
    characters is shown by its size in bits, also inside a tuple or list,
    without writing its digits, and a str of more than 200 characters by its
    length; any other value whose repr raises ValueError, as repr does past
    sys.get_int_max_str_digits(), is shown by its type."""
    if isinstance(value, int):
        if not -10 ** 199 < value < 10 ** 200:
            return "%s<int of %d bits>" % ("-" if value < 0 else "",
                                           value.bit_length())
    elif isinstance(value, str) and len(value) > 200:
        return "<str of %d characters>" % len(value)
    if type(value) is tuple or type(value) is list:
        items = [_shown(v) for v in value]
        if type(value) is list:
            return "[%s]" % ", ".join(items)
        return "(%s,)" % items[0] if len(items) == 1 else "(%s)" % ", ".join(items)
    try:
        return repr(value)
    except ValueError:
        return "<%s too long to show>" % type(value).__name__


def _shown_cusp(point):
    """The cusp of point, a Cusp or an integer pair (p, q) of either sign,
    as "p/q" for an error message; a cusp whose "p/q" passes 200
    characters is shown by its height in bits, as _shown shows a long
    value by its size."""
    c = Cusp(*point)
    text = str(c)
    return text if len(text) <= 200 else "<cusp of %d bits>" % c.height_bits()


def _int_arg(value, lo, hi, message, error=FareyError):
    """value if it is an int, not a bool, in [lo, hi), where a None bound is
    open; else raises error("<message>, got <value>").  The one int check."""
    if (type(value) is not int or lo is not None and value < lo
            or hi is not None and value >= hi):
        raise error("%s, got %s" % (message, _shown(value)))
    return value


def _int_args(values, message, error=FareyError):
    """values if every entry is an int, not a bool, by one C-level type test;
    else raises _int_arg's error for the first entry that is not."""
    if not {int}.issuperset(map(type, values)):
        for value in values:
            _int_arg(value, None, None, message, error)
    return values


# makes a Cusp or an IMat of a tuple of its fields without calling the
# class, so no Python-level __new__ or __init__ runs
_new = tuple.__new__


class Cusp(namedtuple("Cusp", "num den")):
    """A point of P^1(Q) as the coprime pair (num, den) with den >= 0.

    Infinity is (1, 0).  The constructor canonicalizes: gcd is divided out
    and the sign is moved to the numerator.  Being a tuple, a Cusp is
    immutable and compares and hashes as the plain pair (num, den) does.
    """

    __slots__ = ()

    def __new__(cls, num, den=1):
        try:  # free on ints: checked only when gcd refuses its arguments
            g = gcd(num, den) or 1
        except TypeError:
            _int_args((num, den), "cusp coordinates must be ints")
            raise
        return _coprime_cusp(num // g, den // g)

    def __init__(self, num, den=1):
        if num == 0 and den == 0:
            raise FareyError("(0, 0) does not define a point of P^1(Q)")

    def __repr__(self):
        return "Cusp(%s, %s)" % tuple(map(_int_str, self))

    def __str__(self):
        try:  # "%d" is faster, but refuses ints past the digit limit
            return "%d/%d" % self
        except ValueError:
            return "%s/%s" % tuple(map(_int_str, self))

    @property
    def is_infinity(self):
        return self.den == 0

    def height_bits(self):
        """Naive height log2 max(|num|, den), rounded up to the bit length."""
        return max(abs(self.num), self.den).bit_length()

    @staticmethod
    def parse(text):
        """Parse the str "p/q" (or a bare integer "p") into a Cusp.  When
        int() reads p and q as a coprime pair with q > 0, as it reads every
        str(Cusp) but infinity's "1/0", that pair is the Cusp, made without
        the constructor; any other text gives the Cusp, or the error, of
        Cusp(_int_of(p), _int_of(q))."""
        try:
            p, _, q = text.partition("/")
            num, den = int(p), int(q)
        except (AttributeError, TypeError, ValueError):
            pass
        else:
            if den > 0 and gcd(num, den) == 1:
                return _new(Cusp, (num, den))
        try:
            p, q = text.split("/") if "/" in text else (text, 1)
            return Cusp(_int_of(p), _int_of(q))
        except (AttributeError, TypeError, ValueError):
            raise FareyError("not a cusp p/q: %s" % _shown(text)) from None


def _coprime_cusp(num, den):
    """The Cusp of a pair known to be coprime: only the sign is fixed, here
    for every Cusp, since the constructor divides out the gcd and calls this."""
    if den < 0 or (den == 0 and num < 0):
        num, den = -num, -den
    return _new(Cusp, (num, den))


def _as_cusp(x):
    """x as a Cusp: a Cusp, or an int pair (p, q) read as Cusp(p, q), which
    refuses (0, 0); anything else raises FareyError naming it."""
    if type(x) is Cusp:
        return x
    if type(x) is tuple and len(x) == 2 and {int}.issuperset(map(type, x)):
        return Cusp(*x)
    raise FareyError("a point is a Cusp or an int pair (p, q), got %s" % _shown(x))


INFINITY = Cusp(1, 0)
ZERO = Cusp(0, 1)


def cross(r, s):
    """D(r, s) = r.num*s.den - s.num*r.den; zero iff r == s."""
    return r.num * s.den - s.num * r.den


class IMat(namedtuple("IMat", "a b c d")):
    """A 2x2 integer matrix [[a, b], [c, d]], as the 4-tuple (a, b, c, d).

    Used both for arc matrices (primitive columns, det > 0) and for group
    elements (det 1, compared modulo sign).  Being a tuple, it is immutable
    and compares and hashes as its entries do, so any code may unpack it as
    four integers.
    """

    __slots__ = ()

    def __repr__(self):
        return "IMat(%s, %s, %s, %s)" % tuple(map(_int_str, self))

    def __mul__(self, other):
        a, b, c, d = self
        e, f, g, h = other
        return _new(IMat, (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))

    def __neg__(self):
        a, b, c, d = self
        return _new(IMat, (-a, -b, -c, -d))

    def det(self):
        a, b, c, d = self
        return a * d - b * c

    def trace(self):
        return self[0] + self[3]

    def adjugate(self):
        a, b, c, d = self
        return _new(IMat, (d, -b, -c, a))

    def inverse(self):
        """Inverse of a det +-1 matrix (stays integral)."""
        det = self.det()
        if det == 1:
            return self.adjugate()
        if det == -1:
            return -self.adjugate()
        raise FareyError("inverse requires det +-1, got %d" % det)

    def entries(self):
        return tuple(self)

    def psl_normalize(self):
        """Scale by -1 if needed so the first nonzero entry of (a,b,c,d) is > 0."""
        for x in self:
            if x:
                return self if x > 0 else -self
        raise FareyError("zero matrix has no PSL2 normalization")

    def psl_eq(self, other):
        return self.psl_normalize() == other.psl_normalize()

    def is_identity_psl(self):
        return self.psl_normalize() == (1, 0, 0, 1)

    def __pow__(self, e):
        if _int_arg(e, None, None, "matrix powers need an int exponent") < 0:
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
        """Moebius action on a cusp: (p:q) -> (a p + b q : c p + d q).  x is
        a Cusp or an int pair read as its Cusp (_as_cusp)."""
        a, b, c, d = self
        if a * d == b * c:
            raise FareyError("moebius action needs det != 0")
        p, q = _as_cusp(x)
        return Cusp(a * p + b * q, c * p + d * q)

    def size(self):
        """Sum of absolute values of the entries (word-problem measure)."""
        return sum(map(abs, self))


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


def _sl2_arg(g, message):
    """g if its entries are four ints (see _int_arg) of det 1, else FareyError."""
    try:
        a, b, c, d = _int_args(g, message)
    except (TypeError, ValueError):  # not iterable, or not four entries
        raise FareyError("%s, got %s" % (message, _shown(g))) from None
    if a * d - b * c != 1:
        raise FareyError("%s, got det %s" % (message, _shown(a * d - b * c)))
    return g


def classify(g):
    """Trace classification of a det-1 integer matrix, an IMat or any
    sequence of its four entries.

    Returns one of the CLS_* tags; elliptic order is 2 iff the trace is 0
    and 3 iff the trace is +-1 (no other elliptic traces occur in SL2(Z)).
    """
    a, b, c, d = _sl2_arg(g, "classification is defined for det-1 matrices")
    t = abs(a + d)
    if t == 0:
        return CLS_ELLIPTIC2
    if t == 1:
        return CLS_ELLIPTIC3
    if t == 2:  # with det 1, b = c = 0 leaves only +-identity
        return CLS_IDENTITY if b == c == 0 else CLS_PARABOLIC
    return CLS_HYPERBOLIC


def arc_matrix(r, s):
    """Primitive positive-determinant matrix whose columns represent (r, s).

    Sign convention making the result deterministic: the first column is the
    canonical representative of r (second entry >= 0, positive first entry
    at infinity); the second column's sign is then forced by det > 0.
    The determinant is the width of the arc.  r and s are Cusps or int
    pairs read as their Cusps (_as_cusp).
    """
    r, s = _as_cusp(r), _as_cusp(s)
    d = cross(r, s)
    if d == 0:
        raise FareyError("degenerate arc (%s, %s)"
                         % (_shown_cusp(r), _shown_cusp(s)))
    if d > 0:
        return IMat(r.num, s.num, r.den, s.den)
    return IMat(r.num, -s.num, r.den, -s.den)

