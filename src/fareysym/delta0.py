"""Presentation of the degree-zero divisors on P^1(Q) as a module over the
integral group ring of the symbol's group.

The boundary arcs of the polygon generate the module; one global relation
ties a set of orbit representatives together, and each elliptic arc
contributes a torsion relation.  Eliminating redundant generators leaves a
free presentation whose higher syzygies alternate between multiplication by
(gamma - 1) and by the orbit sum of gamma, one coordinate per elliptic arc.
"""

from .exact import (IDENTITY, Cusp, FareyError, IMat, _as_cusp, _int_arg,
                    _int_args, _shown)


def _element(pairs):
    """The GroupRingElement of (matrix, int coefficient) pairs, unchecked:
    every element is built here, the one place where matrices are
    sign-normalized and terms merged.  Zero coefficients are dropped."""
    merged = {}
    for m, c in pairs:
        if c:
            m = m.psl_normalize()
            c += merged.get(m, 0)
            if c:
                merged[m] = c
            else:
                del merged[m]
    out = object.__new__(GroupRingElement)
    out.terms = merged
    return out


class GroupRingElement:
    """Formal Z-linear combination of PSL2(Z) elements.

    Terms are keyed by sign-normalized matrices; zero coefficients are
    dropped, so an element is zero iff it has no terms.  The constructor,
    of, a scalar product and a sum or difference check their arguments
    (IMat keys, int coefficients, GroupRingElement operands); every element
    is built by _element, which trusts them.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        terms = {} if terms is None else terms
        if not isinstance(terms, dict) or not {IMat}.issuperset(map(type, terms)):
            raise FareyError("group ring terms are a dict of IMat keys, got %s"
                             % _shown(terms))
        _int_args(terms.values(), "group ring coefficients must be ints")
        self.terms = _element(terms.items()).terms

    @staticmethod
    def zero():
        return _element(())

    @staticmethod
    def of(mat, coeff=1):
        if type(mat) is not IMat:
            raise FareyError("group ring elements are sums of IMats, got %s"
                             % _shown(mat))
        _int_arg(coeff, None, None, "group ring coefficients must be ints")
        return _element([(mat, coeff)])

    @staticmethod
    def one():
        return _element([(IDENTITY, 1)])

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        return _element([*self.terms.items(), *_operand(other).terms.items()])

    def __sub__(self, other):
        return self + (-_operand(other))

    def __neg__(self):
        return _element([(m, -c) for m, c in self.terms.items()])

    def __mul__(self, other):
        if not isinstance(other, GroupRingElement):
            _int_arg(other, None, None, "scalar multipliers must be ints")
            return _element([(m, c * other) for m, c in self.terms.items()])
        return _element([(m1 * m2, c1 * c2) for m1, c1 in self.terms.items()
                         for m2, c2 in other.terms.items()])

    def __rmul__(self, other):
        return self * other  # an int scalar commutes with every element

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        if not self.terms:
            return "GroupRingElement(0)"
        bits = ["%+d*%s" % (c, list(m)) for m, c in sorted(self.terms.items())]
        return "GroupRingElement(%s)" % " ".join(bits)

    def act_on_divisor(self, divisor):
        """Apply the element to a formal sum of cusps (dict point -> int
        coefficient), a point being a Cusp or an int pair read as its Cusp
        (IMat.apply).  Any other divisor raises FareyError naming it."""
        if not isinstance(divisor, dict):
            raise FareyError("a divisor is a dict of points to int "
                             "coefficients, got %s" % _shown(divisor))
        _int_args(divisor.values(), "divisor coefficients must be ints")
        if not {Cusp}.issuperset(map(type, divisor)):  # pairs may share a Cusp
            divisor = _divisor_sum({_as_cusp(p): k} for p, k in divisor.items())
        # m is invertible, so no two cusps of one term share an image
        return _divisor_sum({m.apply(cusp): c * k for cusp, k in divisor.items()}
                            for m, c in self.terms.items())

    def to_jsonable(self):
        return [[c, list(m)] for m, c in sorted(self.terms.items())]


def _operand(x):
    """x if it is a GroupRingElement, else FareyError naming it."""
    if not isinstance(x, GroupRingElement):
        raise FareyError("group ring sums need a GroupRingElement, got %s"
                         % _shown(x))
    return x


def _divisor_sum(divisors):
    """The sum of formal sums of cusps, without its zero terms."""
    total = {}
    for divisor in divisors:
        for cusp, k in divisor.items():
            total[cusp] = total.get(cusp, 0) + k
    return {cusp: k for cusp, k in total.items() if k}


def arc_divisor(sym, i):
    """The degree-zero divisor {s} - {r} of arc i = (r, s)."""
    r, s = sym.arc(i)
    if r == s:
        raise FareyError("degenerate arc")
    return {s: 1, r: -1}


class Delta0Presentation:
    """Generators and relations of the degree-zero divisor module.

    generators lists arc indices: first the representatives of the
    non-elliptic pairing orbits (the (infinity, 0) arc first when it is
    among them), then the elliptic arcs.  lam maps every generator to its
    coefficient in the single global relation; mu maps each elliptic
    generator to its torsion relation coefficient.
    """

    __slots__ = ("symbol", "generators", "elliptic", "lam", "mu")

    def __init__(self, symbol, generators, elliptic, lam, mu):
        self.symbol = symbol
        self.generators = generators
        self.elliptic = elliptic
        self.lam = lam
        self.mu = mu

    def check(self):
        """Machine-checkable consistency of the defining relations."""
        sym = self.symbol
        # paired arcs: gamma carries the reversed partner onto the arc.
        for i in range(sym.n):
            j = sym.pairing[i]
            if j == i:
                continue
            g = sym.gluing(i)
            u, v = sym.arc(j)
            r, s = sym.arc(i)
            if g.apply(v) != r or g.apply(u) != s:
                raise FareyError(
                    "gluing does not carry the reversed partner onto arc %d" % i)
        # elliptic relations: gamma^2 = -1 resp. 1 + gamma + gamma^2 = 0,
        # and the order-3 triangle closes up.
        for i, muv in sym.ell.items():
            g = sym.gluing(i)
            if muv == 2:
                sq = g * g
                if not sq.is_identity_psl():
                    raise FareyError(
                        "order-2 gluing of arc %d fails gamma^2 = +-1" % i)
            else:
                acc = GroupRingElement.one() + GroupRingElement.of(g) \
                    + GroupRingElement.of(g * g)
                if acc.act_on_divisor(arc_divisor(sym, i)):
                    raise FareyError(
                        "order-3 triangle at arc %d does not close" % i)
        # the relations themselves: sum_a lambda_a {arc a} = 0 over the
        # generators, and mu_e {arc e} = 0 for each elliptic arc e.
        if _divisor_sum(self.lam[a].act_on_divisor(arc_divisor(sym, a))
                        for a in self.generators):
            raise FareyError("the global relation sum of lambda_a {arc a} "
                             "does not vanish")
        for e in self.elliptic:
            if self.mu[e].act_on_divisor(arc_divisor(sym, e)):
                raise FareyError(
                    "the torsion relation of elliptic arc %d does not vanish"
                    % e)
        return True

    def to_jsonable(self):
        return {
            "generators": list(self.generators),
            "elliptic": {str(i): self.symbol.ell[i] for i in self.elliptic},
            "lambda": {str(i): self.lam[i].to_jsonable() for i in self.generators},
            "mu": {str(i): self.mu[i].to_jsonable() for i in self.elliptic},
        }


def delta0_presentation(sym):
    """Presentation of the degree-zero divisors over the group ring.

    The non-elliptic orbit representatives a carry lambda_a = 1 - gamma_a^-1
    and the elliptic arcs carry lambda_a = 1 together with the torsion
    relation mu_a = 1 + gamma_a + ... + gamma_a^(order-1).  The symbol is
    validated first (FareySymbol.validate, memoized).
    """
    sym.validate()
    nonell = [i for i, j in enumerate(sym.pairing) if i < j]
    inf0 = sym.infinity_zero_arc()
    if inf0 is not None and sym.pairing[inf0] != inf0:
        nonell.remove(min(inf0, sym.pairing[inf0]))
        nonell.insert(0, inf0)
    elliptic = sorted(sym.ell)
    lam = {}
    mu = {}
    for i in nonell:  # a gluing has det 1: its inverse is its adjugate
        lam[i] = _element([(IDENTITY, 1), (sym.gluing(i).adjugate(), -1)])
    for i in elliptic:
        lam[i] = GroupRingElement.one()
        g = sym.gluing(i)
        mu[i] = _element([(g ** k, 1) for k in range(sym.ell[i])])
    return Delta0Presentation(sym, nonell + elliptic, elliptic, lam, mu)


def resolution_maps(sym, stage):
    """Matrix (list of rows) of the stage-th map of the free resolution.

    Stage 1 is the relations map: one row for the global lambda relation
    plus one row per elliptic arc carrying its mu in that arc's column.
    From stage 2 on the maps are square and diagonal over the elliptic
    arcs, alternating gamma - 1 (even stages) and mu (odd stages).  Their
    rows have no entry for the lambda row of stage 1, so stage 2 composes
    with stage 1 once a zero entry is padded in front of each of its rows.
    """
    _int_arg(stage, 1, None, "resolution stages are ints numbered from 1")
    pres = delta0_presentation(sym)
    ell = pres.elliptic
    if stage == 1:
        cols = {a: k for k, a in enumerate(pres.generators)}
        row0 = [pres.lam[a] for a in pres.generators]
        rows = [row0]
        for e in ell:
            row = [GroupRingElement.zero()] * len(pres.generators)
            row[cols[e]] = pres.mu[e]
            rows.append(row)
        return rows
    rows = []
    for k, e in enumerate(ell):
        row = [GroupRingElement.zero()] * len(ell)
        if stage % 2 == 0:
            row[k] = GroupRingElement.of(sym.gluing(e)) - GroupRingElement.one()
        else:
            row[k] = pres.mu[e]
        rows.append(row)
    return rows
