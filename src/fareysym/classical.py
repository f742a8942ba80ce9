"""Classical formulas for the invariants of Gamma0(N).

These are the standard multiplicative formulas (see e.g. Shimura I.6 or
Diamond-Shurman ch. 3), implemented independently of the polygon machinery
so they can serve as reference oracles for everything computed from symbols.
"""

from math import gcd

from .exact import FareyError, _int_arg


def factorize(n):
    """Prime factorization of an int n >= 1 as a list of (p, e) pairs.
    Every formula below factorizes its argument first, so each refuses a
    level that is not such an int with FareyError."""
    _int_arg(n, 1, None, "factorize needs an int n >= 1")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n):
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def euler_phi(n):
    r = n
    for p, _ in factorize(n):
        r = r // p * (p - 1)
    return r


def index_gamma0(N):
    """Index of Gamma0(N) in PSL2(Z): N * prod_{p|N} (1 + 1/p)."""
    mu = N
    for p, _ in factorize(N):
        mu = mu // p * (p + 1)
    return mu


def nu2_gamma0(N):
    """Number of order-2 elliptic classes of Gamma0(N)."""
    factors = factorize(N)
    if N % 4 == 0:
        return 0
    r = 1
    for p, _ in factors:
        if p == 2:
            continue
        if p % 4 == 1:
            r *= 2
        else:
            return 0
    return r


def nu3_gamma0(N):
    """Number of order-3 elliptic classes of Gamma0(N)."""
    factors = factorize(N)
    if N % 9 == 0:
        return 0
    r = 1
    for p, _ in factors:
        if p == 3:
            continue
        if p % 3 == 1:
            r *= 2
        else:
            return 0
    return r


def nu_inf_gamma0(N):
    """Number of cusps of X0(N): sum over d | N of phi(gcd(d, N/d))."""
    return sum(euler_phi(gcd(d, N // d)) for d in divisors(N))


def genus_gamma0(N):
    """Genus of X0(N) by Riemann-Hurwitz: 12g = mu + 12 - 3nu2 - 4nu3 - 6nu_inf."""
    twelve_g = (index_gamma0(N) + 12 - 3 * nu2_gamma0(N) - 4 * nu3_gamma0(N)
                - 6 * nu_inf_gamma0(N))
    if twelve_g % 12 or twelve_g < 0:
        raise FareyError("genus formula gave %d/12" % twelve_g)
    return twelve_g // 12


def cusp_widths_gamma0(N):
    """Sorted multiset of cusp widths of Gamma0(N).

    A cusp with denominator d | N has width N/gcd(d^2, N) and there are
    phi(gcd(d, N/d)) inequivalent cusps with that denominator.
    """
    widths = []
    for d in divisors(N):
        widths.extend([N // gcd(d * d, N)] * euler_phi(gcd(d, N // d)))
    widths.sort()
    if sum(widths) != index_gamma0(N):
        raise FareyError("cusp widths do not sum to the index")
    return widths


def counts_gamma0(N):
    """(genus, nu_inf, nu2, nu3, index) for Gamma0(N)."""
    return (genus_gamma0(N), nu_inf_gamma0(N), nu2_gamma0(N),
            nu3_gamma0(N), index_gamma0(N))
