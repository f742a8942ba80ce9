"""Self-checks of the classical Gamma0(N) formulas against brute force."""

from fractions import Fraction
from math import gcd

import pytest

from fareysym import classical
from fareysym.exact import FareyError


def brute_p1_size(N):
    """|P^1(Z/N)| by enumeration; equals the index of Gamma0(N)."""
    seen = set()
    for u in range(N):
        for v in range(N):
            if gcd(gcd(u, v), N) != 1:
                continue
            cls = frozenset(((t * u) % N, (t * v) % N)
                            for t in range(N) if gcd(t, N) == 1)
            seen.add(cls)
    return len(seen)


def brute_nu2(N):
    """Solutions of x^2 + 1 = 0 mod N counts the order-2 classes."""
    return sum(1 for x in range(N) if (x * x + 1) % N == 0)


def brute_nu3(N):
    return sum(1 for x in range(N) if (x * x + x + 1) % N == 0)


def test_index_against_p1_enumeration():
    for N in range(1, 31):
        assert classical.index_gamma0(N) == brute_p1_size(N), N


def test_nu2_nu3_against_counting():
    for N in range(1, 2001):
        assert classical.nu2_gamma0(N) == brute_nu2(N), N
        assert classical.nu3_gamma0(N) == brute_nu3(N), N


def test_widths_sum_to_index():
    for N in range(1, 200):
        ws = classical.cusp_widths_gamma0(N)
        assert len(ws) == classical.nu_inf_gamma0(N)
        assert sum(ws) == classical.index_gamma0(N)


def test_known_values():
    # classic table entries
    assert classical.counts_gamma0(1) == (0, 1, 1, 1, 1)
    assert classical.counts_gamma0(2) == (0, 2, 1, 0, 3)
    assert classical.counts_gamma0(11) == (1, 2, 0, 0, 12)
    assert classical.counts_gamma0(15) == (1, 4, 0, 0, 24)
    assert classical.counts_gamma0(37) == (2, 2, 2, 2, 38)
    assert classical.genus_gamma0(22) == 2
    assert classical.nu_inf_gamma0(22) == 4


def test_formulas_check_each_other(monkeypatch):
    """The genus and the cusp widths are checked against the index; with a
    fault put into the formula they rest on, the check fires."""
    nu2 = classical.nu2_gamma0
    monkeypatch.setattr(classical, "nu2_gamma0", lambda N: nu2(N) + 1)
    with pytest.raises(FareyError, match="genus formula gave -3/12"):
        classical.genus_gamma0(1)
    # a negative multiple of 12, and a positive genus that is no integer
    monkeypatch.setattr(classical, "nu2_gamma0", lambda N: nu2(N) + 4)
    with pytest.raises(FareyError, match="genus formula gave -12/12"):
        classical.genus_gamma0(1)
    monkeypatch.setattr(classical, "nu2_gamma0", nu2)
    nu_inf = classical.nu_inf_gamma0
    monkeypatch.setattr(classical, "nu_inf_gamma0", lambda N: nu_inf(N) + 1)
    with pytest.raises(FareyError, match="genus formula gave 6/12"):
        classical.genus_gamma0(11)
    monkeypatch.setattr(classical, "nu_inf_gamma0", nu_inf)
    phi = classical.euler_phi
    monkeypatch.setattr(classical, "euler_phi", lambda n: phi(n) + 1)
    with pytest.raises(FareyError, match="cusp widths do not sum to the index"):
        classical.cusp_widths_gamma0(6)


def test_genus_is_integral_up_to_1000():
    for N in range(1, 1001):
        g = classical.genus_gamma0(N)
        assert g >= 0


@pytest.mark.parametrize("n", [0, -12, pytest.param(-10**5000, id="huge")])
def test_factorize_refuses_n_below_one(n):
    # a huge int is named by its size: its repr raises ValueError
    with pytest.raises(FareyError, match="n >= 1"):
        classical.factorize(n)


@pytest.mark.parametrize("n", [2.5, 10.0, Fraction(6), "a", True],
                         ids=["2.5", "10.0", "Fraction", "str", "bool"])
@pytest.mark.parametrize("formula", [
    classical.factorize, classical.divisors, classical.euler_phi,
    classical.index_gamma0, classical.nu2_gamma0, classical.nu3_gamma0,
    classical.nu_inf_gamma0, classical.genus_gamma0,
    classical.cusp_widths_gamma0, classical.counts_gamma0])
def test_formulas_refuse_a_level_that_is_not_an_int(formula, n):
    # unchecked, factorize(2.5) gave [(2.5, 1)], factorize(10.0) gave
    # [(2, 1), (5.0, 1)], index_gamma0(2.5) gave 3.5 and "a" a TypeError
    with pytest.raises(FareyError, match="an int n >= 1"):
        formula(n)
