"""Eta-product algebra: canonical forms, expansion, combos, recognition."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import etaprover.etaproducts as etaproducts
from etaprover import (EtaCombo, EtaProduct, QSeries, eta_factorize, eta_series,
                       parse_expression)
from etaprover.errors import NotAnEtaProductError

from oracles import eta_quotient_brute, random_eta_product

F = Fraction


# -- canonical form ---------------------------------------------------------------


def test_canonical_merges_and_sorts():
    ep = EtaProduct([(1, 2), (5, 3), (1, -2), (5, 3), (2, 1)])
    assert ep.factors == ((5, 6), (2, 1))
    assert ep.flat() == [5, 6, 2, 1]


def test_from_flat_round_trip():
    ep = EtaProduct.from_flat([5, 6, 1, -6])
    assert ep.flat() == [5, 6, 1, -6]
    assert str(ep) == "[5,6,1,-6]"
    assert ep == EtaProduct([(1, -6), (5, 6)])


def test_product_and_quotient_merge_exponents():
    p = EtaProduct.from_flat([1, 2, 3, -2])
    q = EtaProduct.from_flat([2, 2, 6, -2])
    assert (p * q).flat() == [6, -2, 3, -2, 2, 2, 1, 2]
    assert (p / p).is_empty()
    assert (p ** -1).flat() == [3, 2, 1, -2]


def test_degree_and_weight_sums():
    ep = EtaProduct.from_flat([5, 6, 1, -6])
    assert ep.degree24 == 24
    assert ep.exponent_sum == 0
    assert ep.leading_exponent == 1


# -- expansion ---------------------------------------------------------------------


def test_expand_octic_prefactor():
    # eta(2 tau)^2 / eta(tau): exponents are odd squares over 8
    got = EtaProduct.from_flat([2, 2, 1, -1]).expand(F(401, 8))
    assert [e for e, _ in got.terms()] == [F(k * k, 8) for k in range(1, 20, 2)]
    assert all(c == 1 for _, c in got.terms())


def test_expand_empty_product_is_one():
    got = EtaProduct().expand(10)
    assert got.terms() == [(F(0), 1)]
    assert got.trunc == 10


def test_expand_hm5():
    got = EtaProduct.from_flat([5, 6, 1, -6]).expand(13)
    expected = [1, 6, 27, 98, 315, 912, 2456, 6210, 14937, 34390, 76317, 163896]
    assert got.terms() == [(F(n), c) for n, c in enumerate(expected, start=1)]


def test_expand_no_prefactor_triangular():
    got = EtaProduct.from_flat([2, 2, 1, -1]).expand_no_prefactor(50)
    tri = [n * (n + 1) // 2 for n in range(10)]
    assert got.terms() == [(F(t), 1) for t in tri]


def test_expand_no_prefactor_empty():
    assert EtaProduct().expand_no_prefactor(5).terms() == [(F(0), 1)]


def test_expand_definitional_consistency():
    rng = random.Random(3)
    for _ in range(20):
        ep = random_eta_product(rng, max_t=8, max_r=4)
        depth = F(30)
        lhs = ep.expand(depth)
        rhs = ep.expand_no_prefactor(depth - ep.leading_exponent)
        assert (lhs - rhs.shifted(ep.leading_exponent)).is_zero()


def test_expand_matches_brute_force_quotient():
    rng = random.Random(4)
    for _ in range(12):
        ep = random_eta_product(rng, max_t=6, max_r=4, max_factors=2)
        depth = 30
        got = ep.expand_no_prefactor(depth)
        expected = eta_quotient_brute(ep.factors, depth)
        assert {int(e): c for e, c in got.terms()} == expected


def test_expand_is_multiplicative():
    rng = random.Random(9)
    for _ in range(15):
        a = random_eta_product(rng, max_t=8, max_r=3, max_factors=2)
        b = random_eta_product(rng, max_t=8, max_r=3, max_factors=2)
        d = F(24)
        assert ((a * b).expand(d) - a.expand(d) * b.expand(d)).is_zero()


def test_order_at_infinity_is_degree_sum():
    rng = random.Random(10)
    for _ in range(25):
        ep = random_eta_product(rng, max_t=9, max_r=4)
        lt = ep.expand(ep.leading_exponent + 2).leading_term()
        assert lt is not None
        assert lt.exponent == ep.leading_exponent
        assert lt.coefficient == 1


def test_integer_exponents_iff_degree_divisible_by_24():
    rng = random.Random(12)
    for _ in range(25):
        ep = random_eta_product(rng, max_t=8, max_r=4)
        s = ep.expand(ep.leading_exponent + 6)
        integral = all(e.denominator == 1 for e, _ in s.terms())
        assert integral == (ep.degree24 % 24 == 0)


# -- combos ------------------------------------------------------------------------


def test_combo_folds_empty_products_into_constant():
    c = EtaCombo(1, [(2, EtaProduct()), (3, EtaProduct.from_flat([1, 1]))])
    assert c.constant == 3
    assert len(c.terms) == 1


def test_combo_merges_equal_products():
    f = EtaProduct.from_flat([2, 1, 1, -1])
    c = EtaCombo(0, [(2, f), (5, f)])
    assert c.terms == ((F(7), f),)
    # merged terms keep the place of their first occurrence, and a term
    # whose coefficients cancel drops out without moving the others
    g, h = EtaProduct.from_flat([5, 1]), EtaProduct.from_flat([3, 2])
    c = EtaCombo(0, [(1, g), (2, f), (3, g), (4, h)])
    assert c.terms == ((F(4), g), (F(2), f), (F(4), h))
    c = EtaCombo(0, [(1, g), (2, f), (-1, g), (4, h)])
    assert c.terms == ((F(2), f), (F(4), h))
    c = EtaCombo(0, [(1, g), (2, f), (4, h), (-2, f)])
    assert c.terms == ((F(1), g), (F(4), h))


def test_combo_drops_zero_terms():
    f = EtaProduct.from_flat([2, 1])
    c = EtaCombo(0, [(2, f), (-2, f)])
    assert c.terms == ()
    assert c.constant == 0


def test_combo_as_product():
    f = EtaProduct.from_flat([2, 1, 1, -1])
    g = EtaProduct.from_flat([5, 1])
    assert EtaCombo.from_product(f).as_product() == f
    for combo in (EtaCombo.from_product(f, 2), EtaCombo.from_product(f) + 1,
                  EtaCombo(0, [(1, f), (1, g)]), EtaCombo(1), EtaCombo(0)):
        assert combo.as_product() is None


def test_combo_expand_linearity():
    f = EtaProduct.from_flat([1, 1])
    two_minus_one = EtaCombo(0, [(2, f)]) - EtaCombo(0, [(1, f)])
    diff = two_minus_one.expand(20) - eta_series(1, 20)
    assert diff.is_zero()


def test_combo_constant_only_expansion():
    assert EtaCombo(1).expand(10).terms() == [(F(0), 1)]


def test_combo_entry31_vanishes():
    f1 = EtaProduct.from_flat([3, 4, 6, 4, 1, -4, 2, -4])
    f2 = EtaProduct.from_flat([3, 8, 2, 4, 1, -8, 6, -4])
    f3 = EtaProduct.from_flat([1, 4, 6, 8, 3, -4, 2, -8])
    combo = EtaCombo(1, [(9, f1), (-1, f2), (-1, f3)])
    assert combo.expand(100).is_zero()


def test_combo_product_distributes():
    p = EtaCombo.from_product(EtaProduct.from_flat([1, 2, 3, -2]))
    q = EtaCombo.from_product(EtaProduct.from_flat([2, 2, 6, -2]))
    lhs = ((p + q) * (p - q)).expand(12)
    rhs = (p * p - q * q).expand(12)
    assert (lhs - rhs).is_zero()


def test_combo_division_by_sum_rejected():
    p = EtaCombo.from_product(EtaProduct.from_flat([1, 1]))
    with pytest.raises(ValueError):
        (p + 1).inverted()


# -- recognition -------------------------------------------------------------------


def test_factorize_hm5():
    series = EtaProduct.from_flat([5, 6, 1, -6]).expand(60)
    assert eta_factorize(series) == EtaProduct.from_flat([5, 6, 1, -6])


def test_factorize_single_eta():
    assert eta_factorize(eta_series(1, 40)) == EtaProduct.from_flat([1, 1])


def test_factorize_fractional_prefactor():
    series = EtaProduct.from_flat([2, 2, 1, -1]).expand(60)
    assert eta_factorize(series) == EtaProduct.from_flat([2, 2, 1, -1])


def test_factorize_rejects_wrong_prefactor():
    shifted = EtaProduct.from_flat([2, 2, 1, -1]).expand(60).shifted(2)
    with pytest.raises(NotAnEtaProductError):
        eta_factorize(shifted)


def test_factorize_rejects_non_eta_series():
    geo = QSeries([(F(n), 1) for n in range(40)], trunc=40)
    with pytest.raises(NotAnEtaProductError):
        eta_factorize(geo)


def test_factorize_rejects_bad_leading_coefficient():
    s = QSeries([(F(0), 2), (F(1), 1)], trunc=20)
    with pytest.raises(NotAnEtaProductError):
        eta_factorize(s)


def test_factorize_round_trip_random():
    rng = random.Random(20260810)
    for _ in range(40):
        ep = random_eta_product(rng)
        depth = 24 * max(t for t, _ in ep.factors)
        assert eta_factorize(ep.expand(F(depth))) == ep


# -- powers of combos ----------------------------------------------------------


def _binary_power(combo: EtaCombo, n: int) -> EtaCombo:
    """Powers by squaring over ``EtaCombo.__mul__``, as ``__pow__`` computed
    every power before monomials got a direct path."""
    if n < 0:
        return _binary_power(combo.inverted(), -n)
    out, base = EtaCombo(1), combo
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(0, 10**6),
       st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(bool),
       st.integers(-6, 8))
def test_monomial_power_matches_binary_powering(seed, coefficient, n):
    product = random_eta_product(random.Random(seed), max_factors=4)
    combo = EtaCombo(0, [(coefficient, product)])
    got = combo ** n
    assert got == _binary_power(combo, n)
    assert got.constant == (1 if n == 0 else 0)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_sum_and_constant_powers_unchanged(n):
    f, g = EtaProduct.from_flat([6, -2, 3, -2, 2, 2, 1, 2]), EtaProduct.from_flat([2, 4, 1, -4])
    for combo in (EtaCombo(9, [(1, f)]), EtaCombo(0, [(1, f), (-2, g)]), EtaCombo(F(2, 3))):
        assert combo ** n == _binary_power(combo, n)
    assert EtaCombo(F(2, 3)) ** -3 == EtaCombo(F(27, 8))


def test_multiplying_out_stops_at_the_term_pair_limit(monkeypatch):
    # 3 by 4 terms make 12 products, counted before any is formed; a
    # constant multiplies no pair
    a = parse_expression("eta(1) + eta(2) + eta(3) + 5")
    b = parse_expression("eta(4) + eta(5) + eta(6) + eta(7)")
    want = a * b
    monkeypatch.setattr(etaproducts, "_MAX_TERM_PAIRS", 12)
    assert a * b == want
    monkeypatch.setattr(etaproducts, "_MAX_TERM_PAIRS", 11)
    with pytest.raises(ValueError, match="multiplying out 3 by 4 terms makes "
                                         "12 products, past the limit of 11$"):
        a * b
    monkeypatch.setattr(etaproducts, "_MAX_TERM_PAIRS", 0)
    assert a * 3 == a + a + a and a * EtaCombo(F(1, 2)) == a / 2
    monkeypatch.undo()
    # the binomial expansion of a 2-term sum at ^25 is still multiplied out
    got = {f: k for k, f in parse_expression("(eta(1)+eta(2))^25").terms}
    assert got == {EtaProduct([(1, k), (2, 25 - k)]): comb(25, k)
                   for k in range(26)}


# -- scalar arithmetic ------------------------------------------------------------

COMBO = EtaCombo(1, [(2, EtaProduct.from_flat([5, 6, 1, -6])),
                     (F(-1, 3), EtaProduct.from_flat([2, 1]))])
SERIES = QSeries([(0, 3), (1, -2), (F(5, 2), 1)], 4)
EXACT = QSeries([(0, 1), (F(1, 2), -1)])
HALF_COMBO = ("EtaCombo(Fraction(1, 2), [(Fraction(1, 1), EtaProduct.from_flat("
              "[5, 6, 1, -6])), (Fraction(-1, 6), EtaProduct.from_flat([2, 1]))])")


@pytest.mark.parametrize("compute, expected", [
    (lambda: repr(COMBO * 3),
     "EtaCombo(Fraction(3, 1), [(Fraction(6, 1), EtaProduct.from_flat("
     "[5, 6, 1, -6])), (Fraction(-1, 1), EtaProduct.from_flat([2, 1]))])"),
    (lambda: repr(COMBO * F(1, 2)), HALF_COMBO),
    (lambda: repr(COMBO / 2), HALF_COMBO),
    (lambda: COMBO / 0, ZeroDivisionError("division of a combo by zero")),
    (lambda: str(SERIES / 2), "3/2 - q + 1/2*q^(5/2) + O(q^4)"),
    (lambda: SERIES / 0, ZeroDivisionError("division of a series by zero")),
    (lambda: str(SERIES - 1), "2 - 2*q + q^(5/2) + O(q^4)"),
    (lambda: str(1 - SERIES), "-2 + 2*q - q^(5/2) + O(q^4)"),
    (lambda: repr(SERIES * 0), "QSeries([], trunc=4)"),
    (lambda: str(SERIES * 1), "3 - 2*q + q^(5/2) + O(q^4)"),
    (lambda: str(SERIES / 1), "3 - 2*q + q^(5/2) + O(q^4)"),
    (lambda: str(SERIES.shifted(0)), "3 - 2*q + q^(5/2) + O(q^4)"),
    (lambda: repr(EXACT * QSeries.zero()), "QSeries([], trunc=None)"),
    (lambda: repr(SERIES * QSeries.zero()), "QSeries([], trunc=None)"),
    (lambda: repr(EXACT * QSeries.zero(5)), "QSeries([], trunc=5)"),
    (lambda: repr(SERIES * QSeries.zero(5)), "QSeries([], trunc=5)"),
    (lambda: repr(QSeries.zero() * QSeries.zero()), "QSeries([], trunc=None)"),
    (lambda: repr(QSeries.zero(5) * QSeries.zero(5)), "QSeries([], trunc=10)"),
    (lambda: eta_factorize(QSeries([(0, 1), (1, -1)])),
     ValueError("depth is required to factorize an exact series")),
], ids=["combo*3", "combo*1/2", "combo/2", "combo/0", "series/2", "series/0",
        "series-1", "1-series", "series*0", "series*1", "series/1",
        "series-shifted-0", "exact*zero", "series*zero", "exact*zero5",
        "series*zero5", "zero*zero", "zero5*zero5", "factorize-exact-no-depth"])
def test_public_scalar_arithmetic(compute, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as info:
            compute()
        assert str(info.value) == str(expected)
    else:
        assert compute() == expected
