"""Exact series arithmetic: examples, oracles, and ring properties."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from etaprover import LeadingTerm, QSeries, eta_series, euler_product
from etaprover.errors import (
    BeyondTruncationError,
    FractionalExponentError,
    LatticeError,
    ZeroSeriesError,
)

from oracles import euler_brute, partition_numbers, pdiv, ppow, random_qseries

F = Fraction


def series(pairs, trunc=None):
    return QSeries([(F(e), F(c)) for e, c in pairs], trunc=trunc)


def agree(a, b):
    """Coefficientwise equality up to the common truncation."""
    return (a - b).is_zero()


# -- addition ------------------------------------------------------------------


def test_add_cancellation():
    a = series([(0, 1), (1, 1)], trunc=10)
    b = series([(0, -1), (1, -1), (2, 1)], trunc=12)
    s = a + b
    assert s.terms() == [(F(2), 1)]
    assert s.trunc == 10


def test_add_zero_identity():
    a = series([(0, 2), (3, -5)], trunc=9)
    assert a + QSeries.zero() == a


def test_add_merges_like_fractional_terms():
    a = series([(F(1, 8), 1), (F(9, 8), 1)], trunc=4)
    b = series([(F(1, 8), 1)], trunc=4)
    assert (a + b).terms() == [(F(1, 8), 2), (F(9, 8), 1)]


# -- multiplication -------------------------------------------------------------


def test_mul_geometric_inverse():
    one_minus_q = series([(0, 1), (1, -1)])
    geo = series([(n, 1) for n in range(20)], trunc=20)
    prod = one_minus_q * geo
    assert prod.terms() == [(F(0), 1)]
    assert prod.trunc == 20


def test_mul_monomials_add_exponents():
    m = QSeries.monomial(1, F(1, 24))
    assert (m * m).terms() == [(F(1, 12), 1)]


def test_mul_eta_squared_against_brute_force():
    # eta(tau)^2 = q^(1/12) * (prod (1-q^n))^2, checked to q^20
    depth = 20
    e = eta_series(1, depth)
    got = e * e
    # schoolbook square of the brute-force Euler product
    base = euler_brute(1, depth)
    sq = {}
    for a, ca in base.items():
        for b, cb in base.items():
            if a + b < depth:
                sq[a + b] = sq.get(a + b, 0) + ca * cb
    expected = QSeries([(F(1, 12) + n, c) for n, c in sq.items() if c],
                       trunc=F(1, 12) + depth)
    assert agree(got, expected)


def test_mul_truncation_rule():
    a = series([(0, 1)], trunc=3)            # 1 + O(q^3)
    b = QSeries.monomial(1, -1)              # exact q^-1
    assert (a * b).trunc == 2                # 3 + ord(b) = 2
    assert (b * b).trunc is None             # exact times exact


def test_mul_by_exact_zero_is_exact_zero():
    a = series([(0, 1), (2, 5)], trunc=7)
    z = QSeries.zero()
    assert (a * z).is_zero()
    assert (a * z).trunc is None


# -- inversion -------------------------------------------------------------------


def test_invert_one_minus_q():
    inv = series([(0, 1), (1, -1)]).invert(12)
    assert inv.terms() == [(F(n), 1) for n in range(12)]
    assert inv.trunc == 12


def test_invert_monomial_exact():
    inv = QSeries.monomial(1, F(1, 24)).invert(100)
    assert inv.terms() == [(F(-1, 24), 1)]
    assert inv.trunc is None


def test_invert_eta_gives_partition_numbers():
    depth = 40
    inv = eta_series(1, depth).invert(depth)
    cleared = inv.shifted(F(1, 24))
    expected = partition_numbers(30)
    for n in range(31):
        assert cleared.coeff(n) == expected[n]


def test_invert_zero_series_raises():
    with pytest.raises(ZeroSeriesError):
        QSeries.zero(trunc=5).invert(5)


def test_invert_respects_justified_truncation():
    # a known only to q^4 cannot justify an inverse past q^(4 - 2*ord)
    a = series([(1, 1), (2, 3)], trunc=4)
    inv = a.invert(50)
    assert inv.trunc == 2  # 4 - 2*1
    assert agree(a * inv, QSeries.one())


# -- powers -----------------------------------------------------------------------


def test_pow_zero_and_one():
    a = series([(0, 2), (1, -1)], trunc=6)
    assert (a ** 0) == QSeries.one()
    assert (a ** 1) == a


def test_pow_negative_times_positive_is_one():
    e = eta_series(1, 12)
    prod = (e ** -1) * e
    assert agree(prod, QSeries.one())
    assert not prod.is_zero()


def test_pow_matches_repeated_multiplication():
    rng = random.Random(7)
    for _ in range(30):
        a = random_qseries(rng)
        if a.is_zero():
            continue
        assert agree(a ** 3, a * a * a)


def test_pow_negative_of_exact_polynomial_needs_truncation():
    exact = series([(0, 1), (1, -1)])  # exact 1 - q
    with pytest.raises(ValueError):
        exact ** -1
    assert agree(exact.truncated(8) ** -1,
                 series([(n, 1) for n in range(8)], trunc=8))


# -- eta series and the Euler product ----------------------------------------------


def test_eta_series_small_expansion():
    e = eta_series(1, 13)
    assert e.terms() == [
        (F(1, 24), 1), (F(25, 24), -1), (F(49, 24), -1),
        (F(121, 24), 1), (F(169, 24), 1), (F(289, 24), -1),
    ]


def test_eta_series_leading_term():
    for t in (1, 2, 7, 24):
        lt = eta_series(t, t + 5).leading_term()
        assert lt == LeadingTerm(F(t, 24), 1)


@pytest.mark.parametrize("t", [1, 2, 3, 5, 11])
def test_euler_product_matches_brute_force(t):
    depth = 60
    got = euler_product(t, depth)
    expected = euler_brute(t, depth)
    assert {int(e): c for e, c in got.terms()} == expected
    assert got.trunc == depth


def test_eta_quotient_power_series():
    # eta(5 tau)^6 / eta(tau)^6 begins q + 6q^2 + 27q^3 + ...
    got = eta_series(5, 14) ** 6 * (eta_series(1, 14) ** -6)
    expected = [1, 6, 27, 98, 315, 912, 2456, 6210, 14937, 34390, 76317, 163896]
    for n, c in enumerate(expected, start=1):
        assert got.coeff(n) == c


# -- sift ---------------------------------------------------------------------------


def test_sift_even_indices():
    a = series([(n, 1) for n in range(5)], trunc=5)
    s = a.sift(2, 0)
    assert s.terms() == [(F(0), 1), (F(1), 1), (F(2), 1)]
    assert s.trunc == 3


def test_sift_square_exponents_mod_5():
    depth = 110
    squares = series([(n * n, 1) for n in range(11)], trunc=depth)
    s = squares.sift(5, 1)
    support = [int(e) for e, _ in s.terms()]
    assert support == [n for n in range(-(-depth // 5))
                       if any(5 * n + 1 == k * k for k in range(30))]


def test_sift_fractional_exponent_rejected():
    with pytest.raises(FractionalExponentError):
        eta_series(1, 5).sift(5, 0)


def test_sift_interleaving_reconstructs():
    rng = random.Random(11)
    for _ in range(50):
        t24 = 24 * rng.randint(4, 30)
        terms = {24 * rng.randint(-6, t24 // 24 - 1): rng.randint(-9, 9)
                 for _ in range(rng.randint(0, 8))}
        a = QSeries([(F(e, 24), c) for e, c in terms.items() if c],
                    trunc=F(t24, 24))
        p = rng.choice([2, 3, 5])
        pieces = [a.sift(p, j) for j in range(p)]
        for e, c in a.terms():
            n = int(e)
            assert pieces[n % p].coeff((n - (n % p)) // p) == c


# -- leading term and queries -----------------------------------------------------


def test_leading_term_fractional():
    a = series([(F(1, 8), 1), (F(9, 8), 1)], trunc=4)
    assert a.leading_term() == LeadingTerm(F(1, 8), 1)


def test_leading_term_zero_marker():
    assert QSeries.zero(trunc=201).leading_term() is None


def test_leading_term_constant():
    assert QSeries.constant(5).leading_term() == LeadingTerm(F(0), 5)


def test_coeff_beyond_truncation_raises():
    a = series([(0, 1)], trunc=4)
    assert a.coeff(3) == 0
    with pytest.raises(BeyondTruncationError):
        a.coeff(4)


def test_lattice_violation_is_an_error():
    with pytest.raises(LatticeError):
        QSeries([(F(1, 25), 1)])
    with pytest.raises(TypeError):
        QSeries([(0, 1.5)])


# -- ring properties ---------------------------------------------------------------


def test_ring_axioms_random():
    rng = random.Random(20260810)
    for _ in range(60):
        a, b, c = (random_qseries(rng) for _ in range(3))
        assert agree((a + b) + c, a + (b + c))
        assert agree(a * b, b * a)
        assert agree((a * b) * c, a * (b * c))
        assert agree(a * (b + c), a * b + a * c)


def test_invert_is_two_sided_inverse_random():
    rng = random.Random(33)
    done = 0
    while done < 40:
        a = random_qseries(rng)
        if a.is_zero():
            continue
        inv = a.invert(a.trunc)
        assert agree(a * inv, QSeries.one())
        assert agree(inv * a, QSeries.one())
        done += 1


def _int_dict(s):
    """Stored terms of an integer-exponent series as {exponent: coefficient}."""
    return {e // 24: c for e, c in zip(s._e, s._c)}


units = st.builds(
    lambda depth, tail: (depth, {0: 1, **{e: c for e, c in tail if e < depth}}),
    st.integers(1, 24),
    st.lists(st.tuples(st.integers(1, 23), st.integers(-5, 5).filter(bool)),
             max_size=5))


@settings(max_examples=80, deadline=None, database=None)
@given(units, st.integers(-4, 4))
def test_pow_matches_schoolbook_oracle(unit, n):
    depth, u = unit
    got = QSeries(u.items(), trunc=depth) ** n
    want = ppow(u, n, depth) if n >= 0 else pdiv({0: 1}, ppow(u, -n, depth), depth)
    assert _int_dict(got) == want
    assert got._t == (None if n == 0 else 24 * depth)


@settings(max_examples=80, deadline=None, database=None)
@given(units, st.integers(-2, 30))
def test_invert_matches_schoolbook_oracle(unit, depth):
    trunc, u = unit
    got = QSeries(u.items(), trunc=trunc).invert(depth)
    bound = min(depth, trunc)
    assert _int_dict(got) == pdiv({0: 1}, u, max(bound, 0))
    assert got._t == 24 * bound


def test_all_exponents_stay_on_the_lattice():
    rng = random.Random(5)
    for _ in range(40):
        a, b = random_qseries(rng), random_qseries(rng)
        for s in (a + b, a * b, a - b):
            for e, _ in s.terms():
                assert (24 * e).denominator == 1
