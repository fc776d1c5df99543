"""Cusp enumeration, fan widths, and Ligozat orders."""

import random
from fractions import Fraction
from math import gcd

import pytest

from etaprover import (
    Cusp,
    EtaProduct,
    cusp_order,
    cusp_set,
    fan_width,
    gamma0_cusp_order,
    gamma0_cusp_orders,
)

from etaprover import cusps
from etaprover.arith import divisors as fast_divisors
from etaprover.cusps import _cusps

from oracles import (
    cusp_set_brute,
    divisors,
    gamma0_index,
    ligozat_order,
    random_eta_product,
    random_modular_product,
    totient,
)

F = Fraction


def cusps_as_fractions(level):
    return [F(c.b, c.c) for c in cusp_set(level)]


# -- Cusp values --------------------------------------------------------------


def test_cusp_reduction_and_infinity():
    assert Cusp(2, 4) == Cusp(1, 2)
    assert Cusp(-1, -2) == Cusp(1, 2)
    assert Cusp(0, 5) == Cusp(0, 1)
    assert str(Cusp(3, 0)) == "oo"
    assert Cusp(3, 0) == Cusp.infinity()
    assert Cusp.infinity() != Cusp(0, 1)
    with pytest.raises(ValueError):
        Cusp(0, 0)


def test_cusp_is_immutable():
    c = Cusp(1, 2)
    with pytest.raises(AttributeError):
        c.b = 5


# -- cusp sets ------------------------------------------------------------------


def test_cusp_set_level_40():
    assert cusps_as_fractions(40) == [
        F(0), F(1, 2), F(1, 4), F(1, 5), F(1, 8), F(1, 10), F(1, 20), F(1, 40)]


def test_cusp_set_level_6():
    assert cusps_as_fractions(6) == [F(0), F(1, 2), F(1, 3), F(1, 6)]


def test_cusp_set_level_1():
    assert cusp_set(1) == [Cusp(0, 1)]


def test_cusp_set_multiple_numerators():
    # level 16, divisor 4 has e_d = 4 and two classes: 1/4 and 3/4
    assert cusps_as_fractions(16) == [
        F(0), F(1, 2), F(1, 4), F(3, 4), F(1, 8), F(1, 16)]


# Highly composite levels, up to the largest of the bound benchmark.
BOUND_LEVELS = (420, 840, 2520, 5040, 10080, 27720, 55440, 100800)


def test_divisors_match_trial_division():
    for n in list(range(1, 2001)) + [2 ** 17, 3 ** 9, 9973, 9973 * 89,
                                     *BOUND_LEVELS]:
        assert fast_divisors(n) == divisors(n)


def test_cusp_set_matches_brute_force_in_order():
    for n in list(range(1, 1501)) + list(BOUND_LEVELS):
        assert cusp_set(n) == cusp_set_brute(n), n


def test_cusp_set_is_cached_per_level_as_a_fresh_list():
    first = cusp_set(2520)
    assert cusp_set(2520) is not first
    first.reverse()
    first.append(Cusp(1, 7))
    assert cusp_set(2520) == cusp_set_brute(2520)
    assert _cusps.cache_info().hits > 0
    assert 0 < _cusps.cache_info().maxsize < 1000
    for level in (0, -6):
        with pytest.raises(ValueError):
            cusp_set(level)


def test_a_cache_miss_factors_the_level_once(monkeypatch):
    # the class count and the divisor walk share one factorization
    calls = []
    factor = cusps.prime_factors
    monkeypatch.setattr(cusps, "prime_factors",
                        lambda n: calls.append(n) or factor(n))
    for level in (1, 97, 2520, 100800):
        _cusps.cache_clear()
        calls.clear()
        assert cusp_set(level) == cusp_set_brute(level)
        assert calls == [level]


def test_cusp_count_oracle_small_levels():
    for n in range(1, 61):
        expected = sum(totient(gcd(d, n // d))
                       for d in divisors(n))
        assert len(cusp_set(n)) == expected


def test_cusp_classes_are_counted_before_any_is_built(monkeypatch):
    # the count is exact: a limit of that many classes passes, one less raises
    levels = list(range(1, 401)) + list(BOUND_LEVELS)
    for n, count in [(n, len(cusp_set(n))) for n in levels]:
        monkeypatch.setattr(cusps, "_MAX_CUSPS", count)
        _cusps.cache_clear()
        assert len(cusp_set(n)) == count
        monkeypatch.setattr(cusps, "_MAX_CUSPS", count - 1)
        _cusps.cache_clear()
        with pytest.raises(ValueError, match=f"has {count} cusp classes"):
            cusp_set(n)
    monkeypatch.undo()
    # 9699690^2 has 34836480 classes: refused before any is built
    with pytest.raises(ValueError, match="past the limit of 2097152$"):
        cusp_set(9699690 ** 2)


def test_cusp_representatives_are_inequivalent_data():
    for n in (12, 36, 48):
        seen = set(cusp_set(n))
        assert len(seen) == len(cusp_set(n))
        for c in seen:
            assert n % c.c == 0


# -- fan widths --------------------------------------------------------------------


def test_fan_width_fixtures():
    assert fan_width(Cusp(1, 8), 40) == 5
    assert fan_width(Cusp(0, 1), 6) == 6
    assert fan_width(Cusp(1, 2), 6) == 3
    assert fan_width(Cusp(1, 3), 6) == 2
    assert fan_width(Cusp(1, 6), 6) == 1


def test_fan_width_at_infinity():
    for n in (1, 6, 40, 97):
        assert fan_width(Cusp.infinity(), n) == 1
        assert fan_width(Cusp(1, n), n) == 1


def test_width_sum_is_group_index():
    for n in range(1, 61):
        total = sum(fan_width(c, n) for c in cusp_set(n))
        assert total == gamma0_index(n)


# -- orders -----------------------------------------------------------------------


EP25 = EtaProduct.from_flat([20, -3, 10, 5, 5, -2, 4, 15, 2, -25, 1, 10])


def test_ligozat_order_fixture():
    assert cusp_order(EP25, Cusp(1, 4)) == F(4, 5)
    assert gamma0_cusp_order(EP25, 20, Cusp(1, 4)) == 4


def test_order_vector_fixture():
    rows = gamma0_cusp_orders(EP25, cusp_set(20), 20)
    assert [(F(c.b, c.c), v) for c, v in rows] == [
        (F(0), F(1)), (F(1, 2), F(-5)), (F(1, 4), F(4)),
        (F(1, 5), F(0)), (F(1, 10), F(0)), (F(1, 20), F(0))]


def test_order_vector_u5_f1():
    f1 = EtaProduct.from_flat([10, 8, 5, -4, 2, -8, 1, 4])
    cusps = [c for c in cusp_set(20) if c.c != 20]
    rows = gamma0_cusp_orders(f1, cusps, 20)
    assert [v for _, v in rows] == [0, -2, -2, 0, 2]


def test_order_at_single_eta():
    assert cusp_order(EtaProduct.from_flat([1, 1]), Cusp.infinity()) == F(1, 24)


def test_order_vector_empty_cusp_list():
    assert gamma0_cusp_orders(EP25, [], 20) == []


def test_order_of_empty_product_vanishes():
    for c in cusp_set(20):
        assert gamma0_cusp_order(EtaProduct(), 20, c) == 0


def test_order_depends_only_on_denominator():
    rng = random.Random(21)
    for _ in range(25):
        ep = EtaProduct([(rng.randint(1, 12), rng.randint(-5, 5)) for _ in range(3)])
        c = rng.randint(1, 30)
        bs = [b for b in range(1, 4 * c) if gcd(b, c) == 1]
        vals = {cusp_order(ep, Cusp(b, c)) for b in bs[:4]}
        assert len(vals) == 1


def test_order_matches_termwise_ligozat_sum():
    rng = random.Random(24)
    for _ in range(200):
        ep = random_eta_product(rng, max_t=60, max_r=30, max_factors=6)
        for c in (0, 1, rng.randint(2, 60), rng.randint(61, 10 ** 6)):
            cusp = Cusp.infinity() if c == 0 else Cusp(1, c)
            assert cusp_order(ep, cusp) == ligozat_order(ep, c)
    assert cusp_order(EtaProduct(), Cusp(1, 6)) == ligozat_order(EtaProduct(), 6)


def test_order_at_infinity_matches_expansion():
    rng = random.Random(22)
    for _ in range(20):
        ep = random_modular_product(rng, 6)
        if ep.is_empty():
            continue
        lead = ep.expand(ep.leading_exponent + 2).leading_term()
        assert lead.exponent == cusp_order(ep, Cusp.infinity())


def test_symmetric_product_order_at_zero_is_fricke_scaled():
    # for f = prod_{d|N} eta(d tau), ord(f; 0) = (1/N) * sum (N/d)/24
    n = 6
    f = EtaProduct((d, 1) for d in divisors(n))
    partner_infinity = sum(F(n // d, 24) for d in divisors(n))
    assert cusp_order(f, Cusp(0, 1)) == partner_infinity / n


def test_total_order_zero_for_modular_products():
    rng = random.Random(23)
    for level in (4, 6, 8, 10, 12, 20):
        cusps = cusp_set(level)
        for _ in range(8):
            ep = random_modular_product(rng, level)
            total = sum(gamma0_cusp_order(ep, level, c) for c in cusps)
            assert total == 0
