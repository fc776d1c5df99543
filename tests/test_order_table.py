"""The integer order table against Fraction oracles.

The provers and the ``orders`` command build the table of cusp orders, the
Gordon-Hughes row and the bound B as integers over one denominator, once per
distinct cusp denominator (``prover._order_table``).  Here every cell is
checked against ``oracles.ligozat_order`` times the fan width, and against
``oracles.gordon_hughes_brute``, at every cusp, with B and the column minima
summed over the cusps from those oracle values.
"""

import random
from fractions import Fraction
from math import floor, gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from etaprover import EtaProduct
from etaprover.arith import nu
from etaprover.cusps import _ligozat_sum, cusp_set
from etaprover.prover import _order_table

from oracles import (
    gordon_hughes_brute,
    ligozat_order,
    random_eta_product,
    sampled_modular_product,
)

F = Fraction

LEVELS = (1, 2, 6, 8, 12, 40, 72, 250, 420, 2520, 5040, 27720, 100800)


def oracle_order(ep: EtaProduct, level: int, c: int) -> Fraction:
    return F(level, gcd(level, c * c)) * ligozat_order(ep, c)


def draw_products(rng: random.Random, level: int) -> list[EtaProduct]:
    """One to three products: modular on Gamma0(level) or arbitrary."""
    out = []
    for _ in range(rng.randint(1, 3)):
        if level > 2 and rng.random() < 0.5:
            out.append(sampled_modular_product(rng, level))
        else:
            out.append(random_eta_product(rng, max_t=rng.choice([12, 60])))
    return out


def oracle_bound(columns, constant: bool) -> tuple[list[Fraction], Fraction]:
    """Column minima over the given per-cusp rows, with the zero row of a
    constant term when set, and their sum B."""
    minima = [min(list(col) + [F(0)] * constant) for col in zip(*columns)]
    return minima, sum(minima, F(0))


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from(LEVELS), st.integers(0, 2 ** 32), st.booleans())
def test_integer_numerators_equal_ligozat_times_width(level, seed, constant):
    rng = random.Random(seed)
    products = draw_products(rng, level)
    terms = [(F(rng.randint(1, 9)), f) for f in products]
    m = lcm(*[t for f in products for t, _ in f.factors])
    all_cusps = cusp_set(level)
    for f in products:
        for c in {s.c for s in all_cusps}:
            assert _ligozat_sum(f.factors, c, m) == 24 * m * ligozat_order(f, c)
    report, bad = _order_table(level, terms, constant=constant)
    finite = [s for s in all_cusps if s.c != level]
    assert list(report.cusps) == finite
    rows = [[oracle_order(f, level, s.c) for s in finite] for f in products]
    assert report.term_orders == tuple(tuple(row) for row in rows)
    minima, bound = oracle_bound(rows, constant)
    assert list(report.column_minima) == minima
    assert report.bound == bound
    assert report.required_depth == floor(-bound)
    totals = [sum(oracle_order(f, level, s.c) for s in all_cusps)
              for f in products]
    assert bad == [f"term {i} = {f} has total cusp order {total}"
                   for i, (f, total) in enumerate(zip(products, totals), 1)
                   if total]


# levels and primes whose cusps meet every Gordon-Hughes case: 0 < 2v < nu_p
# needs nu_p(level) >= 3, as for 8 and 2, 250 and 5, 100800 and 2
UP_CASES = [(8, 2), (250, 5), (20, 5), (72, 3), (2520, 2), (2520, 7),
            (100800, 2), (100800, 5)]


def gh_case(p: int, d: int, level: int) -> str:
    v = nu(p, d)
    if 2 * v >= nu(p, level):
        return "2v>=nu"
    return "0<2v<nu" if v > 0 else "v=0"


@pytest.mark.parametrize("level,p", UP_CASES)
def test_integer_gordon_hughes_row_equals_brute_sweep(level, p):
    rng = random.Random(level * p)
    cases = set()
    for _ in range(3):
        ep = sampled_modular_product(rng, p * level)
        rhs = [(F(rng.randint(1, 9)), f)
               for f in draw_products(rng, level)[:rng.randint(0, 2)]]
        constant = rng.random() < 0.5
        report, _ = _order_table(level, rhs, constant=constant, up=(ep, p))
        gh = [gordon_hughes_brute(ep, s, level, p) for s in report.cusps]
        assert list(report.up_bounds) == gh
        assert report.up_p == p
        rows = [[oracle_order(f, level, s.c) for s in report.cusps]
                for _, f in rhs]
        minima, bound = oracle_bound(rows + [gh], constant)
        assert list(report.column_minima) == minima
        assert report.bound == bound
        cases |= {gh_case(p, s.c, level) for s in report.cusps}
    if nu(p, level) >= 3:
        assert cases == {"v=0", "0<2v<nu", "2v>=nu"}


def test_cells_of_one_value_share_one_fraction():
    # 64 cusps over 48 denominators at 2520: the cusps of one denominator,
    # and all cells of one value, hold the same object
    pq = [(F(1), EtaProduct.from_flat([1, 2, 2, 2, 3, -2, 6, -2])),
          (F(9), EtaProduct.from_flat([1, -2, 2, -2, 3, 2, 6, 2]))]
    report, bad = _order_table(2520, pq, constant=True)
    assert bad == []
    cells = [v for row in report.term_orders for v in row]
    cells += report.column_minima
    assert len({id(v) for v in cells}) == len(set(cells))
