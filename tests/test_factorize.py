"""``eta_factorize`` against the log-space reference.

The library strips factors off the residual by Euler sweeps and switches to
the log-derivative division only past a cost budget; the reference
``oracles.eta_factorize_logspace`` runs every step in log space.  Both must
return the same eta-product or raise the same error text, on true products,
perturbed and shifted ones, the malformed cases, and inputs that pass the
budget at the first step or only after some sweeps.  Every input is also
factored with the division forced from the first step, and every true
eta-product with the sweeps forced to the end.
"""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import etaprover.etaproducts as etaproducts
from etaprover import EtaProduct, QSeries, eta_factorize, parse_expression
from etaprover.errors import NotAnEtaProductError

from oracles import eta_factorize_logspace, random_eta_product

F = Fraction

settings.register_profile("factorize", max_examples=80, deadline=None,
                          database=None)
settings.load_profile("factorize")


# The division's price replaced: 0 switches at the first step, inf never.
FORCE = {"division": lambda size: 0.0, "sweeps": lambda size: math.inf}


def outcome(fn, series, depth=None):
    try:
        return str(fn(series, depth))
    except NotAnEtaProductError as exc:
        return f"error: {exc}"


def assert_same(series, depth=None, product=False):
    """The reference's outcome, which ``eta_factorize`` must give on its
    chosen route, with the division forced and, for a true eta-product, with
    the sweeps forced."""
    got = outcome(eta_factorize, series, depth)
    assert got == outcome(eta_factorize_logspace, series, depth)
    for route in ["division", "sweeps"][:1 + product]:
        with mock.patch.object(etaproducts, "_division_cost", FORCE[route]):
            assert outcome(eta_factorize, series, depth) == got, route
    return got


def swept_steps(monkeypatch):
    """Record the exponent n of every sweep ``eta_factorize`` makes, on the
    list or, for a product strip, through ``_sweeps``."""
    steps = []
    sweep, sweeps = etaproducts._euler_sweep, etaproducts._sweeps
    monkeypatch.setattr(etaproducts, "_euler_sweep",
                        lambda a, n, c: (steps.append(n), sweep(a, n, c)))
    monkeypatch.setattr(etaproducts, "_sweeps", lambda a, fs: (
        steps.extend([n for n, _ in fs]), sweeps(a, fs)))
    return steps


products = st.builds(lambda seed: random_eta_product(random.Random(seed)),
                     st.integers(0, 2**32))
# offsets in units of 1/24 past the leading power
depths = st.integers(24, 24 * 120)


@given(products, depths)
def test_true_products_match(ep, extra):
    depth = ep.leading_exponent + F(extra, 24)
    assert_same(ep.expand(depth), depth, product=True)


@given(products, st.integers(48, 24 * 120), st.data())
def test_perturbed_coefficient_matches(ep, extra, data):
    depth = ep.leading_exponent + F(extra, 24)
    e = ep.leading_exponent + data.draw(st.integers(1, (extra - 1) // 24))
    delta = data.draw(st.sampled_from([1, -1, 7, F(1, 2)]))
    assert_same(ep.expand(depth) + QSeries.monomial(delta, e), depth)


@given(products, depths, st.data())
def test_added_monomial_matches(ep, extra, data):
    depth = ep.leading_exponent + F(extra, 24)
    e = ep.leading_exponent + F(data.draw(st.integers(-24, extra - 1)), 24)
    c = data.draw(st.sampled_from([1, -1, 2, 7, F(1, 2)]))
    assert_same(ep.expand(depth) + QSeries.monomial(c, e), depth)


@given(products, depths, st.sampled_from([-1, 2, 3, F(1, 2)]))
def test_leading_coefficient_other_than_one_matches(ep, extra, k):
    depth = ep.leading_exponent + F(extra, 24)
    got = assert_same(ep.expand(depth) * k, depth)
    assert got == f"error: leading coefficient is {k}, not 1"


def test_zero_and_off_lattice_series_match():
    assert assert_same(QSeries.zero(10)) == \
        "error: series is zero up to its truncation"
    off = EtaProduct.from_flat([2, 1]).expand(20) + \
        EtaProduct.from_flat([1, 1]).expand(20)
    assert assert_same(off, 20) == \
        "error: residual exponent q^1/24 off the integer lattice"


def test_budget_passed_at_the_first_step(monkeypatch):
    series = EtaProduct.from_flat([1, 24]).expand(300)
    steps = swept_steps(monkeypatch)
    assert assert_same(series, 300) == "[1,24]"
    assert steps == []


# The steps swept before the division, as the strips' prices reach a quarter
# of the division's: at the product rate, the quotient strip (3, -2) of the
# level-12 product would stay within it.
SWEPT = {50: [1, 2, 25], 12: [1]}


@pytest.mark.parametrize("flat", [[50, -1, 25, 1, 2, 1, 1, -1],
                                  [12, 2, 6, -1, 4, -1, 3, 2, 1, 1]])
def test_budget_passed_after_some_sweeps(flat, monkeypatch):
    ep = EtaProduct.from_flat(flat)
    depth = ep.leading_exponent + 200
    series = ep.expand(depth) + QSeries.monomial(10**6, ep.leading_exponent + 37)
    steps = swept_steps(monkeypatch)
    assert assert_same(series, depth).startswith(
        "error: unexplained term at q^101 beyond the confidence bound q^100")
    assert steps == SWEPT[flat[0]]


@pytest.mark.parametrize("expr, depth", [
    ("[5,6,1,-6] + [5,12,1,-12]", 400),
    ("[1,1] + [1,25]", 600),
    ("[4,8,2,-24,1,16] + 15*[4,16,2,-24,1,8]", 400),
    ("[1,-1000]", 200),
    ("[100,-3,50,5,25,-2,10,-8,5,4,4,3,2,3,1,-2]", 400),
])
def test_worst_case_inputs_match(expr, depth):
    assert_same(parse_expression(expr).expand(depth), depth,
                product=not expr.count("+"))
