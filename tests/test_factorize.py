"""``eta_factorize`` against the log-space reference.

The library strips factors off the residual by product sweeps of two lists,
u times the strips with c > 0 and the product D of the inverses of the others,
and switches to the log-derivative division only past a cost budget; the
reference
``oracles.eta_factorize_logspace`` runs every step in log space.  Both must
return the same eta-product or raise the same error text, on true products,
perturbed and shifted ones, the malformed cases, and inputs that pass the
budget at the first step or only after some sweeps.  Every input is also
factored with the division forced from the first step, and every true
eta-product with the sweeps forced to the end.
"""

import contextlib
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import etaprover.etaproducts as etaproducts
import etaprover.qseries as qseries
from etaprover import EtaProduct, QSeries, cli, eta_factorize, parse_expression
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


@contextlib.contextmanager
def swept_steps():
    """Yield (strips, quotients), filled while active: strips gets (n, r) for
    each factor eta(n)^r that ``eta_factorize`` strips by a sweep, with
    r < 0 for a product sweep of u's list w and r > 0 for one of D, the
    product of the inverses of the strips with c < 0, whose first strip is
    the seed of ``_sweeps`` (a list of Fractions strips w on the list, by
    the factorizer's own ``_euler_sweep``); quotients gets each quotient
    sweep made, through ``_sweeps`` or on the list by ``_euler_sweep``."""
    strips, quotients, dens = [], [], []
    sweeps, sweep = etaproducts._sweeps, qseries._euler_sweep

    def spy_sweeps(a, fs, seed=(0, 0)):
        dens.extend([a][:bool(seed[0])])
        batch = [seed][:bool(seed[0])] + list(fs)
        quotients.extend([f for f in batch if f[1] < 0])
        on_d = any(a is d for d in dens)
        strips.extend([(n, r if on_d else -r) for n, r in batch])
        sweeps(a, fs, seed)

    def spy_sweep(a, t, r):
        quotients.extend([(t, r)][:r < 0])
        sweep(a, t, r)

    def spy_strip(a, t, r):
        strips.append((t, -r))
        spy_sweep(a, t, r)

    with mock.patch.object(etaproducts, "_sweeps", spy_sweeps), \
            mock.patch.object(qseries, "_euler_sweep", spy_sweep), \
            mock.patch.object(etaproducts, "_euler_sweep", spy_strip):
        yield strips, quotients


products = st.builds(lambda seed: random_eta_product(random.Random(seed)),
                     st.integers(0, 2**32))
# offsets in units of 1/24 past the leading power
depths = st.integers(24, 24 * 120)


@given(products, depths)
def test_true_products_match(ep, extra):
    depth = ep.leading_exponent + F(extra, 24)
    series = ep.expand(depth)
    with swept_steps() as (_, quotients):
        assert_same(series, depth, product=True)
    assert quotients == []  # every strip is a product sweep, on any route


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


@pytest.mark.parametrize("depth", [None, F(155, 4), 1000])
def test_confidence_is_half_of_what_the_series_knows(depth):
    # 40 coefficients are known past q^(-5/4), so factors are trusted to q^20
    # however far past the truncation the depth asks
    series = QSeries([(F(-5, 4), 1), (F(115, 4), 1)], trunc=F(155, 4))
    assert assert_same(series, depth) == (
        "error: unexplained term at q^30 beyond the confidence bound q^20; "
        "confirmed factors so far: []")


def test_budget_passed_at_the_first_step():
    series = EtaProduct.from_flat([1, 24]).expand(300)
    with swept_steps() as (steps, _):
        assert assert_same(series, 300) == "[1,24]"
    assert steps == []


# The strips (n, r) made before the division, as the strips' list prices reach
# half of the division's: every factor below the perturbation at q^37, so the
# division takes the log-derivative of D = (q^2;q^2)(q^25;q^25) and of
# (q;q)(q^3;q^3)^2 (q^12;q^12)^2 off that of w.
SWEPT = {50: [(1, -1), (2, 1), (25, 1)],
         12: [(1, 1), (3, 2), (4, -1), (6, -1), (12, 2)]}


@pytest.mark.parametrize("flat", [[50, -1, 25, 1, 2, 1, 1, -1],
                                  [12, 2, 6, -1, 4, -1, 3, 2, 1, 1]])
def test_budget_passed_after_some_sweeps(flat):
    ep = EtaProduct.from_flat(flat)
    depth = ep.leading_exponent + 200
    series = ep.expand(depth) + QSeries.monomial(10**6, ep.leading_exponent + 37)
    with swept_steps() as (steps, quotients):
        got = outcome(eta_factorize, series, depth)
    assert got == assert_same(series, depth)
    assert got.startswith(
        "error: unexplained term at q^101 beyond the confidence bound q^100")
    assert steps == SWEPT[flat[0]] and quotients == []


# Deep's two products sweep every factor, and never reach the division.
DEEP = [([100, -3, 50, 5, 25, -2, 10, -8, 5, 4, 4, 3, 2, 3, 1, -2], 400),
        ([50, -1, 25, 1, 2, 1, 1, -1], 1100)]


@pytest.mark.parametrize("flat, depth", DEEP)
def test_deep_products_strip_by_product_sweeps_only(flat, depth, capsys,
                                                    monkeypatch):
    strip = cli.eta_factorize  # the CLI's path: the expansion, then this
    made = []

    def spied(*args):
        with swept_steps() as got:
            made.append(got)
            return strip(*args)

    monkeypatch.setattr(cli, "eta_factorize", spied)
    ep = EtaProduct.from_flat(flat)
    assert cli.main(["factor", str(ep), "--depth", str(depth)]) == 0
    assert capsys.readouterr().out.startswith(str(ep) + "\n")
    [(steps, quotients)] = made
    assert sorted(steps) == sorted(ep.factors) and quotients == []


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


def test_strips_and_division_are_priced_against_the_limit(monkeypatch):
    # a non-eta-product at depth 400 (u's list of 399) strips until its list
    # prices pass half the division's, then divides: each strip is checked
    # with the strips before it, the division with all of them
    series = parse_expression("[24,1]+[48,1]").expand(400)
    with swept_steps() as (steps, _):
        found = outcome(eta_factorize, series, 400)
    assert found.startswith("error: unexplained term at q^200 beyond")
    prices = [qseries._route_cost(399, n, abs(r)) for n, r in steps]
    run = sum(prices) + qseries._division_cost(399)
    assert steps and sum(prices) <= qseries._division_cost(399) / 2
    for limit, ns in [(run, None), (run - 1, run),
                      (sum(prices) - 1, sum(prices))]:
        monkeypatch.setattr(qseries, "_MAX_NS", limit)
        if ns is None:
            assert outcome(eta_factorize, series, 400) == found
            continue
        with pytest.raises(ValueError, match=f"about {ns:.0f} ns, past the "
                           f"limit of {limit:.0f} ns$"):
            eta_factorize(series, 400)


def test_a_list_of_fractions_strips_w_on_the_list():
    # the half at q^5 makes the residual's step there non-integral; below it
    # w is stripped on the list, by product sweeps only
    ep = EtaProduct.from_flat([5, 6, 1, -6])
    series = ep.expand(60) + QSeries.monomial(F(1, 2), ep.leading_exponent + 5)
    with swept_steps() as (steps, quotients):
        got = outcome(eta_factorize, series, 60)
    assert got == outcome(eta_factorize_logspace, series, 60)
    assert got.startswith("error: non-integer coefficient")
    assert steps == [(1, -6)] and quotients == []
