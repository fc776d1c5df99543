"""The sparse Euler-product kernel against two independent engines.

Every eta-product expansion now runs through ``qseries._euler_sweep``.  Here
it is compared with the brute-force oracle, which multiplies literal
binomials, and with the dense QSeries multiply/power path that the library
used before, which these tests keep as a second engine.  Factorization is
compared with the old greedy stripping done by that same path, down to the
text of every error.
"""

import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from etaprover import EtaCombo, EtaProduct, QSeries, eta_factorize, euler_product
from etaprover.errors import NotAnEtaProductError
from etaprover import qseries
from etaprover.qseries import (_POWERS, _euler_power, _euler_sweep, _jacobi_cube,
                               _pentagonal)
from etaprover.prover import _up_expansion

from oracles import (eta_quotient_brute, euler_brute, euler_sweep_scalar,
                     miller_pow_inverse_branch, pdiv, pmul, ppow)

F = Fraction

settings.register_profile("kernel", max_examples=60, deadline=None,
                          database=None)
settings.load_profile("kernel")


# -- the second engine: the QSeries multiply/power path ---------------------------


def chain_expand(ep: EtaProduct, depth, prefactor: bool = True) -> QSeries:
    """prod euler_product(t, rel)**r, shifted by the prefactor when asked."""
    depth = F(depth)
    shift = ep.leading_exponent if prefactor else F(0)
    rel = depth - shift
    if rel <= 0:
        return QSeries.zero(depth)
    acc = QSeries.one().truncated(rel)
    for t, r in ep.factors:
        acc = acc * euler_product(t, rel) ** r
    return acc.shifted(shift)


def chain_combo(combo: EtaCombo, depth) -> QSeries:
    acc = QSeries.constant(combo.constant).truncated(depth)
    for a, f in combo.terms:
        acc = acc + chain_expand(f, depth) * a
    return acc


def strip_factorize(f: QSeries, depth=None) -> EtaProduct:
    """Greedy stripping that divides each factor out as u * E(n)**c."""
    if depth is None:
        depth = f.trunc
    lt = f.leading_term()
    if lt is None:
        raise NotAnEtaProductError("series is zero up to its truncation")
    if lt.coefficient != 1:
        raise NotAnEtaProductError(
            f"leading coefficient is {lt.coefficient}, not 1")
    e0 = lt.exponent
    rel_depth = F(depth) - e0
    u = f.shifted(-e0).truncated(rel_depth)
    for e, _ in u.terms():
        if e.denominator != 1:
            raise NotAnEtaProductError(
                f"residual exponent q^{e} off the integer lattice")
    confidence = int(rel_depth) // 2
    factors = []
    while True:
        step = next(((int(e), c) for e, c in u.terms() if e != 0), None)
        if step is None:
            break
        n, c = step
        if isinstance(c, Fraction):
            raise NotAnEtaProductError(f"non-integer coefficient {c} at q^{n}")
        if n > confidence:
            raise NotAnEtaProductError(
                f"unexplained term at q^{n} beyond the confidence bound "
                f"q^{confidence}; confirmed factors so far: {EtaProduct(factors)}")
        factors.append((n, -c))
        u = u * (euler_product(n, rel_depth) ** c)
    ep = EtaProduct(factors)
    if ep.leading_exponent != e0:
        raise NotAnEtaProductError(
            f"leading power q^{e0} does not match the factored prefactor "
            f"q^{ep.leading_exponent}")
    return ep


def same(a: QSeries, b: QSeries) -> bool:
    """Equal exponents, coefficients (and their types) and truncation."""
    return (a._e, a._c, a._t) == (b._e, b._c, b._t) and \
        [type(c) for c in a._c] == [type(c) for c in b._c]


def outcome(fn, *args) -> str:
    try:
        return str(fn(*args))
    except NotAnEtaProductError as exc:
        return f"error: {exc}"


# -- the sweep itself against the brute oracle --------------------------------------


@pytest.mark.parametrize("limit", [-1, 0, 1, 2, 3, 7, 8, 60, 121])
def test_sparse_series_are_euler_and_jacobi(limit):
    depth = max(limit, 0)
    euler = euler_brute(1, depth) if depth else {}
    assert dict(_pentagonal(limit)) == euler
    assert dict(_jacobi_cube(limit)) == (ppow(euler, 3, depth) if depth else {})


@pytest.mark.parametrize("t", [1, 2, 5])
@pytest.mark.parametrize("r", [-7, -6, -4, -3, -1, 1, 2, 3, 5, 6])
def test_sweep_matches_brute_on_arbitrary_series(t, r):
    depth = 40
    a = [(7 * n * n - 3 * n + 1) % 11 - 5 for n in range(depth)]
    power = ppow(euler_brute(t, depth), abs(r), depth)
    dense = {n: c for n, c in enumerate(a) if c}
    want = pmul(dense, power, depth) if r > 0 else pdiv(dense, power, depth)
    _euler_sweep(a, t, r)
    assert {n: c for n, c in enumerate(a) if c} == want


def test_sweep_keeps_rational_coefficients_exact():
    a = [F(1), F(1, 2), F(-2, 3), F(0), F(5, 7)] + [F(0)] * 15
    b = list(a)
    _euler_sweep(b, 2, -4)
    _euler_sweep(b, 2, 4)
    assert b == a


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=30),
       st.integers(1, 6), st.integers(-8, 8))
def test_sweep_property_matches_brute(a, t, r):
    depth = len(a)
    power = ppow(euler_brute(t, depth), abs(r), depth)
    dense = {n: c for n, c in enumerate(a) if c}
    want = pmul(dense, power, depth) if r >= 0 else pdiv(dense, power, depth)
    _euler_sweep(a, t, r)
    assert {n: c for n, c in enumerate(a) if c} == want


@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=60),
       st.integers(1, 6), st.integers(-8, 8), st.booleans())
def test_sweep_matches_scalar_loop(a, t, r, rational):
    # the shifted whole-list adds of a product against the old scalar loop,
    # cube sweeps (|r| >= 3) included
    if rational:
        a = [F(c, 1 + c % 7) for c in a]
    want = list(a)
    euler_sweep_scalar(want, t, r)
    _euler_sweep(a, t, r)
    assert a == want
    assert [type(c) for c in a] == [type(c) for c in want]


# -- products: kernel, brute oracle and the multiply/power path ----------------------

PRODUCTS = [[], [1, -1], [1, 1], [1, 3], [1, -3], [1, -6], [3, 7],
            [2, 4, 1, -2], [5, 6, 1, -6], [50, -1, 25, 1, 2, 1, 1, -1],
            [1, -25], [7, -4, 1, 4]]
DEPTHS = [F(-3), F(0), F(1, 24), F(7, 3), F(5, 8), F(30), F(61, 2)]


@pytest.mark.parametrize("flat", PRODUCTS)
@pytest.mark.parametrize("depth", DEPTHS)
def test_expand_matches_multiply_power_path(flat, depth):
    ep = EtaProduct.from_flat(flat)
    assert same(ep.expand(depth), chain_expand(ep, depth))
    assert same(ep.expand_no_prefactor(depth),
                chain_expand(ep, depth, prefactor=False))


@pytest.mark.parametrize("flat", PRODUCTS)
def test_expand_matches_brute_oracle(flat):
    ep = EtaProduct.from_flat(flat)
    for depth in (1, 17, 45):
        got = ep.expand_no_prefactor(depth)
        assert {int(e): c for e, c in got.terms()} == \
            eta_quotient_brute(ep.factors, depth)
        assert got.trunc == depth


def test_huge_exponent_past_the_depth_costs_nothing():
    # one sweep per three units of |r| would take minutes here
    assert same(EtaProduct([(1, 10 ** 9)]).expand(50), QSeries.zero(50))
    assert same(EtaProduct([(60, -10 ** 9), (61, 10 ** 9)])
                .expand_no_prefactor(2), QSeries([(0, 1)], trunc=2))


def test_empty_product_expansion():
    assert same(EtaProduct().expand(F(5, 2)), QSeries([(0, 1)], trunc=F(5, 2)))
    assert same(EtaProduct().expand(0), QSeries.zero(0))
    assert same(EtaProduct().expand(-1), QSeries.zero(-1))


COMBOS = [
    EtaCombo(F(-3, 2), [(F(2, 3), EtaProduct.from_flat([1, -1])),
                        (F(5, 6), EtaProduct.from_flat([2, 3, 1, -2]))]),
    EtaCombo(1, [(9, EtaProduct.from_flat([6, 4, 3, 4, 2, -4, 1, -4])),
                 (-1, EtaProduct.from_flat([6, -4, 3, 8, 2, 4, 1, -8])),
                 (-1, EtaProduct.from_flat([6, 8, 3, -4, 2, -8, 1, 4]))]),
    EtaCombo(F(1, 7), [(F(-1, 7), EtaProduct.from_flat([24, 1, 1, -1])),
                       (F(3, 5), EtaProduct.from_flat([2, 1]))]),
    EtaCombo(F(4, 3)),
    EtaCombo(0),
]


@pytest.mark.parametrize("combo", COMBOS, ids=str)
@pytest.mark.parametrize("depth", DEPTHS)
def test_combo_expand_matches_multiply_power_path(combo, depth):
    assert same(combo.expand(depth), chain_combo(combo, depth))


factor_lists = st.lists(st.tuples(st.integers(1, 12), st.integers(-9, 9)),
                        max_size=4)
lattice_depths = st.builds(F, st.integers(-48, 960), st.just(24))


@given(factor_lists, lattice_depths)
def test_expand_property_equals_euler_powers(factors, depth):
    ep = EtaProduct(factors)
    assert same(ep.expand(depth), chain_expand(ep, depth))


@given(factor_lists, factor_lists, st.builds(F, st.integers(1, 960), st.just(24)))
def test_expand_property_is_multiplicative(fs, gs, depth):
    # nonnegative leading exponents, so that f.expand(d) * g.expand(d) is
    # known below q^d
    f, g = (p if p.degree24 >= 0 else p ** -1
            for p in (EtaProduct(fs), EtaProduct(gs)))
    assert (f * g).expand(depth) == \
        (f.expand(depth) * g.expand(depth)).truncated(depth)


@given(factor_lists,
       st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 6)), max_size=3),
       st.integers(-9, 9), lattice_depths)
def test_combo_property_matches_multiply_power_path(fs, coeffs, const, depth):
    base = EtaProduct(fs)
    terms = [(F(a, b), base ** (i + 1)) for i, (a, b) in enumerate(coeffs)]
    combo = EtaCombo(F(const, 4), terms)
    assert same(combo.expand(depth), chain_combo(combo, depth))


# -- factorization ---------------------------------------------------------------------

NOT_ETA = {
    "half": (QSeries([(0, 1), (1, F(1, 2))], trunc=20),
             "non-integer coefficient 1/2 at q^1"),
    "third after a step": (
        EtaProduct.from_flat([1, 1]).expand_no_prefactor(20)
        + QSeries.monomial(F(1, 3), 5),
        "non-integer coefficient 1/3 at q^5"),
    "off lattice": (QSeries([(0, 1), (F(1, 2), 1)], trunc=10),
                    "residual exponent q^1/2 off the integer lattice"),
    "geometric": (
        QSeries([(F(n), 1) for n in range(40)], trunc=40),
        "unexplained term at q^21 beyond the confidence bound q^20; "
        "confirmed factors so far: "
        "[19,1,17,1,15,-1,14,-1,13,1,11,1,10,-1,7,1,6,-1,5,1,3,1,2,1,1,-1]"),
    # step exponents grow like 7^n/n: the stripping must not cost |c| each
    "sum of two products": (
        EtaCombo(0, [(1, EtaProduct.from_flat([24, 1])),
                     (7, EtaProduct.from_flat([48, 1]))]).expand(60),
        "unexplained term at q^30 beyond the confidence bound q^29; "
        "confirmed factors so far: [29,-111031232959075163011200,"
        "28,16428090590810903220017,27,-2433791198649411805015,"
        "26,361056936074554666814,25,-53642744786558592007,"
        "24,7982551305792489889,23,-1189945536525257225,"
        "22,177719138841589429,21,-26597422099047015,20,3989613272506960,"
        "19,-599941851861737,18,90467428805376,17,-13684147881593,"
        "16,2077057080000,15,-316504096055,14,48444681637,13,-7453000793,"
        "12,1153410384,11,-179756969,10,28252525,9,-4483584,8,719712,"
        "7,-117641,6,19733,5,-3353,4,560,3,-105,2,35,1,-7]"),
    "shifted": (EtaProduct.from_flat([2, 2, 1, -1]).expand(60).shifted(2),
                "leading power q^17/8 does not match the factored prefactor "
                "q^1/8"),
}


@pytest.mark.parametrize("name", NOT_ETA)
def test_factorize_errors_are_unchanged(name):
    series, message = NOT_ETA[name]
    assert outcome(eta_factorize, series) == f"error: {message}"
    assert outcome(strip_factorize, series) == f"error: {message}"


@given(factor_lists, st.integers(1, 480))
def test_factorize_property_round_trip(factors, extra):
    ep = EtaProduct(factors)
    top = max((t for t, _ in ep.factors), default=1)
    depth = ep.leading_exponent + 2 * top + F(extra, 24)
    assert eta_factorize(ep.expand(depth), depth) == ep


@given(st.lists(st.tuples(st.integers(1, 30), st.integers(-4, 4),
                          st.sampled_from([1, 1, 2, 3])), max_size=5),
       st.integers(1, 30), st.sampled_from([None, -3, 0, 1, 2]))
def test_factorize_property_matches_stripping(terms, trunc, slack):
    series = QSeries([(0, 1)] + [(F(e), F(c, d)) for e, c, d in terms
                                 if e < trunc], trunc=trunc)
    depth = None if slack is None else trunc + slack
    assert outcome(eta_factorize, series, depth) == \
        outcome(strip_factorize, series, depth)


# -- the table of Euler-product powers ------------------------------------------------


def assert_caps():
    assert len(_POWERS) <= qseries._MAX_ENTRIES
    assert sum(map(len, _POWERS.values())) <= qseries._MAX_COEFFS


def evict(base: int) -> None:
    """Request enough fresh powers to push every older entry out."""
    for r in range(base, base + qseries._MAX_ENTRIES + 1):
        _euler_power(r, 2)
        assert_caps()
    _euler_power(base - 1, qseries._MAX_COEFFS)
    assert_caps()


@contextmanager
def small_caps():
    """Shrink the caps, so that eviction is reached within a test."""
    with mock.patch.object(qseries, "_MAX_ENTRIES", 6), \
            mock.patch.object(qseries, "_MAX_COEFFS", 300):
        yield


CACHE_STATES = ["cleared", "warm", "longer first", "shorter first", "evicted"]


def expand_in_state(ep: EtaProduct, depth: int, state: str) -> QSeries:
    _POWERS.clear()
    if state == "warm":
        ep.expand_no_prefactor(depth)
    elif state == "longer first":
        ep.expand_no_prefactor(depth + 37)
    elif state == "shorter first":
        ep.expand_no_prefactor(depth // 2)
    elif state == "evicted":
        ep.expand_no_prefactor(depth)
        evict(1000)
    got = ep.expand_no_prefactor(depth)
    assert_caps()
    return got


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(1, 9), st.integers(-12, 12)), max_size=4),
       st.integers(0, 50), st.sampled_from([None, 1, -1]), st.integers(0, 3),
       st.sampled_from(CACHE_STATES))
@example([(1, -1)], 40, None, 0, "warm")  # a single factor
@example([(3, 5), (2, -7)], 50, None, 0, "evicted")  # no t = 1 factor
@example([(1, 40), (2, -8)], 30, -1, 0, "longer first")  # Miller fills
@example([(4, 2)], 20, 1, 0, "shorter first")  # huge |r| with t = size
def test_expand_in_every_table_state(factors, depth, huge, offset, state):
    with small_caps():
        if huge is not None:  # a factor at t >= size is 1 below q^depth
            factors = factors + [(max(depth, 1) + offset, huge * 10 ** 9)]
        ep = EtaProduct(factors)
        got = expand_in_state(ep, depth, state)
        assert same(got, chain_expand(ep, depth, prefactor=False))
        live = [(t, r) for t, r in ep.factors if t < depth]
        assert {int(e): c for e, c in got.terms()} == \
            eta_quotient_brute(live, depth)


@given(factor_lists, lattice_depths, st.sampled_from(CACHE_STATES))
def test_expand_with_prefactor_in_every_table_state(factors, depth, state):
    ep = EtaProduct(factors)
    want = chain_expand(ep, depth)
    _POWERS.clear()
    if state != "cleared":
        ep.expand(depth + {"longer first": 30, "shorter first": -30}.get(state, 0))
    if state == "evicted":
        with small_caps():
            evict(-500)
    assert same(ep.expand(depth), want)


@pytest.mark.parametrize("r", [-40, -8, -7, -6, -5, -4, -3, -2, -1,
                               1, 2, 3, 5, 6, 9, 25])
def test_euler_power_matches_brute(r):
    depth = 45
    power = ppow(euler_brute(1, depth), abs(r), depth)
    want = power if r > 0 else pdiv({0: 1}, power, depth)
    got = _euler_power(r, depth)
    assert {n: c for n, c in enumerate(got) if c} == want
    assert len(got) == depth
    assert _euler_power(r, 7) == got[:7]  # read from the stored entry


def _sparse_terms(rng: random.Random, fractions: bool) -> list:
    """(j, u_j) ascending from j = 1 on a sparse grid of x, nonzero u_j."""
    step = rng.choice([1, 2, 5])
    js = sorted(rng.sample(range(step, 13 * step, step), rng.randint(1, 4)))
    return [(j, F(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3]))
             if fractions else rng.choice([-3, -2, -1, 1, 2, 5])) for j in js]


@pytest.mark.parametrize("n", [*range(-6, 7), 40, -40])
def test_miller_pow_matches_schoolbook_powers(n):
    # the terms are (1 + sum terms) as they stand, for n = -1 as for any n
    rng = random.Random(n)
    for size in (0, 1, 2, 17, 40):
        for fractions in (False, True):
            terms = _sparse_terms(rng, fractions)
            u = {0: 1, **dict(terms)}
            power = ppow(u, abs(n), max(size, 1))  # pdiv reads its q^0
            want = power if n >= 0 else pdiv({0: 1}, power, size)
            got = qseries._miller_pow(terms, n, size)
            assert len(got) == size
            assert {k: c for k, c in enumerate(got) if c} == \
                {k: c for k, c in want.items() if k < size}
            if not fractions:
                assert all(type(c) is int for c in got)


# 1 + sum terms on a grid of x with step 1, 2, 3 or 5, so that for a step
# over 1 the inverse is zero off the grid; coefficients are ints, or ints
# mixed with Fractions as a QSeries stores them.
_UNIT_TERMS = st.builds(
    lambda step, coeffs: [(step * j, c.numerator if c.denominator == 1 else c)
                          for j, c in sorted(coeffs.items())],
    st.sampled_from([1, 2, 3, 5]),
    st.dictionaries(st.integers(1, 12),
                    st.integers(-5, 5).map(F) | st.fractions(-5, 5, max_denominator=4),
                    min_size=1, max_size=4)
    .filter(lambda d: all(d.values())))


@settings(max_examples=200)
@given(_UNIT_TERMS, st.integers(0, 60))
@example([(2, 1)], 60)  # 1/(1 + x^2): zero at every odd place
@example([(1, 1), (2, 1)], 60)  # 1/(1 + x + x^2): zero at 2, 5, 8, ...
@example([(1, F(1, 2)), (3, -2)], 60)
def test_miller_inverse_matches_the_earlier_branch(terms, size):
    got = qseries._miller_pow(terms, -1, size)
    assert got == miller_pow_inverse_branch(terms, -1, size)
    if all(type(c) is int for _, c in terms):
        assert all(type(c) is int for c in got)


def test_dense_lists_stop_at_the_size_limit():
    limit = qseries._MAX_SIZE
    message = f"past the limit of {limit}$"
    with pytest.raises(ValueError, match=message):
        qseries._unit_list(limit + 1)
    a = qseries._unit_list(limit)
    assert len(a) == limit and a[0] == 1 and not any(a[1:])
    for build in (lambda size: qseries._product_list(((1, 1),), size),
                  lambda size: qseries._miller_pow([(1, 1)], -1, size),
                  lambda size: eta_factorize(QSeries.one(), size)):
        with pytest.raises(ValueError, match=message):
            build(limit + 1)


def test_sweep_work_stops_at_the_limit(monkeypatch):
    # (1, 10) is read from the table; (2, -5) sweeps 3 times over 50
    # coefficients with isqrt(2*50/2) = 7 terms; in U_5 of [10,-5,1,50] it is
    # the one G factor, swept over the sliced list of 50 coefficients
    assert qseries._sweep_work(2, -5, 50) == 3 * 50 * 7
    ep = EtaProduct.from_flat([10, -5, 1, 50])
    builds = [lambda: qseries._product_list(((2, -5), (1, 10)), 50),
              lambda: _up_expansion(ep, 5, 50)[1]]
    want = [build() for build in builds]
    message = "would take about 1050 term operations, past the limit of 1049$"
    for build, a in zip(builds, want):
        monkeypatch.setattr(qseries, "_MAX_SWEEP_WORK", 1050)
        assert build() == a
        monkeypatch.setattr(qseries, "_MAX_SWEEP_WORK", 1049)
        with pytest.raises(ValueError, match=message):
            build()
    monkeypatch.undo()
    # 10^9 sweeps at t = 2 are refused before any (a huge exponent past the
    # depth is not counted: test_huge_exponent_past_the_depth_costs_nothing)
    with pytest.raises(ValueError, match="about 30000000000 term operations"):
        qseries._product_list(((2, -3 * 10 ** 9), (1, 6 * 10 ** 9)), 10)
    with pytest.raises(ValueError, match="past the limit of 33554432$"):
        _up_expansion(EtaProduct.from_flat([10, -3 * 10 ** 9, 5, 6 * 10 ** 9]),
                      5, 10)


def test_returned_lists_are_not_the_stored_ones():
    ep = EtaProduct.from_flat([5, 6, 1, -6])
    want = ep.expand_no_prefactor(60)
    for r, size in ((-6, 60), (-6, 20), (6, 12)):
        a = _euler_power(r, size)
        a[:] = [7] * len(a)
        a.append(11)
    assert ep.expand_no_prefactor(60) == want
    assert _euler_power(-6, 3) == [1, 6, 27]


def test_table_stays_within_its_caps():
    for size in (10, 300):
        for r in range(-40, 41):
            _euler_power(r, size)
            assert_caps()
        assert len(_POWERS) == qseries._MAX_ENTRIES
    for r in (1, -1, 2, -2, 3, -3):
        _euler_power(r, 3000)
        assert_caps()
    assert list(_POWERS) == [-1, 2, -2, 3, -3]
    _POWERS.clear()
    # a request longer than the coefficient cap is computed and not kept
    assert len(_euler_power(0, qseries._MAX_COEFFS + 1)) == qseries._MAX_COEFFS + 1
    assert not _POWERS
    _euler_power(-1, 50)
    _euler_power(-2, 50)
    _euler_power(-1, 5)  # a read makes -1 the most recently used
    assert list(_POWERS) == [-2, -1]


def test_import_fills_no_table():
    out = subprocess.run(
        [sys.executable, "-c",
         "import etaprover.cli, etaprover.qseries as q; print(len(q._POWERS))"],
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


# -- which table entry an expansion reads ------------------------------------------
#
# Seeding from the table or sweeping gives the same list, so no other test sees
# which factor is read from the table.  The (r, size) requests below are
# hard-coded, so that a change of the cost rule has to change them on purpose.

U20_LHS = [100, -3, 50, 5, 25, -2, 10, -8, 5, 4, 4, 3, 2, 3, 1, -2]
SEED_CASES = [  # (kind, flat product, depth[, p]) -> _euler_power calls
    (("expand", [6, -2, 3, -2, 2, 2, 1, 2], 382), [(2, 383)]),
    (("expand", [6, 2, 3, 2, 2, -2, 1, -2], 382), [(-2, 382)]),
    (("expand", [6, -6, 3, 6, 2, 6, 1, -6], 382), [(-6, 383)]),
    (("expand", [6, 6, 3, -6, 2, -6, 1, 6], 382), [(6, 382)]),
    (("expand", [5, 6, 1, -6], 401), [(-6, 400)]),
    (("expand", [7, 4, 1, -4], 301), [(-4, 300)]),
    (("expand", [7, 8, 1, -8], 301), [(-8, 299)]),
    (("expand", [10, 8, 5, -4, 2, -8, 1, 4], 106), [(-8, 52)]),
    (("expand", [20, -3, 10, 5, 5, -2, 4, -1, 2, -1, 1, 2], 106),
     [(2, 107)]),
    (("expand", U20_LHS, 500), [(-2, 506)]),
    (("expand", [50, -1, 25, 1, 2, 1, 1, -1], 1300), [(-1, 1301)]),
    (("up", [25, 1, 1, -1], 5, 401), [(-1, 2000)]),
    (("up", [49, 1, 1, -1], 7, 301), [(-1, 2099)]),
    (("up", U20_LHS, 5, 106), [(-2, 532)]),
    (("bare", [4, 2, 1, 1], 30), [(2, 8)]),
    (("bare", [5, 10, 1, 1], 3), [(1, 3)]),
    (("bare", [9, 3, 4, 2, 1, 1], 40), [(2, 10)]),
    (("bare", [1, -7], 1), []),
    (("bare", [2, 5], 2), []),
    (("bare", [3, -9], 0), []),
]
RANDOM_SEEDS = [  # the one call of each random product, None for none
    (-10, 6), (-5, 5), (-4, 2), (-11, 2), (-10, 4), (-6, 4), None, (-9, 80),
    (-11, 3), None, (11, 33), (4, 9), (11, 73), (-12, 10), (1, 12), (-12, 24),
    (-10, 4), (10, 3), (-7, 7), (9, 16), (-11, 115), (-11, 20), (-9, 6), (-8, 23),
    None, (8, 6), (-11, 4), (8, 5), (-2, 29), (-8, 13), (-4, 20), (6, 52), (5, 18),
    (7, 45), (10, 96), (8, 10), (-8, 5), (11, 7), (7, 20), (-9, 6),
]


def random_seed_cases(count=40):
    rng = random.Random(20261018)
    for _ in range(count):
        flat = []
        for t in rng.sample(range(1, 31), rng.randint(1, 4)):
            flat += [t, rng.choice([r for r in range(-12, 13) if r])]
        yield "bare", flat, rng.randint(0, 120)


def table_requests(case, monkeypatch) -> list:
    calls = []
    monkeypatch.setattr(qseries, "_euler_power", lambda r, size:
                        calls.append((r, size)) or _euler_power(r, size))
    kind, flat, *rest = case
    ep = EtaProduct.from_flat(flat)
    if kind == "expand":
        ep.expand(rest[0])
    elif kind == "bare":
        ep.expand_no_prefactor(rest[0])
    else:
        _up_expansion(ep, rest[0], rest[1])
    return calls


def test_expansions_seed_the_same_factors(monkeypatch):
    # deep-workload products, u20 terms and U_p left-hand sides, ties of the
    # cost rule ([4,2,1,1]), factors at t >= size, and empty lists
    for case, want in SEED_CASES:
        assert table_requests(case, monkeypatch) == want, case
    got = [table_requests(case, monkeypatch) for case in random_seed_cases()]
    assert got == [[] if c is None else [c] for c in RANDOM_SEEDS]
