"""U_p operator: sift identities, Gordon-Hughes bounds, and the U_p prover."""

import random
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from etaprover import (
    Cusp,
    EtaCombo,
    EtaProduct,
    QSeries,
    Verdict,
    cusp_set,
    eta_factorize,
    gamma0_cusp_order,
    modular_function_check,
    prove_up_identity,
    up_order_lower_bound,
    up_series,
)
from etaprover.arith import nu, prime_factors
from etaprover.errors import FractionalExponentError, PreconditionError
from etaprover.up import _up_expansion

from oracles import gordon_hughes_brute, sampled_modular_product

F = Fraction

EP_F = EtaProduct.from_flat([2, 1, 25, 1, 1, -1, 50, -1])
EP_G = EtaProduct.from_flat([5, 4, 2, 2, 10, -2, 1, -4])
EP_g100 = EtaProduct.from_flat([100, -3, 50, 5, 25, -2, 10, -8, 5, 4, 4, 3, 2, 3, 1, -2])
U5F1 = EtaProduct.from_flat([10, 8, 5, -4, 2, -8, 1, 4])
U5F2 = EtaProduct.from_flat([20, -3, 10, 5, 5, -2, 4, -1, 2, -1, 1, 2])


# -- up_series ------------------------------------------------------------------


def test_up_series_of_constant():
    c = QSeries.constant(7).truncated(30)
    s = up_series(c, 5)
    assert s.terms() == [(F(0), 7)]


def test_up_series_requires_prime():
    with pytest.raises(ValueError):
        up_series(QSeries.constant(1).truncated(10), 4)


def test_up_series_requires_integer_exponents():
    from etaprover import eta_series
    with pytest.raises(FractionalExponentError):
        up_series(eta_series(1, 10), 5)


def test_u2_of_squares_series():
    squares = QSeries([(F(n * n), 1) for n in range(10)], trunc=100)
    s = up_series(squares, 2)
    support = {int(e) for e, _ in s.terms()}
    assert support == {n for n in range(50)
                       if any(2 * n == k * k for k in range(15))}


def test_u5_of_level50_product_is_eta_product():
    sf = up_series(EP_F.expand(420), 5)
    assert (sf - EP_G.expand(84)).is_zero()
    assert eta_factorize(sf) == EP_G


def test_up_multiplicativity():
    # U_p(f(q) * g(q^p)) = U_p(f) * g(q) for integer-exponent series
    rng = random.Random(31)
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        depth = rng.randint(10, 20)
        f = QSeries([(F(e), rng.randint(-5, 5)) for e in
                     rng.sample(range(depth), 5)], trunc=depth)
        g = QSeries([(F(e), rng.randint(-5, 5)) for e in
                     rng.sample(range(depth), 3)], trunc=depth)
        gp = QSeries([(e * p, c) for e, c in g.terms()], trunc=p * depth)
        lhs = up_series(f * gp, p)
        rhs = up_series(f, p) * g
        diff = lhs - rhs
        assert diff.trunc is None or diff.trunc > 0  # comparison is not vacuous
        assert diff.is_zero()


# -- Gordon-Hughes bounds -----------------------------------------------------------


def test_bounds_for_level50_product():
    got = [up_order_lower_bound(EP_F, c, 10, 5) for c in cusp_set(10)]
    assert got == [F(-1), F(0), F(1, 5), F(-1, 5)]


def test_exact_orders_dominate_bounds():
    cusps = cusp_set(10)
    exact = [gamma0_cusp_order(EP_G, 10, c) for c in cusps]
    assert exact == [F(-1), F(0), F(1), F(0)]
    bounds = [up_order_lower_bound(EP_F, c, 10, 5) for c in cusps]
    assert all(b <= v for b, v in zip(bounds, exact))


def test_bounds_for_level100_product():
    cusps = [c for c in cusp_set(20) if c.c != 20]
    got = [up_order_lower_bound(EP_g100, c, 20, 5) for c in cusps]
    assert got == [F(0), F(-2), F(-2), F(-1, 5), F(3, 5)]


def test_bound_preconditions():
    with pytest.raises(PreconditionError):
        up_order_lower_bound(EP_F, Cusp(0, 1), 10, 4)  # not prime
    with pytest.raises(PreconditionError):
        up_order_lower_bound(EP_F, Cusp(0, 1), 12, 5)  # p does not divide level
    with pytest.raises(PreconditionError):
        up_order_lower_bound(EP_F, Cusp(1, 7), 10, 5)  # denominator not dividing
    with pytest.raises(PreconditionError):
        up_order_lower_bound(EP_F, Cusp.infinity(), 10, 5)
    with pytest.raises(PreconditionError):
        # eta(tau) alone is not modular on Gamma0(50)
        up_order_lower_bound(EtaProduct.from_flat([1, 1]), Cusp(0, 1), 10, 5)


def test_case_selection_is_exhaustive_and_exclusive():
    # with p | level the three bound cases partition the divisors
    def val(p, n):
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    for level, p in ((10, 5), (20, 5), (12, 2), (12, 3), (50, 5), (100, 5)):
        vN = val(p, level)
        assert vN >= 1
        for d in (x for x in range(1, level + 1) if level % x == 0):
            v = val(p, d)
            cases = (2 * v >= vN, 0 < 2 * v < vN, v == 0)
            assert sum(cases) == 1


def test_up_row_per_denominator_equals_checked_bound_at_every_cusp():
    # the prover evaluates the Gordon-Hughes row once per denominator; at
    # every cusp it must equal the checked bound evaluated at that cusp, in
    # each of the three cases, for p = 2 and for odd p
    rng = random.Random(34)
    cases = set()
    for level in (20, 50, 72, 108, 120, 2520, 100800):
        for p in prime_factors(level):
            ep = sampled_modular_product(rng, p * level)
            report = prove_up_identity(ep, p, EtaCombo(1), level, verify=False)
            assert report.up_bounds == tuple(
                up_order_lower_bound(ep, s, level, p) for s in report.cusps)
            for s in report.cusps:
                v = nu(p, s.c)
                case = "v=0" if v == 0 else (
                    "2v<nu" if 2 * v < nu(p, level) else "2v>=nu")
                cases.add((p == 2, case))
    assert cases == {(two, case) for two in (True, False)
                     for case in ("v=0", "2v<nu", "2v>=nu")}


def test_gordon_hughes_row_matches_brute_sweep_at_every_cusp():
    # the row takes the v = 0 minimum over two denominators in place of the
    # p-term sweep; the oracle sweeps every k with its own orders
    rng = random.Random(35)
    checked = 0
    for level in (20, 50, 72, 108, 120, 2520, 100800):
        for p in prime_factors(level):
            ep = sampled_modular_product(rng, p * level)
            for s in cusp_set(level):
                assert (up_order_lower_bound(ep, s, level, p)
                        == gordon_hughes_brute(ep, s, level, p)), (level, p, s)
                checked += 1
    assert checked > 2000


# -- the U_p prover -------------------------------------------------------------------


def u5_rhs() -> EtaCombo:
    return EtaCombo(0, [(5, U5F1), (2, U5F2)])


def test_u5_identity_proved():
    report = prove_up_identity(EP_g100, 5, u5_rhs(), 20)
    assert report.verdict is Verdict.PROVED
    assert report.bound == F(-18, 5)
    assert report.required_depth == 3
    assert report.up_p == 5
    assert report.term_orders == (
        (F(0), F(-2), F(-2), F(0), F(2)),
        (F(1), F(0), F(-1), F(0), F(1)),
    )
    assert report.up_bounds == (F(0), F(-2), F(-2), F(-1, 5), F(3, 5))
    assert sum(report.column_minima) == report.bound


def test_u5_identity_bound_only():
    report = prove_up_identity(EP_g100, 5, u5_rhs(), 20, verify=False)
    assert report.verdict is Verdict.BOUND_ONLY
    assert report.bound == F(-18, 5)


def test_u5_perturbed_rhs_refuted():
    bad = EtaCombo(0, [(4, U5F1), (2, U5F2)])
    report = prove_up_identity(EP_g100, 5, bad, 20)
    assert report.verdict is Verdict.REFUTED
    exponent, coefficient = report.failure
    assert exponent <= report.required_depth
    assert (exponent, coefficient) == (F(2), F(1))


def test_up_prover_preconditions():
    with pytest.raises(PreconditionError):
        prove_up_identity(EP_g100, 5, u5_rhs(), 12)
    with pytest.raises(PreconditionError):
        prove_up_identity(EP_g100, 4, u5_rhs(), 20)


@pytest.mark.parametrize("margin", [-5, 0, 2.5])
def test_up_margin_must_be_a_positive_int(margin):
    with pytest.raises(ValueError, match="margin must be a positive integer"):
        prove_up_identity(EP_g100, 5, u5_rhs(), 20, margin=margin)


def test_up_prover_not_applicable_for_nonmodular_input():
    report = prove_up_identity(EtaProduct.from_flat([1, 1]), 5, u5_rhs(), 20)
    assert report.verdict is Verdict.NOT_APPLICABLE


def test_up_trivial_identity():
    # U_5 of the empty product equals the constant 1
    report = prove_up_identity(EtaProduct(), 5, EtaCombo(1, []), 10)
    assert report.verdict is Verdict.PROVED


def test_up_proof_of_f_g_pair():
    report = prove_up_identity(EP_F, 5, EtaCombo.from_product(EP_G), 10)
    assert report.verdict is Verdict.PROVED


# -- randomized construction: U_5(F * X(q^5)) = G * X(q) ------------------------------


def _q5_pool():
    """Eta-products supported on multipliers divisible by 5 that are modular
    functions on Gamma0(50)."""
    pool = []
    for vec in iproduct(range(-3, 4), repeat=4):
        if not any(vec):
            continue
        ep = EtaProduct(zip((5, 10, 25, 50), vec))
        if modular_function_check(ep, 50).invariant:
            pool.append(ep)
    assert pool
    return pool


def _shrink(ep: EtaProduct) -> EtaProduct:
    """Divide every multiplier by 5 (defined when all are divisible by 5)."""
    return EtaProduct((t // 5, r) for t, r in ep.factors)


def test_u5_on_pure_q5_products():
    rng = random.Random(32)
    pool = _q5_pool()
    for _ in range(25):
        x = rng.choice(pool) ** rng.choice([-1, 1, 2])
        x_down = _shrink(x)
        assert modular_function_check(x_down, 10).invariant
        depth = 40
        lhs = up_series(x.expand(5 * depth), 5)
        assert (lhs - x_down.expand(depth)).is_zero()
        report = prove_up_identity(x, 5, EtaCombo.from_product(x_down), 10)
        assert report.verdict is Verdict.PROVED


def test_u5_of_recognized_images_dominates_bounds():
    rng = random.Random(33)
    pool = _q5_pool()
    cusps = cusp_set(10)
    for _ in range(25):
        x = rng.choice(pool) ** rng.choice([-1, 1])
        ep = EP_F * x
        assert modular_function_check(ep, 50).invariant
        image = EP_G * _shrink(x)
        sf = up_series(ep.expand(600), 5)
        assert eta_factorize(sf, 100) == image
        for c in cusps:
            bound = up_order_lower_bound(ep, c, 10, 5)
            assert gamma0_cusp_order(image, 10, c) >= bound
        report = prove_up_identity(ep, 5, EtaCombo.from_product(image), 10)
        assert report.verdict is Verdict.PROVED
        assert report.up_bounds == tuple(up_order_lower_bound(ep, c, 10, 5)
                                         for c in report.cusps)


# -- the U_p left side: factors with p | t swept after the slice ----------------


def _up_reference(ep: EtaProduct, p: int, depth: int) -> QSeries:
    """U_p by definition: the whole product expanded to p times the depth."""
    return up_series(ep.expand(F(p * depth)), p)


def _up_series(ep: EtaProduct, p: int, depth: int) -> QSeries:
    """``_up_expansion``'s list as the series it stands for below q^depth."""
    n0, a = _up_expansion(ep, p, depth)
    return QSeries._from_list(a, 24 * n0, 24 * depth)


def _coprime_level(rng, p):
    return rng.choice([n for n in range(3, 30) if n % p])


def _drawn_product(rng, p, kind):
    """A product with integer s = sum(t*r)/24: some factors with p | t and
    some without ("mixed"), none with p | t, or only such factors."""
    if kind == "mixed":
        return sampled_modular_product(rng, p * rng.randint(2, 6))
    ep = sampled_modular_product(rng, _coprime_level(rng, p))
    if kind == "coprime":
        return ep
    return EtaProduct([(p * t, r) for t, r in ep.factors])


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3, 5, 7]),
       st.sampled_from(["mixed", "coprime", "divisible"]), st.integers(0, 40))
def test_up_expansion_matches_definition(seed, p, kind, depth):
    ep = _drawn_product(random.Random(seed), p, kind)
    assert _up_series(ep, p, depth) == _up_reference(ep, p, depth)


@pytest.mark.parametrize("flat, p", [
    ([5, -6, 1, 6], 5),               # s = -1, mixed
    ([1, -48], 2),                    # s = -2, no factor with p | t
    ([3, -8, 1, -24], 3),            # s = -2, mixed
    ([2, 24, 1, -48], 2),             # s = 0, mixed
    ([10, 12, 5, -24], 5),            # s = 0, only factors with p | t
    ([50, -1, 25, 1, 2, 1, 1, -1], 5),  # s = -1, the README's level-50 product
    ([25, 1, 1, -1], 5),              # s = 1, mixed
    ([1, 48], 2),                     # s = 2, no factor with p | t
    ([7, 24], 7),                     # s = 7, only factors with p | t
    ([4, 12, 2, -12], 2),             # s = 1, only factors with p | t, p not dividing s
])
def test_up_expansion_by_sign_of_s(flat, p):
    ep = EtaProduct.from_flat(flat)
    s = ep.degree24 // 24
    for depth in range(0, 30):
        n0, a = _up_expansion(ep, p, depth)
        assert n0 == -(-s // p)
        assert _up_series(ep, p, depth) == _up_reference(ep, p, depth)
        if depth <= n0:  # the sifted list is empty
            assert a == []


@pytest.mark.parametrize("flat, p, depth, want", [
    (EP_g100.flat(), 5, 12, ["_product_list"]),
    ([4, 12, 2, -12], 2, 12, ["_product_list"]),  # p does not divide s
])
def test_up_expansion_slices_one_list(monkeypatch, flat, p, depth, want):
    # one dense list, sliced and swept, and no QSeries built; no sift
    import etaprover.etaproducts as etaproducts_module
    import etaprover.up as up_module
    ep = EtaProduct.from_flat(flat)
    expected = _up_reference(ep, p, depth)
    calls = []

    def spy(owner, name, wrap=lambda f: f):
        f = getattr(owner, name)
        monkeypatch.setattr(owner, name, wrap(
            lambda *args: calls.append(name) or f(*args)))

    for owner in (up_module, etaproducts_module):
        spy(owner, "_product_list")
    spy(up_module, "up_series")
    spy(QSeries, "sift")
    spy(QSeries, "_shift")
    spy(QSeries, "_raw", staticmethod)
    spy(EtaProduct, "expand_no_prefactor")
    n0, a = _up_expansion(ep, p, depth)
    assert calls == want
    assert QSeries._from_list(a, 24 * n0, 24 * depth) == expected
