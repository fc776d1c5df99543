"""Newman conditions, form check with character, Kronecker symbol."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from etaprover import (
    EtaProduct,
    kronecker_symbol,
    modular_form_check,
    modular_function_check,
)
from etaprover import arith, modularity
from etaprover.errors import NotAFormError

from oracles import (newman_conditions_reference, newman_square_brute,
                     random_modular_product)

F = Fraction


# -- Newman check fixtures ----------------------------------------------------


def test_level10_quotient_fails_conditions_3_and_5():
    v = modular_function_check(EtaProduct.from_flat([1, 2, 2, -1, 10, 1, 5, -2]), 10)
    assert not v.invariant
    assert v.failed == (3, 5)
    assert v.conditions == (True, True, False, True, False)


def test_level10_square_is_invariant():
    v = modular_function_check(EtaProduct.from_flat([1, 4, 2, -2, 10, 2, 5, -4]), 10)
    assert v.invariant
    assert v.failed == ()


def test_empty_product_is_invariant_everywhere():
    for level in (1, 7, 24):
        assert modular_function_check(EtaProduct(), level).invariant


def test_hm5_is_invariant_on_level_5():
    v = modular_function_check(EtaProduct.from_flat([5, 6, 1, -6]), 5)
    assert v.invariant


def test_invariance_forces_integer_exponents():
    rng = random.Random(14)
    for level in (6, 10, 12):
        for _ in range(10):
            ep = random_modular_product(rng, level)
            s = ep.expand(ep.leading_exponent + 4)
            assert all(e.denominator == 1 for e, _ in s.terms())


def test_multiple_level_relaxes_only_condition_5():
    rng = random.Random(15)
    for level in (6, 10, 20):
        for _ in range(15):
            ep = random_modular_product(rng, level)
            m = rng.randint(2, 5)
            v = modular_function_check(ep, m * level)
            assert v.conditions[0] and v.conditions[1]
            assert v.conditions[2] and v.conditions[3]
            assert v.invariant == v.conditions[4]


def test_squaring_repairs_parity_failures():
    # anchored on the level-10 fixture, then random samples with exponent
    # sums built to zero and only factor-2 congruence defects
    g1 = EtaProduct.from_flat([1, 2, 2, -1, 10, 1, 5, -2])
    v = modular_function_check(g1 * g1, 10)
    assert v.invariant
    rng = random.Random(16)
    checked = 0
    while checked < 30:
        level = rng.choice([6, 10, 12, 20])
        divs = [d for d in range(1, level + 1) if level % d == 0]
        sub = rng.sample(divs, rng.randint(2, min(4, len(divs))))
        rs = [rng.randint(-4, 4) for _ in sub[:-1]]
        rs.append(-sum(rs))
        ep = EtaProduct(zip(sub, rs))
        if ep.is_empty():
            continue
        v = modular_function_check(ep, level)
        if v.invariant:
            continue
        tr = sum(t * r for t, r in ep.factors)
        ntr = sum(level // t * r for t, r in ep.factors)
        if tr % 12 or ntr % 12:
            continue  # not a pure factor-2 defect
        v2 = modular_function_check(ep * ep, level)
        assert v2.conditions[0] and v2.conditions[1]
        assert v2.conditions[2] and v2.conditions[4]
        checked += 1


def test_condition_3_matches_the_full_product():
    rng = random.Random(18)
    for _ in range(2000):
        ts = rng.sample(range(1, 61), rng.randint(1, 5))
        rs = [rng.choice([-1, 1]) * rng.choice([rng.randint(1, 6),
                                                rng.randint(1, 3000)])
              for _ in ts]
        ep = EtaProduct(zip(ts, rs))
        assert modular_function_check(ep, 1).conditions[2] == \
            newman_square_brute(ep.factors)


@st.composite
def products_at_levels(draw):
    """A level (often 1) and a product whose multipliers need not divide it.
    Exponents reach 10^9; some are multiples of 24 or of 24*t, and the last
    factor may cancel the exponent sum, so every flag is met both ways."""
    level = draw(st.one_of(st.just(1), st.sampled_from([2, 6, 10, 24, 40, 240]),
                           st.integers(1, 10**6)))
    divs = arith.divisors(level)
    factors = []
    for _ in range(draw(st.integers(0, 5))):  # 0: the empty product
        t = draw(st.one_of(st.sampled_from(divs), st.integers(1, 500)))
        unit = draw(st.sampled_from([1, 24, 24 * t]))
        bound = 10**9 // unit
        k = draw(st.one_of(st.integers(-6, 6), st.integers(-bound, bound)))
        factors.append((t, unit * k))
    if factors and draw(st.booleans()):
        factors.append((draw(st.sampled_from(divs)),
                        -sum(r for _, r in factors)))
    return EtaProduct(factors), level


@settings(max_examples=300, deadline=None, database=None)
@given(products_at_levels())
def test_conditions_equal_the_fraction_reference(case):
    ep, level = case
    assert modular_function_check(ep, level).conditions == \
        newman_conditions_reference(ep, level)


@pytest.mark.parametrize("flat, level, square, weight, disc", [
    ([2, 24 * 10**6, 1, -24 * 10**6], 2, True, 0, 1),
    ([1, 23999998, 2, -23999997, 4, 3, 8, -2], 8, False, 1, -8),
])
def test_square_and_character_read_exponent_parities(flat, level, square,
                                                     weight, disc, monkeypatch):
    # t^|r| is a square times t^(|r| mod 2): neither the square root nor the
    # factorization ever sees the 24-million-bit product.  An argument over
    # 8 bits fails before the real helper runs, which would take hours.
    seen = []
    def recording(name, real):
        def wrapper(n):
            seen.append(name)
            assert n.bit_length() <= 8, f"{name} got {n.bit_length()} bits"
            return real(n)
        return wrapper
    for name in ("is_square", "prime_factors"):
        monkeypatch.setattr(modularity, name,
                            recording(name, getattr(modularity, name)))
    ep = EtaProduct.from_flat(flat)
    assert modular_function_check(ep, level).conditions[2] == square
    v = modular_form_check(ep, level)
    assert (v.weight, v.character_disc) == (weight, disc)
    assert v.character_raw.bit_length() > 24 * 10**6 - 2
    assert set(seen) == {"is_square", "prime_factors"}


def test_form_character_matches_the_full_product():
    rng = random.Random(19)
    checked = 0
    while checked < 200:
        level = rng.choice([8, 12, 20, 40, 72])
        ts = rng.sample(arith.divisors(level), rng.randint(1, 4))
        rs = [rng.choice([-1, 1]) * rng.randint(1, 200) for _ in ts]
        for x in range(24):  # the conditions mod 24 fix the last exponent
            try:
                v = modular_form_check(
                    EtaProduct(zip(ts, rs[:-1] + [rs[-1] + x])), level)
            except NotAFormError:
                continue
            assert v.character_disc == \
                modularity._fundamental_discriminant(v.character_raw)
            checked += 1
            break


# -- form check ------------------------------------------------------------------


def test_form_check_level40_fixture():
    v = modular_form_check(EtaProduct.from_flat([1, 4, 2, 4, 4, -3, 10, 2, 20, -1]), 40)
    assert v.level == 40
    assert v.weight == 3
    assert v.character_raw == -2048000
    assert v.character_disc == -20
    assert not v.half_integral


def test_form_check_weight_zero_trivial_character():
    rng = random.Random(17)
    for level in (6, 10, 20):
        for _ in range(10):
            ep = random_modular_product(rng, level)
            v = modular_form_check(ep, level)
            assert v.weight == 0
            assert v.character_disc == 1


def test_form_check_discriminant_function():
    v = modular_form_check(EtaProduct.from_flat([1, 24]), 1)
    assert v.weight == 12
    assert v.character_disc == 1
    assert v.character_raw == 1


def test_form_check_rejects_bad_input():
    with pytest.raises(NotAFormError):
        modular_form_check(EtaProduct.from_flat([1, 1]), 1)  # t*r sum not 0 mod 24
    with pytest.raises(NotAFormError):
        modular_form_check(EtaProduct.from_flat([3, 1]), 2)  # 3 does not divide 2
    with pytest.raises(NotAFormError):
        modular_form_check(EtaProduct.from_flat([1, -24]), 1)  # negative weight


def test_form_check_half_integral_is_flagged():
    v = modular_form_check(EtaProduct.from_flat([24, 1]), 576)
    assert v.weight == F(1, 2)
    assert v.half_integral
    assert v.character_raw == 24


def test_raw_character_stops_at_the_bit_limit(monkeypatch):
    # prod t^|r| = 2^4 * 4^3 * 10^2 * 20 = 2048000 has log2 20.97; the
    # product is computed only when that is within the limit
    ep = EtaProduct.from_flat([1, 4, 2, 4, 4, -3, 10, 2, 20, -1])
    monkeypatch.setattr(modularity, "_MAX_CHARACTER_BITS", 21)
    assert modular_form_check(ep, 40).character_raw == -2048000
    monkeypatch.setattr(modularity, "_MAX_CHARACTER_BITS", 20)
    with pytest.raises(ValueError, match="has about 21 bits, past the limit "
                                         "of 20$"):
        modular_form_check(ep, 40)
    # a factor 3 counts log2(3) bits, not the 1 of 3.bit_length() - 1
    monkeypatch.undo()
    with pytest.raises(ValueError, match="has about 106365008 bits"):
        modular_form_check(EtaProduct.from_flat([3, 67108848, 1, -67108848]), 3)


# -- Kronecker symbol ---------------------------------------------------------------


def test_kronecker_known_values():
    assert kronecker_symbol(-20, 3) == 1
    assert all(kronecker_symbol(a, 1) == 1 for a in range(-30, 31))
    assert kronecker_symbol(0, -1) == 1
    assert kronecker_symbol(-7, -1) == -1


def test_kronecker_zero_zero_undefined():
    with pytest.raises(ValueError):
        kronecker_symbol(0, 0)


def test_kronecker_at_two():
    assert kronecker_symbol(4, 2) == 0
    assert kronecker_symbol(1, 2) == 1
    assert kronecker_symbol(7, 2) == 1
    assert kronecker_symbol(3, 2) == -1
    assert kronecker_symbol(-3, 2) == -1
    assert kronecker_symbol(-5, 2) == -1


def test_kronecker_square_class_of_form_character():
    for d in range(1, 51):
        if d % 2 and d % 5:
            assert kronecker_symbol(-2048000, d) == kronecker_symbol(-20, d)


def test_kronecker_euler_criterion():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(-40, 41):
            expected = pow(a % p, (p - 1) // 2, p)
            expected = -1 if expected == p - 1 else expected
            assert kronecker_symbol(a, p) == expected


def test_kronecker_multiplicative_random():
    rng = random.Random(18)
    for _ in range(200):
        a = rng.randint(-60, 60)
        b = rng.randint(-60, 60)
        n = rng.randint(-60, 60)
        if n == 0 and 0 in (a, b):
            continue
        assert (kronecker_symbol(a * b, n)
                == kronecker_symbol(a, n) * kronecker_symbol(b, n))
        m = rng.randint(-60, 60)
        if a == 0 and 0 in (n, m):
            continue
        assert (kronecker_symbol(a, n * m)
                == kronecker_symbol(a, n) * kronecker_symbol(a, m))


def test_kronecker_periodicity():
    # period 4|a| holds over odd arguments for any a, and over all positive
    # arguments when a is even (odd a at even arguments genuinely breaks it:
    # (-5/2) = -1 but (-5/22) = +1)
    for a in (-20, -5, 3, 12, 21):
        period = 4 * abs(a)
        for d in range(1, 80, 2):
            assert kronecker_symbol(a, d) == kronecker_symbol(a, d + period)
    for a in (-20, 12, 6):
        period = 4 * abs(a)
        for d in range(1, 80):
            assert kronecker_symbol(a, d) == kronecker_symbol(a, d + period)
