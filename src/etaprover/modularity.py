"""Modularity tests for eta-products on Gamma0(N).

``modular_function_check`` evaluates Newman's five conditions for an
eta-product to be a modular function on Gamma0(N); all five flags are always
computed so callers can report exactly which ones failed.
``modular_form_check`` applies the standard eta-quotient criterion for a
holomorphic-weight form with quadratic character.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, log2, prod

from .arith import check_positive, is_square, prime_factors
from .errors import NotAFormError
from .etaproducts import EtaProduct

__all__ = [
    "ModularityVerdict",
    "FormVerdict",
    "modular_function_check",
    "modular_form_check",
    "kronecker_symbol",
]


@dataclass(frozen=True)
class ModularityVerdict:
    """Outcome of Newman's five conditions; invariant iff all hold."""

    conditions: tuple[bool, bool, bool, bool, bool]

    @property
    def invariant(self) -> bool:
        return all(self.conditions)

    @property
    def failed(self) -> tuple[int, ...]:
        """1-based indices of the failed conditions."""
        return tuple([i + 1 for i, ok in enumerate(self.conditions) if not ok])

    def __bool__(self) -> bool:
        return self.invariant


def modular_function_check(ep: EtaProduct, level: int) -> ModularityVerdict:
    """Newman's criterion for a modular function on Gamma0(level).

    The five conditions, in reported order:
      1. the eta exponents sum to 0;
      2. sum of t*r is divisible by 24;
      3. the product of t^|r| is a perfect square (tested on the t with r
         odd, since t^|r| is a square times t^(|r| mod 2));
      4. every multiplier t divides the level;
      5. sum of (level/t)*r is divisible by 24: with m the lcm of the t it
         is S/m for S = sum of level*(m/t)*r, so 24*m divides S.
    """
    check_positive(level=level)
    fs = ep.factors
    m = lcm(*(t for t, _ in fs))
    c1 = ep.exponent_sum == 0
    c2 = ep.degree24 % 24 == 0
    c3 = is_square(prod([t for t, r in fs if r & 1]))
    c4 = all(level % t == 0 for t, _ in fs)
    c5 = sum(level * (m // t) * r for t, r in fs) % (24 * m) == 0
    return ModularityVerdict((c1, c2, c3, c4, c5))


@dataclass(frozen=True)
class FormVerdict:
    """Level, weight and quadratic character of an eta-product form.

    ``character_raw`` is the signed integer (-1)^k * prod t^|r| whose
    Kronecker symbol gives the character; ``character_disc`` is its
    fundamental-discriminant representative (the minimal modulus defining
    the same character away from the level).
    """

    level: int
    weight: Fraction
    character_disc: int
    character_raw: int
    half_integral: bool


def _fundamental_discriminant(n: int) -> int:
    """Fundamental discriminant of Q(sqrt(n)): the squarefree kernel m of n,
    or 4m when m is not 1 mod 4."""
    sign = -1 if n < 0 else 1
    kernel = sign
    for p, e in prime_factors(abs(n)).items():
        if e % 2:
            kernel *= p
    return kernel if kernel % 4 == 1 else 4 * kernel


_MAX_CHARACTER_BITS = 2 ** 26  # size of the raw character: 8 MiB


def _character_bits(ep: EtaProduct) -> float:
    """log2 of prod t^|r|, the size of the raw character in bits."""
    return sum(abs(r) * log2(t) for t, r in ep.factors)


def modular_form_check(ep: EtaProduct, level: int) -> FormVerdict:
    """Standard eta-quotient criterion for a form with character on Gamma0(level).

    Checks that every multiplier divides the level and that both weighted
    exponent sums are divisible by 24 (Newman's conditions 4, 2 and 5, as
    :func:`modular_function_check` reports them), and that the weight (half
    the exponent sum) is nonnegative.  Raises :class:`NotAFormError`
    otherwise.  For half-integral weight the verdict is flagged and the
    character is computed from the multiplier product alone.  A raw
    character past ``_MAX_CHARACTER_BITS`` raises ValueError before it is
    computed.
    """
    _, c2, _, c4, c5 = modular_function_check(ep, level).conditions
    fs = ep.factors
    problems = []
    if not c4:
        bad_t = [t for t, _ in fs if level % t != 0]
        problems.append(f"multipliers {bad_t} do not divide {level}")
    if not c2:
        problems.append("sum of t*r is not divisible by 24")
    if c4 and not c5:
        problems.append("sum of (level/t)*r is not divisible by 24")
    k2 = ep.exponent_sum
    if k2 < 0:
        problems.append(f"weight {Fraction(k2, 2)} is negative")
    if problems:
        raise NotAFormError("; ".join(problems))
    bits = _character_bits(ep)
    if bits > _MAX_CHARACTER_BITS:
        raise ValueError(f"the raw character has about {bits:.0f} bits, past "
                         f"the limit of {_MAX_CHARACTER_BITS}")
    half_integral = k2 % 2 != 0
    sign = 1 if half_integral or (k2 // 2) % 2 == 0 else -1
    # the discriminant reads only the parity of each |r|, as condition 3 does
    odd = prod([t for t, r in fs if r & 1])
    return FormVerdict(
        level=level,
        weight=Fraction(k2, 2),
        character_disc=_fundamental_discriminant(sign * odd),
        character_raw=sign * prod([t ** abs(r) for t, r in fs]),
        half_integral=half_integral,
    )


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker-Jacobi symbol (a/n) with the standard conventions.

    Completely multiplicative in both arguments; (a/2) is 0 for even a and
    +-1 according to a mod 8; (a/-1) is the sign of a; (a/0) is 1 only for
    a = +-1.  The pair (0, 0) is undefined.
    """
    if a == 0 and n == 0:
        raise ValueError("Kronecker symbol (0/0) is undefined")
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
