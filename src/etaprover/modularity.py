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
        return tuple(i + 1 for i, ok in enumerate(self.conditions) if not ok)

    def __bool__(self) -> bool:
        return self.invariant


def modular_function_check(ep: EtaProduct, level: int) -> ModularityVerdict:
    """Newman's criterion for a modular function on Gamma0(level).

    The five conditions, in reported order:
      1. the eta exponents sum to 0;
      2. sum of t*r is divisible by 24;
      3. the product of t^|r| is a perfect square;
      4. every multiplier t divides the level (and every r is nonzero,
         which the canonical form guarantees);
      5. sum of (level/t)*r is divisible by 24.
    """
    check_positive(level=level)
    fs = ep.factors
    c1 = sum(r for _, r in fs) == 0
    c2 = sum(t * r for t, r in fs) % 24 == 0
    sq = 1
    for t, r in fs:
        sq *= t ** abs(r)
    c3 = is_square(sq)
    c4 = all(r != 0 and level % t == 0 for t, r in fs)
    s5 = sum((Fraction(level, t) * r for t, r in fs), Fraction(0))
    c5 = s5.denominator == 1 and s5.numerator % 24 == 0
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


def modular_form_check(ep: EtaProduct, level: int) -> FormVerdict:
    """Standard eta-quotient criterion for a form with character on Gamma0(level).

    Checks that every multiplier divides the level and that both weighted
    exponent sums are divisible by 24 (Newman's conditions 4, 2 and 5, as
    :func:`modular_function_check` reports them), and that the weight (half
    the exponent sum) is nonnegative.  Raises :class:`NotAFormError`
    otherwise.  For half-integral weight the verdict is flagged and the
    character is computed from the multiplier product alone.
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
    half_integral = k2 % 2 != 0
    sign = 1 if half_integral or (k2 // 2) % 2 == 0 else -1
    raw = sign
    for t, r in fs:
        raw *= t ** abs(r)
    return FormVerdict(
        level=level,
        weight=Fraction(k2, 2),
        character_disc=_fundamental_discriminant(raw),
        character_raw=raw,
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
