"""Cusps of Gamma0(N): representatives, fan widths, and orders of eta-products.

Cusp representatives follow the Chua-Lang enumeration: for each divisor d of
N the numerators x coprime to d are taken modulo e_d = gcd(d, N/d), smallest
representative first, so the set for N = 40 comes out as
0, 1/2, 1/4, 1/5, 1/8, 1/10, 1/20, 1/40.  The representative with denominator
N is the class of the infinite cusp.  The divisors come from the prime
factorization of N, and each unit class y mod e_d is represented by the first
of y, y + e_d, y + 2e_d, ... that is coprime to d, so the work grows with the
number of cusps rather than with N.

Orders of eta-products at cusps are computed by the Ligozat formula, and the
width-normalized order multiplies in the Biagioli fan width N/gcd(N, c^2).
The provers' order table takes the same formula, and the Gordon-Hughes bound
of U_p, as integer numerators over one denominator (``_ligozat_sum`` and
``_gordon_hughes_numerator``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable

from .arith import check_positive, nu, prime_factors
from .etaproducts import EtaProduct

__all__ = [
    "Cusp",
    "cusp_set",
    "fan_width",
    "cusp_order",
    "gamma0_cusp_order",
    "gamma0_cusp_orders",
]


class Cusp:
    """A cusp of the modular group: a reduced fraction b/c, or infinity.

    The infinite cusp is stored projectively as 1/0, which makes the width
    and order formulas below work without special cases (gcd(t, 0) = t).
    Instances are immutable by convention and safe to share.
    """

    __slots__ = ("b", "c")

    def __init__(self, b: int, c: int = 1):
        if not isinstance(b, int) or not isinstance(c, int):
            raise TypeError("cusp numerator and denominator must be ints")
        if c == 0:
            if b == 0:
                raise ValueError("0/0 is not a cusp")
            b = 1
        else:
            if c < 0:
                b, c = -b, -c
            g = gcd(b, c)
            b //= g
            c //= g
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def __setattr__(self, name, value):
        raise AttributeError("Cusp is immutable")

    @classmethod
    def infinity(cls) -> "Cusp":
        return cls(1, 0)

    @classmethod
    def from_fraction(cls, value) -> "Cusp":
        f = Fraction(value)
        return cls(f.numerator, f.denominator)

    @property
    def is_infinity(self) -> bool:
        return self.c == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cusp):
            return NotImplemented
        return self.b == other.b and self.c == other.c

    def __hash__(self) -> int:
        return hash((self.b, self.c))

    def __str__(self) -> str:
        if self.c == 0:
            return "oo"
        if self.c == 1:
            return str(self.b)
        return f"{self.b}/{self.c}"

    def __repr__(self) -> str:
        return f"Cusp({self.b}, {self.c})"


def cusp_set(level: int) -> list[Cusp]:
    """A complete list of inequivalent cusp representatives of Gamma0(level).

    Deterministic order: divisors of the level ascending, numerators
    ascending within each divisor.  The entry with denominator equal to the
    level represents the class of the infinite cusp.  The cusps of recent
    levels are cached; each call returns a fresh list.  A level with more
    than ``_MAX_CUSPS`` classes raises ValueError before any is built.
    """
    check_positive(level=level)
    return list(_cusps(level))


_MAX_CUSPS = 2 ** 21  # cusp classes of one level: about 400 MB of Cusps


@lru_cache(maxsize=128)
def _cusps(level: int) -> tuple[Cusp, ...]:
    # the number of classes, sum over d | level of phi(gcd(d, level/d)), is
    # the product over p^a || level of sum_i phi(p^min(i, a - i))
    count, divs = 1, [1]
    for p, a in prime_factors(level).items():
        count *= sum(q - q // p for q in (p ** min(i, a - i)
                                          for i in range(a + 1)))
        divs = [d * p ** i for d in divs for i in range(a + 1)]
    if count > _MAX_CUSPS:
        raise ValueError(f"level {level} has {count} cusp classes, past the "
                         f"limit of {_MAX_CUSPS}")
    out: list[Cusp] = []
    for d in sorted(divs):
        e = gcd(d, level // d)
        picks = []
        for y in range(e):
            if gcd(y, e) == 1:
                # the least x = y (mod e) coprime to d
                x = y
                while gcd(x, d) != 1:
                    x += e
                picks.append(x)
        out += (Cusp(x, d) for x in sorted(picks))
    return tuple(out)


def fan_width(cusp: Cusp, level: int) -> int:
    """Fan width of a cusp of Gamma0(level): level/gcd(level, c^2)."""
    check_positive(level=level)
    return level // gcd(level, cusp.c * cusp.c)


def cusp_order(ep: EtaProduct, cusp: Cusp) -> Fraction:
    """Invariant order of an eta-product at a cusp (Ligozat formula).

    Depends only on the reduced denominator c of the cusp:
    sum over factors of gcd(t, c)^2 * r / (24 t), added in integers over the
    common denominator 24 lcm(t).  At infinity this reduces to the leading
    q-exponent sum(t*r)/24.
    """
    m = lcm(*(t for t, _ in ep.factors))
    return Fraction(_ligozat_sum(ep.factors, cusp.c, m), 24 * m)


def _ligozat_sum(factors, c: int, m: int) -> int:
    """24*m times the invariant order at a cusp of denominator c, for m a
    multiple of every t: sum of gcd(t, c)^2 * r * (m/t)."""
    return sum(gcd(t, c) ** 2 * r * (m // t) for t, r in factors)


def _gordon_hughes_numerator(factors, d: int, level: int, p: int,
                             m: int) -> int:
    """24*p*m times the Gordon-Hughes lower bound of ``up.up_order_lower_bound``
    for U_p of the eta-product ``factors`` at a cusp b/d of Gamma0(level).

    It depends only on d, since the order at a cusp depends only on its
    reduced denominator.  For v = nu_p(d) > 0 the numerator b is prime to p,
    so b/(pd) is already reduced.  For v = 0, gcd(b + kd, pd) = gcd(b + kd, p)
    since b is prime to d, and exactly one k in 0..p-1 has p | b + kd: the
    sweep meets denominator d once and pd p - 1 times, whatever b is.  So the
    minimum over k is the minimum of the orders at denominators d and pd.
    """
    pn = p * level

    def order(c):  # 24*m times the order on Gamma0(p*level)
        return pn // gcd(pn, c * c) * _ligozat_sum(factors, c, m)

    v = nu(p, d)
    if 2 * v >= nu(p, level):
        return order(p * d)
    if v > 0:
        return p * order(p * d)
    return p * min(order(d), order(p * d))


def gamma0_cusp_order(ep: EtaProduct, level: int, cusp: Cusp) -> Fraction:
    """Width-normalized order with respect to Gamma0(level):
    fan width times the invariant order."""
    return fan_width(cusp, level) * cusp_order(ep, cusp)


def gamma0_cusp_orders(ep: EtaProduct, cusps: Iterable[Cusp],
                       level: int) -> list[tuple[Cusp, Fraction]]:
    """Width-normalized orders at each cusp, in the given order."""
    return [(s, gamma0_cusp_order(ep, level, s)) for s in cusps]
