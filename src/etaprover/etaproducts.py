"""Symbolic eta-products, linear combinations of them, and recognition.

An :class:`EtaProduct` encodes a finite product prod_j eta(t_j*tau)^(r_j)
as (multiplier, exponent) pairs; the canonical form sorts multipliers in
descending order, merges duplicates and drops zero exponents, so equal
products compare and hash equal.  An :class:`EtaCombo` is a rational linear
combination of eta-products plus an explicit rational constant.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from operator import mul
from typing import Iterable, Optional, Union

from .errors import NotAnEtaProductError
from .qseries import (QSeries, _check_price, _division_cost, _euler_sweep,
                      _lattice24, _product_list, _route_cost, _sweeps,
                      _unit_list)

__all__ = ["EtaProduct", "EtaCombo", "eta_factorize"]

Rat = Union[int, Fraction]

_MAX_TERM_PAIRS = 2 ** 15  # products of terms in one multiply: about 0.3 s


class EtaProduct:
    """A finite product of eta functions eta(t*tau)^r in canonical form."""

    __slots__ = ("_factors",)

    def __init__(self, factors: Iterable[tuple[int, int]] = ()):
        acc: dict[int, int] = {}
        for t, r in factors:
            if not isinstance(t, int) or t < 1:
                raise ValueError(f"eta multiplier must be a positive integer, got {t!r}")
            if not isinstance(r, int):
                raise ValueError(f"eta exponent must be an integer, got {r!r}")
            acc[t] = acc.get(t, 0) + r
        self._factors = tuple([(t, acc[t]) for t in sorted(acc, reverse=True) if acc[t]])

    @classmethod
    def from_flat(cls, flat: Iterable[int]) -> "EtaProduct":
        """Build from the flat list encoding [t1, r1, t2, r2, ...]."""
        flat = list(flat)
        if len(flat) % 2:
            raise ValueError("flat eta-product list must have even length")
        return cls(zip(flat[0::2], flat[1::2]))

    def flat(self) -> list[int]:
        """Flat list encoding [t1, r1, t2, r2, ...] in canonical order."""
        return [x for factor in self._factors for x in factor]

    @property
    def factors(self) -> tuple[tuple[int, int], ...]:
        return self._factors

    def is_empty(self) -> bool:
        return not self._factors

    @property
    def degree24(self) -> int:
        """24 times the order at infinity: sum of t*r over all factors."""
        return sum(t * r for t, r in self._factors)

    @property
    def exponent_sum(self) -> int:
        """Sum of the eta exponents (twice the weight as a form)."""
        return sum(r for _, r in self._factors)

    @property
    def leading_exponent(self) -> Fraction:
        """Order at infinity of the q-expansion, sum(t*r)/24."""
        return Fraction(self.degree24, 24)

    def __mul__(self, other) -> "EtaProduct":
        if not isinstance(other, EtaProduct):
            return NotImplemented
        return EtaProduct(self._factors + other._factors)

    def __truediv__(self, other) -> "EtaProduct":
        if not isinstance(other, EtaProduct):
            return NotImplemented
        return EtaProduct(self._factors + tuple([(t, -r) for t, r in other._factors]))

    def __pow__(self, n: int) -> "EtaProduct":
        if not isinstance(n, int):
            raise TypeError("eta-product exponent must be an int")
        return EtaProduct((t, r * n) for t, r in self._factors)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EtaProduct):
            return NotImplemented
        return self._factors == other._factors

    def __hash__(self) -> int:
        return hash(self._factors)

    def __str__(self) -> str:
        return "[" + ",".join(str(x) for x in self.flat()) + "]"

    def __repr__(self) -> str:
        return f"EtaProduct.from_flat({self.flat()!r})"

    def eta_string(self) -> str:
        """Human-readable quotient form like eta(5)^6/eta(1)^6."""
        num = [f"eta({t})" + (f"^{r}" if r != 1 else "")
               for t, r in self._factors if r > 0]
        den = [f"eta({t})" + (f"^{-r}" if r != -1 else "")
               for t, r in self._factors if r < 0]
        head = "*".join(num) if num else "1"
        if not den:
            return head
        tail = "*".join(den)
        if len(den) > 1:
            tail = f"({tail})"
        return f"{head}/{tail}"

    # -- expansion ---------------------------------------------------------

    def _expand24(self, d24: int, s24: int) -> QSeries:
        """Expansion below q^(d24/24), with q^(s24/24) for the prefactors."""
        size = max(0, -(-(d24 - s24) // 24))
        return QSeries._from_list(_product_list(self._factors, size), s24, d24)

    def expand(self, depth) -> QSeries:
        """q-expansion including the fractional prefactor q^(sum t*r/24)."""
        return self._expand24(_lattice24(depth), self.degree24)

    def expand_no_prefactor(self, depth) -> QSeries:
        """q-expansion with every factor's q^(t/24) prefactor omitted.

        The result always has integer exponents.
        """
        return self._expand24(_lattice24(depth), 0)


class EtaCombo:
    """constant + sum of coefficient * eta-product terms.

    Terms with the empty product are folded into the constant; terms with
    equal products are merged (first occurrence keeps its position); zero
    coefficients are dropped.  Term order is otherwise preserved, since the
    identity normalizer treats the first term specially.
    """

    __slots__ = ("_constant", "_terms")

    def __init__(self, constant: Rat = 0,
                 terms: Iterable[tuple[Rat, EtaProduct]] = ()):
        const = Fraction(constant)
        acc: dict[EtaProduct, Fraction] = {}  # in first-occurrence order
        for a, f in terms:
            a = Fraction(a)
            if not isinstance(f, EtaProduct):
                raise TypeError("combo terms must be (coefficient, EtaProduct)")
            if f.is_empty():
                const += a
            elif f in acc:
                acc[f] += a
            else:
                acc[f] = a
        self._constant = const
        self._terms = tuple([(a, f) for f, a in acc.items() if a != 0])

    @property
    def constant(self) -> Fraction:
        return self._constant

    @property
    def terms(self) -> tuple[tuple[Fraction, EtaProduct], ...]:
        return self._terms

    @classmethod
    def from_product(cls, product: EtaProduct, coefficient: Rat = 1) -> "EtaCombo":
        return cls(0, [(coefficient, product)])

    def as_product(self) -> Optional[EtaProduct]:
        """The single eta-product this is, with coefficient 1 and no
        constant; None for any other combination."""
        if self._constant == 0 and len(self._terms) == 1 and self._terms[0][0] == 1:
            return self._terms[0][1]
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, EtaCombo):
            return NotImplemented
        return self._constant == other._constant and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._constant, self._terms))

    def __add__(self, other) -> "EtaCombo":
        if isinstance(other, (int, Fraction)):
            other = EtaCombo(other)
        if not isinstance(other, EtaCombo):
            return NotImplemented
        return EtaCombo(self._constant + other._constant,
                        self._terms + other._terms)

    __radd__ = __add__

    def __neg__(self) -> "EtaCombo":
        return EtaCombo(-self._constant, [(-a, f) for a, f in self._terms])

    def __sub__(self, other) -> "EtaCombo":
        if not isinstance(other, (int, Fraction, EtaCombo)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other) -> "EtaCombo":
        return (-self) + other

    def __mul__(self, other) -> "EtaCombo":
        if isinstance(other, (int, Fraction)):
            other = EtaCombo(other)
        if not isinstance(other, EtaCombo):
            return NotImplemented
        pairs = len(self._terms) * len(other._terms)
        if pairs > _MAX_TERM_PAIRS:
            raise ValueError(f"multiplying out {len(self._terms)} by "
                             f"{len(other._terms)} terms makes {pairs} "
                             f"products, past the limit of {_MAX_TERM_PAIRS}")
        terms: list[tuple[Fraction, EtaProduct]] = []
        if other._constant:
            terms.extend((a * other._constant, f) for a, f in self._terms)
        if self._constant:
            terms.extend((self._constant * b, g) for b, g in other._terms)
        for a, f in self._terms:
            for b, g in other._terms:
                terms.append((a * b, f * g))
        return EtaCombo(self._constant * other._constant, terms)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "EtaCombo":
        if isinstance(other, (int, Fraction)):
            other = EtaCombo(other)
        if isinstance(other, EtaCombo):
            return self * other.inverted()
        return NotImplemented

    def inverted(self) -> "EtaCombo":
        """Inverse, defined only for a constant or a single-term monomial."""
        if not self._terms:
            if self._constant == 0:
                raise ZeroDivisionError("division of a combo by zero")
            return EtaCombo(1 / self._constant)
        if self._constant == 0 and len(self._terms) == 1:
            a, f = self._terms[0]
            return EtaCombo(0, [(1 / a, f ** -1)])
        raise ValueError("cannot invert a sum of eta-products")

    def __pow__(self, n: int) -> "EtaCombo":
        if not isinstance(n, int):
            raise TypeError("combo exponent must be an int")
        if not self._constant and len(self._terms) == 1:  # a monomial
            return EtaCombo(0, [(a ** n, f ** n) for a, f in self._terms])
        if n < 0:
            return self.inverted() ** (-n)
        out, base = EtaCombo(1), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def expand(self, depth) -> QSeries:
        """q-expansion: constant + sum of coefficient * product expansions."""
        acc = QSeries.constant(self._constant).truncated(depth)
        for a, f in self._terms:
            acc = acc + f.expand(depth) * a
        return acc

    def __str__(self) -> str:
        parts = []
        if self._constant or not self._terms:
            parts.append(str(self._constant))
        for a, f in self._terms:
            neg = a < 0
            mag = -a if neg else a
            body = str(f) if mag == 1 else f"{mag}*{f}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"EtaCombo({self._constant!r}, {list(self._terms)!r})"


def eta_factorize(f: QSeries, depth=None) -> EtaProduct:
    """Recognize a q-series as an eta-product by greedy factor stripping.

    Strips the leading q-power q^e0, then :func:`_factor_list` strips u, the
    rest.  Factors are only trusted up to half the available relative depth;
    anything left beyond that bound, a non-integer step coefficient, or a
    leading power inconsistent with the recovered factors raises
    :class:`NotAnEtaProductError`; a run priced past ``_MAX_NS``, ValueError.
    """
    if depth is None:
        if f.trunc is None:
            raise ValueError("depth is required to factorize an exact series")
        depth = f.trunc
    lt = f.leading_term()
    if lt is None:
        raise NotAnEtaProductError("series is zero up to its truncation")
    if lt.coefficient != 1:
        raise NotAnEtaProductError(
            f"leading coefficient is {lt.coefficient}, not 1")
    e0 = lt.exponent
    rel_depth = Fraction(depth) - e0
    u = f.shifted(-e0).truncated(rel_depth)
    a = _unit_list(max(0, ceil(u.trunc)))  # u as a dense list
    for e, c in zip(u._e, u._c):
        if e % 24:
            raise NotAnEtaProductError(
                f"residual exponent q^{Fraction(e, 24)} off the integer lattice")
        a[e // 24] = c
    return _factor_list(a, e0, rel_depth)


def _factor_list(w: list, e0, rel_depth) -> EtaProduct:
    """The eta-product of q^e0 u below q^(e0 + rel_depth), u = 1 + O(q) the
    dense list ``w``, by product sweeps only.  The residual r = w/D, D =
    1 + O(q) the product of the inverses of the strips with c < 0, so a
    step's c = w[n] - D[n] at the first n where they differ; it sweeps w by
    (n, c) or D by (n, -c), D's first read from the power table.  Once the
    strips' list prices would pass half of ``_division_cost`` (c grows
    exponentially in n for a non-eta-product), b = q r'/r is the O(L^2)
    division q w'/w less D's log-derivative, and a step subtracts c*d from b
    at every multiple of each d in n, 2n, ..., about L/n however large c is.
    Each strip and the division are priced, with the strips before them,
    against ``_MAX_NS``."""
    size, confidence = len(w), int(rel_depth) // 2
    integral = all([type(c) is int for c in w])
    den, b, logs, factors, spent = _unit_list(size), None, [], [], 0  # den: D
    for n in range(1, size):
        c = w[n] - den[n] if b is None else Fraction(b[n], n)
        if not c:
            continue
        if c.denominator != 1:
            raise NotAnEtaProductError(
                f"non-integer coefficient {c} at q^{n}")
        if n > confidence:
            found = EtaProduct(factors)
            raise NotAnEtaProductError(
                f"unexplained term at q^{n} beyond the confidence bound "
                f"q^{confidence}; confirmed factors so far: {found}")
        c = c.numerator
        factors.append((n, -c))
        if b is None:
            price = _route_cost(size, n, abs(c))
            strip = spent + price <= _division_cost(size) / 2  # else divide
            _check_price([], size, 0,
                         spent + (price if strip else _division_cost(size)))
            spent += price
            if strip:
                if c > 0 and not integral:  # Fractions stay on the list
                    _euler_sweep(w, n, c)
                elif c > 0:
                    _sweeps(w, [(n, c)])
                elif any(r > 0 for _, r in factors[:-1]):
                    _sweeps(den, [(n, -c)])
                else:  # D's first strip, read from the power table
                    _sweeps(den, [], (n, -c))
                continue
            b = [0] * size  # from m*w[m] = sum_{k=1..m} b[k]*w[m-k]
            for m in range(1, size):
                b[m] = m * w[m] - sum(map(mul, b, w[m::-1]))
            logs = [f for f in factors[:-1] if f[1] > 0]  # D's, taken off
        for t, r in logs + factors[-1:]:  # each factor's log-derivative
            for d in range(t, size, t):
                for m in range(d, size, d):
                    b[m] += r * d
        logs = []
    ep = EtaProduct(factors)
    if ep.leading_exponent != e0:
        raise NotAnEtaProductError(
            f"leading power q^{e0} does not match the factored prefactor "
            f"q^{ep.leading_exponent}")
    return ep
