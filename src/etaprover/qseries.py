"""Exact truncated q-series on the (1/24)-integer exponent lattice.

A series is a finite sorted list of (exponent, coefficient) terms together
with a truncation bound: every coefficient at an exponent below the bound is
known exactly, and nothing is known from the bound on.  A truncation of
``None`` means the series is known exactly at every exponent (constants,
monomials, finite polynomials).

Exponents live in (1/24)Z, the lattice generated by the q-expansions of
eta(t*tau), and are stored internally as integers in units of 1/24.  All
coefficients are exact rationals (plain ``int`` where possible, ``Fraction``
otherwise); floats are rejected.

Every operation computes the tightest truncation the inputs justify and
shrinks it rather than ever emitting an unreliable coefficient.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, NamedTuple, Optional, Union

from .arith import check_positive
from .errors import (
    BeyondTruncationError,
    FractionalExponentError,
    LatticeError,
    ZeroSeriesError,
)

__all__ = ["QSeries", "LeadingTerm", "eta_series", "euler_product"]

Exponent = Union[int, Fraction]
Coefficient = Union[int, Fraction]


def _lattice24(e: Exponent) -> int:
    """Convert an exponent to 1/24 units, rejecting anything off the lattice."""
    if isinstance(e, int):
        return 24 * e
    if isinstance(e, Fraction):
        n = 24 * e
        if n.denominator != 1:
            raise LatticeError(f"exponent {e} is not a multiple of 1/24")
        return n.numerator
    raise TypeError(f"exponent must be int or Fraction, got {type(e).__name__}")


def _coeff(c: Coefficient) -> Coefficient:
    """Validate a coefficient and collapse integral Fractions to int."""
    if type(c) is not int and isinstance(c, Fraction):  # int skips the ABC check
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _min_trunc(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class LeadingTerm(NamedTuple):
    """Smallest-exponent nonzero term of a series."""

    exponent: Fraction
    coefficient: Coefficient


class QSeries:
    """Truncated formal series with exact rational coefficients."""

    __slots__ = ("_e", "_c", "_t")

    def __init__(self, terms: Iterable[tuple[Exponent, Coefficient]] = (),
                 trunc: Optional[Exponent] = None):
        t24 = None if trunc is None else _lattice24(trunc)
        acc: dict[int, Coefficient] = {}
        for e, c in terms:
            n = _lattice24(e)
            if t24 is not None and n >= t24:
                raise ValueError(
                    f"term q^{e} lies at or beyond the truncation q^{trunc}")
            acc[n] = acc.get(n, 0) + _coeff(c)
        exps = sorted(n for n, c in acc.items() if c != 0)
        self._e = tuple(exps)
        # Tuples are built from lists: tuple(<generator>) resizes a size-10 tuple,
        # which piles up in a free list that only a full collection empties.
        self._c = tuple([_coeff(acc[n]) for n in exps])
        self._t = t24

    # -- internal constructors -------------------------------------------

    @classmethod
    def _raw(cls, e: tuple, c: tuple, t: Optional[int]) -> "QSeries":
        s = object.__new__(cls)
        s._e = e
        s._c = c
        s._t = t
        return s

    @classmethod
    def _from24(cls, acc: dict, t24: Optional[int]) -> "QSeries":
        if t24 is None:
            exps = sorted(n for n, c in acc.items() if c != 0)
        else:
            exps = sorted(n for n, c in acc.items() if c != 0 and n < t24)
        return cls._raw(tuple(exps), tuple([_coeff(acc[n]) for n in exps]), t24)

    @classmethod
    def zero(cls, trunc: Optional[Exponent] = None) -> "QSeries":
        """The zero series, known exactly below ``trunc`` (everywhere if None)."""
        return cls._raw((), (), None if trunc is None else _lattice24(trunc))

    @classmethod
    def one(cls) -> "QSeries":
        return cls._raw((0,), (1,), None)

    @classmethod
    def constant(cls, c: Coefficient) -> "QSeries":
        c = _coeff(c)
        return cls._raw((), (), None) if c == 0 else cls._raw((0,), (c,), None)

    @classmethod
    def monomial(cls, coefficient: Coefficient, exponent: Exponent) -> "QSeries":
        c = _coeff(coefficient)
        if c == 0:
            return cls._raw((), (), None)
        return cls._raw((_lattice24(exponent),), (c,), None)

    # -- queries -----------------------------------------------------------

    @property
    def trunc(self) -> Optional[Fraction]:
        """Exclusive exactness bound, or None when the series is exact."""
        return None if self._t is None else Fraction(self._t, 24)

    def __len__(self) -> int:
        return len(self._e)

    def is_zero(self) -> bool:
        """True when no nonzero coefficient is known (zero up to trunc)."""
        return not self._e

    def terms(self) -> list[tuple[Fraction, Coefficient]]:
        """All stored terms as (exponent, coefficient), ascending."""
        return [(Fraction(e, 24), c) for e, c in zip(self._e, self._c)]

    def coeff(self, e: Exponent) -> Coefficient:
        """Coefficient of q^e; raises if e is at or beyond the truncation."""
        n = _lattice24(e)
        if self._t is not None and n >= self._t:
            raise BeyondTruncationError(
                f"coefficient of q^{e} lies beyond the truncation q^{self.trunc}")
        i = bisect_left(self._e, n)
        return self._c[i] if i < len(self._e) and self._e[i] == n else 0

    def leading_term(self) -> Optional[LeadingTerm]:
        """Smallest-exponent nonzero term, or None if zero up to trunc."""
        if not self._e:
            return None
        return LeadingTerm(Fraction(self._e[0], 24), self._c[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._e == other._e and self._c == other._c and self._t == other._t

    def __hash__(self) -> int:
        return hash((self._e, self._c, self._t))

    # -- ring operations ---------------------------------------------------

    def _first_unknown(self) -> Optional[int]:
        """Smallest exponent at which the series might be nonzero (None = +inf)."""
        return self._e[0] if self._e else self._t

    def __add__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            other = QSeries.constant(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        t = _min_trunc(self._t, other._t)
        acc = dict(zip(self._e, self._c))
        for e, c in zip(other._e, other._c):
            acc[e] = acc.get(e, 0) + c
        return QSeries._from24(acc, t)

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries._raw(self._e, tuple([-c for c in self._c]), self._t)

    def __sub__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            other = QSeries.constant(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QSeries":
        return (-self) + other

    def _scale(self, k: Coefficient) -> "QSeries":
        k = _coeff(k)
        if k == 0:
            return QSeries._raw((), (), self._t)
        if k == 1:
            return self
        return QSeries._raw(self._e, tuple([_coeff(k * c) for c in self._c]), self._t)

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        la, lb = self._first_unknown(), other._first_unknown()
        cands = []
        if self._t is not None and lb is not None:
            cands.append(self._t + lb)
        if other._t is not None and la is not None:
            cands.append(other._t + la)
        t = min(cands) if cands else None
        if not self._e or not other._e:
            return QSeries._raw((), (), t)
        a, b = (self, other) if len(self._e) <= len(other._e) else (other, self)
        be, bc = b._e, b._c
        acc: dict[int, Coefficient] = {}
        get = acc.get
        for ea, ca in zip(a._e, a._c):
            if t is None:
                for eb, cb in zip(be, bc):
                    k = ea + eb
                    acc[k] = get(k, 0) + ca * cb
            else:
                lim = t - ea
                for eb, cb in zip(be, bc):
                    if eb >= lim:
                        break
                    k = ea + eb
                    acc[k] = get(k, 0) + ca * cb
        return QSeries._from24(acc, t)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of a series by zero")
            return self._scale(Fraction(1, 1) / Fraction(other))
        return NotImplemented

    def shifted(self, e: Exponent) -> "QSeries":
        """Multiply by the exact monomial q^e."""
        return self._shift(_lattice24(e))

    def _shift(self, n24: int) -> "QSeries":
        if n24 == 0:
            return self
        return QSeries._raw(
            tuple([e + n24 for e in self._e]), self._c,
            None if self._t is None else self._t + n24)

    def truncated(self, depth: Exponent) -> "QSeries":
        """Restrict knowledge to exponents below ``depth`` (never widens)."""
        return self._truncated24(_lattice24(depth))

    def _truncated24(self, t24: int) -> "QSeries":
        if self._t is not None and self._t <= t24:
            return self
        i = len(self._e)
        while i > 0 and self._e[i - 1] >= t24:
            i -= 1
        return QSeries._raw(self._e[:i], self._c[:i], t24)

    def _unit_pow(self, n: int) -> "QSeries":
        """u**n for a series u with leading term 1*q^0, at its own truncation.

        J.C.P. Miller's recurrence: with u = 1 + sum_j u_j x^j on the grid
        x = q^g of u's exponents and v = u**n, v_0 = 1 and
        k v_k = sum_{j=1..k} ((n+1) j - k) u_j v_(k-j).  It costs
        O(L nnz(u)) for every n.  For n = -1 every weight is -k, so the
        weights and the division drop out (the u_j are negated instead) and
        it is the triangular inverse.  Integer coefficients stay integers:
        k v_k is then a multiple of k.
        """
        rest_e, rest_c = self._e[1:], self._c[1:]
        if not rest_e:
            return self
        T = self._t
        if T is None and n < 0:
            raise ValueError(
                "cannot invert an exact polynomial without a truncation; "
                "apply .truncated(depth) first or call invert(depth)")
        g = gcd(*rest_e)
        w = n + 1
        terms = [(e // g, c if w else -c) for e, c in zip(rest_e, rest_c)]
        L = n * terms[-1][0] + 1 if T is None else -(-T // g)
        integral = all(type(c) is int for c in rest_c)
        v: list = [1] + [0] * (L - 1)
        for k in range(1, L):
            s = 0
            for j, c in terms:
                if j > k:
                    break
                vj = v[k - j]
                if vj:
                    s += (w * j - k) * c * vj if w else c * vj
            if w and s:
                s = s // k if integral else Fraction(s, k)
            v[k] = s
        return QSeries._from24({k * g: c for k, c in enumerate(v)}, T)

    def _unit_invert(self) -> "QSeries":
        """Inverse of a series with leading term 1*q^0, at its own truncation."""
        return self._unit_pow(-1)  # bench/tracing.py wraps this name

    def invert(self, depth: Exponent) -> "QSeries":
        """Multiplicative inverse b with self*b = 1 + O(q^depth).

        The result is truncated at ``depth`` or at the bound the input's own
        truncation justifies, whichever is smaller.  Exact monomials invert
        exactly, and the zero series raises, as for ``self ** -1``.
        """
        if not self._e or (self._t is None and len(self._e) == 1):
            return self ** -1
        e0 = self._e[0]
        d24 = _lattice24(depth)
        if self._t is not None:
            d24 = min(d24, self._t - 2 * e0)
        if d24 + e0 <= 0:
            return QSeries._raw((), (), d24)
        return self._truncated24(d24 + 2 * e0) ** -1

    def __pow__(self, n: int) -> "QSeries":
        if not isinstance(n, int):
            raise TypeError("series exponent must be an int")
        if n == 0:
            return QSeries.one()
        if not self._e:
            if n < 0:
                raise ZeroSeriesError("cannot invert a series that is zero up to its truncation")
            return QSeries._raw((), (), None if self._t is None else n * self._t)
        e0, c0 = self._e[0], Fraction(self._c[0])
        unit = self._shift(-e0)._scale(1 / c0)
        return unit._unit_pow(n)._shift(n * e0)._scale(c0 ** n)

    # -- coefficient extraction ---------------------------------------------

    def sift(self, p: int, j: int) -> "QSeries":
        """Extract the arithmetic progression sum_n a(p*n + j) q^n.

        Requires every stored exponent to be an integer.
        """
        if not isinstance(p, int) or p < 1:
            raise ValueError("sift modulus must be a positive integer")
        if not isinstance(j, int) or not 0 <= j < p:
            raise ValueError("sift residue must satisfy 0 <= j < p")
        for e in self._e:
            if e % 24:
                raise FractionalExponentError(
                    f"sift requires integer exponents, found q^{Fraction(e, 24)}")
        out: dict[int, Coefficient] = {}
        for e, c in zip(self._e, self._c):
            n = e // 24
            if n % p == j:
                out[24 * ((n - j) // p)] = c
        if self._t is None:
            t = None
        else:
            t = 24 * (-(-(self._t - 24 * j) // (24 * p)))
        return QSeries._from24(out, t)

    # -- display -------------------------------------------------------------

    @staticmethod
    def _fmt_exponent(e24: int) -> str:
        f = Fraction(e24, 24)
        if f.denominator == 1 and f >= 0:
            return "q" if f == 1 else f"q^{f}"
        return f"q^({f})"

    def __str__(self) -> str:
        parts = []
        for i, (e, c) in enumerate(zip(self._e, self._c)):
            neg = c < 0
            mag = -c if neg else c
            if e == 0:
                body = str(mag)
            elif mag == 1:
                body = self._fmt_exponent(e)
            else:
                body = f"{mag}*{self._fmt_exponent(e)}"
            if i == 0:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        if self._t is not None:
            f = Fraction(self._t, 24)
            tail = f"O(q^{f})" if f.denominator == 1 and f >= 0 else f"O(q^({f}))"
            parts.append(f"+ {tail}" if parts else tail)
        if not parts:
            return "0"
        return " ".join(parts)

    def __repr__(self) -> str:
        head = ", ".join(f"({Fraction(e, 24)!s}, {c!s})"
                         for e, c in list(zip(self._e, self._c))[:4])
        if len(self._e) > 4:
            head += ", ..."
        return f"QSeries([{head}], trunc={self.trunc})"


def _pentagonal(limit: int) -> list[tuple[int, int]]:
    """(n, c) for each nonzero coefficient c of q^n, n < limit, ascending, in
    prod_{n>=1} (1 - q^n) = sum_k (-1)^k q^(k(3k-1)/2) over all integers k
    (Euler's pentagonal number theorem)."""
    m = isqrt(max(limit, 0))
    return sorted((k * (3 * k - 1) // 2, -1 if k % 2 else 1)
                  for k in range(-m, m + 1) if k * (3 * k - 1) < 2 * limit)


def _jacobi_cube(limit: int) -> list[tuple[int, int]]:
    """As :func:`_pentagonal` for prod_{n>=1} (1 - q^n)^3 =
    sum_{k>=0} (-1)^k (2k+1) q^(k(k+1)/2) (Jacobi)."""
    return [(k * (k + 1) // 2, -(2 * k + 1) if k % 2 else 2 * k + 1)
            for k in range(isqrt(2 * max(limit, 0)) + 1)
            if k * (k + 1) < 2 * limit]


def _euler_sweep(a: list, t: int, r: int) -> None:
    """Multiply the dense series ``a`` (a[n] is the coefficient of q^n) in
    place by prod_{n>=1} (1 - q^(t*n))^r, truncated at its length: one sweep
    with Jacobi's cube per full three of |r|, one with the pentagonal series
    per unit left.  A product sweeps down the list and a quotient up it, so
    each read sees the old value or the finished quotient as needed."""
    if len(a) <= t:
        return
    limit = -(-len(a) // t)
    order = range(len(a) - 1, t - 1, -1) if r > 0 else range(t, len(a))
    cubes, ones = divmod(abs(r), 3)
    for series, count in ((_jacobi_cube(limit), cubes),
                          (_pentagonal(limit), ones)):
        terms = [(t * n, c if r > 0 else -c) for n, c in series[1:]]
        for _ in range(count):
            for n in order:
                s = 0
                for e, c in terms:
                    if e > n:
                        break
                    s += c * a[n - e]
                a[n] += s


def euler_product(t: int, depth: Exponent) -> QSeries:
    """The product prod_{n>=1} (1 - q^(t*n)) expanded below ``depth``.

    Generated by the pentagonal-number series, which enumerates the nonzero
    coefficients directly.
    """
    check_positive(multiplier=t)
    t24 = _lattice24(depth)
    return QSeries._from24(
        {24 * t * n: c for n, c in _pentagonal(-(-t24 // (24 * t)))}, t24)


def eta_series(t: int, depth: Exponent) -> QSeries:
    """q-expansion of eta(t*tau) = q^(t/24) prod_{n>=1} (1 - q^(t*n))."""
    check_positive(multiplier=t)
    d24 = _lattice24(depth)
    return euler_product(t, Fraction(d24 - t, 24))._shift(t)
