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
from functools import lru_cache
from itertools import compress, repeat
from math import gcd, isqrt
from operator import add, mul, sub
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
    return b if a is None else a if b is None else min(a, b)


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
        s = QSeries._from24(acc, t24)
        self._e, self._c, self._t = s._e, s._c, s._t

    # -- internal constructors -------------------------------------------

    @classmethod
    def _raw(cls, e: tuple, c: tuple, t: Optional[int]) -> "QSeries":
        s = object.__new__(cls)
        s._e, s._c, s._t = e, c, t
        return s

    @classmethod
    def _from_list(cls, a: list, s24: int, t24: int) -> "QSeries":
        """sum a[n] q^(s24/24 + n) + O(q^(t24/24)) for a list of ints below it."""
        e = compress(range(s24, s24 + 24 * len(a), 24), a)
        return cls._raw(tuple(list(e)), tuple(list(compress(a, a))), t24)

    @classmethod
    def _from24(cls, acc: dict, t24: Optional[int]) -> "QSeries":
        if t24 is None:
            exps = sorted(n for n, c in acc.items() if c != 0)
        else:
            exps = sorted(n for n, c in acc.items() if c != 0 and n < t24)
        # tuple(<list>): tuple(<generator>) resizes tuples that pile up in a free list
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
        if not isinstance(other, (int, Fraction, QSeries)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other) -> "QSeries":
        return (-self) + other

    def _scale(self, k: Coefficient) -> "QSeries":
        k = _coeff(k)
        if k == 0:
            return QSeries._raw((), (), self._t)
        return QSeries._raw(self._e, tuple([_coeff(k * c) for c in self._c]), self._t)

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        # the smallest exponents at which each might be nonzero (None = +inf)
        la, lb = [s._e[0] if s._e else s._t for s in (self, other)]
        cands = []
        if self._t is not None and lb is not None:
            cands.append(self._t + lb)
        if other._t is not None and la is not None:
            cands.append(other._t + la)
        t = min(cands) if cands else None
        a, b = (self, other) if len(self._e) <= len(other._e) else (other, self)
        be, bc = b._e, b._c
        acc: dict[int, Coefficient] = {}
        get = acc.get
        for ea, ca in zip(a._e, a._c):
            lim = be[-1] + 1 if t is None else t - ea
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
        """u**n for a series u with leading term 1*q^0, at its own truncation,
        by :func:`_miller_pow` on the grid x = q^g of u's exponents."""
        rest_e, rest_c = self._e[1:], self._c[1:]
        if not rest_e:
            return self
        T = self._t
        if T is None and n < 0:
            raise ValueError(
                "cannot invert an exact polynomial without a truncation; "
                "apply .truncated(depth) first or call invert(depth)")
        g = gcd(*rest_e)
        terms = [(e // g, c) for e, c in zip(rest_e, rest_c)]
        L = n * terms[-1][0] + 1 if T is None else -(-T // g)
        v = _miller_pow(terms, n, L)
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
        step, j24 = 24 * p, 24 * j
        keep = [k for k, e in enumerate(self._e) if (e - j24) % step == 0]
        t = None if self._t is None else 24 * -(-(self._t - j24) // step)
        return QSeries._raw(tuple([(self._e[k] - j24) // p for k in keep]),
                            tuple([self._c[k] for k in keep]), t)

    # -- display -------------------------------------------------------------

    @staticmethod
    def _fmt_exponent(e24: int) -> str:
        if e24 >= 0 and e24 % 24 == 0:
            return "q" if e24 == 24 else f"q^{e24 // 24}"
        return f"q^({Fraction(e24, 24)})"

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


_MAX_SIZE = 2 ** 20  # coefficients in one dense list: 8 MiB of references
_MAX_NS = 2 ** 25 * 100  # the price of one expansion: about 3.4 s
_DIVISION_NS = 100  # a product of eta_factorize's O(L^2) division


def _unit_list(size: int) -> list:
    """[1, 0, ..., 0], the series 1 below x^size.  Past _MAX_SIZE it raises
    ValueError, so a huge depth or margin is a usage error, not an allocation."""
    if size > _MAX_SIZE:
        raise ValueError(f"a series of {size} coefficients is past the limit "
                         f"of {_MAX_SIZE}")
    return [1][:size] + [0] * (size - 1)


def _miller_pow(terms: list, n: int, size: int) -> list:
    """Dense v = u**n below x^size for u = 1 + sum_j u_j x^j, the (j, u_j) in
    ``terms`` ascending from j = 1, by J.C.P. Miller's recurrence: v_0 = 1 and
    k v_k = sum_{j=1..k} ((n+1) j - k) u_j v_(k-j), at O(size nnz(u)) for any
    n, inverses included.  Integer u_j give integer v_k, since k v_k is then a
    multiple of k.  A size past ``_MAX_SIZE`` raises ValueError."""
    w = n + 1
    integral = all(type(c) is int for _, c in terms)
    v = _unit_list(size)
    for k in range(1, size):
        s = 0
        for j, c in terms:
            if j > k:
                break
            vj = v[k - j]
            if vj:
                s += (w * j - k) * c * vj
        if s:
            s = s // k if integral else Fraction(s, k)
        v[k] = s
    return v


@lru_cache(maxsize=256)
def _sweep_series(t: int, size: int) -> tuple:
    """(cube, euler, cube_ops, euler_ops): Jacobi's cube and Euler's series at
    t below q^size, as term tuples ((e, c), ...) without q^0, and each one's
    sum of size - e, the term operations of one sweep of a list of size."""
    limit = -(-size // t)
    cube = tuple([(t * n, c) for n, c in _jacobi_cube(limit)[1:]])
    euler = tuple([(t * n, c) for n, c in _pentagonal(limit)[1:]])
    return cube, euler, *[sum([size - e for e, _ in s]) for s in (cube, euler)]


def _sweep_terms(t: int, r: int, size: int) -> tuple:
    """The sweeps of (t, r) below q^size, from :func:`_sweep_series`: Jacobi's
    cube per full three of |r|, Euler's series per unit left."""
    cube, euler, _, _ = _sweep_series(t, size)
    return (cube,) * (abs(r) // 3) + (euler,) * (abs(r) % 3)


def _euler_sweep(a: list, t: int, r: int) -> None:
    """Multiply the dense series ``a`` (a[n] is the coefficient of q^n) in
    place by prod_{n>=1} (1 - q^(t*n))^r, truncated at its length, one sweep
    per term tuple of :func:`_sweep_terms`.  A product reads only old values,
    so it adds each term as one shifted copy of the list; a quotient sweeps
    up the list, so that each read sees the finished quotient."""
    for terms in _sweep_terms(t, r, len(a)):
        if r > 0:
            old = a[:]
            for e, c in terms:  # c = +-1 in the pentagonal series
                b = old if c * c == 1 else map(mul, old, repeat(abs(c)))
                a[e:] = map(add if c > 0 else sub, a[e:], b)
            continue
        for n in range(t, len(a)):
            s = 0
            for e, c in terms:
                if e > n:
                    break
                s -= c * a[n - e]
            a[n] += s


def _route_cost(size: int, t: int, r: int, bits: int = 0, passes: int = 0) -> float:
    """About the ns of (t, r) on a list of ``size`` ints of ``bits`` bits, or
    for t = 0 of packing it ``bits`` bits an int, ``passes`` shift-add passes
    over it and unpacking it: per term operation on the list 50 (a product's,
    twice for |c| > 1) or 100 (a quotient's), 2% more per 10 bits; per int
    370 plus 0.9 a bit, and 0.037 a bit a pass.  It picks each route of
    :func:`_sweeps`, and its list price (bits 0) the seed, the refusal past
    ``_MAX_NS`` and ``eta_factorize``'s switch.  Fitted by least squares on
    lists of 30 to 2000 ints of 4 to 250 bits (Python 3.11.7, 2 vCPUs); a
    quotient operation took 190-235 ns on lists of 100000, past that range."""
    if not t:
        return size * (370 + 0.9 * bits + 0.037 * bits * passes)
    _, _, cube, euler = _sweep_series(t, size)
    cubes, ones = divmod(abs(r), 3)
    ops = (1 + (r > 0)) * cubes * cube + ones * euler
    return (50 if r > 0 else 100) * (1 + bits / 500) * ops


def _division_cost(size: int) -> float:
    """About the ns of ``eta_factorize``'s division of a list of ``size``."""
    return _DIVISION_NS * size * size / 2


def _check_price(factors, size: int, fill: int = 0, ns: float = 0) -> None:
    """Raise ValueError, before any work, when ``ns`` plus the list price of
    the factors (t, r) on a list of ``size`` and Miller's fill of an entry
    of ``fill`` (fill x its pentagonal terms at the quotient rate) passes
    ``_MAX_NS``."""
    ns += sum([_route_cost(size, t, r) for t, r in factors],
              100 * fill * len(_sweep_series(1, fill)[1]))
    if ns > _MAX_NS:
        raise ValueError(f"this expansion would take about {ns:.0f} ns, "
                         f"past the limit of {_MAX_NS:.0f} ns")


def _sweeps(a: list, factors, seed: tuple = (0, 0)) -> None:
    """Multiply the int list ``a`` in place by prod_{n>=1} (1 - q^(t*n))^r for
    each (t, r) in ``factors``, below its length: by :func:`_euler_sweep`, or
    on A = sum a[n] 2^(w n) mod 2^(w len(a)) by a shift-add per term of a
    product's :func:`_sweep_terms` or of a quotient's power-table entry spread
    by t.  |a*S| <= |a| |S|_1 keeps each |digit| < 2^(w-1) for w, in bytes,
    past 1 + bits(max |a|) + the bits of each l1 norm.  A quotient, shortest
    entry first, joins the packed products if :func:`_route_cost` says that
    saves time, else runs first on the list, as the batch does unless packing
    it saves time.  A ``seed`` (t0, r0), t0 > 0, is read from the power
    table into a = [1, 0, ...] before them, unless :func:`_check_price`
    refuses its fill and the factors first."""
    size, lists, batch, saved, passes = len(a), [], [], 0, 0
    fill = seed[0] and -(-size // seed[0])
    _check_price(factors, size, fill)
    if fill:
        a[::seed[0]] = _euler_power(seed[1], fill)
    factors = sorted([f for f in factors if f[0] < size],
                     key=lambda f: (f[1] < 0, -f[0]))
    if not factors:
        return
    top = max(map(abs, a)).bit_length()
    grow = 1  # the width past bits(max |a|): the sign bit and each l1 norm's
    for t, r in factors:
        plain = _route_cost(size, t, r, top)
        sweeps = (_sweep_terms(t, r, size) if r > 0 else [[(t * k, c) for k, c in
                  enumerate(_euler_power(r, -(-size // t))) if c][1:]])
        bits = sum([(1 + sum([abs(c) for _, c in s])).bit_length() for s in sweeps])
        more = sum([3 + abs(c).bit_length() // 30 - (c * c == 1)
                    for s in sweeps for _, c in s])
        if r < 0 and (_route_cost(size, 0, 0, top + grow + bits, passes + more)
                      - _route_cost(size, 0, 0, top + grow, passes)) >= plain:
            lists.append((t, r))
            continue
        batch.append((t, r, sweeps))
        saved, grow, passes = saved + plain, grow + bits, passes + more
    if _route_cost(size, 0, 0, top + grow, passes) >= saved:
        lists, batch = lists + [(t, r) for t, r, _ in batch], []
    for t, r in lists:
        _euler_sweep(a, t, r)
    if batch:
        nb = -(-(grow + max(map(abs, a)).bit_length()) // 8)  # bytes a digit
        bias, mask = 1 << 8 * nb - 1, (1 << 8 * nb * size) - 1
        biases = int.from_bytes((bytes(nb - 1) + b"\x80") * size, "little")
        data = b"".join([(v + bias).to_bytes(nb, "little") for v in a])
        A = int.from_bytes(data, "little") - biases
        for terms in [s for _, _, sweeps in batch for s in sweeps]:
            B = A
            for e, c in terms:  # a shift, an add and a multiply unless c = +-1
                b = B << 8 * nb * e
                A = A + b if c == 1 else A - b if c == -1 else A + c * b
            A &= mask
        data = ((A + biases) & mask).to_bytes(nb * size, "little")
        a[:] = [int.from_bytes(data[i:i + nb], "little") - bias
                for i in range(0, nb * size, nb)]


# Dense prod_{n>=1} (1 - q^n)^r by r, shared by every expansion in the
# process, since (q^t;q^t)^r is this series spread out.  Filled on demand, so
# import does no work.  The deep benchmark workload holds 14 entries of 5309
# coefficients in all (225 KiB) after its warm-ups and 10 seed-1 blocks, and no
# more after its 20; the caps bound what a stream of distinct exponents or
# depths can hold (least recently used out, a longer request not kept).
_POWERS: dict[int, list] = {}
_MAX_ENTRIES, _MAX_COEFFS = 32, 16384


def _euler_power(r: int, size: int) -> list:
    """A fresh dense list of prod_{n>=1} (1 - q^n)^r below q^size."""
    a = _POWERS.pop(r, None)
    if a is None or len(a) < size:
        a = _miller_pow(_pentagonal(size)[1:], r, size)
    if len(a) <= _MAX_COEFFS:
        _POWERS[r] = a
        while len(_POWERS) > _MAX_ENTRIES or sum(map(len, _POWERS.values())) > _MAX_COEFFS:
            del _POWERS[next(iter(_POWERS))]
    return a[:size]


def _product_list(factors: tuple, size: int) -> list:
    """The dense list of prod_{n>=1} (1 - q^(t*n))^r over the (t, r) in
    ``factors``, below q^size: :func:`_sweeps` seeds the list with the
    factor of the largest list price and applies every other factor."""
    a = _unit_list(size)
    _, t0, r0 = max([(_route_cost(size, t, r), t, r) for t, r in factors
                     if t < size], default=(0, 0, 0))
    _sweeps(a, [(t, r) for t, r in factors if t != t0], (t0, r0))
    return a


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
    return euler_product(t, Fraction(_lattice24(depth) - t, 24))._shift(t)
