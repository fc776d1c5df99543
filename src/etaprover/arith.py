"""Integer helpers shared by the cusps, modularity checks and U_p bounds."""

from __future__ import annotations

from math import isqrt

__all__ = ["prime_factors", "divisors", "is_prime", "is_square", "nu"]


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division: {prime: exponent}."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, ascending."""
    out = [1]
    for p, k in prime_factors(n).items():
        out = [d * p ** i for d in out for i in range(k + 1)]
    return sorted(out)


def is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == {n: 1}


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def nu(p: int, n: int) -> int:
    """p-adic valuation of a positive integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
