"""Independent brute-force oracles and random-input generators for the tests.

Everything here deliberately avoids the library's own algorithms: polynomial
arithmetic is schoolbook dense-dict convolution over integer exponents, the
eta factors are literal finite products (1-q^t)(1-q^2t)... rather than the
pentagonal series, and division solves the triangular system coefficient by
coefficient.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import ceil, gcd
from operator import mul

from etaprover import Cusp, EtaProduct, QSeries, arith, modular_function_check
from etaprover import __version__
from etaprover.errors import NotAnEtaProductError, ParseError
from etaprover.parser import _Token

# -- dense integer-exponent polynomial helpers --------------------------------


def pmul(a: dict, b: dict, depth: int) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        if e1 >= depth:
            continue
        for e2, c2 in b.items():
            e = e1 + e2
            if e < depth:
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ppow(a: dict, n: int, depth: int) -> dict:
    out = {0: 1}
    for _ in range(n):
        out = pmul(out, a, depth)
    return out


def pdiv(a: dict, b: dict, depth: int) -> dict:
    """a/b as power series, for b with constant term 1."""
    assert b.get(0) == 1
    out: dict = {}
    for e in range(depth):
        c = a.get(e, 0) - sum(b.get(e - k, 0) * v for k, v in out.items() if k < e)
        if c:
            out[e] = c
    return out


def euler_brute(t: int, depth: int) -> dict:
    """prod_{n>=1} (1 - q^(t n)) by multiplying the binomials one by one."""
    acc = {0: 1}
    n = 1
    while t * n < depth:
        acc = pmul(acc, {0: 1, t * n: -1}, depth)
        n += 1
    return acc


def eta_quotient_brute(factors, depth: int) -> dict:
    """Integer-exponent expansion of prod (1-q^tn)^r factors, no prefactor."""
    num = {0: 1}
    den = {0: 1}
    for t, r in factors:
        part = ppow(euler_brute(t, depth), abs(r), depth)
        if r > 0:
            num = pmul(num, part, depth)
        else:
            den = pmul(den, part, depth)
    return pdiv(num, den, depth)


def partition_numbers(n: int) -> list[int]:
    """p(0..n) by Euler's recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        s, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            g2 = k * (3 * k + 1) // 2
            sgn = -1 if k % 2 == 0 else 1
            s += sgn * p[m - g1]
            if g2 <= m:
                s += sgn * p[m - g2]
            k += 1
        p[m] = s
    return p


# -- number-theory helpers -----------------------------------------------------


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def cusp_set_brute(n: int) -> list[Cusp]:
    """The Chua-Lang cusp representatives of Gamma0(n), literally: for every
    d <= n dividing n, every x < d coprime to d whose class mod gcd(d, n/d)
    has not been taken yet."""
    out = []
    for d in range(1, n + 1):
        if n % d:
            continue
        e = gcd(d, n // d)
        seen = set()
        for x in range(d):
            if gcd(x, d) == 1 and x % e not in seen:
                seen.add(x % e)
                out.append(Cusp(x, d))
    return out


def ligozat_order(ep: EtaProduct, c: int) -> Fraction:
    """Invariant order at a cusp of denominator c: the Ligozat sum of
    gcd(t, c)^2 r / (24 t), term by term in Fractions."""
    return sum((Fraction(gcd(t, c) ** 2 * r, 24 * t) for t, r in ep.factors),
               Fraction(0))


def gordon_hughes_brute(ep: EtaProduct, cusp: Cusp, level: int,
                        p: int) -> Fraction:
    """The Gordon-Hughes case split for U_p ep at the cusp b/d of
    Gamma0(level), literally: v = nu_p(d) by repeated division, and every
    order on Gamma0(p*level) as fan width times the Ligozat sum at the
    reduced denominator, with the full sweep over k = 0..p-1 when v = 0."""
    pn = p * level

    def order(num: int, den: int) -> Fraction:
        c = Fraction(num, den).denominator
        return Fraction(pn, gcd(pn, c * c)) * ligozat_order(ep, c)

    def val(n: int) -> int:
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    b, d = cusp.b, cusp.c
    v = val(d)
    if 2 * v >= val(level):
        return order(b, p * d) / p
    if v > 0:
        return order(b, p * d)
    return min(order(b + k * d, p * d) for k in range(p))


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def gamma0_index(n: int) -> int:
    """Index of Gamma0(n) in the full modular group: n * prod (1 + 1/p)."""
    idx = Fraction(n)
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            idx *= 1 + Fraction(1, p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        idx *= 1 + Fraction(1, m)
    assert idx.denominator == 1
    return int(idx)


def newman_square_brute(factors) -> bool:
    """Newman's condition 3 as stated: prod t^|r| is a perfect square."""
    n = 1
    for t, r in factors:
        n *= t ** abs(r)
    return arith.is_square(n)


# -- random generators ----------------------------------------------------------


def random_qseries(rng: random.Random, max_terms: int = 6) -> QSeries:
    t24 = rng.randint(8, 96)
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = rng.randint(-24, t24 - 1)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        terms[e] = c
    return QSeries([(Fraction(e, 24), c) for e, c in terms.items() if c],
                   trunc=Fraction(t24, 24))


def random_eta_product(rng: random.Random, max_t: int = 12,
                       max_r: int = 6, max_factors: int = 3) -> EtaProduct:
    count = rng.randint(1, max_factors)
    ts = rng.sample(range(1, max_t + 1), count)
    factors = [(t, rng.choice([r for r in range(-max_r, max_r + 1) if r]))
               for t in ts]
    return EtaProduct(factors)


def sampled_modular_product(rng: random.Random, level: int) -> EtaProduct:
    """A modular function on Gamma0(level): two to four eta factors over
    divisors of the level, every exponent but the last two drawn in -12..12.

    The last two, x and -(sum of the others) - x, are solved from Newman's
    conditions: sum t*r and sum (level/t)*r vanish mod 24, and sum v_p(t)*r
    is even for every prime p (prod t^|r| is a square).  These are
    congruences in x mod 24, so one full residue system holds every
    solution; a draw of divisors with none is drawn again.  Needs no pool,
    so large levels are cheap; levels 1 and 2 have no such product."""
    divs, primes = arith.divisors(level), arith.prime_factors(level)
    for _ in range(10_000):
        ts = rng.sample(divs, min(len(divs), rng.randint(2, 4)))
        head = [rng.randint(-12, 12) for _ in ts[2:]]
        # each condition as (weight of every factor, modulus)
        conditions = [(ts, 24), ([level // t for t in ts], 24)] + [
            ([arith.nu(p, t) for t in ts], 2) for p in primes]
        solutions = []
        for x in range(-12, 12):
            rs = head + [x, -sum(head) - x]
            if any(rs) and all(sum(w * r for w, r in zip(ws, rs)) % m == 0
                               for ws, m in conditions):
                solutions.append(rs)
        if solutions:
            ep = EtaProduct(zip(ts, rng.choice(solutions)))
            assert modular_function_check(ep, level).invariant
            return ep
    raise AssertionError(f"no modular eta-product sampled for level {level}")


def random_modular_product(rng: random.Random, level: int) -> EtaProduct:
    """A random modular function on Gamma0(level): a product of one to three
    sampled ones, each to a small power (the defining conditions are closed
    under products, so the result stays modular)."""
    ep = EtaProduct()
    for _ in range(rng.randint(1, 3)):
        base = sampled_modular_product(rng, level)
        ep = ep * (base ** rng.choice([-2, -1, 1, 1, 2]))
    assert modular_function_check(ep, level).invariant
    return ep


# -- reference factorization ------------------------------------------------------


def eta_factorize_logspace(f: QSeries, depth=None) -> EtaProduct:
    """The library's earlier ``eta_factorize``, kept as a reference: the
    whole stripping runs on b = q*u'/u, computed by an O(L^2) division of the
    residual u = 1 + ... before the first step.  Results and error texts
    must match ``eta_factorize`` exactly."""
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
    confidence = int(rel_depth) // 2
    size = max(0, ceil(u.trunc))
    a = [0] * size  # u as a dense list
    for e, c in u.terms():
        if e.denominator != 1:
            raise NotAnEtaProductError(
                f"residual exponent q^{e} off the integer lattice")
        a[int(e)] = c
    b = [0] * size  # from n*a[n] = sum_{k=1..n} b[k]*a[n-k]
    for n in range(1, size):
        b[n] = n * a[n] - sum(map(mul, b, a[n::-1]))
    factors: list[tuple[int, int]] = []
    for n in range(1, size):
        if not b[n]:
            continue
        c = Fraction(b[n], n)
        if c.denominator != 1:
            raise NotAnEtaProductError(
                f"non-integer coefficient {c} at q^{n}")
        if n > confidence:
            found = EtaProduct(factors)
            raise NotAnEtaProductError(
                f"unexplained term at q^{n} beyond the confidence bound "
                f"q^{confidence}; confirmed factors so far: {found}")
        factors.append((n, -c.numerator))
        for d in range(n, size, n):
            for m in range(d, size, d):
                b[m] -= c.numerator * d
    ep = EtaProduct(factors)
    if ep.leading_exponent != e0:
        raise NotAnEtaProductError(
            f"leading power q^{e0} does not match the factored prefactor "
            f"q^{ep.leading_exponent}")
    return ep


# -- reference sweep -------------------------------------------------------------


def euler_sweep_scalar(a: list, t: int, r: int) -> None:
    """The library's earlier ``_euler_sweep``, kept as a reference: every
    sweep, product or quotient, is one scalar loop over the list.  A product
    runs from the top down, so each read sees an old value.  The library now
    adds a product's terms as shifted copies of the list."""
    from etaprover.qseries import _jacobi_cube, _pentagonal

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


# -- reference writers ------------------------------------------------------------


def certificate_json(report, command: str, source: str, margin: int) -> str:
    """The library's earlier ``ProofReport.to_json``: the certificate as a
    dict, written by ``json.dumps`` with every cell formatted on its own.
    The library now writes the same bytes by hand."""
    def strs(values):
        return None if values is None else [str(v) for v in values]

    cert = {
        "tool": f"etaprover {__version__}",
        "command": command,
        "input": source,
        "level": report.level,
        "margin": margin,
        "verdict": report.verdict.value,
        "B": str(report.bound),
        "required_depth": report.required_depth,
        "checked_depth": report.checked_depth,
        "constants_warning": report.constants_warning,
        "cusps": strs(report.cusps),
        "terms": list(report.term_labels),
        "ord_rows": [strs(row) for row in report.term_orders],
        "column_minima": strs(report.column_minima),
        "up_p": report.up_p,
        "up_bounds": strs(report.up_bounds),
        "failure": strs(report.failure),
        "reason": report.reason,
    }
    return json.dumps(cert, indent=2, sort_keys=True) + "\n"


def order_table_text(report) -> str:
    """The library's earlier ``format_order_table``, which formats every cell
    on its own; the library now formats each distinct cell object once."""
    cols = [["cusp", *map(str, report.cusps)]]
    cols += [[f"ORD(f_{i})", *map(str, orders)]
             for i, orders in enumerate(report.term_orders, start=1)]
    if report.up_bounds is not None:
        cols.append([f"U_{report.up_p} bound", *map(str, report.up_bounds)])
    cols.append(["lower bound", *map(str, report.column_minima)])
    widths = [max(map(len, col)) for col in cols]
    cols = [[cell.rjust(w) for cell in col] for col, w in zip(cols, widths)]
    lines = [" | ".join(row) for row in zip(*cols)]
    lines.insert(1, "-+-".join("-" * w for w in widths))
    return "\n".join(lines)


# -- reference tokenizer -----------------------------------------------------------

_PUNCT = "+-*/^()[],;="

def reference_tokenize(text: str) -> list[_Token]:
    """The library's earlier ``parser._tokenize``: it counts columns one
    character at a time and raises at the first character that starts no
    token.  The library's tokenizer now makes that character a ``bad`` token
    and leaves the error to the parser."""
    toks: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch.isdecimal():
            start = i
            c0 = col
            while i < n and text[i].isdecimal():
                i += 1
                col += 1
            toks.append(_Token("int", text[start:i], line, c0))
        elif ch.isalpha() or ch == "_":
            start = i
            c0 = col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            toks.append(_Token("name", text[start:i], line, c0))
        elif ch in _PUNCT:
            toks.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("eof", "", line, col))
    return toks
