"""The Atkin U_p operator and the Gordon-Hughes bound machinery.

``up_series`` extracts sum a(p*n) q^n from an integer-exponent expansion.
``up_order_lower_bound`` evaluates the Gordon-Hughes case-split lower bound
for the width-normalized order of U_p f at a cusp of Gamma0(N), for f a
modular function on Gamma0(pN) with p | N.  ``prove_up_identity`` runs the
full valence-formula proof for identities U_p(g) = sum alpha_j f_j.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .arith import check_positive, is_prime
from .cusps import Cusp, _gordon_hughes_numerator
# bench/tracing.py wraps these names here:
from .cusps import (  # noqa: F401
    cusp_set, gamma0_cusp_order, gamma0_cusp_orders)
from .errors import PreconditionError
from .etaproducts import EtaCombo, EtaProduct
from .modularity import modular_function_check
from .prover import ProofReport, _not_applicable, _valence_proof
from .qseries import QSeries

__all__ = ["up_series", "up_order_lower_bound", "prove_up_identity"]


def up_series(series: QSeries, p: int) -> QSeries:
    """Apply U_p to a q-expansion: keep the coefficients of q^(p*n) at q^n."""
    if not is_prime(p):
        raise ValueError(f"U_p needs a prime p, got {p}")
    return series.sift(p, 0)


def _check_p(p: int, level: int) -> None:
    if not is_prime(p):
        raise PreconditionError(f"p = {p} is not prime")
    if level % p != 0:
        raise PreconditionError(f"p = {p} does not divide the level {level}")


def up_order_lower_bound(ep: EtaProduct, cusp: Cusp, level: int,
                         p: int) -> Fraction:
    """Gordon-Hughes lower bound for ORD(U_p ep, cusp, Gamma0(level)).

    ``ep`` must be a modular function on Gamma0(p*level), p must be prime
    and divide the level, and the cusp denominator must divide the level.
    With cusp = b/d and v = nu_p(d), the bound is

    * (1/p) * ORD(ep, b/(p*d), Gamma0(p*level))   if 2v >= nu_p(level),
    * ORD(ep, b/(p*d), Gamma0(p*level))           if 0 < 2v < nu_p(level),
    * min over k of ORD(ep, (b+k*d)/(p*d), Gamma0(p*level)),  k = 0..p-1,
                                                  if v = 0,

    with each argument cusp reduced to lowest terms first.  The bound
    depends only on d and is evaluated in integers, as in the provers' order
    table.
    """
    _check_p(p, level)
    if cusp.is_infinity or level % cusp.c != 0:
        raise PreconditionError(
            f"cusp {cusp} is not a finite cusp with denominator dividing {level}")
    if not modular_function_check(ep, p * level).invariant:
        raise PreconditionError(
            f"{ep} is not a modular function on Gamma0({p * level})")
    m = lcm(*(t for t, _ in ep.factors))
    return Fraction(_gordon_hughes_numerator(ep.factors, cusp.c, level, p, m),
                    24 * p * m)


def prove_up_identity(ep: EtaProduct, p: int, rhs: EtaCombo, level: int,
                      margin: int = 10, verify: bool = True) -> ProofReport:
    """Prove or refute U_p(ep) = rhs on Gamma0(level).

    ``ep`` must be a modular function on Gamma0(p*level) and every product in
    ``rhs`` a modular function on Gamma0(level); p must be prime and divide
    the level.  The bound B sums, over the cusps of Gamma0(level) other than
    the infinite class, the minimum of the rhs term orders and the
    Gordon-Hughes lower bound for U_p(ep); the difference U_p(expansion) -
    rhs expansion must then vanish through q^floor(-B).  ``level`` and
    ``margin`` are checked as in :func:`prove_identity`.
    """
    check_positive(level=level, margin=margin)
    _check_p(p, level)
    check = modular_function_check(ep, p * level)
    if not check.invariant:
        conds = ",".join(str(k) for k in check.failed)
        return _not_applicable(
            level,
            f"{ep} fails condition(s) {conds} on Gamma0({p * level})",
            up_p=p)
    return _valence_proof(rhs, level, margin=margin, verify=verify,
                          constants_warning=rhs.constant != 0, up=(ep, p))
