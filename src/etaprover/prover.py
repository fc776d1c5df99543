"""The valence-formula proof engine for linear eta-product identities.

Given an identity written as constant + sum of coefficient * eta-product
terms, the prover normalizes it, checks that every term is a modular
function on Gamma0(N), assembles the width-normalized orders at the cusps
other than infinity, computes the bound

    B = sum over those cusps of min(term orders at the cusp, 0),

and verifies that every q-coefficient of the combination through q^floor(-B)
vanishes.  By the weight-zero valence formula this is a complete proof, not
numerical evidence; extra margin coefficients are checked as a safety net.
The U_p prover in ``up`` runs the same core with the Gordon-Hughes bounds as
an extra row of the order table, and the ``orders`` command prints the
table that :func:`order_table` builds.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from math import floor
from typing import Callable, Optional, Sequence

from . import __version__
from .arith import check_positive
from .cusps import Cusp, cusp_set, gamma0_cusp_order
# bench/tracing.py wraps this name here:
from .cusps import gamma0_cusp_orders  # noqa: F401
from .errors import (
    EmptyIdentityError,
    InternalInconsistencyError,
    MisalignedRowsError,
)
from .etaproducts import EtaCombo, EtaProduct
from .modularity import modular_function_check
from .qseries import QSeries

__all__ = [
    "Verdict",
    "ProofReport",
    "normalize_identity",
    "sum_of_column_minima",
    "cusp_order_rows",
    "order_table",
    "prove_identity",
    "format_order_table",
]

_PROBE_SHARE = 8  # _valence_proof's probe expands at most 1/8 of the depth


class Verdict(enum.Enum):
    PROVED = "proved"
    REFUTED = "refuted"
    NOT_APPLICABLE = "not-applicable"
    BOUND_ONLY = "not-verified"


@dataclass(frozen=True)
class ProofReport:
    """Certificate data for one identity.

    ``term_orders`` holds one row per eta-product term, over ``cusps`` (the
    representatives of Gamma0(level) without the infinite class);
    ``column_minima`` is the per-cusp minimum that the bound sums, including
    the implicit all-zero row of the constant term when one is present.  For
    U_p identities ``up_bounds`` carries the Gordon-Hughes lower-bound row.
    ``term_coefficients`` are printed by the CLI but not certified.
    """

    level: int
    verdict: Verdict
    bound: Fraction
    required_depth: int
    checked_depth: int
    cusps: tuple[Cusp, ...] = ()
    term_labels: tuple[str, ...] = ()
    term_orders: tuple[tuple[Fraction, ...], ...] = ()
    column_minima: tuple[Fraction, ...] = ()
    up_bounds: Optional[tuple[Fraction, ...]] = None
    up_p: Optional[int] = None
    constants_warning: bool = False
    failure: Optional[tuple[Fraction, Fraction]] = None
    reason: Optional[str] = None
    term_coefficients: tuple[Fraction, ...] = ()

    def to_json(self, command: str, source: str, margin: int) -> str:
        """The certificate of this report as JSON text.

        ``command`` names the prover ("prove" or "prove-up"), ``source`` is
        the identity text it read and ``margin`` the requested margin.  The
        bytes depend only on these and on the report.
        """
        def strs(values):
            return None if values is None else [str(v) for v in values]

        cert = {
            "tool": f"etaprover {__version__}",
            "command": command,
            "input": source,
            "level": self.level,
            "margin": margin,
            "verdict": self.verdict.value,
            "B": str(self.bound),
            "required_depth": self.required_depth,
            "checked_depth": self.checked_depth,
            "constants_warning": self.constants_warning,
            "cusps": strs(self.cusps),
            "terms": list(self.term_labels),
            "ord_rows": [strs(row) for row in self.term_orders],
            "column_minima": strs(self.column_minima),
            "up_p": self.up_p,
            "up_bounds": strs(self.up_bounds),
            "failure": strs(self.failure),
            "reason": self.reason,
        }
        return json.dumps(cert, indent=2, sort_keys=True) + "\n"


def normalize_identity(combo: EtaCombo) -> EtaCombo:
    """Rewrite an identity as constant 1 plus quotient eta-products.

    Every term is divided by the first one: by the constant when it is
    nonzero, otherwise by the leading (coefficient, product) term, whose
    quotient then folds into the constant 1.  Idempotent on normalized input.
    """
    if combo.constant == 0 and not combo.terms:
        raise EmptyIdentityError("identity has no terms")
    if combo.constant != 0:
        inv = 1 / combo.constant
        return EtaCombo(1, [(a * inv, f) for a, f in combo.terms])
    a0, f0 = combo.terms[0]
    f0_inv = f0 ** -1
    return EtaCombo(0, [(a / a0, f * f0_inv) for a, f in combo.terms])


def _minima_and_bound(matrix) -> tuple[tuple[Fraction, ...], Fraction]:
    """Columnwise minima of equal-length order rows, and their sum B."""
    minima = tuple([min(col) for col in zip(*matrix)])
    return minima, sum(minima, Fraction(0))


def sum_of_column_minima(
        rows: Sequence[Sequence[tuple[Cusp, Fraction]]]) -> Fraction:
    """Sum over cusp columns of the columnwise minimum order.

    Every row must carry the same cusp sequence in the same order.
    """
    if not rows:
        raise MisalignedRowsError("no order rows given")
    cusps = [s for s, _ in rows[0]]
    for row in rows[1:]:
        if [s for s, _ in row] != cusps:
            raise MisalignedRowsError("order rows have different cusp sequences")
    return _minima_and_bound([[v for _, v in row] for row in rows])[1]


def _per_denominator(cusps: Sequence[Cusp],
                     value: Callable[[Cusp], Fraction]) -> tuple[Fraction, ...]:
    """``value(s)`` at every cusp s, for a ``value`` that depends only on the
    denominator of s: evaluated at the first cusp of each denominator and
    reused at the others."""
    memo: dict[int, Fraction] = {}
    for s in cusps:
        if s.c not in memo:
            memo[s.c] = value(s)
    return tuple([memo[s.c] for s in cusps])


def cusp_order_rows(terms: Sequence[tuple[Fraction, EtaProduct]], level: int
                    ) -> tuple[list[Cusp], list[tuple[Fraction, ...]]]:
    """The cusps of Gamma0(level) and, once per term, the width-normalized
    order of its product at every one of them, the infinite class included.

    The Ligozat order and the fan width depend only on the denominator of
    the cusp, so each order is evaluated once per distinct denominator."""
    all_cusps = cusp_set(level)
    return all_cusps, [
        _per_denominator(all_cusps, lambda s: gamma0_cusp_order(f, level, s))
        for _, f in terms]


def order_table(level: int, terms: Sequence[tuple[Fraction, EtaProduct]],
                all_cusps: Sequence[Cusp], rows: Sequence[Sequence[Fraction]],
                *, constant: bool = True, up_row=None, up_p=None,
                constants_warning: bool = False) -> ProofReport:
    """The order table and bound B of ``terms``, as a BOUND_ONLY report.

    ``all_cusps`` and ``rows`` come from :func:`cusp_order_rows`; the column
    of the infinite class is dropped.  The column minima also take in the
    Gordon-Hughes bound ``up_row(cusp)`` of U_``up_p`` when given, and the
    zero row of the constant term when ``constant`` is set.  Like the order
    rows, ``up_row`` depends only on the cusp's denominator and is evaluated
    once per distinct denominator.
    """
    keep = [j for j, s in enumerate(all_cusps) if s.c != level]
    cusps = tuple([all_cusps[j] for j in keep])
    orders = tuple([tuple([row[j] for j in keep]) for row in rows])
    up_bounds = None if up_row is None else _per_denominator(cusps, up_row)
    matrix = list(orders)
    if up_bounds is not None:
        matrix.append(up_bounds)
    if constant:
        matrix.append((Fraction(0),) * len(cusps))
    minima, bound = _minima_and_bound(matrix)
    return ProofReport(
        level=level, verdict=Verdict.BOUND_ONLY, bound=bound,
        required_depth=floor(-bound), checked_depth=-1, cusps=cusps,
        term_labels=tuple([str(f) for _, f in terms]),
        term_coefficients=tuple([a for a, _ in terms]), term_orders=orders,
        column_minima=minima, up_bounds=up_bounds, up_p=up_p,
        constants_warning=constants_warning)


def _modularity_failures(terms, level) -> Optional[str]:
    bad = []
    for i, (_, f) in enumerate(terms, start=1):
        verdict = modular_function_check(f, level)
        if not verdict.invariant:
            conds = ",".join(str(k) for k in verdict.failed)
            bad.append(f"term {i} = {f} fails condition(s) {conds}")
    if bad:
        return (f"not every term is a modular function on Gamma0({level}): "
                + "; ".join(bad))
    return None


def _not_applicable(level: int, reason: str, *, up_p=None) -> ProofReport:
    return ProofReport(
        level=level, verdict=Verdict.NOT_APPLICABLE, bound=Fraction(0),
        required_depth=0, checked_depth=-1, up_p=up_p, reason=reason)


def _valence_proof(combo: EtaCombo, level: int,
                   vanishing: Callable[[int], QSeries], *, margin: int,
                   verify: bool, constants_warning: bool, up_row=None,
                   up_p=None) -> ProofReport:
    """The proof both provers share, over the terms of ``combo``.

    Newman-checks the terms, computes their cusp orders once, checks that
    each totals zero, builds the order table and B (see :func:`order_table`)
    and, when ``verify`` is set, checks that ``vanishing(depth)``, the
    series that must be 0 below q^depth, vanishes through q^floor(-B).  A
    nonzero coefficient past that point but below q^depth contradicts the
    valence bound and is raised as an internal error.

    A false identity thus fails through q^floor(-B), so the series is first
    expanded only to there, capped at 1/8 of the depth: a nonzero term there
    leads the full series too.  PROVED still checks all of it.  Sweeps cost
    about L^1.5, so this adds at most about 4% to a true identity.
    """
    reason = _modularity_failures(combo.terms, level)
    if reason:
        return _not_applicable(level, reason, up_p=up_p)
    all_cusps, rows = cusp_order_rows(combo.terms, level)
    bad = []
    for i, ((_, f), row) in enumerate(zip(combo.terms, rows), start=1):
        total = sum(row, Fraction(0))
        if total != 0:
            bad.append(f"term {i} = {f} has total cusp order {total}")
    if bad:
        return _not_applicable(
            level, "nonzero total order: " + "; ".join(bad), up_p=up_p)
    report = order_table(level, combo.terms, all_cusps, rows,
                         constant=combo.constant != 0, up_row=up_row,
                         up_p=up_p, constants_warning=constants_warning)
    if not verify:
        return report
    required = report.required_depth
    depth = max(required, 0) + margin
    report = replace(report, verdict=Verdict.PROVED, checked_depth=depth - 1)
    probe = min(max(required, 0) + 1, depth // _PROBE_SHARE)
    lead = vanishing(probe).leading_term() if probe >= 1 else None
    lead = lead or vanishing(depth).leading_term()
    if lead is None:
        return report
    if lead.exponent > required:
        raise InternalInconsistencyError(
            f"expansion vanishes through q^{required} as the valence bound "
            f"requires, yet has a nonzero coefficient at q^{lead.exponent}")
    return replace(report, verdict=Verdict.REFUTED,
                   failure=(lead.exponent, Fraction(lead.coefficient)))


def prove_identity(combo: EtaCombo, level: int, margin: int = 10,
                   verify: bool = True) -> ProofReport:
    """Prove or refute ``combo == 0`` as an identity of modular functions.

    The combination is normalized first.  Verdicts:

    * ``PROVED``: every coefficient through q^floor(-B) vanishes (a complete
      proof by the valence formula);
    * ``REFUTED``: a concrete nonvanishing coefficient is reported;
    * ``NOT_APPLICABLE``: some term is not modular on Gamma0(level), with the
      offending conditions listed;
    * ``BOUND_ONLY`` when ``verify`` is false: stop after computing B.

    ``margin`` extra coefficients beyond the required depth are expanded and
    checked as a consistency safety net.  A level or margin that is not a
    positive int raises ValueError.
    """
    check_positive(level=level, margin=margin)
    if combo.constant == 0 and not combo.terms:
        return ProofReport(level=level, verdict=Verdict.PROVED,
                           bound=Fraction(0), required_depth=0,
                           checked_depth=0)
    constants_warning = combo.constant != 0 and bool(combo.terms)
    normalized = normalize_identity(combo)
    if not normalized.terms:
        # nothing but a nonzero constant: false at q^0
        return ProofReport(
            level=level, verdict=Verdict.REFUTED, bound=Fraction(0),
            required_depth=0, checked_depth=0,
            constants_warning=constants_warning,
            failure=(Fraction(0), Fraction(1)))
    return _valence_proof(
        normalized, level, lambda depth: normalized.expand(Fraction(depth)),
        margin=margin, verify=verify, constants_warning=constants_warning)


def format_order_table(report: ProofReport) -> str:
    """Render the per-cusp order table: one row per cusp, one column per
    term, the Gordon-Hughes bound column when present, and the columnwise
    minimum that the bound B sums."""
    headers = ["cusp"]
    headers += [f"ORD(f_{i})" for i in range(1, len(report.term_orders) + 1)]
    if report.up_bounds is not None:
        headers.append(f"U_{report.up_p} bound")
    headers.append("lower bound")
    table = [headers]
    for col, cusp in enumerate(report.cusps):
        row = [str(cusp)]
        row += [str(orders[col]) for orders in report.term_orders]
        if report.up_bounds is not None:
            row.append(str(report.up_bounds[col]))
        row.append(str(report.column_minima[col]))
        table.append(row)
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = []
    for n, row in enumerate(table):
        lines.append(" | ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if n == 0:
            lines.append("-+-".join("-" * w for w in widths))
    return "\n".join(lines)
