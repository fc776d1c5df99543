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
an extra row of the order table and U_p ep in the vanishing check, which
:func:`_vanishing_parts` assembles for both.  The ``orders`` command prints
the table: :func:`_order_table` builds it for all three, in integers over
one denominator, once per distinct cusp denominator.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import floor, gcd, lcm
from operator import add, mul
from typing import Optional, Sequence

from . import __version__
from .arith import check_positive
from .cusps import Cusp, _gordon_hughes_numerator, _ligozat_sum, cusp_set
# bench/tracing.py wraps these names here:
from .cusps import gamma0_cusp_order, gamma0_cusp_orders  # noqa: F401
from .errors import (
    EmptyIdentityError,
    InternalInconsistencyError,
    MisalignedRowsError,
)
from .etaproducts import EtaCombo, EtaProduct
from .modularity import modular_function_check
from .qseries import _check_sweep_work, _euler_sweep, _product_list

__all__ = [
    "Verdict",
    "ProofReport",
    "normalize_identity",
    "sum_of_column_minima",
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
        bytes depend only on these and on the report, and equal those of
        ``json.dumps(cert, indent=2, sort_keys=True) + "\\n"`` for the
        certificate as a dict.  They are written by hand, each distinct cell
        object formatted once.
        """
        q = encode_basestring_ascii

        def array(items, pad="\n    "):  # json.dumps' indent=2 layout
            return ("[" + pad + ("," + pad).join(items) + pad[:-2] + "]"
                    if items else "[]")

        def cells(values, pad="\n    "):
            if values is None:
                return "null"
            return array(_cell_texts(values, lambda v: q(str(v))), pad)

        fields = [  # in sorted key order
            ("B", q(str(self.bound))),
            ("checked_depth", str(self.checked_depth)),
            ("column_minima", cells(self.column_minima)),
            ("command", q(command)),
            ("constants_warning", "true" if self.constants_warning
             else "false"),
            ("cusps", array(list(map(q, map(str, self.cusps))))),
            ("failure", cells(self.failure)),
            ("input", q(source)),
            ("level", str(self.level)),
            ("margin", str(margin)),
            ("ord_rows", array([cells(row, "\n      ")
                                for row in self.term_orders])),
            ("reason", "null" if self.reason is None else q(self.reason)),
            ("required_depth", str(self.required_depth)),
            ("terms", array(list(map(q, self.term_labels)))),
            ("tool", q(f"etaprover {__version__}")),
            ("up_bounds", cells(self.up_bounds)),
            ("up_p", "null" if self.up_p is None else str(self.up_p)),
            ("verdict", q(self.verdict.value)),
        ]
        return "{\n  " + ",\n  ".join(
            [f'"{k}": {v}' for k, v in fields]) + "\n}\n"


def _cell_texts(values, fmt=str) -> list[str]:
    """[fmt(v) for v in values], calling fmt once per distinct object: the
    order table shares one Fraction per value among its cells."""
    ids = list(map(id, values))
    text = {k: fmt(v) for k, v in dict(zip(ids, values)).items()}
    return list(map(text.__getitem__, ids))


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
    return sum(map(min, zip(*[[v for _, v in row] for row in rows])),
               Fraction(0))


def _order_table(level: int, terms: Sequence[tuple[Fraction, EtaProduct]],
                 *, constant: bool, up=None, constants_warning: bool = False
                 ) -> tuple[ProofReport, list[str]]:
    """The order table and bound B of ``terms`` on Gamma0(level), as a
    BOUND_ONLY report, and one message per term whose orders do not total
    zero over all cusps, as a modular function's must.

    Orders depend only on the cusp's denominator, so each is an integer over
    one denominator D = 24 * lcm(every t), computed once per distinct
    denominator and weighted by its number of cusps in the totals and in B.
    With ``up = (ep, p)`` the table takes in the Gordon-Hughes row of U_p ep
    and D gains a factor p; with ``constant`` set it takes in the zero row
    of the constant term.  The column of the infinite class is dropped, and
    each distinct value is one ``Fraction``, shared by its cells.
    """
    all_cusps = cusp_set(level)
    counts = Counter([s.c for s in all_cusps])
    dens, weights = list(counts), list(counts.values())
    finite = len(dens) - 1  # in cusp order, the infinite class (c = level) last
    products = [f for _, f in terms] + ([up[0]] if up else [])
    m = lcm(*[t for f in products for t, _ in f.factors])
    p = up[1] if up else 1
    den = 24 * p * m
    # the Ligozat sum at c depends only on gcd(c, m), as every t divides m
    gs = [gcd(c, m) for c in dens]
    distinct = set(gs)
    widths = [level // gcd(level, c * c) * p for c in dens]
    rows = []
    for _, f in terms:
        sums = {g: _ligozat_sum(f.factors, g, m) for g in distinct}
        rows.append([w * sums[g] for w, g in zip(widths, gs)])
    bad = []
    for i, ((_, f), row) in enumerate(zip(terms, rows), start=1):
        total = sum(map(mul, row, weights))
        if total:
            bad.append(f"term {i} = {f} has total cusp order "
                       f"{Fraction(total, den)}")
    matrix = [row[:finite] for row in rows]
    if up:
        matrix.append([_gordon_hughes_numerator(up[0].factors, c, level, p, m)
                       for c in dens[:finite]])
    if constant:
        matrix.append([0] * finite)
    minima = list(map(min, zip(*matrix)))
    bound = Fraction(sum(map(mul, minima, weights)), den)

    fracs: dict[int, Fraction] = {}

    def spread(nums):  # one Fraction per value, at every cusp that has it
        cells = []
        for n, k in zip(nums, weights):
            if n not in fracs:
                fracs[n] = Fraction(n, den)
            cells += [fracs[n]] * k
        return tuple(cells)

    return ProofReport(
        level=level, verdict=Verdict.BOUND_ONLY, bound=bound,
        required_depth=floor(-bound), checked_depth=-1,
        cusps=tuple(all_cusps[:-1]),
        term_labels=tuple([str(f) for _, f in terms]),
        term_coefficients=tuple([a for a, _ in terms]),
        term_orders=tuple([spread(row) for row in matrix[:len(terms)]]),
        column_minima=spread(minima),
        up_bounds=spread(matrix[len(terms)]) if up else None,
        up_p=up[1] if up else None, constants_warning=constants_warning), bad


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


def _parts(combo: EtaCombo, depth: int) -> list:
    """``combo`` below q^depth as parts, each term's s = sum(t*r)/24 whole."""
    parts = [(combo.constant, 0, [1])] if combo.constant else []
    for a, f in combo.terms:
        s = f.degree24 // 24
        parts.append((a, s, _product_list(f.factors, depth - s)))
    return parts


def _up_expansion(ep: EtaProduct, p: int, depth: int) -> tuple[int, list]:
    """(n0, a): up_series(ep.expand(p * depth), p) from q^n0, n0 = ceil(s/p).

    U_p(q^s H(q) G(q^p)) = G(q) U_p(q^s H(q)), s = sum(t*r)/24 integral, for
    H the factors with p not dividing t: H's list, to p times the depth, is
    sliced at q^(p*n - s) for n >= n0, and G's factors (t/p, r) sweep it."""
    s = ep.degree24 // 24
    n0 = -(-s // p)
    h = [(t, r) for t, r in ep.factors if t % p]
    g = [(t // p, r) for t, r in ep.factors if t % p == 0]
    a = _product_list(h, p * (depth - 1) - s + 1)[p * n0 - s::p]
    _check_sweep_work(g, len(a))
    for t, r in g:
        _euler_sweep(a, t, r)
    return n0, a


def _vanishing_parts(combo: EtaCombo, depth: int, up=None) -> list:
    """The parts below q^depth of the series a proof checks for vanishing:
    ``combo``, or with ``up = (ep, p)`` U_p ep minus ``combo``."""
    if up is None:
        return _parts(combo, depth)
    return [(1, *_up_expansion(*up, depth))] + _parts(-combo, depth)


def _leading_term(parts, depth: int) -> Optional[tuple[Fraction, Fraction]]:
    """The first nonzero (exponent, coefficient) below q^depth of the sum of
    k * q^s * a over ``parts`` (rational k, integer s, int list a), or None."""
    den = lcm(*[k.denominator for k, _, _ in parts])
    low = min([s for _, s, _ in parts], default=depth)
    acc = [0] * (depth - low)
    for k, s, a in parts:
        i, w = s - low, k.numerator * (den // k.denominator)
        acc[i:i + len(a)] = map(add, acc[i:i + len(a)], [w * v for v in a])
    for n, v in enumerate(acc, low):
        if v:
            return Fraction(n), Fraction(v, den)
    return None


def _valence_proof(combo: EtaCombo, level: int, *, margin: int,
                   verify: bool, constants_warning: bool,
                   up=None) -> ProofReport:
    """The proof both provers share, over the terms of ``combo``.

    Newman-checks the terms, builds the order table and B, with the
    Gordon-Hughes row of U_p ep when ``up = (ep, p)`` (see
    :func:`_order_table`), checks that each term's orders total zero and,
    when ``verify`` is set, checks that :func:`_vanishing_parts` below
    q^depth sums to a series that vanishes through q^floor(-B).
    A nonzero coefficient past that point but below q^depth contradicts the
    valence bound and is raised as an internal error.

    A false identity thus fails through q^floor(-B), so the parts are first
    built only to there, capped at 1/8 of the depth: a nonzero term there
    leads the full series too.  PROVED still checks all of it.  Sweeps cost
    about L^1.5, so this adds at most about 4% to a true identity."""
    up_p = up[1] if up else None
    reason = _modularity_failures(combo.terms, level)
    if reason:
        return _not_applicable(level, reason, up_p=up_p)
    report, bad = _order_table(level, combo.terms,
                               constant=combo.constant != 0, up=up,
                               constants_warning=constants_warning)
    if bad:
        return _not_applicable(
            level, "nonzero total order: " + "; ".join(bad), up_p=up_p)
    if not verify:
        return report
    required = report.required_depth
    depth = max(required, 0) + margin
    report = replace(report, verdict=Verdict.PROVED, checked_depth=depth - 1)
    probe = min(max(required, 0) + 1, depth // _PROBE_SHARE)
    lead = (_leading_term(_vanishing_parts(combo, probe, up), probe)
            if probe >= 1 else None)
    lead = lead or _leading_term(_vanishing_parts(combo, depth, up), depth)
    if lead is None:
        return report
    if lead[0] > required:
        raise InternalInconsistencyError(
            f"expansion vanishes through q^{required} as the valence bound "
            f"requires, yet has a nonzero coefficient at q^{lead[0]}")
    return replace(report, verdict=Verdict.REFUTED, failure=lead)


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
    return _valence_proof(normalized, level, margin=margin, verify=verify,
                          constants_warning=constants_warning)


def format_order_table(report: ProofReport) -> str:
    """Render the per-cusp order table: one row per cusp, one column per
    term, the Gordon-Hughes bound column when present, and the columnwise
    minimum that the bound B sums."""
    cols = [["cusp", *map(str, report.cusps)]]
    cols += [[f"ORD(f_{i})", *_cell_texts(orders)]
             for i, orders in enumerate(report.term_orders, start=1)]
    if report.up_bounds is not None:
        cols.append([f"U_{report.up_p} bound", *_cell_texts(report.up_bounds)])
    cols.append(["lower bound", *_cell_texts(report.column_minima)])
    widths = [max(map(len, col)) for col in cols]
    cols = [[cell.rjust(w) for cell in col] for col, w in zip(cols, widths)]
    lines = list(map(" | ".join, zip(*cols)))
    lines.insert(1, "-+-".join("-" * w for w in widths))
    return "\n".join(lines)
