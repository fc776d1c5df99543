"""The linear identity prover: pipeline fixtures and soundness properties."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from etaprover import (
    Cusp,
    EtaCombo,
    EtaProduct,
    QSeries,
    Verdict,
    format_order_table,
    normalize_identity,
    parse_program,
    prove_identity,
    prove_up_identity,
    sum_of_column_minima,
)
from etaprover.cusps import cusp_set, gamma0_cusp_order
from etaprover import prover as prover_module
from etaprover.errors import (
    EmptyIdentityError,
    InternalInconsistencyError,
    MisalignedRowsError,
)
from etaprover.cli import main
from etaprover.prover import (
    _leading_term, _order_table, _valence_proof, _vanishing_parts)

from oracles import (
    leading_term_qseries,
    random_eta_product,
    random_modular_product,
    sampled_modular_product,
)

F = Fraction

P = EtaProduct.from_flat([1, 2, 3, -2])
Q = EtaProduct.from_flat([2, 2, 6, -2])


def entry31_combo() -> EtaCombo:
    pq = P * Q
    return EtaCombo(0, [
        (1, pq),
        (9, pq ** -1),
        (-1, (Q / P) ** 3),
        (-1, (P / Q) ** 3),
    ])


F1 = EtaProduct.from_flat([3, 4, 6, 4, 1, -4, 2, -4])
F2 = EtaProduct.from_flat([3, 8, 2, 4, 1, -8, 6, -4])
F3 = EtaProduct.from_flat([1, 4, 6, 8, 3, -4, 2, -8])


# -- normalization ---------------------------------------------------------------


def test_normalize_entry31():
    normalized = normalize_identity(entry31_combo())
    assert normalized.constant == 1
    assert normalized.terms == ((F(9), F1), (F(-1), F2), (F(-1), F3))


def test_normalize_single_term():
    f = EtaProduct.from_flat([5, 6, 1, -6])
    normalized = normalize_identity(EtaCombo(0, [(7, f)]))
    assert normalized.constant == 1
    assert normalized.terms == ()


def test_normalize_is_idempotent():
    once = normalize_identity(entry31_combo())
    assert normalize_identity(once) == once


def test_normalize_divides_by_nonunit_constant():
    c = EtaCombo(5, [(10, F1)])
    normalized = normalize_identity(c)
    assert normalized.constant == 1
    assert normalized.terms == ((F(2), F1),)


def test_normalize_empty_identity():
    with pytest.raises(EmptyIdentityError):
        normalize_identity(EtaCombo(0, []))


# -- column minima ------------------------------------------------------------------


def _tag(values, cusps):
    return [list(zip(cusps, [F(v) for v in row])) for row in values]


def test_column_minima_entry31():
    cusps = [Cusp(0), Cusp(1, 2), Cusp(1, 3)]
    rows = _tag([[0, 0, 0], [-1, -1, 1], [-1, 0, 1], [0, -1, 0]], cusps)
    assert sum_of_column_minima(rows) == -2


def test_column_minima_u5_matrix():
    cusps = [Cusp(0), Cusp(1, 2), Cusp(1, 4), Cusp(1, 5), Cusp(1, 10)]
    rows = _tag([
        [0, -2, -2, F(-1, 5), F(3, 5)],
        [0, -2, -2, 0, 2],
        [1, 0, -1, 0, 1],
    ], cusps)
    assert sum_of_column_minima(rows) == F(-18, 5)


def test_column_minima_all_zero():
    cusps = [Cusp(0), Cusp(1, 2)]
    assert sum_of_column_minima(_tag([[0, 0], [0, 0]], cusps)) == 0


def test_column_minima_misaligned():
    rows = [[(Cusp(0), F(0))], [(Cusp(1, 2), F(0))]]
    with pytest.raises(MisalignedRowsError):
        sum_of_column_minima(rows)


# -- entry 3.1 pipeline ---------------------------------------------------------------


def test_entry31_proved():
    report = prove_identity(entry31_combo(), 6)
    assert report.verdict is Verdict.PROVED
    assert report.bound == -2
    assert report.required_depth == 2
    assert report.checked_depth >= report.required_depth
    assert report.term_orders == (
        (F(-1), F(-1), F(1)),
        (F(-1), F(0), F(1)),
        (F(0), F(-1), F(0)),
    )
    assert report.column_minima == (F(-1), F(-1), F(0))
    assert sum(report.column_minima) == report.bound
    assert [str(c) for c in report.cusps] == ["0", "1/2", "1/3"]


def test_entry31_from_parsed_text():
    text = """# Ramanujan's eta-quotient identity at level 6
let P = eta(1)^2 / eta(3)^2;
let Q = eta(2)^2 / eta(6)^2;
P*Q + 9/(P*Q) - (Q/P)^3 - (P/Q)^3"""
    ident = parse_program(text)
    report = prove_identity(ident.combo, 6)
    assert report.verdict is Verdict.PROVED
    assert report.bound == -2


def test_entry31_bound_only():
    report = prove_identity(entry31_combo(), 6, verify=False)
    assert report.verdict is Verdict.BOUND_ONLY
    assert report.bound == -2
    assert report.checked_depth == -1


def test_entry31_table_layout():
    report = prove_identity(entry31_combo(), 6)
    table = format_order_table(report)
    lines = table.splitlines()
    assert lines[0].split("|")[0].strip() == "cusp"
    assert [cell.strip() for cell in lines[2].split("|")] == \
        ["0", "-1", "-1", "0", "-1"]
    assert [cell.strip() for cell in lines[3].split("|")] == \
        ["1/2", "-1", "0", "-1", "-1"]
    assert [cell.strip() for cell in lines[4].split("|")] == \
        ["1/3", "1", "1", "0", "0"]


def test_trivial_zero_identity_proved():
    # 1 - f with f the empty product collapses to the zero combo
    combo = EtaCombo(1, [(-1, EtaProduct())])
    report = prove_identity(combo, 6)
    assert report.verdict is Verdict.PROVED


def test_constant_only_identity_refuted():
    report = prove_identity(EtaCombo(3, []), 6)
    assert report.verdict is Verdict.REFUTED
    assert report.failure == (F(0), F(1))


def test_wrong_combination_refuted():
    # 1 + f1 alone is not an identity; expansion is 1 + q + 4q^2 + ...
    report = prove_identity(EtaCombo(1, [(1, F1)]), 6)
    assert report.verdict is Verdict.REFUTED
    exponent, coefficient = report.failure
    assert exponent <= report.required_depth
    assert (exponent, coefficient) == (F(0), F(1))


def test_perturbed_coefficients_all_refuted():
    combo = entry31_combo()
    for idx in range(4):
        coeffs = [a for a, _ in combo.terms]
        coeffs[idx] += 1
        bad = EtaCombo(0, list(zip(coeffs, [f for _, f in combo.terms])))
        report = prove_identity(bad, 6)
        assert report.verdict is Verdict.REFUTED
        exponent, coefficient = report.failure
        assert exponent <= report.required_depth
        assert coefficient != 0


def test_not_applicable_reports_offending_conditions():
    bad = EtaCombo(1, [(1, EtaProduct.from_flat([1, 2, 2, -1, 10, 1, 5, -2]))])
    report = prove_identity(bad, 10)
    assert report.verdict is Verdict.NOT_APPLICABLE
    assert "condition(s) 3,5" in report.reason


def test_invariance_under_scaling_by_any_term():
    # dividing the whole identity by any single term leaves the verdict PROVED
    combo = entry31_combo()
    for _, f in combo.terms:
        inv = f ** -1
        scaled = EtaCombo(0, [(a, g * inv) for a, g in combo.terms])
        report = prove_identity(scaled, 6)
        assert report.verdict is Verdict.PROVED


def test_stability_under_margin_increase():
    r1 = prove_identity(entry31_combo(), 6, margin=10)
    r2 = prove_identity(entry31_combo(), 6, margin=30)
    assert r1.verdict is r2.verdict is Verdict.PROVED
    assert r2.checked_depth > r1.checked_depth


@pytest.mark.parametrize("margin", [-5, 0, 2.5, "10"])
def test_margin_must_be_a_positive_int(margin):
    with pytest.raises(ValueError, match="margin must be a positive integer"):
        prove_identity(entry31_combo(), 6, margin=margin)
    with pytest.raises(ValueError, match="margin must be a positive integer"):
        prove_identity(EtaCombo(0), 6, margin=margin, verify=False)


@pytest.mark.parametrize("level", [1, 6, 40, 72, 120, 420, 2520, 100800])
def test_order_rows_equal_per_cusp_orders(level):
    # the table evaluates each order once per denominator, in integers; every
    # finite cusp must still get the order evaluated at that cusp, and the
    # total-order messages must sum those orders over every cusp
    rng = random.Random(level)
    products = [random_eta_product(rng) for _ in range(3)]
    if level > 2:
        products += [sampled_modular_product(rng, level) for _ in range(3)]
    terms = [(F(rng.randint(-9, 9) or 1), f) for f in products]
    report, bad = _order_table(level, terms, constant=True)
    all_cusps = cusp_set(level)
    assert list(report.cusps) == [s for s in all_cusps if s.c != level]
    assert report.term_orders == tuple(
        tuple([gamma0_cusp_order(f, level, s) for s in report.cusps])
        for _, f in terms)
    totals = [sum(gamma0_cusp_order(f, level, s) for s in all_cusps)
              for _, f in terms]
    assert bad == [f"term {i} = {f} has total cusp order {total}"
                   for i, ((_, f), total) in enumerate(zip(terms, totals), 1)
                   if total]


# Texts recorded from the Fraction order table that the integer one replaced.
NONZERO_TOTAL = [
    (6, [[1, 1], [1, 24], [2, 2, 1, -2], [1, 2, 2, -1, 3, 4]],
     "nonzero total order: term 1 = [1,1] has total cusp order 1/2; "
     "term 2 = [1,24] has total cusp order 12; "
     "term 4 = [3,4,2,-1,1,2] has total cusp order 5/2"),
    (1, [[1, 1]],
     "nonzero total order: term 1 = [1,1] has total cusp order 1/24"),
    (12, [[4, 3, 2, -1], [12, 1, 6, -1, 4, -1, 3, 1], [1, -1]],
     "nonzero total order: term 1 = [4,3,2,-1] has total cusp order 2; "
     "term 3 = [1,-1] has total cusp order -1"),
]


def _pass_newman(monkeypatch):
    # let products through that Newman's conditions would stop first
    from etaprover.modularity import ModularityVerdict
    monkeypatch.setattr(prover_module, "modular_function_check",
                        lambda f, level: ModularityVerdict((True,) * 5))


@pytest.mark.parametrize("level,flats,reason", NONZERO_TOTAL)
def test_nonzero_total_order_reason_text(level, flats, reason, monkeypatch):
    _pass_newman(monkeypatch)
    terms = [(F(i), EtaProduct.from_flat(flat))
             for i, flat in enumerate(flats, start=1)]
    report = prove_identity(EtaCombo(1, terms), level)
    assert report.verdict is Verdict.NOT_APPLICABLE
    assert report.reason == reason
    assert report.up_p is None


def test_nonzero_total_order_reason_text_up(monkeypatch):
    _pass_newman(monkeypatch)
    g = EtaProduct.from_flat([100, -3, 50, 5, 25, -2, 10, -8, 5, 4, 4, 3,
                              2, 3, 1, -2])
    rhs = EtaCombo(0, [(F(5), EtaProduct.from_flat([10, 8, 5, -4, 2, -8,
                                                    1, 4])),
                       (F(1), EtaProduct.from_flat([20, 1, 1, -3]))])
    report = prove_up_identity(g, 5, rhs, 20)
    assert report.verdict is Verdict.NOT_APPLICABLE
    assert report.reason == ("nonzero total order: term 2 = [20,1,1,-3] has "
                             "total cusp order -3")
    assert report.up_p == 5


def test_bound_permutation_invariant():
    rng = random.Random(29)
    combo = normalize_identity(entry31_combo())
    base = prove_identity(combo, 6).bound
    terms = list(combo.terms)
    for _ in range(5):
        rng.shuffle(terms)
        report = prove_identity(EtaCombo(1, terms), 6)
        assert report.bound == base
        assert report.verdict is Verdict.PROVED


def test_soundness_gate_random():
    rng = random.Random(20260810)
    for _ in range(30):
        level = rng.choice([6, 10, 12, 20])
        terms = [(F(rng.randint(1, 9)), random_modular_product(rng, level))
                 for _ in range(rng.randint(1, 3))]
        a, b = rng.sample(range(1, 30), 2)
        corrupt = terms[0][1] * EtaProduct([(a, 1), (b, -1)])
        combo = EtaCombo(1, terms + [(F(1), corrupt)])
        from etaprover import modular_function_check
        if not any(not modular_function_check(f, level).invariant
                   for _, f in combo.terms):
            continue
        report = prove_identity(combo, level)
        assert report.verdict is Verdict.NOT_APPLICABLE


# -- the refutation probe through q^required -------------------------------------

RAMANUJAN = Path(__file__).resolve().parent.parent / "identities" / "ramanujan_pq.eta"
U5FILE = RAMANUJAN.with_name("u5_level20.eta")
PQ_TEXT = RAMANUJAN.read_text()


def _pq(nine: int):
    return parse_program(PQ_TEXT.replace("+ 9/", f"+ {nine}/")).combo


def _u7(seven: int, fortynine: int) -> tuple:
    return (EtaProduct.from_flat([49, 1, 1, -1]), 7, EtaCombo(0, [
        (seven, EtaProduct.from_flat([7, 4, 1, -4])),
        (fortynine, EtaProduct.from_flat([7, 8, 1, -8]))]), 7)


# (command, prover arguments, margin, where the failure lies)
PROBE_CASES = [
    ("prove", (_pq(10), 6), 10, "past the probe"),    # probe 1, fails at q^1
    ("prove", (_pq(10), 6), 380, "inside the probe"),  # probe 3
    ("prove", (_pq(8), 6), 40, "inside the probe"),
    ("prove", (_pq(9), 6), 380, "proved"),
    ("prove-up", _u7(6, 49), 300, "inside the probe"),
    ("prove-up", _u7(7, 50), 9, "past the probe"),     # probe 1 = q^0 only
    ("prove-up", _u7(7, 49), 100, "proved"),
    ("prove", (_pq(10), 6), 14, "inside the probe"),   # probe 2 = 16 // 8
]


def _certificate(command, args, margin):
    prover = prove_up_identity if command == "prove-up" else prove_identity
    return prover(*args, margin=margin).to_json(command, "", margin)


@pytest.mark.parametrize("command, args, margin, where", PROBE_CASES)
def test_probe_leaves_certificates_byte_identical(command, args, margin, where,
                                                  monkeypatch):
    depths = []  # the depth of every vanishing check the prover runs
    lead = prover_module._leading_term
    monkeypatch.setattr(prover_module, "_leading_term", lambda parts, depth:
                        depths.append(depth) or lead(parts, depth))
    with_probe = _certificate(command, args, margin)
    probed = list(depths)
    monkeypatch.setattr(prover_module, "_PROBE_SHARE", 10**9)  # probe < 1: off
    depths.clear()
    assert _certificate(command, args, margin) == with_probe
    assert len(depths) == 1
    report = json.loads(with_probe)
    assert report["verdict"] == ("proved" if where == "proved" else "refuted")
    if where == "inside the probe":  # only the short series was expanded
        assert probed == [min(report["required_depth"] + 1,
                              (report["checked_depth"] + 1) // 8)]
    else:
        assert len(probed) == 2 and probed[1] == report["checked_depth"] + 1


def test_probe_leaves_refuted_golden_byte_identical(monkeypatch):
    golden = (Path(__file__).resolve().parent / "golden"
              / "prove_pq_refuted.json").read_text()
    source = json.loads(golden)["input"]
    def cert():
        return prove_identity(parse_program(source).combo, 6).to_json(
            "prove", source, 10)
    assert cert() == golden
    monkeypatch.setattr(prover_module, "_PROBE_SHARE", 10**9)
    assert cert() == golden


@pytest.mark.parametrize("truncates", [True, False])
def test_nonzero_past_required_still_raises(truncates, monkeypatch):
    """A vanishing series whose first nonzero lies past q^required contradicts
    the valence bound, whether the probe or the full expansion meets it."""
    combo = normalize_identity(_pq(9))
    def parts_of_q5(combo, depth, up=None):  # cut at the depth or not
        return [(F(1), 5, [1][:max(depth - 5, 0)] if truncates else [1])]
    monkeypatch.setattr(prover_module, "_vanishing_parts", parts_of_q5)
    with pytest.raises(InternalInconsistencyError, match="q\\^5"):
        _valence_proof(combo, 6, margin=40, verify=True,
                       constants_warning=False)


# -- one integer vanishing check for both provers ---------------------------------

U5_G = EtaProduct.from_flat([100, -3, 50, 5, 25, -2, 10, -8, 5, 4, 4, 3, 2, 3, 1, -2])
U5_RHS = EtaCombo(0, [(5, EtaProduct.from_flat([10, 8, 5, -4, 2, -8, 1, 4])),
                      (2, EtaProduct.from_flat([20, -3, 10, 5, 5, -2, 4, -1, 2,
                                                -1, 1, 2]))])
# name -> (identity: combo, or rhs of U_p ep, (ep, p) or None, level)
TRUE_IDENTITIES = {
    "pq": (entry31_combo(), None, 6),
    "u5": (U5_RHS, (U5_G, 5), 20),
    "u7": (_u7(7, 49)[2], _u7(7, 49)[:2], 7),
}


@pytest.mark.parametrize("name, index, delta", [
    ("pq", 0, F(1)), ("pq", 1, F(-1, 3)), ("pq", 2, F(5, 7)), ("pq", 3, F(2)),
    ("u5", 0, F(-1)), ("u5", 1, F(1, 2)), ("u5", None, F(-3)),  # a constant
    ("u7", 0, F(1)), ("u7", 1, F(-2, 7)), ("u7", None, F(7, 3)),
])
def test_perturbed_identities_fail_where_the_qseries_route_does(
        name, index, delta):
    combo, up, level = TRUE_IDENTITIES[name]
    terms = list(combo.terms)
    if index is None:
        combo = combo + delta
    else:
        a, f = terms[index]
        terms[index] = (a + delta, f)
        combo = EtaCombo(combo.constant, terms)
    if up:
        report = prove_up_identity(*up, combo, level)
    else:
        report = prove_identity(combo, level)
        combo = normalize_identity(combo)
    assert report.verdict is Verdict.REFUTED
    assert report.failure == leading_term_qseries(
        combo, report.checked_depth + 1, up)


def _whole(factors, shift) -> EtaProduct:
    """``factors`` times the power of eta(tau) that puts the product's
    leading exponent sum(t*r)/24 at the integer ``shift``."""
    return EtaProduct(factors + [(1, 24 * shift - sum(t * r for t, r in factors))])


factors_st = st.lists(st.tuples(st.integers(1, 8),
                                st.integers(-4, 4).filter(bool)), max_size=2)
fractions_st = st.builds(F, st.integers(-9, 9), st.integers(1, 6))
terms_st = st.lists(st.tuples(fractions_st, factors_st, st.integers(-3, 8)),
                    max_size=3)
ups_st = st.none() | st.tuples(factors_st, st.integers(-4, 8),
                               st.sampled_from([2, 3, 5, 7]))


@settings(max_examples=200, deadline=None)
@given(fractions_st, terms_st, st.integers(-4, 30), ups_st)
@example(F(0), [], 5, None)  # nothing: an empty sum
@example(F(-2, 3), [], 3, None)  # a constant alone
@example(F(1), [(F(1, 3), [], -2), (F(-5, 6), [(2, 1)], -1)], 10, None)
@example(F(0), [(F(5, 2), [(2, 3)], 4), (F(1), [], 7)], 4, None)  # at, past
@example(F(1), [(F(7, 4), [], -1)], -3, None)  # depth below every offset
@example(F(0), [(F(1, 2), [(3, 2)], -2)], 9, ([(2, 1)], -3, 5))  # U_p side
@example(F(2), [], 0, ([], -1, 2))  # U_p at depth n0 = ceil(s/p): empty
def test_leading_term_equals_the_qseries_route(constant, terms, depth, up):
    combo = EtaCombo(constant, [(k, _whole(fs, s)) for k, fs, s in terms])
    if up is not None:
        up = (_whole(*up[:2]), up[2])
    parts = _vanishing_parts(combo, depth, up)
    assert _leading_term(parts, depth) == leading_term_qseries(combo, depth, up)


def _on_lattice(factors, t) -> EtaProduct:
    """``factors`` times the power of eta(t), t a unit mod 24 (so t*t = 1 mod
    24), in (-12, 12] that makes sum(t*r) a multiple of 24."""
    k = -sum(u * r for u, r in factors) * t % 24
    return EtaProduct(factors + [(t, k - 24 * (k > 12))])


units_st = st.sampled_from([1, 5, 7, 11, 13])  # eta(1) missing from some terms
linear_st = st.lists(st.tuples(fractions_st, factors_st, units_st),
                     min_size=1, max_size=4)
PERTURBED = {"pq": entry31_combo(), "jacobi": EtaCombo(-1, [
    (1, EtaProduct.from_flat([4, 8, 2, -24, 1, 16])),
    (16, EtaProduct.from_flat([4, 16, 2, -24, 1, 8]))])}


def _pure_parts(combo, depth):
    """The linear parts of ``combo`` below q^depth, and whether every list
    was built as a pure product (no negative exponent)."""
    built = []
    product_list = prover_module._product_list
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(prover_module, "_product_list", lambda fs, size: (
            built.append(fs), product_list(fs, size))[1])
        parts = _vanishing_parts(combo, depth)
    return parts, all(r > 0 for fs in built for _, r in fs)


@settings(max_examples=150, deadline=None)
@given(fractions_st, linear_st, st.integers(-4, 40))
# eta(5) missing from a term, eta(1) from the other; m_2 = 0 by the constant
@example(F(1), [(F(1), [(2, 3)], 1), (F(-1), [(2, 2)], 5)], 20)
@example(F(0), [(F(1), [(2, 3)], 1), (F(-1), [(2, 2)], 5)], 20)  # normalized
def test_common_denominator_leads_as_the_qseries_route(constant, terms, depth):
    # random normalized combinations, each term on the lattice by a power of
    # eta(t) for a unit t, so that a t can be missing from some terms
    combo = EtaCombo(constant, [(k, _on_lattice(fs, t)) for k, fs, t in terms])
    if combo.constant == 0 and not combo.terms:
        return
    combo = normalize_identity(combo)
    parts, pure = _pure_parts(combo, depth)
    assert _leading_term(parts, depth) == leading_term_qseries(combo, depth)
    assert pure


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PERTURBED)), st.integers(-1, 3),
       st.sampled_from([F(1), F(-1), F(1, 2), F(-5, 3)]), st.integers(1, 24))
def test_common_denominator_finds_one_off_perturbations(name, index, delta,
                                                         depth):
    combo = PERTURBED[name]
    terms = list(combo.terms)
    if 0 <= index < len(terms):
        terms[index] = (terms[index][0] + delta, terms[index][1])
        combo = EtaCombo(combo.constant, terms)
    else:  # the constant
        combo = combo + delta
    combo = normalize_identity(combo)
    parts, pure = _pure_parts(combo, depth)
    assert _leading_term(parts, depth) == leading_term_qseries(combo, depth)
    assert pure


@pytest.mark.parametrize("argv, code", [
    (["prove", str(RAMANUJAN), "--level", "6", "--yes"], 0),
    (["prove", "pq_refuted.eta", "--level", "6", "--yes"], 1),
    (["prove-up", str(U5FILE), "--level", "20", "--yes"], 0),
    (["prove-up", "u5_refuted.eta", "--level", "20", "--yes"], 1),
])
def test_proofs_build_no_qseries(argv, code, monkeypatch, tmp_path, capsys):
    (tmp_path / "pq_refuted.eta").write_text(
        PQ_TEXT.replace("+ 9/", "+ 10/"))
    (tmp_path / "u5_refuted.eta").write_text(
        U5FILE.read_text().replace("5*[10,", "4*[10,"))
    monkeypatch.chdir(tmp_path)
    calls = []

    def spy(owner, name, wrap=lambda f: f):
        f = getattr(owner, name)
        monkeypatch.setattr(owner, name, wrap(
            lambda *args: calls.append(name) or f(*args)))

    spy(EtaCombo, "expand")
    spy(EtaProduct, "expand")
    spy(QSeries, "__add__")
    spy(QSeries, "__sub__")
    spy(QSeries, "_raw", staticmethod)
    assert main(argv) == code
    capsys.readouterr()
    assert calls == []
