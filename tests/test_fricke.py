"""Fricke twins: every linear verdict against its image under W_N.

``oracles.fricke_twin`` maps an identity c + sum a_i f_i = 0 on Gamma0(N) to
c + sum a_i C_i f_i* = 0, which holds iff the first does.  The twin's terms
are other eta-quotients, with another bound B and other depths, so its proof
runs through other products, seeds and sweeps; the cusps, the order table and
the kernel have to agree on both.  The orders of f at the cusp 1/c are those
of f* at 1/(N/c); the cusp 1/1 of one is the cusp at infinity of the other,
whose order is the term's leading exponent.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from etaprover import EtaCombo, EtaProduct, Verdict, parse_expression, prove_identity
from etaprover.prover import normalize_identity

from oracles import fricke_twin

settings.register_profile("fricke", max_examples=60, deadline=None,
                          database=None)
settings.load_profile("fricke")

# The lifted linear families of the benchmark: (base level, text, true values)
FAMILIES = {
    "pq": (6, "let P = eta(1)^2 / eta(3)^2;\nlet Q = eta(2)^2 / eta(6)^2;\n"
              "P*Q + {0}/(P*Q) - (Q/P)^3 - (P/Q)^3", (9,)),
    "jacobi": (4, "[4,8,2,-24,1,16] + {0}*[4,16,2,-24,1,8] - {1}", (16, 1)),
}


def columns(report, combo: EtaCombo, level: int) -> list:
    """Per normalized term, its orders by cusp denominator c, with the order
    at infinity (c = N), which the table leaves out."""
    out = []
    for row, (_, f) in zip(report.term_orders, combo.terms):
        orders = {s.c: v for s, v in zip(report.cusps, row)}
        orders[level] = f.leading_exponent
        out.append(orders)
    return out


@given(st.sampled_from(sorted(FAMILIES)), st.integers(1, 5), st.data())
@example("pq", 1, None)
@example("jacobi", 2, None)
def test_twins_share_verdicts_and_swap_order_columns(name, k, data):
    base, text, true = FAMILIES[name]
    values = true if data is None else [
        data.draw(st.sampled_from([v, v - 1, v + 1]) | st.integers(0, 30))
        for v in true]
    level = k * base
    combo = parse_expression(text.format(*values))
    twin = fricke_twin(combo, level)
    assert twin is not None  # every exponent of both families is even
    report, twin_report = (prove_identity(c, level) for c in (combo, twin))
    assert twin_report.verdict is report.verdict
    assert report.verdict is (Verdict.PROVED if list(values) == list(true)
                              else Verdict.REFUTED)
    mine = columns(report, normalize_identity(combo), level)
    theirs = columns(twin_report, normalize_identity(twin), level)
    assert len(mine) == len(theirs)
    for orders, twin_orders in zip(mine, theirs):
        assert orders == {level // c: v for c, v in twin_orders.items()}


def test_an_irrational_constant_has_no_twin():
    # eta(2)/eta(1) on Gamma0(2): C = 1^(1/2) * 2^(-1/2); its square has 1/2
    f = EtaProduct([(2, 1), (1, -1)])
    assert fricke_twin(EtaCombo(1, [(Fraction(1), f)]), 2) is None
    assert fricke_twin(EtaCombo(1, [(Fraction(3), f ** 2)]), 2) == \
        EtaCombo(1, [(Fraction(3, 2), EtaProduct([(1, 2), (2, -2)]))])
