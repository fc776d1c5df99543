"""The certificate writer and the order-table formatter against the earlier
code kept in ``tests/oracles.py``: ``ProofReport.to_json`` must give the
bytes of ``json.dumps(cert, indent=2, sort_keys=True)``, and
``format_order_table`` the text that formats every cell on its own.

Both now format each distinct cell object once, so the reports below mix
shared cell objects, equal but distinct ones, and distinct values.
"""

import random
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from etaprover import Cusp, parse_program, prove_identity
from etaprover.prover import ProofReport, Verdict, format_order_table
from etaprover.up import prove_up_identity

from oracles import certificate_json, order_table_text

REPO = Path(__file__).resolve().parent.parent
RAMANUJAN = (REPO / "identities" / "ramanujan_pq.eta").read_text()
U5 = (REPO / "identities" / "u5_level20.eta").read_text()

# Characters that JSON escapes, or that ensure_ascii writes as \u escapes.
AWKWARD = '"\\/\n\r\t\b\f\x00\x1f\x7fé €\U0001d52e'
texts = st.text(st.one_of(st.sampled_from(AWKWARD), st.characters()),
                max_size=20)
fractions = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                      st.integers(1, 10 ** 6))


@st.composite
def rows(draw, width):
    """A row of ``width`` cells drawn from a small pool of values: a cell is
    the pool's object itself, as the order table shares them, or an equal
    copy of it."""
    pool = draw(st.lists(fractions, min_size=1, max_size=4))
    cells = []
    for _ in range(width):
        v = draw(st.sampled_from(pool))
        cells.append(v if draw(st.booleans())
                     else Fraction(v.numerator, v.denominator))
    return tuple(cells)


@st.composite
def reports(draw):
    width = draw(st.sampled_from([0, 0, 1, 2, 5, 9]))  # level 1 has no cusps
    cusps = tuple(Cusp(draw(st.integers(0, 99)), draw(st.integers(1, 99)))
                  for _ in range(width))
    terms = draw(st.integers(0, 3))
    up_p = draw(st.one_of(st.none(), st.integers(2, 13)))
    return ProofReport(
        level=draw(st.integers(1, 10 ** 6)),
        verdict=draw(st.sampled_from(Verdict)),
        bound=draw(fractions),
        required_depth=draw(st.integers(-10, 10 ** 6)),
        checked_depth=draw(st.integers(-1, 10 ** 6)),
        cusps=cusps,
        term_labels=tuple(draw(texts) for _ in range(terms)),
        term_orders=tuple(draw(rows(width)) for _ in range(terms)),
        column_minima=draw(rows(width)),
        up_bounds=None if up_p is None else draw(rows(width)),
        up_p=up_p,
        constants_warning=draw(st.booleans()),
        failure=draw(st.one_of(st.none(), st.tuples(fractions, fractions))),
        reason=draw(st.one_of(st.none(), texts)))


@settings(max_examples=150, deadline=None)
@given(reports(), st.sampled_from(["prove", "prove-up"]), texts,
       st.integers(1, 10 ** 9))
def test_certificate_bytes_equal_json_dumps(report, command, source, margin):
    assert (report.to_json(command, source, margin)
            == certificate_json(report, command, source, margin))


@settings(max_examples=150, deadline=None)
@given(reports())
def test_order_table_equals_reference(report):
    assert format_order_table(report) == order_table_text(report)


def test_order_table_with_unshared_cells():
    shared = Fraction(-7, 12)
    report = ProofReport(
        level=12, verdict=Verdict.BOUND_ONLY, bound=Fraction(-2),
        required_depth=2, checked_depth=-1,
        cusps=(Cusp(0), Cusp(1, 2), Cusp(1, 3), Cusp(1, 4)),
        term_labels=("a", "b"),
        term_orders=((shared, shared, Fraction(-7, 12), Fraction(1, 3)),
                     tuple(map(Fraction, range(-2, 2)))),
        column_minima=(shared, Fraction(-7, 12), Fraction(-1), Fraction(0)))
    assert format_order_table(report) == order_table_text(report)
    assert report.to_json("prove", "", 1) == certificate_json(
        report, "prove", "", 1)


def _random_run(rng):
    """One prove or prove-up run of a fixture identity, perhaps perturbed,
    at a right or a wrong level (1 among them), read from a text that starts
    with a comment of awkward characters."""
    up = rng.random() < 0.5
    text, base = (U5, 20) if up else (RAMANUJAN, 6)
    if rng.random() < 0.3:
        text = text.replace("5*[", "4*[") if up else text.replace("+ 9/",
                                                                  "+ 10/")
    comment = "".join(rng.choice(AWKWARD.replace("\n", "").replace("\r", ""))
                      for _ in range(rng.randrange(8)))
    text = f"# {comment}\n{text}"
    step = 5 if up else 1  # prove-up needs p = 5 to divide the level
    level = rng.choice([step, 3 * step, base, 2 * base, 3 * base, 12 * base,
                        2520, step * rng.randrange(1, 500)])
    verify = level <= 6 * base and rng.random() < 0.5
    margin = rng.randrange(1, 20)
    ident = parse_program(text)
    if up:
        report = prove_up_identity(ident.product, ident.p, ident.rhs, level,
                                   margin=margin, verify=verify)
    else:
        report = prove_identity(ident.combo, level, margin=margin,
                                verify=verify)
    return report, ("prove-up" if up else "prove"), text, margin


def test_real_certificates_equal_json_dumps():
    rng = random.Random(17)
    verdicts = set()
    for _ in range(200):
        report, command, text, margin = _random_run(rng)
        verdicts.add(report.verdict)
        assert (report.to_json(command, text, margin)
                == certificate_json(report, command, text, margin))
        if report.verdict is not Verdict.NOT_APPLICABLE:
            assert format_order_table(report) == order_table_text(report)
    assert verdicts == set(Verdict)
