"""Identity grammar: parsing, lowering, and print/reparse round trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from etaprover import (
    EtaCombo,
    EtaProduct,
    LinearIdentity,
    UpIdentity,
    parse_expression,
    parse_program,
)
from etaprover.errors import LoweringError, ParseError
from etaprover.parser import _tokenize

from oracles import random_eta_product, reference_tokenize

F = Fraction


def test_parse_bracket_product():
    combo = parse_expression("[5,6,1,-6]")
    assert combo == EtaCombo.from_product(EtaProduct.from_flat([5, 6, 1, -6]))


def test_parse_constant():
    assert parse_expression("1") == EtaCombo(1)
    assert parse_expression("-7") == EtaCombo(-7)


def test_parse_rational_constant_via_division():
    assert parse_expression("9/4") == EtaCombo(F(9, 4))


def test_parse_eta_atom_and_powers():
    combo = parse_expression("eta(2)^3 * eta(1)^-2")
    assert combo == EtaCombo.from_product(EtaProduct.from_flat([2, 3, 1, -2]))


def test_parse_entry31():
    text = """let P = eta(1)^2 / eta(3)^2;
let Q = eta(2)^2 / eta(6)^2;
P*Q + 9/(P*Q) - (Q/P)^3 - (P/Q)^3"""
    ident = parse_program(text)
    assert isinstance(ident, LinearIdentity)
    pq = EtaProduct.from_flat([1, 2, 3, -2]) * EtaProduct.from_flat([2, 2, 6, -2])
    assert ident.combo.terms[0] == (F(1), pq)
    assert ident.combo.terms[1] == (F(9), pq ** -1)
    assert len(ident.combo.terms) == 4


def test_parse_comments_and_whitespace():
    text = "# heading\nlet A = [1,2,2,-2] ; # inline\n  A - A\n# tail\n"
    ident = parse_program(text)
    assert ident.combo == EtaCombo(0)


def test_parse_up_identity():
    text = ("U(5) [100,-3,50,5,25,-2,10,-8,5,4,4,3,2,3,1,-2] = "
            "5*[10,8,5,-4,2,-8,1,4] + 2*[20,-3,10,5,5,-2,4,-1,2,-1,1,2]")
    ident = parse_program(text)
    assert isinstance(ident, UpIdentity)
    assert ident.p == 5
    assert ident.product == EtaProduct.from_flat(
        [100, -3, 50, 5, 25, -2, 10, -8, 5, 4, 4, 3, 2, 3, 1, -2])
    assert [a for a, _ in ident.rhs.terms] == [5, 2]


def test_parse_up_identity_with_bindings():
    text = """let G = [5,4,2,2,10,-2,1,-4];
U(5) [2,1,25,1,1,-1,50,-1] = G"""
    ident = parse_program(text)
    assert isinstance(ident, UpIdentity)
    assert ident.rhs == EtaCombo.from_product(
        EtaProduct.from_flat([5, 4, 2, 2, 10, -2, 1, -4]))


def test_parse_up_argument_must_be_plain_product():
    with pytest.raises(LoweringError):
        parse_program("U(5) 2*[2,1,1,-1] = [1,1]")


def test_up_argument_error_points_at_its_first_token():
    with pytest.raises(LoweringError) as err:
        parse_program("U(5) 2*[2,1,1,-1] = [1,1]")
    assert (err.value.line, err.value.column) == (1, 6)
    with pytest.raises(LoweringError) as err:
        parse_program("U(5)\n  (eta(1) + 1) = 1")
    assert (err.value.line, err.value.column) == (2, 3)


def test_leftmost_error_is_reported():
    # a lowering error before a syntax error in the same statement
    for text, where in [("B + (", (1, 1)), ("let A = 1/0 A", (1, 10)),
                        ("1 +\n(eta(1)+1)^-1 )", (2, 11)),
                        ("U(5) 2*eta(1) = 1 1", (1, 6)),
                        # ... and before a character that starts no token
                        ("B + $", (1, 1)), ("1/0 $", (1, 2)),
                        ("let A = 1/0 $", (1, 10)), ("eta(0) + 1.5", (1, 1)),
                        ("(eta(1)+1)^-1 + \u00b2", (1, 11))]:
        with pytest.raises(LoweringError) as err:
            parse_program(text)
        assert (err.value.line, err.value.column) == where, text
    # a syntax error before a lowering error or a bad character, and the
    # end of input, which is at the end of the text after a final comment
    for text, message in [
            ("( * B", "expected an expression, found '*' (line 1, column 3)"),
            ("( * $", "expected an expression, found '*' (line 1, column 3)"),
            ("1 + # c", "expected an expression, found 'end of input'"
                        " (line 1, column 8)")]:
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert str(err.value) == message, text


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_program("let A = ;\nA")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_program("[1,2,\n3]")
    assert str(err.value) == ("bracket list needs an even number of entries"
                              " (line 1, column 1)")


# Pieces of identity text: the grammar's punctuation, blanks, comments with
# and without a newline, digits of several scripts, numerals that are not
# digits, letters, and characters that start no token.
_PIECES = [*"+-*/^()[],;=", " ", "\t", "\r", "\n", "\r\n", "#", "# c",
           "# c\n", "0", "7", "12", "\u0663", "\U0001d7d8", "\u00b2",
           "\u00bd", "\u216b", "\u00e9", "_", "a", "eta", "$", ".",
           "\u00a0", "\ufeff", "\u2028", "\x0b"]


@settings(max_examples=500, deadline=None, database=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=12).map("".join))
def test_tokenizer_matches_the_reference(text):
    toks = _tokenize(text)
    try:
        ref = reference_tokenize(text)
    except ParseError as exc:
        # the reference stops at the first bad character; the tokenizer
        # makes it a token, and its tokens before it are the reference's
        k = next(k for k, t in enumerate(toks) if t.kind == "bad")
        bad = toks[k]
        assert str(exc) == (f"unexpected character {bad.text!r}"
                            f" (line {bad.line}, column {bad.col})")
        lines = text.split("\n")
        offset = sum(map(len, lines[:bad.line - 1])) + bad.line - 1 + bad.col - 1
        assert text[offset] == bad.text
        assert toks[:k] == reference_tokenize(text[:offset])[:-1]
        return
    last = text.rsplit("\n", 1)[-1]
    if "#" in last:
        # an unterminated final comment: the reference's column count stops
        # at its "#", and the tokenizer puts eof at the end of the text
        assert ref[-1].col == last.index("#") + 1
        ref[-1] = ref[-1]._replace(col=len(last) + 1)
    assert toks == ref


def test_nested_parentheses_are_limited():
    # the limit keeps the recursive descent well inside Python's stack
    assert parse_expression("(" * 200 + "1" + ")" * 200) == parse_expression("1")
    with pytest.raises(ParseError) as err:
        parse_expression("(" * 201 + "1" + ")" * 201)
    assert str(err.value) == "more than 200 nested parentheses (line 1, column 201)"
    assert (err.value.line, err.value.column) == (1, 201)


def test_unknown_name_reported():
    with pytest.raises(LoweringError) as err:
        parse_expression("B + 1")
    assert "B" in str(err.value)


def test_division_by_sum_rejected():
    with pytest.raises(LoweringError) as err:
        parse_expression("1 / (eta(1) + eta(2))")
    assert "divide" in str(err.value)


def test_negative_power_of_sum_rejected():
    with pytest.raises(LoweringError):
        parse_expression("(eta(1) + eta(2))^-1")


def test_positive_power_of_sum_is_expanded():
    combo = parse_expression("(eta(1) + eta(2))^2")
    e1, e2 = EtaProduct.from_flat([1, 1]), EtaProduct.from_flat([2, 1])
    assert combo == EtaCombo(0, [(1, e1 * e1), (2, e1 * e2), (1, e2 * e2)])


def test_odd_bracket_length_rejected():
    with pytest.raises(ParseError):
        parse_expression("[1,2,3]")


def test_integer_literals_are_decimal_digits():
    # what int() accepts: other scripts' decimal digits, not superscripts
    assert parse_expression("eta(\u0663)") == parse_expression("eta(3)")
    with pytest.raises(ParseError) as err:
        parse_expression("eta(\u00b2)")
    assert (err.value.line, err.value.column) == (1, 5)
    assert "unexpected character" in str(err.value)


def test_bad_multiplier_rejected():
    with pytest.raises(LoweringError):
        parse_expression("[0,2]")
    with pytest.raises(LoweringError):
        parse_expression("eta(0)")


def test_reserved_words_rejected_as_names():
    with pytest.raises(ParseError):
        parse_program("let eta = 1; eta")
    with pytest.raises(ParseError):
        parse_program("let U = 1; U + 1")


def test_print_reparse_round_trip_random():
    rng = random.Random(20260810)
    for _ in range(60):
        terms = [(F(rng.randint(-8, 8), rng.randint(1, 5)),
                  random_eta_product(rng, max_t=10, max_r=5))
                 for _ in range(rng.randint(0, 4))]
        constant = F(rng.randint(-4, 4), rng.randint(1, 3))
        combo = EtaCombo(constant, [(a, f) for a, f in terms if a])
        assert parse_expression(str(combo)) == combo
