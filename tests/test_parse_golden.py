"""Golden parse table: identity texts and what the parser makes of them.

Each text maps to ``repr`` of its parse result or to the error class and
message it raises, as recorded from the parser that built a syntax tree and
lowered it in a second pass.  A parser that lowers as it parses must give
the same bytes for every text here: all of them hold at most one error.
"""

from pathlib import Path

import pytest

from etaprover import parse_expression, parse_program
from etaprover.errors import LoweringError, ParseError

IDENTITIES = Path(__file__).resolve().parent.parent / "identities"


def _outcome(fn, text):
    try:
        return repr(fn(text))
    except (ParseError, LoweringError) as exc:
        return f"{type(exc).__name__}: {exc}"


# The benchmark's identity families and malformed files, then programs with
# bindings, U(p) statements and single errors.
PROGRAMS = [
    ("# Ramanujan's modular equation between the level-6 eta-quotients\n#   P*Q + 9/(P*Q) = (Q/P)^3 + (P/Q)^3\nlet P = eta(1)^2 / eta(3)^2;\nlet Q = eta(2)^2 / eta(6)^2;\nP*Q + 9/(P*Q) - (Q/P)^3 - (P/Q)^3\n",
     'LinearIdentity(combo=EtaCombo(Fraction(0, 1), [(Fraction(1, 1), EtaProduct.from_flat([6, -2, 3, -2, 2, 2, 1, 2])), (Fraction(9, 1), EtaProduct.from_flat([6, 2, 3, 2, 2, -2, 1, -2])), (Fraction(-1, 1), EtaProduct.from_flat([6, -6, 3, 6, 2, 6, 1, -6])), (Fraction(-1, 1), EtaProduct.from_flat([6, 6, 3, -6, 2, -6, 1, 6]))]), source="# Ramanujan\'s modular equation between the level-6 eta-quotients\\n#   P*Q + 9/(P*Q) = (Q/P)^3 + (P/Q)^3\\nlet P = eta(1)^2 / eta(3)^2;\\nlet Q = eta(2)^2 / eta(6)^2;\\nP*Q + 9/(P*Q) - (Q/P)^3 - (P/Q)^3\\n")'),
    ('# Jacobi: theta3^4 = theta4^4 + theta2^4\n[4,8,2,-24,1,16] + 16*[4,16,2,-24,1,8] - 1\n',
     "LinearIdentity(combo=EtaCombo(Fraction(-1, 1), [(Fraction(1, 1), EtaProduct.from_flat([4, 8, 2, -24, 1, 16])), (Fraction(16, 1), EtaProduct.from_flat([4, 16, 2, -24, 1, 8]))]), source='# Jacobi: theta3^4 = theta4^4 + theta2^4\\n[4,8,2,-24,1,16] + 16*[4,16,2,-24,1,8] - 1\\n')"),
    ('# Ramanujan: U(5) eta(25)/eta(1) = 5 eta(5)^6/eta(1)^6\nU(5) eta(25)/eta(1) = 5*eta(5)^6/eta(1)^6\n',
     "UpIdentity(p=5, product=EtaProduct.from_flat([25, 1, 1, -1]), rhs=EtaCombo(Fraction(0, 1), [(Fraction(5, 1), EtaProduct.from_flat([5, 6, 1, -6]))]), source='# Ramanujan: U(5) eta(25)/eta(1) = 5 eta(5)^6/eta(1)^6\\nU(5) eta(25)/eta(1) = 5*eta(5)^6/eta(1)^6\\n')"),
    ("# Ramanujan's U(7) identity for the partition function\nU(7) eta(49)/eta(1) = 7*eta(7)^4/eta(1)^4 + 49*eta(7)^8/eta(1)^8\n",
     'UpIdentity(p=7, product=EtaProduct.from_flat([49, 1, 1, -1]), rhs=EtaCombo(Fraction(0, 1), [(Fraction(7, 1), EtaProduct.from_flat([7, 4, 1, -4])), (Fraction(49, 1), EtaProduct.from_flat([7, 8, 1, -8]))]), source="# Ramanujan\'s U(7) identity for the partition function\\nU(7) eta(49)/eta(1) = 7*eta(7)^4/eta(1)^4 + 49*eta(7)^8/eta(1)^8\\n")'),
    ('# The U_5 image of a level-100 eta-product at level 20\nU(5) [100,-3,50,5,25,-2,10,-8,5,4,4,3,2,3,1,-2] = 5*[10,8,5,-4,2,-8,1,4] + 2*[20,-3,10,5,5,-2,4,-1,2,-1,1,2]\n',
     "UpIdentity(p=5, product=EtaProduct.from_flat([100, -3, 50, 5, 25, -2, 10, -8, 5, 4, 4, 3, 2, 3, 1, -2]), rhs=EtaCombo(Fraction(0, 1), [(Fraction(5, 1), EtaProduct.from_flat([10, 8, 5, -4, 2, -8, 1, 4])), (Fraction(2, 1), EtaProduct.from_flat([20, -3, 10, 5, 5, -2, 4, -1, 2, -1, 1, 2]))]), source='# The U_5 image of a level-100 eta-product at level 20\\nU(5) [100,-3,50,5,25,-2,10,-8,5,4,4,3,2,3,1,-2] = 5*[10,8,5,-4,2,-8,1,4] + 2*[20,-3,10,5,5,-2,4,-1,2,-1,1,2]\\n')"),
    ('let P = eta(1)^2 / eta(3)^2;\nP*(P + 9\n',
     "ParseError: expected ')', found 'end of input' (line 3, column 1)"),
    ('eta(1.5) - 1\n',
     "ParseError: unexpected character '.' (line 1, column 6)"),
    ('U(5) 2 = 1',
     'LoweringError: the U(p) argument must be a plain eta-product with coefficient 1 (line 1, column 6)'),
    ('U(5) eta(1) 3',
     "ParseError: expected '=', found '3' (line 1, column 13)"),
    ('U(x) eta(1) = 1',
     "ParseError: expected 'int', found 'x' (line 1, column 3)"),
    ('eta(1) = 2',
     "ParseError: expected 'eof', found '=' (line 1, column 8)"),
    ('let eta = 1; eta',
     "ParseError: 'eta' is reserved (line 1, column 5)"),
    ('let U = 1; U + 1',
     "ParseError: 'U' is reserved (line 1, column 5)"),
    ('let A = ;\nA',
     "ParseError: expected an expression, found ';' (line 1, column 9)"),
    ('let A = B;\nA',
     "LoweringError: unknown name 'B' (line 1, column 9)"),
    ('let A = eta(4);\nlet B = A^2;\n2*B/A - 3',
     "LinearIdentity(combo=EtaCombo(Fraction(-3, 1), [(Fraction(2, 1), EtaProduct.from_flat([4, 1]))]), source='let A = eta(4);\\nlet B = A^2;\\n2*B/A - 3')"),
    ('# heading\nlet A = [1,2,2,-2] ; # inline\n  A - A\n# tail\n',
     "LinearIdentity(combo=EtaCombo(Fraction(0, 1), []), source='# heading\\nlet A = [1,2,2,-2] ; # inline\\n  A - A\\n# tail\\n')"),
]
EXPRESSIONS = [
    ('1',
     'EtaCombo(Fraction(1, 1), [])'),
    ('-7',
     'EtaCombo(Fraction(-7, 1), [])'),
    ('9/4',
     'EtaCombo(Fraction(9, 4), [])'),
    ('2^-3',
     'EtaCombo(Fraction(1, 8), [])'),
    ('eta(1)^0',
     'EtaCombo(Fraction(1, 1), [])'),
    ('eta(2)^3 * eta(1)^-2',
     'EtaCombo(Fraction(0, 1), [(Fraction(1, 1), EtaProduct.from_flat([2, 3, 1, -2]))])'),
    ('[5,6,1,-6]',
     'EtaCombo(Fraction(0, 1), [(Fraction(1, 1), EtaProduct.from_flat([5, 6, 1, -6]))])'),
    ('(eta(1) + eta(2))^2',
     'EtaCombo(Fraction(0, 1), [(Fraction(1, 1), EtaProduct.from_flat([1, 2])), (Fraction(2, 1), EtaProduct.from_flat([2, 1, 1, 1])), (Fraction(1, 1), EtaProduct.from_flat([2, 2]))])'),
    ('-(eta(1) - 1)',
     'EtaCombo(Fraction(1, 1), [(Fraction(-1, 1), EtaProduct.from_flat([1, 1]))])'),
    ('eta(٣)',
     'EtaCombo(Fraction(0, 1), [(Fraction(1, 1), EtaProduct.from_flat([3, 1]))])'),
    ('[12,1,٤,-2]',
     'EtaCombo(Fraction(0, 1), [(Fraction(1, 1), EtaProduct.from_flat([12, 1, 4, -2]))])'),
    ('',
     "ParseError: expected an expression, found 'end of input' (line 1, column 1)"),
    ('eta(1.5)',
     "ParseError: unexpected character '.' (line 1, column 6)"),
    ('$',
     "ParseError: unexpected character '$' (line 1, column 1)"),
    ('[1,2,\n3]',
     'ParseError: bracket list needs an even number of entries (line 1, column 1)'),
    ('[]',
     "ParseError: expected 'int', found ']' (line 1, column 2)"),
    ('[1,2',
     "ParseError: expected ']', found 'end of input' (line 1, column 5)"),
    ('B + 1',
     "LoweringError: unknown name 'B' (line 1, column 1)"),
    ('1 / (eta(1) + eta(2))',
     'LoweringError: cannot divide here: cannot invert a sum of eta-products (line 1, column 3)'),
    ('(eta(1) + eta(2))^-1',
     'LoweringError: cannot raise this expression to the power -1: cannot invert a sum of eta-products (line 1, column 18)'),
    ('[0,2]',
     'LoweringError: eta multiplier must be a positive integer, got 0 (line 1, column 1)'),
    ('eta(0)',
     'LoweringError: eta multiplier must be a positive integer (line 1, column 1)'),
    ('[-3,1]',
     'LoweringError: eta multiplier must be a positive integer, got -3 (line 1, column 1)'),
    ('0^-1',
     'LoweringError: cannot raise this expression to the power -1: division of a combo by zero (line 1, column 2)'),
    ('1/0',
     'LoweringError: cannot divide here: division of a combo by zero (line 1, column 2)'),
    ('eta(1) eta(2)',
     "ParseError: expected 'eof', found 'eta' (line 1, column 8)"),
    ('eta(1)^x',
     "ParseError: expected 'int', found 'x' (line 1, column 8)"),
    ('eta(-1)',
     "ParseError: expected 'int', found '-' (line 1, column 5)"),
    ('U + 1',
     "ParseError: 'U' cannot be used here (line 1, column 1)"),
    ('let + 1',
     "ParseError: expected 'name', found '+' (line 1, column 5)"),
    ('(eta(1)',
     "ParseError: expected ')', found 'end of input' (line 1, column 8)"),
]
FILES = {
    'ramanujan_pq.eta':
    'LinearIdentity(combo=EtaCombo(Fraction(0, 1), [(Fraction(1, 1), EtaProduct.from_flat([6, -2, 3, -2, 2, 2, 1, 2])), (Fraction(9, 1), EtaProduct.from_flat([6, 2, 3, 2, 2, -2, 1, -2])), (Fraction(-1, 1), EtaProduct.from_flat([6, -6, 3, 6, 2, 6, 1, -6])), (Fraction(-1, 1), EtaProduct.from_flat([6, 6, 3, -6, 2, -6, 1, 6]))]), source="# Ramanujan\'s modular equation between the level-6 eta-quotients P and Q:\\n#   P*Q + 9/(P*Q) = (Q/P)^3 + (P/Q)^3\\n# Written as an expression that must vanish identically.\\nlet P = eta(1)^2 / eta(3)^2;\\nlet Q = eta(2)^2 / eta(6)^2;\\nP*Q + 9/(P*Q) - (Q/P)^3 - (P/Q)^3\\n")',
    'u5_level20.eta':
    "UpIdentity(p=5, product=EtaProduct.from_flat([100, -3, 50, 5, 25, -2, 10, -8, 5, 4, 4, 3, 2, 3, 1, -2]), rhs=EtaCombo(Fraction(0, 1), [(Fraction(5, 1), EtaProduct.from_flat([10, 8, 5, -4, 2, -8, 1, 4])), (Fraction(2, 1), EtaProduct.from_flat([20, -3, 10, 5, 5, -2, 4, -1, 2, -1, 1, 2]))]), source='# The U_5 image of a level-100 eta-product as a linear combination of\\n# level-20 eta-products.  Prove with: etaprover prove-up <file> --level 20 --yes\\nU(5) [100,-3,50,5,25,-2,10,-8,5,4,4,3,2,3,1,-2] = 5*[10,8,5,-4,2,-8,1,4] + 2*[20,-3,10,5,5,-2,4,-1,2,-1,1,2]\\n')",
}


@pytest.mark.parametrize("text,expected", PROGRAMS)
def test_parse_program_golden(text, expected):
    assert _outcome(parse_program, text) == expected


@pytest.mark.parametrize("text,expected", EXPRESSIONS)
def test_parse_expression_golden(text, expected):
    assert _outcome(parse_expression, text) == expected


@pytest.mark.parametrize("name", sorted(FILES))
def test_identity_files_golden(name):
    text = (IDENTITIES / name).read_text(encoding="utf-8")
    assert _outcome(parse_program, text) == FILES[name]
