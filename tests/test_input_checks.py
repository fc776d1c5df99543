"""The public input checks and display branches that no other test reaches.

Each case pins an exception's class and message, or a result, exactly as
the package gives it.  ``QSeries._unit_invert`` is only called by the
benchmark tracer, so its body is checked here against ``** -1``.
"""

from fractions import Fraction

import pytest

from etaprover import Cusp, EtaCombo, EtaProduct, QSeries
from etaprover.errors import MisalignedRowsError
from etaprover.prover import sum_of_column_minima

UNIT = QSeries([(0, 1), (1, -1), (2, 3), (5, 2)], 9)


@pytest.mark.parametrize("compute, expected", [
    (lambda: EtaProduct([(2, 1.5)]),
     ValueError("eta exponent must be an integer, got 1.5")),
    (lambda: EtaProduct.from_flat([1, 2, 3]),
     ValueError("flat eta-product list must have even length")),
    (lambda: EtaProduct.from_flat([1, 1]) ** 1.5,
     TypeError("eta-product exponent must be an int")),
    (lambda: EtaProduct.from_flat([]).eta_string(), "1"),
    (lambda: EtaProduct.from_flat([2, 3]).eta_string(), "eta(2)^3"),
    (lambda: EtaCombo(0, [(1, "x")]),
     TypeError("combo terms must be (coefficient, EtaProduct)")),
    (lambda: EtaCombo(1) ** 0.5, TypeError("combo exponent must be an int")),
    (lambda: QSeries([(0.5, 1)]),
     TypeError("exponent must be int or Fraction, got float")),
    (lambda: QSeries([(3, 1)], trunc=2),
     ValueError("term q^3 lies at or beyond the truncation q^2")),
    (lambda: QSeries.one() ** 1.5, TypeError("series exponent must be an int")),
    (lambda: QSeries.one().sift(0, 0),
     ValueError("sift modulus must be a positive integer")),
    (lambda: QSeries.one().sift(3, 3),
     ValueError("sift residue must satisfy 0 <= j < p")),
    (lambda: str(QSeries.zero()), "0"),
    (lambda: repr(QSeries([(n, n + 1) for n in range(5)], 7)),
     "QSeries([(0, 1), (1, 2), (2, 3), (3, 4), ...], trunc=7)"),
    (lambda: Cusp(1.5, 2), TypeError("cusp numerator and denominator must be ints")),
    (lambda: repr(Cusp.from_fraction(Fraction(3, 6))), "Cusp(1, 2)"),
    (lambda: repr(Cusp(1, 2)), "Cusp(1, 2)"),
    (lambda: sum_of_column_minima([]), MisalignedRowsError("no order rows given")),
    (lambda: repr(UNIT._unit_invert()),
     "QSeries([(0, 1), (1, 1), (2, -2), (3, -5), ...], trunc=9)"),
    (lambda: UNIT._unit_invert() == UNIT ** -1, True),
], ids=["product-float-exponent", "from-flat-odd-length", "product-float-power",
        "eta-string-empty", "eta-string-one-factor", "combo-bad-term",
        "combo-float-power", "series-float-exponent", "series-term-past-trunc",
        "series-float-power", "sift-modulus-0", "sift-residue-3", "str-zero",
        "repr-5-terms", "cusp-float", "cusp-from-fraction", "cusp-repr",
        "minima-no-rows", "unit-invert", "unit-invert-equals-power"])
def test_input_checks_and_display(compute, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as info:
            compute()
        assert type(info.value) is type(expected)
        assert str(info.value) == str(expected)
    else:
        assert compute() == expected
