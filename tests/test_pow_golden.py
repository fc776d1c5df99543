"""Golden table of QSeries powers and inverses.

Each row is an input series (terms and truncation), an operation (``pow``
with an exponent, or ``invert`` at a depth) and either the stored exponents
(in units of 1/24), coefficients and truncation of the result, or the error
class and message it raises.  They were recorded from the implementation
that powered by repeated squaring over ``__mul__`` and inverted with a
separate unit-inverse loop; any other implementation must give the same
values, the same coefficient types (``int`` where integral) and the same
truncation.
"""

from fractions import Fraction

import pytest

from etaprover import QSeries
from etaprover.errors import ZeroSeriesError

CASES = [
    ([(0, Fraction(3, 2)), (1, Fraction(-1, 3)), (2, 5), (4, Fraction(7, 4))], 9, 'pow', -2,
     ((0, 24, 48, 72, 96, 120, 144, 168, 192), (Fraction(4, 9), Fraction(16, 81), Fraction(-704, 243), Fraction(-12832, 6561), Fraction(762044, 59049), Fraction(2152984, 177147), Fraction(-232321112, 4782969), Fraction(-2618849024, 43046721), Fraction(7085151811, 43046721)), 216)),
    ([(0, Fraction(3, 2)), (1, Fraction(-1, 3)), (2, 5), (4, Fraction(7, 4))], 9, 'pow', -1,
     ((0, 24, 48, 72, 96, 120, 144, 168, 192), (Fraction(2, 3), Fraction(4, 27), Fraction(-532, 243), Fraction(-2144, 2187), Fraction(124043, 19683), Fraction(796348, 177147), Fraction(-27826720, 1594323), Fraction(-254256152, 14348907), Fraction(12110429905, 258280326)), 216)),
    ([(0, Fraction(3, 2)), (1, Fraction(-1, 3)), (2, 5), (4, Fraction(7, 4))], 9, 'pow', 2,
     ((0, 24, 48, 72, 96, 120, 144, 192), (Fraction(9, 4), -1, Fraction(136, 9), Fraction(-10, 3), Fraction(121, 4), Fraction(-7, 6), Fraction(35, 2), Fraction(49, 16)), 216)),
    ([(0, Fraction(3, 2)), (1, Fraction(-1, 3)), (2, 5), (4, Fraction(7, 4))], 9, 'pow', 3,
     ((0, 24, 48, 72, 96, 120, 144, 168, 192), (Fraction(27, 8), Fraction(-9, 4), Fraction(137, 4), Fraction(-406, 27), Fraction(6047, 48), Fraction(-121, 4), Fraction(613, 3), Fraction(-35, 2), Fraction(4641, 32)), 216)),
    ([(-1, Fraction(-2, 5)), (0, 3), (Fraction(1, 2), Fraction(1, 7))], Fraction(7, 2), 'pow', -2,
     ((48, 72, 84, 96, 108, 120, 132, 144), (Fraction(25, 4), Fraction(375, 4), Fraction(125, 28), Fraction(16875, 16), Fraction(5625, 56), Fraction(8270625, 784), Fraction(84375, 56), Fraction(310303125, 3136)), 156)),
    ([(-1, Fraction(-2, 5)), (0, 3), (Fraction(1, 2), Fraction(1, 7))], Fraction(7, 2), 'pow', -1,
     ((24, 48, 60, 72, 84, 96, 108, 120), (Fraction(-5, 2), Fraction(-75, 4), Fraction(-25, 28), Fraction(-1125, 8), Fraction(-375, 28), Fraction(-827125, 784), Fraction(-16875, 112), Fraction(-12414375, 1568)), 132)),
    ([(-1, Fraction(-2, 5)), (0, 3), (Fraction(1, 2), Fraction(1, 7))], Fraction(7, 2), 'pow', 2,
     ((-48, -24, -12, 0, 12, 24), (Fraction(4, 25), Fraction(-12, 5), Fraction(-4, 35), 9, Fraction(6, 7), Fraction(1, 49)), 60)),
    ([(-1, Fraction(-2, 5)), (0, 3), (Fraction(1, 2), Fraction(1, 7))], Fraction(7, 2), 'pow', 3,
     ((-72, -48, -36, -24, -12, 0, 12, 24), (Fraction(-8, 125), Fraction(36, 25), Fraction(12, 175), Fraction(-54, 5), Fraction(-36, 35), Fraction(6609, 245), Fraction(27, 7), Fraction(9, 49)), 36)),
    ([(Fraction(1, 3), 2), (Fraction(7, 12), -1), (Fraction(13, 12), 3)], 5, 'pow', -3,
     ((-24, -18, -12, -6, 0, 6, 12, 18, 24, 30, 36, 42, 48, 54, 60, 66, 72, 78, 84), (Fraction(1, 8), Fraction(3, 16), Fraction(3, 16), Fraction(-13, 32), Fraction(-129, 128), Fraction(-339, 256), Fraction(43, 128), Fraction(387, 128), Fraction(10989, 2048), Fraction(9991, 4096), Fraction(-23727, 4096), Fraction(-129939, 8192), Fraction(-483029, 32768), Fraction(274929, 65536), Fraction(596157, 16384), Fraction(3380011, 65536), Fraction(10673721, 524288), Fraction(-65500821, 1048576), Fraction(-144549697, 1048576)), 88)),
    ([(Fraction(1, 3), 2), (Fraction(7, 12), -1), (Fraction(13, 12), 3)], 5, 'pow', -1,
     ((-8, -2, 4, 10, 16, 22, 28, 34, 40, 46, 52, 58, 64, 70, 76, 82, 88, 94, 100), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(-11, 16), Fraction(-23, 32), Fraction(-35, 64), Fraction(97, 128), Fraction(373, 256), Fraction(793, 512), Fraction(-371, 1024), Fraction(-4847, 2048), Fraction(-14363, 4096), Fraction(-9911, 8192), Fraction(48253, 16384), Fraction(220609, 32768), Fraction(339541, 65536), Fraction(-239495, 131072), Fraction(-2886803, 262144), Fraction(-6961295, 524288)), 104)),
    ([(Fraction(1, 3), 2), (Fraction(7, 12), -1), (Fraction(13, 12), 3)], 5, 'pow', 2,
     ((16, 22, 28, 34, 40, 52), (4, -4, 1, 12, -6, 9), 128)),
    ([(Fraction(1, 2), 1), (1, Fraction(1, 3)), (Fraction(5, 2), -2)], Fraction(23, 2), 'pow', -3,
     ((-36, -24, -12, 0, 12, 24, 36, 48, 60, 72, 84, 96, 108, 120, 132, 144, 156, 168, 180, 192, 204, 216), (1, -1, Fraction(2, 3), Fraction(-10, 27), Fraction(167, 27), Fraction(-655, 81), Fraction(4888, 729), Fraction(-1084, 243), Fraction(19391, 729), Fraction(-814591, 19683), Fraction(800950, 19683), Fraction(-1856546, 59049), Fraction(53618041, 531441), Fraction(-91679723, 531441), Fraction(308675812, 1594323), Fraction(-2432995840, 14348907), Fraction(1751811587, 4782969), Fraction(-9238355659, 14348907), Fraction(309073976614, 387420489), Fraction(-300569777422, 387420489), Fraction(1522559358959, 1162261467), Fraction(-23603464273429, 10460353203)), 228)),
    ([(Fraction(1, 2), 1), (1, Fraction(1, 3)), (Fraction(5, 2), -2)], Fraction(23, 2), 'pow', -1,
     ((-12, 0, 12, 24, 36, 48, 60, 72, 84, 96, 108, 120, 132, 144, 156, 168, 180, 192, 204, 216, 228, 240), (1, Fraction(-1, 3), Fraction(1, 9), Fraction(-1, 27), Fraction(163, 81), Fraction(-325, 243), Fraction(487, 729), Fraction(-649, 2187), Fraction(27055, 6561), Fraction(-79705, 19683), Fraction(158599, 59049), Fraction(-263737, 177147), Fraction(4646647, 531441), Fraction(-17558857, 1594323), Fraction(43251895, 4782969), Fraction(-85977289, 14348907), Fraction(838734103, 43046721), Fraction(-3683268937, 129140163), Fraction(10690075927, 387420489), Fraction(-24618396745, 1162261467), Fraction(160493321431, 3486784401), Fraction(-757182889225, 10460353203)), 252)),
    ([(Fraction(1, 2), 1), (1, Fraction(1, 3)), (Fraction(5, 2), -2)], Fraction(23, 2), 'pow', 2,
     ((24, 36, 48, 72, 84, 120), (1, Fraction(2, 3), Fraction(1, 9), -4, Fraction(-4, 3), 4), 288)),
    ([(0, 1), (1, 1)], None, 'pow', 3,
     ((0, 24, 48, 72), (1, 3, 3, 1), None)),
    ([(0, 2), (Fraction(1, 2), -3), (2, 1)], None, 'pow', 3,
     ((0, 12, 24, 36, 48, 60, 72, 96, 108, 144), (8, -36, 54, -27, 12, -36, 27, 6, -9, 1), None)),
    ([(Fraction(1, 24), 1), (Fraction(25, 24), 1)], None, 'pow', 3,
     ((3, 27, 51, 75), (1, 3, 3, 1), None)),
    ([(-2, Fraction(1, 3)), (1, -1), (3, 4)], None, 'pow', 3,
     ((-144, -72, -24, 0, 48, 72, 96, 120, 168, 216), (Fraction(1, 27), Fraction(-1, 3), Fraction(4, 3), 1, -8, -1, 16, 12, -48, 64), None)),
    ([(0, 1), (1, 1)], None, 'pow', 5,
     ((0, 24, 48, 72, 96, 120), (1, 5, 10, 10, 5, 1), None)),
    ([(Fraction(1, 24), 1), (Fraction(25, 24), -1), (Fraction(49, 24), -1), (Fraction(121, 24), 1), (Fraction(169, 24), 1)], 8, 'pow', -3,
     ((-3, 21, 45, 69, 93, 117, 141, 165), (1, 3, 9, 22, 51, 108, 221, 429), 188)),
    ([(Fraction(1, 24), 1), (Fraction(25, 24), -1), (Fraction(49, 24), -1), (Fraction(121, 24), 1), (Fraction(169, 24), 1)], 8, 'pow', -1,
     ((-1, 23, 47, 71, 95, 119, 143, 167), (1, 1, 2, 3, 5, 7, 11, 15), 190)),
    ([(Fraction(1, 24), 1), (Fraction(25, 24), -1), (Fraction(49, 24), -1), (Fraction(121, 24), 1), (Fraction(169, 24), 1)], 8, 'pow', 4,
     ((4, 28, 52, 76, 100, 124, 148, 172), (1, -4, 2, 8, -5, -4, -10, 8), 195)),
    ([(0, 1), (2, -1), (4, -1), (10, 1), (14, 1)], 15, 'pow', -3,
     ((0, 48, 96, 144, 192, 240, 288, 336), (1, 3, 9, 22, 51, 108, 221, 429), 360)),
    ([(0, 1), (2, -1), (4, -1), (10, 1), (14, 1)], 15, 'pow', -1,
     ((0, 48, 96, 144, 192, 240, 288, 336), (1, 1, 2, 3, 5, 7, 11, 15), 360)),
    ([(0, 1), (2, -1), (4, -1), (10, 1), (14, 1)], 15, 'pow', 4,
     ((0, 48, 96, 144, 192, 240, 288, 336), (1, -4, 2, 8, -5, -4, -10, 8), 360)),
    ([(2, 1), (3, 1), (4, -2)], 9, 'pow', -3,
     ((-144, -120, -96, -72, -48, -24, 0), (1, -3, 12, -34, 99, -261, 678), 24)),
    ([(2, 1), (3, 1), (4, -2)], 9, 'pow', -1,
     ((-48, -24, 0, 24, 48, 72, 96), (1, -1, 3, -5, 11, -21, 43), 120)),
    ([(2, 1), (3, 1), (4, -2)], 9, 'pow', 4,
     ((192, 216, 240, 264, 288, 312, 336), (1, 4, -2, -20, 1, 40, -8), 360)),
    ([(-1, 1), (0, 2), (2, -1)], 4, 'pow', -3,
     ((72, 96, 120, 144, 168), (1, -6, 24, -77, 216), 192)),
    ([(-1, 1), (0, 2), (2, -1)], 4, 'pow', -1,
     ((24, 48, 72, 96, 120), (1, -2, 4, -7, 12), 144)),
    ([(-1, 1), (0, 2), (2, -1)], 4, 'pow', 4,
     ((-96, -72, -48, -24, 0), (1, 8, 24, 28, -8), 24)),
    ([(1, 4)], 6, 'pow', -2,
     ((-48,), (Fraction(1, 16),), 72)),
    ([(1, 4)], 6, 'pow', 3,
     ((72,), (64,), 192)),
    ([(Fraction(5, 24), 3)], None, 'pow', -2,
     ((-10,), (Fraction(1, 9),), None)),
    ([(Fraction(5, 24), 3)], None, 'pow', 3,
     ((15,), (27,), None)),
    ([(-1, Fraction(2, 3))], None, 'pow', -2,
     ((48,), (Fraction(9, 4),), None)),
    ([(-1, Fraction(2, 3))], None, 'pow', 3,
     ((-72,), (Fraction(8, 27),), None)),
    ([(0, Fraction(3, 2)), (1, Fraction(-1, 3)), (2, 5), (4, Fraction(7, 4))], 9, 'pow', 0,
     ((0,), (1,), None)),
    ([(0, Fraction(3, 2)), (1, Fraction(-1, 3)), (2, 5), (4, Fraction(7, 4))], 9, 'pow', 1,
     ((0, 24, 48, 96), (Fraction(3, 2), Fraction(-1, 3), 5, Fraction(7, 4)), 216)),
    ([(Fraction(1, 24), 1), (Fraction(25, 24), -1), (Fraction(49, 24), -1), (Fraction(121, 24), 1), (Fraction(169, 24), 1)], 8, 'pow', 0,
     ((0,), (1,), None)),
    ([(Fraction(1, 24), 1), (Fraction(25, 24), -1), (Fraction(49, 24), -1), (Fraction(121, 24), 1), (Fraction(169, 24), 1)], 8, 'pow', 1,
     ((1, 25, 49, 121, 169), (1, -1, -1, 1, 1), 192)),
    ([(Fraction(5, 24), 3)], None, 'pow', 0,
     ((0,), (1,), None)),
    ([(Fraction(5, 24), 3)], None, 'pow', 1,
     ((5,), (3,), None)),
    ([], 5, 'pow', 0,
     ((0,), (1,), None)),
    ([], 5, 'pow', 1,
     ((), (), 120)),
    ([(0, 1)], 5, 'pow', -3,
     ((0,), (1,), 120)),
    ([], 5, 'pow', -1,
     'ZeroSeriesError: cannot invert a series that is zero up to its truncation'),
    ([], None, 'pow', -2,
     'ZeroSeriesError: cannot invert a series that is zero up to its truncation'),
    ([], 5, 'pow', 3,
     ((), (), 360)),
    ([(0, 1), (1, 1)], None, 'pow', -1,
     'ValueError: cannot invert an exact polynomial without a truncation; apply .truncated(depth) first or call invert(depth)'),
    ([(0, 2), (Fraction(1, 2), -3), (2, 1)], None, 'pow', -2,
     'ValueError: cannot invert an exact polynomial without a truncation; apply .truncated(depth) first or call invert(depth)'),
    ([(2, 1), (3, 1), (4, -2)], 9, 'invert', -3,
     ((), (), -72)),
    ([(2, 1), (3, 1), (4, -2)], 9, 'invert', -2,
     ((), (), -48)),
    ([(2, 1), (3, 1), (4, -2)], 9, 'invert', 1,
     ((-48, -24, 0), (1, -1, 3), 24)),
    ([(2, 1), (3, 1), (4, -2)], 9, 'invert', 3,
     ((-48, -24, 0, 24, 48), (1, -1, 3, -5, 11), 72)),
    ([(2, 1), (3, 1), (4, -2)], 9, 'invert', 5,
     ((-48, -24, 0, 24, 48, 72, 96), (1, -1, 3, -5, 11, -21, 43), 120)),
    ([(2, 1), (3, 1), (4, -2)], 9, 'invert', 8,
     ((-48, -24, 0, 24, 48, 72, 96), (1, -1, 3, -5, 11, -21, 43), 120)),
    ([(-1, 1), (0, 2), (2, -1)], 4, 'invert', 1,
     ((), (), 24)),
    ([(-1, 1), (0, 2), (2, -1)], 4, 'invert', 2,
     ((24,), (1,), 48)),
    ([(-1, 1), (0, 2), (2, -1)], 4, 'invert', 6,
     ((24, 48, 72, 96, 120), (1, -2, 4, -7, 12), 144)),
    ([(-1, 1), (0, 2), (2, -1)], 4, 'invert', 10,
     ((24, 48, 72, 96, 120), (1, -2, 4, -7, 12), 144)),
    ([(0, Fraction(3, 2)), (1, Fraction(-1, 3)), (2, 5), (4, Fraction(7, 4))], 9, 'invert', Fraction(1, 2),
     ((0,), (Fraction(2, 3),), 12)),
    ([(0, Fraction(3, 2)), (1, Fraction(-1, 3)), (2, 5), (4, Fraction(7, 4))], 9, 'invert', 9,
     ((0, 24, 48, 72, 96, 120, 144, 168, 192), (Fraction(2, 3), Fraction(4, 27), Fraction(-532, 243), Fraction(-2144, 2187), Fraction(124043, 19683), Fraction(796348, 177147), Fraction(-27826720, 1594323), Fraction(-254256152, 14348907), Fraction(12110429905, 258280326)), 216)),
    ([(0, Fraction(3, 2)), (1, Fraction(-1, 3)), (2, 5), (4, Fraction(7, 4))], 9, 'invert', 20,
     ((0, 24, 48, 72, 96, 120, 144, 168, 192), (Fraction(2, 3), Fraction(4, 27), Fraction(-532, 243), Fraction(-2144, 2187), Fraction(124043, 19683), Fraction(796348, 177147), Fraction(-27826720, 1594323), Fraction(-254256152, 14348907), Fraction(12110429905, 258280326)), 216)),
    ([(Fraction(1, 3), 2), (Fraction(7, 12), -1), (Fraction(13, 12), 3)], 5, 'invert', 3,
     ((-8, -2, 4, 10, 16, 22, 28, 34, 40, 46, 52, 58, 64, 70), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(-11, 16), Fraction(-23, 32), Fraction(-35, 64), Fraction(97, 128), Fraction(373, 256), Fraction(793, 512), Fraction(-371, 1024), Fraction(-4847, 2048), Fraction(-14363, 4096), Fraction(-9911, 8192), Fraction(48253, 16384)), 72)),
    ([(0, 2), (Fraction(1, 2), -3), (2, 1)], None, 'invert', 4,
     ((0, 12, 24, 36, 48, 60, 72, 84), (Fraction(1, 2), Fraction(3, 4), Fraction(9, 8), Fraction(27, 16), Fraction(73, 32), Fraction(195, 64), Fraction(513, 128), Fraction(1323, 256)), 96)),
    ([(-2, Fraction(1, 3)), (1, -1), (3, 4)], None, 'invert', 3,
     ((48,), (3,), 72)),
    ([(-1, Fraction(2, 3))], None, 'invert', 5,
     ((24,), (Fraction(3, 2),), None)),
    ([(0, 1)], 5, 'invert', 2,
     ((0,), (1,), 48)),
    ([], 5, 'invert', 4,
     'ZeroSeriesError: cannot invert a series that is zero up to its truncation'),
]


def _outcome(terms, trunc, op, arg):
    s = QSeries(terms, trunc=trunc)
    try:
        r = s ** arg if op == "pow" else s.invert(arg)
    except (ZeroSeriesError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return (r._e, r._c, r._t)


@pytest.mark.parametrize("terms,trunc,op,arg,expected", CASES)
def test_pow_and_invert_golden(terms, trunc, op, arg, expected):
    got = _outcome(terms, trunc, op, arg)
    assert got == expected
    if not isinstance(expected, str):
        assert [type(c) for c in got[1]] == [type(c) for c in expected[1]]
