"""Command-line interface: exit codes, output shapes, certificates."""

import contextlib
import io
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from etaprover import cli
from etaprover.cli import main

REPO = Path(__file__).resolve().parent.parent
RAMANUJAN = REPO / "identities" / "ramanujan_pq.eta"
U5FILE = REPO / "identities" / "u5_level20.eta"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- prove ----------------------------------------------------------------------


def test_prove_entry31(capsys):
    code, out, _ = run(capsys, "prove", str(RAMANUJAN), "--level", "6", "--yes")
    assert code == 0
    assert "B = -2" in out
    assert "verify through q^2" in out
    assert "verdict: PROVED" in out


def test_prove_without_yes_is_bound_only(capsys):
    code, out, _ = run(capsys, "prove", str(RAMANUJAN), "--level", "6")
    assert code == 0
    assert "B = -2" in out
    assert "NOT-VERIFIED (bound only)" in out


def test_prove_quiet(capsys):
    code, out, _ = run(capsys, "prove", str(RAMANUJAN), "--level", "6",
                       "--yes", "--quiet")
    assert code == 0
    assert out.strip() == "verdict: PROVED"


def test_prove_corrupted_identity_refuted(tmp_path, capsys):
    bad = tmp_path / "bad.eta"
    bad.write_text(RAMANUJAN.read_text().replace("+ 9/", "+ 8/"))
    code, out, _ = run(capsys, "prove", str(bad), "--level", "6", "--yes")
    assert code == 1
    assert "verdict: REFUTED" in out
    assert "nonzero coefficient" in out


def test_prove_not_applicable(tmp_path, capsys):
    f = tmp_path / "na.eta"
    f.write_text("1 + [1,2,2,-1,10,1,5,-2]\n")
    code, out, _ = run(capsys, "prove", str(f), "--level", "10", "--yes")
    assert code == 2
    assert "NOT-APPLICABLE" in out


def test_prove_parse_error(tmp_path, capsys):
    f = tmp_path / "broken.eta"
    f.write_text("let = ;\n")
    code, _, err = run(capsys, "prove", str(f), "--level", "6", "--yes")
    assert code == 3
    assert "error" in err


def test_prove_missing_file(capsys):
    code, _, err = run(capsys, "prove", "/nonexistent.eta", "--level", "6")
    assert code == 3


def test_prove_on_up_file_is_usage_error(capsys):
    code, out, err = run(capsys, "prove", str(U5FILE), "--level", "20", "--yes")
    assert (code, out) == (3, "")
    assert err == "error: this file holds a U_p identity; use prove-up\n"


def test_prove_json_certificate_reproducible(tmp_path, capsys):
    c1 = tmp_path / "a.json"
    c2 = tmp_path / "b.json"
    for path in (c1, c2):
        code, _, _ = run(capsys, "prove", str(RAMANUJAN), "--level", "6",
                         "--yes", "--json", str(path))
        assert code == 0
    assert c1.read_bytes() == c2.read_bytes()
    cert = json.loads(c1.read_text())
    assert cert["verdict"] == "proved"
    assert cert["B"] == "-2"
    assert cert["required_depth"] == 2
    assert cert["level"] == 6
    assert cert["ord_rows"] == [["-1", "-1", "1"], ["-1", "0", "1"],
                                ["0", "-1", "0"]]
    assert cert["column_minima"] == ["-1", "-1", "0"]
    assert "input" in cert and "tool" in cert


# -- prove-up --------------------------------------------------------------------


def test_prove_up_fixture(capsys):
    code, out, _ = run(capsys, "prove-up", str(U5FILE), "--level", "20", "--yes")
    assert code == 0
    assert "B = -18/5" in out
    assert "verify through q^3" in out
    assert "verdict: PROVED" in out


def test_prove_up_wrong_level_not_applicable(capsys):
    code, _, err = run(capsys, "prove-up", str(U5FILE), "--level", "12", "--yes")
    assert code == 2
    assert "not applicable" in err


def test_prove_up_perturbed_refuted(tmp_path, capsys):
    bad = tmp_path / "bad_up.eta"
    bad.write_text(U5FILE.read_text().replace("= 5*", "= 4*"))
    code, out, _ = run(capsys, "prove-up", str(bad), "--level", "20", "--yes")
    assert code == 1
    assert "verdict: REFUTED" in out


def test_prove_up_on_linear_file_is_usage_error(capsys):
    code, out, err = run(capsys, "prove-up", str(RAMANUJAN), "--level", "6")
    assert (code, out) == (3, "")
    assert err == "error: this file holds a linear identity; use prove\n"


def test_prove_up_json(tmp_path, capsys):
    cert_path = tmp_path / "up.json"
    code, _, _ = run(capsys, "prove-up", str(U5FILE), "--level", "20",
                     "--yes", "--json", str(cert_path))
    assert code == 0
    cert = json.loads(cert_path.read_text())
    assert cert["B"] == "-18/5"
    assert cert["up_p"] == 5
    assert cert["up_bounds"] == ["0", "-2", "-2", "-1/5", "3/5"]


# -- tools ------------------------------------------------------------------------


def test_cusps_level_40(capsys):
    code, out, _ = run(capsys, "cusps", "40")
    assert code == 0
    assert out.strip() == "0 1/2 1/4 1/5 1/8 1/10 1/20 1/40"


def test_expand_no_prefactor(capsys):
    code, out, _ = run(capsys, "expand", "[2,2,1,-1]", "--depth", "10",
                       "--no-prefactor")
    assert code == 0
    assert out.strip() == "1 + q + q^3 + q^6 + O(q^10)"


def test_expand_with_prefactor(capsys):
    code, out, _ = run(capsys, "expand", "[2,2,1,-1]", "--depth", "2")
    assert code == 0
    assert out.strip() == "q^(1/8) + q^(9/8) + O(q^2)"


def test_factor_command(capsys):
    code, out, _ = run(capsys, "factor", "eta(5)^6/eta(1)^6", "--depth", "60")
    assert code == 0
    assert "[5,6,1,-6]" in out
    assert "eta(5)^6/eta(1)^6" in out


def test_factor_rejects_non_eta_product(capsys):
    code, _, err = run(capsys, "factor", "eta(1) + eta(2)", "--depth", "40")
    assert code == 2
    assert "not an eta-product" in err


def test_check_verbose(capsys):
    code, out, _ = run(capsys, "check", "[1,2,2,-1,10,1,5,-2]", "10",
                       "--verbose")
    assert code == 2
    assert "condition 3" in out and "fails" in out
    assert out.count("holds") == 3
    assert out.count("fails") == 2
    assert "no" in out.splitlines()[-1]


def test_check_invariant(capsys):
    code, out, _ = run(capsys, "check", "[1,4,2,-2,10,2,5,-4]", "10")
    assert code == 0
    assert "yes" in out


def test_formcheck(capsys):
    code, out, _ = run(capsys, "formcheck", "[1,4,2,4,4,-3,10,2,20,-1]", "40")
    assert code == 0
    assert "weight: 3" in out
    assert "kronecker(-20, .)" in out
    assert "-2048000" in out


def test_formcheck_rejects(capsys):
    code, _, err = run(capsys, "formcheck", "[3,1]", "2")
    assert code == 2


def test_formcheck_prints_nothing_before_an_error(capsys):
    # the raw character 2^2400000 passes Python's int-to-str digit limit
    code, out, err = run(capsys, "formcheck", "[2,2400000,1,-2400000]", "2")
    assert code == 3
    assert out == ""
    assert err.count("error:") == 1 and err.startswith("error:")


def test_formcheck_refuses_a_character_it_cannot_print(capsys, monkeypatch):
    # 2^14280 has 4299 digits and prints; 2^14304 has 4306, past Python's
    # default limit of 4300, and is refused before it is computed
    code, out, _ = run(capsys, "formcheck", "[2,14280,1,-14280]", "2")
    assert code == 0
    assert out.splitlines()[2].endswith(f"(raw {2 ** 14280})")
    assert len(str(2 ** 14280)) == 4299
    monkeypatch.setattr(cli, "modular_form_check", None)  # fails if called
    code, out, err = run(capsys, "formcheck", "[2,14304,1,-14304]", "2")
    assert (code, out) == (3, "")
    assert err == ("error: the raw character has about 4306 digits, past "
                   "Python's limit of 4300 for printing\n")


def test_orders_single_product(capsys):
    code, out, _ = run(capsys, "orders",
                       "[20,-3,10,5,5,-2,4,15,2,-25,1,10]", "20")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("|")[0].strip() == "cusp"
    assert [c.strip() for c in lines[2].split("|")] == ["0", "1", "0"]
    assert [c.strip() for c in lines[3].split("|")] == ["1/2", "-5", "-5"]


def test_orders_identity_table(capsys):
    code, out, _ = run(capsys, "orders", RAMANUJAN.read_text(), "6")
    assert code == 0
    assert "B = -2" in out


@pytest.mark.parametrize("expr", ["2*[5,6,1,-6]", "(-3/2)*[5,6,1,-6]",
                                  "[5,6,1,-6]/7"])
def test_orders_of_scaled_product_is_the_product_table(expr, capsys):
    # a scalar does not change orders
    expected = run(capsys, "orders", "[5,6,1,-6]", "5")
    assert expected[0] == 0 and "-1" in expected[1]
    assert run(capsys, "orders", expr, "5") == expected


@pytest.mark.parametrize("expr", ["3", "0", "[5,6,1,-6] - [5,6,1,-6]"])
def test_orders_without_eta_product_term_is_usage_error(expr, capsys):
    code, out, err = run(capsys, "orders", expr, "5")
    assert code == 3
    assert out == ""
    assert err == "error: orders needs an eta-product term\n"


JACOBI_TABLE = ("cusp | ORD(f_1) | ORD(f_2) | lower bound\n"
                "-----+----------+----------+------------\n"
                "   0 |        1 |        0 |           0\n"
                " 1/2 |       -1 |       -1 |          -1\n")


@pytest.mark.parametrize("argv, expected", [
    (["orders", "[1,-1]+1", "5"],
     (2, "", "not every term is a modular function on Gamma0(5): "
             "term 1 = [1,-1] fails condition(s) 1,2,5\n")),
    (["prove", "JACOBI", "--level", "4", "--yes"],
     (0, "level: 4\n"
         "f_1 = [4,8,2,-24,1,16]   (coefficient -1)\n"
         "f_2 = [4,16,2,-24,1,8]   (coefficient -16)\n"
         "note: the identity carries a constant term\n" + JACOBI_TABLE +
         "B = -1\nverify through q^1\n"
         "all coefficients through q^10 vanish\nverdict: PROVED\n", "")),
    (["formcheck", "[4,-2,2,5,1,-2]", "4"],
     (0, "level: 4\nweight: 1/2\ncharacter: kronecker(8, .)   (raw 512)\n"
         "note: half-integral weight\n", "")),
])
def test_rarely_printed_branches_byte_for_byte(argv, expected, tmp_path, capsys):
    # the not-applicable reason of `orders`, the constant-term note and the
    # half-integral weight note, pinned byte for byte
    jacobi = tmp_path / "jacobi.eta"
    jacobi.write_text("[4,8,2,-24,1,16] + 16*[4,16,2,-24,1,8] - 1\n")
    argv = [str(jacobi) if a == "JACOBI" else a for a in argv]
    assert run(capsys, *argv) == expected


@pytest.mark.parametrize("what, argv", [
    ("check", ["check", "1", "6"]),
    ("check", ["check", "2*[1,4,2,-2,10,2,5,-4] + 1", "20"]),
    ("formcheck", ["formcheck", "[1,1] + [2,1]", "6"]),
    ("--no-prefactor", ["expand", "3*eta(1)", "--no-prefactor"]),
])
def test_non_product_error_has_no_invented_position(what, argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == f"error: {what} needs a plain eta-product expression\n"


@pytest.mark.parametrize("level", ["0", "-4"])
@pytest.mark.parametrize("argv", [
    ["cusps", "{level}"],
    ["check", "[1,4,2,-2,10,2,5,-4]", "{level}"],
    ["orders", "[1,4,2,-2,10,2,5,-4]", "{level}"],
    ["formcheck", "[1,4,2,-2,10,2,5,-4]", "{level}"],
    ["prove", str(RAMANUJAN), "--level", "{level}", "--yes"],
    ["prove-up", str(U5FILE), "--level", "{level}", "--yes"],
])
def test_nonpositive_level_is_usage_error(argv, level, capsys):
    code, _, err = run(capsys, *(a.format(level=level) for a in argv))
    assert code == 3
    assert "positive integer" in err


@pytest.mark.parametrize("value", ["0", "-5", "x"])
@pytest.mark.parametrize("argv", [
    ["prove", str(RAMANUJAN), "--level", "6", "--margin", "{value}", "--yes",
     "--json", "{cert}"],
    ["prove-up", str(U5FILE), "--level", "20", "--margin", "{value}", "--yes",
     "--json", "{cert}"],
    ["expand", "[1,1]", "--depth", "{value}"],
    ["factor", "[1,1]", "--depth", "{value}"],
])
def test_nonpositive_margin_and_depth_are_usage_errors(argv, value, tmp_path,
                                                       capsys):
    cert = tmp_path / "cert.json"
    code, out, err = run(capsys, *(a.format(value=value, cert=cert)
                                   for a in argv))
    assert code == 3
    assert "positive integer" in err
    assert out == ""
    assert not cert.exists()


_PAST_INDEX_SIZE = "1000000000000000000000"  # > 2^63
_TWO_63, _TWO_63_LESS_1 = "9223372036854775808", "9223372036854775807"


@pytest.mark.parametrize("argv", [
    ["expand", "[1,1]", "--depth", _PAST_INDEX_SIZE],
    ["factor", "[1,1]", "--depth", _PAST_INDEX_SIZE],
    ["prove", str(RAMANUJAN), "--level", "6", "--yes", "--margin",
     _PAST_INDEX_SIZE],
    ["prove-up", str(U5FILE), "--level", "20", "--yes", "--margin",
     _PAST_INDEX_SIZE],
    ["expand", "[1,1]", "--depth", _TWO_63],
    ["factor", "[1,1]", "--depth", _TWO_63_LESS_1],
    ["factor", "1", "--depth", _TWO_63_LESS_1],
    ["prove", str(RAMANUJAN), "--level", "6", "--yes", "--margin",
     _TWO_63_LESS_1],
], ids=["expand", "factor", "prove", "prove-up", "expand-2^63",
        "factor-2^63-1", "factor-constant-2^63-1", "prove-2^63-1"])
def test_depth_or_margin_past_the_index_size_is_a_usage_error(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_flags_only_where_read(tmp_path, capsys):
    cert = tmp_path / "expand.json"
    code, _, _ = run(capsys, "expand", "[1,1]", "--json", str(cert))
    assert code == 3
    assert not cert.exists()


def test_usage_error_exit_code(capsys):
    assert main(["prove"]) == 3
    capsys.readouterr()
    assert main(["no-such-command"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["prove", "{latin1}", "--level", "6", "--yes"],
    ["expand", "eta(" + "1" * 5000 + ")"],
    ["expand", "eta(\u00b2)"],
    ["expand", "(" * 5000 + "1" + ")" * 5000],
    ["prove", "{nested}", "--level", "6", "--yes"],
    ["formcheck", "[2,240000000000,1,-240000000000]", "2"],
    ["formcheck", "[3,67108848,1,-67108848]", "3"],
    ["formcheck", "[3,42000000,1,-42000000]", "3"],
    ["formcheck", "[2,14304,1,-14304]", "2"],
    ["cusps", str(9699690 ** 2)],
    ["prove", str(RAMANUJAN), "--level", str(9699690 ** 2), "--yes"],
    ["expand", "(eta(1)+eta(2)+eta(3)+eta(4))^40", "--depth", "5"],
    ["expand", "[1,6000000000,2,-3000000000]", "--depth", "10"],
], ids=["non-utf8-file", "5000-digit-literal", "superscript-digit",
        "5000-parentheses", "5000-parentheses-in-let",
        "raw-character-of-2.4e11-bits", "raw-character-of-3^67108848",
        "raw-character-of-3^42000000", "raw-character-of-4306-digits",
        "34836480-cusp-classes",
        "prove-at-34836480-cusp-classes",
        "938961-term-pairs", "10^9-sweeps"])
def test_rejected_input_is_one_error_line_and_exit_3(argv, tmp_path, capsys):
    latin1 = tmp_path / "latin1.eta"
    latin1.write_bytes("eta(1) - 1  # caf\u00e9\n".encode("latin-1"))
    nested = tmp_path / "nested.eta"
    nested.write_text("let A = " + "(" * 5000 + "1" + ")" * 5000 + ";\nA - 1\n")
    code, out, err = run(capsys, *(a.format(latin1=latin1, nested=nested)
                                   for a in argv))
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# Grammar tokens plus characters that are letters, digits of other scripts or
# neither.  Literals are single digits and texts short, so no case multiplies
# out a large power.
_FUZZ_TOKENS = ["eta", "let", "U", "A", "B", "(", ")", "[", "]", ",", ";", "=",
                "+", "-", "*", "/", "^", "#", "\n", "0", "1", "2", "3", "5",
                "9", "\u00b2", "\u0663", "\u00bd", "\u00e9", "\u00a0", "."]


@settings(max_examples=400, deadline=None, database=None)
@given(st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=14))
def test_expand_fuzz_exits_0_2_or_3(tokens):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["expand", " ".join(tokens), "--depth", "3"])
    assert code in (0, 2, 3)
    assert (code == 0) == (err.getvalue() == "")


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "etaprover", "cusps", "6"],
        capture_output=True, text=True, cwd=str(REPO))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0 1/2 1/3 1/6"


# Exit code and argv of each step; "cert.json" is relative to the working
# directory.  Usage errors sit between valid calls, and a prove with --json
# is followed by one without it, which must write no certificate.
_SEQUENCE = [
    (0, ["prove", str(RAMANUJAN), "--level", "6", "--yes", "--json",
         "cert.json"]),
    (0, ["prove", str(RAMANUJAN), "--level", "6", "--yes"]),
    (3, ["no-such-command"]),
    (0, ["prove-up", str(U5FILE), "--level", "20", "--yes", "--json",
         "cert.json"]),
    (0, ["prove", str(RAMANUJAN), "--level", "6", "--quiet"]),
    (3, ["expand", "[1,1]", "--depth", "0"]),
    (0, ["expand", "[2,2,1,-1]", "--depth", "10", "--no-prefactor"]),
    (0, ["expand", "[2,2,1,-1]", "--depth", "2"]),
    (0, ["factor", "eta(5)^6/eta(1)^6", "--quiet"]),
    (0, ["factor", "eta(5)^6/eta(1)^6"]),
    (0, ["cusps", "40"]),
    (3, ["prove", "--level", "6"]),
    (0, ["orders", "[5,6,1,-6]", "5"]),
    (2, ["check", "[1,2,2,-1,10,1,5,-2]", "10", "--verbose"]),
    (0, ["check", "[1,4,2,-2,10,2,5,-4]", "10"]),
    (0, ["formcheck", "[1,4,2,4,4,-3,10,2,20,-1]", "40"]),
    (0, ["--version"]),
    (3, ["prove-up", str(REPO / "no-such-file.eta"), "--level", "20"]),
]


def _take_files(directory: Path) -> dict:
    """The files a step wrote in ``directory``, removed after reading."""
    files = {}
    for path in directory.iterdir():
        files[path.name] = path.read_bytes()
        path.unlink()
    return files


def test_repeated_main_calls_match_fresh_processes(tmp_path, monkeypatch):
    # argparse wraps usage text to the terminal width: fix it for both sides
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    monkeypatch.setenv("COLUMNS", "80")

    def fresh(i):
        cwd = tmp_path / f"fresh{i}"
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "etaprover", *_SEQUENCE[i][1]],
            capture_output=True, text=True, cwd=cwd, env=env)
        return proc.returncode, proc.stdout, proc.stderr, _take_files(cwd)

    with ThreadPoolExecutor(max_workers=2) as pool:
        expected = list(pool.map(fresh, range(len(_SEQUENCE))))

    here = tmp_path / "in-process"
    here.mkdir()
    monkeypatch.chdir(here)
    for (code, argv), want in zip(_SEQUENCE, expected):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = main(list(argv))
        assert (got, out.getvalue(), err.getvalue(), _take_files(here)) == want
        assert got == code, argv
    # the first prove wrote its certificate; the second, without --json, none
    assert [list(w[3]) for w in expected[:2]] == [["cert.json"], []]
