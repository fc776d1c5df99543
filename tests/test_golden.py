"""Byte-exact golden outputs of the CLI: certificates and order tables.

Every ``--json`` certificate and ``orders`` table below is compared byte for
byte with a file under ``tests/golden/``.  A change to the prover that moves
a single byte of a verdict, a bound or a table fails here.  The level-2520
files (64 cusps) are the ones where several cusps share a denominator, so
they pin the sharing of one order value among a denominator's cusps.
"""

from pathlib import Path

import pytest

from etaprover import parse_program, prove_identity
from etaprover.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
RAMANUJAN = REPO / "identities" / "ramanujan_pq.eta"
U5FILE = REPO / "identities" / "u5_level20.eta"


def _refuted_copy(tmp_path):
    bad = tmp_path / "pq_refuted.eta"
    bad.write_text(RAMANUJAN.read_text().replace("+ 9/", "+ 10/"))
    return bad


def _u5_refuted_copy(tmp_path):
    bad = tmp_path / "u5_refuted.eta"
    bad.write_text(U5FILE.read_text().replace("5*[10,", "4*[10,"))
    return bad


# golden file -> (exit code, identity file, argv after the file)
CERTIFICATES = {
    "prove_pq_level6.json":
        (0, lambda tmp: RAMANUJAN, ["prove", "--level", "6", "--yes"]),
    "prove_pq_bound_only.json":
        (0, lambda tmp: RAMANUJAN, ["prove", "--level", "6"]),
    "prove_pq_refuted.json":
        (1, _refuted_copy, ["prove", "--level", "6", "--yes"]),
    "prove_pq_level5.json":
        (2, lambda tmp: RAMANUJAN, ["prove", "--level", "5", "--yes"]),
    "prove_up_u5_level20.json":
        (0, lambda tmp: U5FILE, ["prove-up", "--level", "20", "--yes"]),
    "prove_up_u5_level20_refuted.json":
        (1, _u5_refuted_copy, ["prove-up", "--level", "20", "--yes"]),
    "prove_up_u5_bound_only.json":
        (0, lambda tmp: U5FILE, ["prove-up", "--level", "20"]),
    "prove_pq_level2520_bound_only.json":
        (0, lambda tmp: RAMANUJAN, ["prove", "--level", "2520"]),
    "prove_up_u5_level2520_bound_only.json":
        (0, lambda tmp: U5FILE, ["prove-up", "--level", "2520"]),
}

# golden file -> argv of an ``orders`` call whose stdout is recorded
ORDER_TABLES = {
    "orders_product_level20.txt":
        ["orders", "[20,-3,10,5,5,-2,4,15,2,-25,1,10]", "20"],
    "orders_pq_level6.txt":
        ["orders", RAMANUJAN.read_text(), "6"],
    "orders_pq_level2520.txt":
        ["orders", RAMANUJAN.read_text(), "2520"],
}


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_certificate_bytes(name, tmp_path, capsys):
    code, source, argv = CERTIFICATES[name]
    cert = tmp_path / "cert.json"
    argv = [argv[0], str(source(tmp_path))] + argv[1:] + ["--json", str(cert)]
    assert main(argv) == code
    capsys.readouterr()
    assert cert.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(ORDER_TABLES))
def test_orders_stdout_bytes(name, capsys):
    assert main(ORDER_TABLES[name]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


def test_library_certificate_matches_cli():
    text = RAMANUJAN.read_text()
    report = prove_identity(parse_program(text).combo, 6)
    cert = report.to_json("prove", text, 10)
    assert cert.encode("utf-8") == (GOLDEN / "prove_pq_level6.json").read_bytes()
