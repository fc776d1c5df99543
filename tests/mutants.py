"""Mutation checks: each row breaks one place in ``src/`` and names the tests
that must then fail.

    python tests/mutants.py        # every mutant
    python tests/mutants.py 3 7    # the mutants numbered 3 and 7

The repository is copied into two temporary directories.  The tests the
rows name (test files or node ids, no other pytest arguments) first run
together in one copy unmutated and must pass.  Then two
mutants run at a time, each applied alone to a copy no other mutant is
using: its tests run with ``python -m pytest -x -q -p no:cacheprovider``,
and the file is restored.  A mutant is killed when its tests fail.  One
line is printed per mutant, in row order; the exit code is 1 when a mutant
survives, when an old text does not occur exactly once in its file, or when
the unmutated tests fail.  Pytest does not collect this file.

A row is (name, file under src/etaprover, old text, new text, tests).
Every change to a fast path adds its rows; a row is only removed together
with the code it breaks.
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2  # mutants tested at a time, each in its own copy

SEED = "tests/test_kernel.py::test_expansions_seed_the_same_factors"
EXPAND = ["tests/test_kernel.py::test_expand_matches_multiply_power_path",
          "tests/test_kernel.py::test_expand_matches_brute_oracle"]
POWER = "tests/test_kernel.py::test_euler_power_matches_brute"
MILLER = "tests/test_kernel.py::test_miller_pow_matches_schoolbook_powers"
# Deterministic tests first: -x stops there, before Hypothesis shrinks a failure.
UP_EXPANSION = ["tests/test_up.py::test_up_expansion_by_sign_of_s",
                "tests/test_up.py::test_up_expansion_slices_one_list",
                "tests/test_up.py::test_up_expansion_matches_definition"]
DIFFERENTIAL = ("tests/test_order_table.py::"
                "test_integer_numerators_equal_ligozat_times_width")
GH_ROW = ("tests/test_order_table.py::"
          "test_integer_gordon_hughes_row_equals_brute_sweep")
UP_ROW = ("tests/test_up.py::"
          "test_up_row_per_denominator_equals_checked_bound_at_every_cusp")
GOLDEN = "tests/test_golden.py::test_certificate_bytes"
ORDERS = "tests/test_golden.py::test_orders_stdout_bytes"
WRITERS = "tests/test_writers.py::test_order_table_with_unshared_cells"
NEWMAN = ("tests/test_modularity.py::"
          "test_conditions_equal_the_fraction_reference")
VANISHING_PERTURBED = ("tests/test_prover.py::"
                       "test_perturbed_identities_fail_where_the_qseries_route_does")
VANISHING = "tests/test_prover.py::test_leading_term_equals_the_qseries_route"
LIMIT = "tests/test_kernel.py::test_the_price_stops_at_the_limit"
PRICE = "tests/test_kernel.py::test_list_price_equals_the_materialized_count"
WIDTH = "tests/test_kernel.py::test_packed_digits_reach_the_width_bound"
PACKED = "tests/test_kernel.py::test_packed_route_matches_the_list_sweeps"
ROUTES = "tests/test_kernel.py::test_sweep_routes_follow_the_cost_model"
FACTOR_SPY = ("tests/test_factorize.py::"
              "test_deep_products_strip_by_product_sweeps_only")
FACTOR_PRICE = ("tests/test_factorize.py::"
                "test_strips_and_division_are_priced_against_the_limit")
COMBO_EXPAND = "tests/test_kernel.py::test_combo_expand_matches_multiply_power_path"
CONFIDENCE = ("tests/test_factorize.py::"
              "test_confidence_is_half_of_what_the_series_knows")
COMMON = ("tests/test_prover.py::"
          "test_common_denominator_leads_as_the_qseries_route")

MUTANTS = [
    # The list builder and its seed choice.
    ("seed the factor with the smallest price", "qseries.py",
     "_, t0, r0 = max([(_route_cost(size, t, r)",
     "_, t0, r0 = min([(_route_cost(size, t, r)", [SEED]),
    ("seed a factor at t = size", "qseries.py",
     "if t < size], default=(0, 0, 0))", "if t <= size], default=(0, 0, 0))",
     [SEED]),
    ("sweep the seeded factor as well", "qseries.py",
     "for t, r in factors if t != t0], (t0, r0))",
     "for t, r in factors], (t0, r0))", EXPAND),
    # The packed route of qseries._sweeps, its width and its route choice.
    ("drop the sign bit from the width", "qseries.py",
     "grow = 1  # the width", "grow = 0  # the width", [WIDTH]),
    ("leave one sweep's l1 norm out of the width", "qseries.py",
     ".bit_length() for s in sweeps])", ".bit_length() for s in sweeps[1:]])",
     [WIDTH]),
    ("unpack without the bias", "qseries.py",
     "data = ((A + biases) & mask)", "data = (A & mask)", [WIDTH, PACKED]),
    ("read a quotient's table entry at stride t + 1", "qseries.py",
     "[[(t * k, c) for k, c in", "[[((t + 1) * k, c) for k, c in", [PACKED]),
    ("invert the packed batch's route choice", "qseries.py",
     "passes) >= saved:", "passes) < saved:", [ROUTES]),
    ("invert a quotient's route choice", "qseries.py",
     "top + grow, passes)) >= plain:", "top + grow, passes)) < plain:",
     [ROUTES]),
    # The list price, and the one enumeration of the sweeps it reads.
    ("price a product's cube without its |c| > 1 weight", "qseries.py",
     "ops = (1 + (r > 0)) * cubes * cube", "ops = cubes * cube", [PRICE]),
    ("count size - e + 1 operations a term", "qseries.py",
     "sum([size - e for e, _ in s])", "sum([size - e + 1 for e, _ in s])",
     [PRICE]),
    ("enumerate Euler's series from q^2", "qseries.py",
     "_pentagonal(limit)[1:]", "_pentagonal(limit)[2:]", [PRICE]),
    # Miller's recurrence, shared by the power table and QSeries powers.
    ("Miller weight n*j - k", "qseries.py",
     "s += (w * j - k) * c * vj", "s += (n * j - k) * c * vj",
     [POWER, "tests/test_pow_golden.py"]),
    ("fill the table from the pentagonal series without q^1", "qseries.py",
     "_miller_pow(_pentagonal(size)[1:], r, size)",
     "_miller_pow(_pentagonal(size)[2:], r, size)", [POWER]),
    ("treat n = -1 as n = 0", "qseries.py",
     "    w = n + 1\n", "    w = n + 1 or 1\n",
     [MILLER, "tests/test_pow_golden.py"]),
    ("floor Fraction powers", "qseries.py",
     "s = s // k if integral else Fraction(s, k)", "s = s // k",
     ["tests/test_pow_golden.py"]),
    # The one allocator of dense lists and its size limit.
    ("accept one list past the limit", "qseries.py",
     "if size > _MAX_SIZE:", "if size > _MAX_SIZE + 1:",
     ["tests/test_kernel.py::test_dense_lists_stop_at_the_size_limit"]),
    # The limit on the price of one expansion, its seed's and its sweeps'.
    ("accept a price one past the limit", "qseries.py",
     "if ns > _MAX_NS:", "if ns > _MAX_NS + 1:", [LIMIT]),
    ("leave the seed's fill unpriced", "qseries.py",
     "_check_price(factors, size, fill)", "_check_price(factors, size)",
     [LIMIT]),
    ("leave the sweeps unpriced, as the U_p side's G", "qseries.py",
     "    _check_price(factors, size, fill)\n", "", [LIMIT]),
    # QSeries internals.
    ("drop the top term of an exact product", "qseries.py",
     "lim = be[-1] + 1 if t is None else t - ea",
     "lim = be[-1] if t is None else t - ea", ["tests/test_qseries.py"]),
    ("stop a truncated product one place early", "qseries.py",
     "lim = be[-1] + 1 if t is None else t - ea",
     "lim = be[-1] + 1 if t is None else t - ea - 24", ["tests/test_qseries.py"]),
    ("construct without the truncation", "qseries.py",
     "s = QSeries._from24(acc, t24)", "s = QSeries._from24(acc, None)",
     ["tests/test_qseries.py"]),
    ("start a list-built series one place late", "qseries.py",
     "range(s24, s24 + 24 * len(a), 24)",
     "range(s24 + 24, s24 + 24 + 24 * len(a), 24)",
     ["tests/test_cli.py::test_expand_no_prefactor",
      "tests/test_qseries.py::test_from_list_matches_dict_constructor"]),
    # The U_p left-hand side, sliced from H's list.
    ("start the slice one place late", "prover.py",
     "[p * n0 - s::p]", "[p * n0 - s + 1::p]", UP_EXPANSION),
    ("slice with stride p - 1", "prover.py",
     "[p * n0 - s::p]", "[p * n0 - s::p - 1]", UP_EXPANSION),
    ("sweep G at t instead of t/p", "prover.py",
     "g = [(t // p, r)", "g = [(t, r)", UP_EXPANSION),
    # The order table and bound B (prover._order_table and its integer helpers).
    ("drop the cusp-count weight in B", "prover.py",
     "bound = Fraction(sum(map(mul, minima, weights)), den)",
     "bound = Fraction(sum(minima), den)",
     [GOLDEN + "[prove_up_u5_level2520_bound_only.json]", DIFFERENTIAL]),
    ("gcd(t, c) unsquared", "cusps.py",
     "gcd(t, c) ** 2 * r", "gcd(t, c) * r",
     [GOLDEN + "[prove_pq_bound_only.json]",
      "tests/test_cusps.py::test_ligozat_order_fixture",
      "tests/test_prover.py::test_entry31_proved", DIFFERENTIAL]),
    ("omit the constant's zero row", "prover.py",
     "matrix.append([0] * finite)", "pass",
     [ORDERS + "[orders_product_level20.txt]",
      "tests/test_cli.py::test_orders_single_product", DIFFERENTIAL]),
    ("swap the Gordon-Hughes 1/p and p cases", "cusps.py",
     "return order(p * d)\n    if v > 0:\n        return p * order(p * d)",
     "return p * order(p * d)\n    if v > 0:\n        return order(p * d)",
     [GH_ROW + "[8-2]", GOLDEN + "[prove_up_u5_bound_only.json]",
      "tests/test_up.py::test_bounds_for_level50_product"]),
    ("keep the infinite class's column", "prover.py",
     "finite = len(dens) - 1", "finite = len(dens)",
     [GOLDEN + "[prove_pq_bound_only.json]", UP_ROW, DIFFERENTIAL]),
    ("drop the cusp-count weight in the totals", "prover.py",
     "total = sum(map(mul, row, weights))", "total = sum(row)",
     [GOLDEN + "[prove_pq_level2520_bound_only.json]",
      "tests/test_prover.py::test_order_rows_equal_per_cusp_orders[72]",
      DIFFERENTIAL]),
    ("key the Ligozat sums by gcd(c, 24)", "prover.py",
     "gs = [gcd(c, m) for c in dens]", "gs = [gcd(c, 24) for c in dens]",
     ["tests/test_up.py::test_u5_identity_proved", DIFFERENTIAL]),
    ("reuse the first term's sums for every term", "prover.py",
     "sums = {g: _ligozat_sum", "sums = rows and sums or {g: _ligozat_sum",
     ["tests/test_prover.py::test_entry31_proved", DIFFERENTIAL]),
    ("leave the U_p product out of m", "prover.py",
     "products = [f for _, f in terms] + ([up[0]] if up else [])",
     "products = [f for _, f in terms]", [GH_ROW + "[8-2]", UP_ROW]),
    ("put the separator line above the header", "prover.py",
     "lines.insert(1, ", "lines.insert(0, ",
     [ORDERS + "[orders_pq_level2520.txt]",
      "tests/test_prover.py::test_entry31_table_layout"]),
    ("keep the Fraction cache across tables", "prover.py",
     "fracs: dict[int, Fraction] = {}",
     'fracs = _order_table.__dict__.setdefault("fracs", {})',
     ["tests/test_prover.py::test_order_rows_equal_per_cusp_orders",
      DIFFERENTIAL]),
    # The certificate writer and the order-table formatter.
    ("swap two adjacent keys in the certificate", "prover.py",
     '            ("level", str(self.level)),\n'
     '            ("margin", str(margin)),\n',
     '            ("margin", str(margin)),\n'
     '            ("level", str(self.level)),\n',
     [GOLDEN + "[prove_pq_bound_only.json]", WRITERS]),
    ("indent the order rows' cells like the outer lists", "prover.py",
     'cells(row, "\\n      ")', 'cells(row, "\\n    ")',
     [GOLDEN + "[prove_pq_bound_only.json]", WRITERS]),
    ("give every cell object the first cell's text", "prover.py",
     "text = {k: fmt(v) for k, v in dict(zip(ids, values)).items()}",
     "text = dict.fromkeys(ids, fmt(values[0]))",
     [ORDERS + "[orders_pq_level2520.txt]", WRITERS]),
    # The cache of cusp sets, and the limit on their number.
    ("hand out the cached cusps without copying", "cusps.py",
     "return list(_cusps(level))", "return _cusps(level)",
     ["tests/test_cusps.py::test_cusp_set_is_cached_per_level_as_a_fresh_list"]),
    ("accept one cusp class past the limit", "cusps.py",
     "if count > _MAX_CUSPS:", "if count > _MAX_CUSPS + 1:",
     ["tests/test_cusps.py::test_cusp_classes_are_counted_before_any_is_built"]),
    # The parts and their sums per class of offset mod 24, which EtaCombo.expand
    # and the provers' vanishing check share (prover._vanishing_parts
    # assembles the proofs' parts, prover._leading_term reads their sum).
    ("leave the rhs parts unnegated", "prover.py",
     "_parts(-combo, 24 * depth)", "_parts(combo, 24 * depth)",
     [VANISHING_PERTURBED, GOLDEN + "[prove_up_u5_level20_refuted.json]"]),
    ("put a part one place late", "etaproducts.py",
     "i, w = (s - low) // 24, k.numerator", "i, w = (s - low) // 24 + 1, k.numerator",
     [COMBO_EXPAND, VANISHING]),
    ("drop the common denominator", "etaproducts.py",
     "den, sums = lcm(*[k.denominator for k, _, _ in parts]), []",
     "den, sums = 1, []", [COMBO_EXPAND, VANISHING]),
    ("start a class's sum at q^0, not at its lowest offset", "etaproducts.py",
     "sums.append((s, [0] *", "sums.append((0, [0] *", [COMBO_EXPAND, VANISHING]),
    ("key the classes by s, not by s mod 24", "etaproducts.py",
     "if not sums or (s - sums[-1][0]) % 24:", "if not sums or s - sums[-1][0]:",
     [COMBO_EXPAND]),
    ("leave the sums over the common denominator", "etaproducts.py",
     "acc if den == 1 else [", "acc if True else [", [COMBO_EXPAND]),
    # The refutation probe.
    ("probe a ninth of the depth", "prover.py",
     "depth // _PROBE_SHARE)", "depth // (_PROBE_SHARE + 1))",
     ["tests/test_prover.py::test_probe_leaves_certificates_byte_identical"]),
    # Newman's conditions in integers, and the form character.
    ("take condition 5 mod 24 only", "modularity.py",
     "% (24 * m) == 0", "% 24 == 0",
     ["tests/test_modularity.py::test_level10_quotient_fails_conditions_3_and_5",
      NEWMAN]),
    ("read condition 2 from the exponent sum", "modularity.py",
     "c2 = ep.degree24 % 24 == 0", "c2 = ep.exponent_sum % 24 == 0",
     ["tests/test_modularity.py::test_form_check_level40_fixture", NEWMAN]),
    ("test squareness on every t", "modularity.py",
     "c3 = is_square(prod([t for t, r in fs if r & 1]))",
     "c3 = is_square(prod([t for t, r in fs]))",
     ["tests/test_modularity.py::test_condition_3_matches_the_full_product"]),
    ("read the character from every t", "modularity.py",
     "odd = prod([t for t, r in fs if r & 1])", "odd = prod([t for t, r in fs])",
     ["tests/test_modularity.py::test_form_character_matches_the_full_product"]),
    ("accept a raw character one bit past the limit", "modularity.py",
     "if bits > _MAX_CHARACTER_BITS:", "if bits > _MAX_CHARACTER_BITS + 1:",
     ["tests/test_modularity.py::test_raw_character_stops_at_the_bit_limit"]),
    ("compare the character's bits, not its digits, with the print limit",
     "cli.py", "digits = _character_bits(product) * log10(2)",
     "digits = _character_bits(product)",
     ["tests/test_cli.py::test_formcheck_refuses_a_character_it_cannot_print"]),
    # The tokenizer, which leaves every error to the parser.
    ("raise in the tokenizer at a bad character", "parser.py",
     '                kind = ch if ch in _PUNCT else "bad"\n',
     "                if ch not in _PUNCT:\n"
     "                    raise ParseError(f'unexpected character {ch!r}',"
     " line, i - start + 1)\n"
     "                kind = ch\n",
     ["tests/test_parser.py::test_leftmost_error_is_reported"]),
    ("report a bad token as 'expected ..., found'", "parser.py",
     'if t.kind == "bad":', "if False:",
     ["tests/test_parse_golden.py"]),  # its eta(1.5) - 1 row
    ("start a line one place after its newline", "parser.py",
     "line, start = line + 1, j", "line, start = line + 1, j + 1",
     ["tests/test_parser.py::test_up_argument_error_points_at_its_first_token"]),
    ("let a name start with a numeral", "parser.py",
     'elif ch.isalpha() or ch == "_":', 'elif ch.isalnum() or ch == "_":',
     ["tests/test_parser.py::test_integer_literals_are_decimal_digits"]),
    # The limit on multiplying combinations out.
    ("accept one term pair past the limit", "etaproducts.py",
     "if pairs > _MAX_TERM_PAIRS:", "if pairs > _MAX_TERM_PAIRS + 1:",
     ["tests/test_etaproducts.py::"
      "test_multiplying_out_stops_at_the_term_pair_limit"]),
    # The factorizer's two lists, its switch to the division and its price.
    ("strip a step with c < 0 from w by a quotient sweep", "etaproducts.py",
     "                elif c > 0:\n                    _sweeps(w, [(n, c)])",
     "                elif True:\n                    _sweeps(w, [(n, c)])",
     [FACTOR_SPY]),
    ("leave D's log-derivative out at the switch", "etaproducts.py",
     "logs = [f for f in factors[:-1] if f[1] > 0]", "logs = []",
     ["tests/test_factorize.py::test_budget_passed_after_some_sweeps"]),
    ("let the strips reach a quarter of the division", "etaproducts.py",
     "spent + price <= _division_cost(size) / 2",
     "spent + price <= _division_cost(size) / 4",
     [FACTOR_SPY]),
    ("leave the division unpriced against the limit", "etaproducts.py",
     "(price if strip else _division_cost(size))", "(price if strip else 0)",
     [FACTOR_PRICE]),
    ("price a strip without the strips before it", "etaproducts.py",
     "spent + (price if strip", "0 + (price if strip", [FACTOR_PRICE]),
    ("trust factors to half the depth asked, past what the series knows",
     "etaproducts.py", "int(u.trunc) // 2", "int(Fraction(depth) - e0) // 2",
     [CONFIDENCE]),
    # The linear proofs' common eta-denominator.
    ("take m_t without the constant's 0", "prover.py",
     "min([row.get(t, 0) for row in rows])",
     "min([row.get(t, 0) for row in rows[bool(combo.constant):]])", [COMMON]),
    ("take m_t over the terms that hold eta(t) only", "prover.py",
     "min([row.get(t, 0) for row in rows])",
     "min([row[t] for row in rows if t in row])", [COMMON]),
]


def _pytest(cwd: Path, args: list) -> int:
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *args], cwd=cwd, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def main(argv: list) -> int:
    rows = [(i, row) for i, row in enumerate(MUTANTS, start=1)
            if not argv or str(i) in argv]
    start = time.perf_counter()
    unmatched = []
    for i, (name, path, old, _, _) in rows:
        count = (ROOT / "src" / "etaprover" / path).read_text().count(old)
        if count != 1:
            unmatched.append(i)
            print(f"{i:3} UNMATCHED {name}: old text occurs {count} times"
                  f" in {path}")
    with tempfile.TemporaryDirectory() as tmp:
        free = queue.Queue()  # the copies no mutant is using
        for k in range(WORKERS):
            copy = Path(tmp) / f"repo{k}"
            shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
            free.put(copy)
        tests = sorted({a for _, row in rows for a in row[4]})
        if _pytest(copy, tests):
            print("the tests fail without any mutant: " + " ".join(tests))
            return 1

        def run(row):
            _, (_, path, old, new, args) = row
            copy = free.get()
            target = copy / "src" / "etaprover" / path
            text = target.read_text()
            target.write_text(text.replace(old, new))
            t0 = time.perf_counter()
            code = _pytest(copy, args)
            target.write_text(text)
            free.put(copy)
            return code, time.perf_counter() - t0

        todo = [row for row in rows if row[0] not in unmatched]
        survived = []
        with ThreadPoolExecutor(WORKERS) as pool:
            results = pool.map(run, todo)  # in row order
            for (i, (name, *_)), (code, secs) in zip(todo, results):
                killed = code in (1, 2)  # tests failed, or collection broke
                if not killed:
                    survived.append(i)
                print(f"{i:3} {'killed  ' if killed else 'SURVIVED'} {name}"
                      f"  ({secs:.1f} s, pytest exit {code})", flush=True)
    print(f"{len(rows)} mutants: {len(rows) - len(survived) - len(unmatched)} "
          f"killed, {len(survived)} survived, {len(unmatched)} unmatched, "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survived or unmatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
