"""Identity families and the seeded operation streams of the three workloads.

Every operation is an etaprover command line whose expected outcome is known
by construction:

* five identity families that are true at their base level, and so at every
  multiple of it ("lifted" to level k*base);
* perturbed variants, each changing one coefficient by one, which are false;
* the true text at a level that is not a multiple of the base (not
  applicable, exit 2);
* malformed requests that the exit-code contract maps to exit 3;
* levels <= 0, which the contract also maps to exit 3.

A workload is a list of slots.  A block of operations takes one alternative
from every slot, chosen by the seeded generator, in a seeded order; a run
executes whole blocks, so every run sees the same mix of operation kinds
whatever the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Lifts k: each family is run at level k*base.
LIFTS = (1, 2, 3, 4, 6, 12)
# Highly composite levels of the bound workload; all are multiples of 420,
# hence of every family's base level (4, 5, 6, 7 and 20).
BOUND_LEVELS = (420, 840, 2520, 5040, 10080, 27720, 55440, 100800)
# Margins of the deep workload, per family.  Every deep operation takes about
# 0.15 s on the reference machine, except pq, which takes twice as long: a
# 30 s run holds about 25 of them, so the tail latency (ten samples beyond it)
# falls among the pq proofs rather than among the slowest moments of the
# machine.
DEEP_MARGINS = {"pq": 380, "u20": 105, "u5": 400, "u7": 300}
CERT = "cert.json"


@dataclass(frozen=True)
class Family:
    """An identity whose text fills ``coeffs`` into ``template``.

    ``perturb`` lists (slot, value) changes of one coefficient each, every
    one of which makes the identity false.
    """

    name: str
    command: str
    base: int
    template: str
    coeffs: tuple[int, ...]
    perturb: tuple[tuple[int, int], ...]

    def variants(self) -> int:
        return 1 + len(self.perturb)

    def text(self, variant: int) -> str:
        values = list(self.coeffs)
        if variant:
            slot, value = self.perturb[variant - 1]
            values[slot] = value
        return self.template.format(*values)

    def file(self, variant: int) -> str:
        return f"{self.name}.{variant}.eta"


FAMILIES = (
    Family("pq", "prove", 6,
           "# Ramanujan's modular equation between the level-6 eta-quotients\n"
           "#   P*Q + 9/(P*Q) = (Q/P)^3 + (P/Q)^3\n"
           "let P = eta(1)^2 / eta(3)^2;\n"
           "let Q = eta(2)^2 / eta(6)^2;\n"
           "P*Q + {0}/(P*Q) - (Q/P)^3 - (P/Q)^3\n",
           (9,), ((0, 8), (0, 10))),
    Family("jacobi", "prove", 4,
           "# Jacobi: theta3^4 = theta4^4 + theta2^4\n"
           "[4,8,2,-24,1,16] + {0}*[4,16,2,-24,1,8] - {1}\n",
           (16, 1), ((0, 15), (0, 17), (1, 2))),
    Family("u5", "prove-up", 5,
           "# Ramanujan: U(5) eta(25)/eta(1) = 5 eta(5)^6/eta(1)^6\n"
           "U(5) eta(25)/eta(1) = {0}*eta(5)^6/eta(1)^6\n",
           (5,), ((0, 4), (0, 6))),
    Family("u7", "prove-up", 7,
           "# Ramanujan's U(7) identity for the partition function\n"
           "U(7) eta(49)/eta(1) = {0}*eta(7)^4/eta(1)^4"
           " + {1}*eta(7)^8/eta(1)^8\n",
           (7, 49), ((0, 6), (0, 8), (1, 48), (1, 50))),
    Family("u20", "prove-up", 20,
           "# The U_5 image of a level-100 eta-product at level 20\n"
           "U(5) [100,-3,50,5,25,-2,10,-8,5,4,4,3,2,3,1,-2]"
           " = {0}*[10,8,5,-4,2,-8,1,4] + {1}*[20,-3,10,5,5,-2,4,-1,2,-1,1,2]\n",
           (5, 2), ((0, 4), (0, 6), (1, 1), (1, 3))),
)
FAMILY = {f.name: f for f in FAMILIES}

# Eta-products that are modular functions at every level of BOUND_LEVELS:
# right-hand-side terms of the U_p families and terms of the linear ones.
PRODUCTS = (
    (5, 6, 1, -6),
    (7, 4, 1, -4),
    (7, 8, 1, -8),
    (10, 8, 5, -4, 2, -8, 1, 4),
    (20, -3, 10, 5, 5, -2, 4, -1, 2, -1, 1, 2),
    (6, 4, 3, 4, 2, -4, 1, -4),
    (6, -4, 3, 8, 2, 4, 1, -8),
    (4, 8, 2, -24, 1, 16),
)
# The two linear identities, as single expressions for ``orders``.
COMBOS = (
    "[4,8,2,-24,1,16] + 16*[4,16,2,-24,1,8] - 1",
    "[6,-2,3,-2,2,2,1,2] + 9*[6,2,3,2,2,-2,1,-2]"
    " - [6,-6,3,6,2,6,1,-6] - [6,6,3,-6,2,-6,1,6]",
)
# Deep expand/factor round trips as (product, expand depth, factor depth):
# the level-100 left-hand side of the u20 family and the level-50 product of
# the README's U_5 example.
ROUND_TRIP = (
    ((100, -3, 50, 5, 25, -2, 10, -8, 5, 4, 4, 3, 2, 3, 1, -2), 500, 400),
    ((50, -1, 25, 1, 2, 1, 1, -1), 1300, 1100),
)

MALFORMED_FILES = {
    "unbalanced.eta": "let P = eta(1)^2 / eta(3)^2;\nP*(P + 9\n",
    "badtoken.eta": "eta(1.5) - 1\n",
}


@dataclass(frozen=True)
class Op:
    """One command line.

    ``key``, the command line joined by spaces, names it in golden.json.
    ``expect`` is one of: proved, refuted, not-applicable, bound, tool,
    factor, usage.
    ``product`` is the canonical flat list a factor operation must return.
    """

    argv: tuple[str, ...]
    expect: str
    product: str = ""

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _flat(product) -> str:
    return "[" + ",".join(str(x) for x in product) + "]"


def canonical(product) -> str:
    """The flat list of a product with multipliers descending, as printed."""
    pairs = sorted(zip(product[0::2], product[1::2]), reverse=True)
    return _flat([x for pair in pairs for x in pair])


def _cmd(*argv) -> tuple[str, ...]:
    return tuple(str(a) for a in argv)


def _expr_op(head, flat, tail, expect, **kw) -> Op:
    return Op(_cmd(*head, canonical(flat), *tail), expect, **kw)


def _prove(fam: Family, variant: int, level: int, *flags) -> Op:
    argv = _cmd(fam.command, fam.file(variant), "--level", level, *flags,
                "--json", CERT)
    if "--yes" not in flags:
        expect = "bound"
    elif level % fam.base:
        expect = "not-applicable"
    else:
        expect = "refuted" if variant else "proved"
    return Op(argv, expect)


def _true_or_false(fam: Family, make) -> list[Op]:
    """Alternatives that are true half the time, else a random perturbation."""
    n = len(fam.perturb)
    return [make(0)] * n + [make(v) for v in range(1, n + 1)]


def _usage(*argv) -> Op:
    return Op(_cmd(*argv), "usage")


MALFORMED = (
    _usage("prove", "unbalanced.eta", "--level", 6, "--yes"),
    _usage("prove", "badtoken.eta", "--level", 4, "--yes"),
    _usage("prove", FAMILY["u5"].file(0), "--level", 5, "--yes"),
    _usage("prove-up", FAMILY["pq"].file(0), "--level", 6, "--yes"),
    _usage("prove", "missing.eta", "--level", 4, "--yes"),
    _usage("prove", FAMILY["jacobi"].file(0), "--level", "four", "--yes"),
    _usage("proof", FAMILY["jacobi"].file(0), "--level", 4),
)
# Levels <= 0 are usage errors under the exit-code contract.
NONPOSITIVE = (
    _usage("prove", FAMILY["pq"].file(0), "--level", 0, "--yes"),
    _usage("prove", FAMILY["jacobi"].file(0), "--level", -4, "--yes"),
    _usage("prove-up", FAMILY["u5"].file(0), "--level", 0, "--yes"),
    _usage("cusps", 0),
    _usage("cusps", -6),
    _usage("check", canonical(PRODUCTS[0]), 0),
    _usage("orders", canonical(PRODUCTS[0]), 0),
)


def _corpus_slots() -> list[list[Op]]:
    slots = []
    for fam in FAMILIES:
        for k in LIFTS:
            slots.append(_true_or_false(
                fam, lambda v, f=fam, k=k: _prove(f, v, k * f.base, "--yes")))
    for fam in FAMILIES:
        slots.append([_prove(fam, 0, k * fam.base + d, "--yes")
                      for k in LIFTS for d in (-1, 1)])
    slots += [list(MALFORMED)] * 2
    slots.append(list(NONPOSITIVE))
    return slots


def _deep_slots() -> list[list[Op]]:
    slots = []
    for name, margin in DEEP_MARGINS.items():
        fam = FAMILY[name]
        slots.append(_true_or_false(
            fam, lambda v, f=fam, m=margin: _prove(
                f, v, f.base, "--margin", m, "--yes")))
    for product, expand_depth, factor_depth in ROUND_TRIP:
        slots.append([_expr_op(("expand",), product,
                               ("--depth", expand_depth), "tool")])
        slots.append([_expr_op(("factor",), product,
                               ("--depth", factor_depth), "factor",
                               product=canonical(product))])
    return slots


def _bound_slots() -> list[list[Op]]:
    slots = []
    for fam in FAMILIES:
        for level in BOUND_LEVELS:
            slots.append(_true_or_false(
                fam, lambda v, f=fam, n=level: _prove(f, v, n)))
    # The costliest operation, u20 at the top level, comes twice in a block,
    # so that the tail latency falls among those operations, as for pq in
    # the deep workload.
    u20 = FAMILY["u20"]
    slots.append(_true_or_false(
        u20, lambda v: _prove(u20, v, BOUND_LEVELS[-1])))
    for level in BOUND_LEVELS:
        slots.append([Op(_cmd("cusps", level), "tool")])
        orders = [Op(_cmd("orders", c, level), "tool") for c in COMBOS]
        check = []
        for product in PRODUCTS:
            orders.append(_expr_op(("orders",), product, (level,), "tool"))
            check.append(_expr_op(("check",), product, (level, "--verbose"),
                                  "tool"))
        slots += [orders, check]
    return slots


SLOTS = {"corpus": _corpus_slots, "deep": _deep_slots, "bound": _bound_slots}
WORKLOADS = tuple(SLOTS)


def warmups(workload: str) -> list[Op]:
    """One shallow operation per family (and per round-trip product)."""
    ops = []
    for fam in FAMILIES:
        if workload == "bound":
            ops.append(_prove(fam, 0, BOUND_LEVELS[0]))
        else:
            ops.append(_prove(fam, 0, fam.base, "--yes"))
    if workload == "deep":
        ops += [Op(_cmd("factor", canonical(p), "--depth", 250), "factor",
                   product=canonical(p)) for p, _, _ in ROUND_TRIP]
    return ops


def input_files() -> dict[str, str]:
    """Every identity file an operation may name."""
    files = dict(MALFORMED_FILES)
    for fam in FAMILIES:
        for v in range(fam.variants()):
            files[fam.file(v)] = fam.text(v)
    return files


def blocks(workload: str, seed: int, count: int) -> list[list[Op]]:
    """``count`` seeded blocks: one alternative per slot, shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    slots = SLOTS[workload]()
    out = []
    for _ in range(count):
        block = [rng.choice(alts) for alts in slots]
        rng.shuffle(block)
        out.append(block)
    return out


def universe(workload: str) -> dict[str, Op]:
    """Every distinct operation (by key) a block of the workload can hold."""
    ops: dict[str, Op] = {}
    for alts in SLOTS[workload]():
        for op in alts:
            ops.setdefault(op.key, op)
    return ops
