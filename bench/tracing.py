"""Per-layer tracing of etaprover from outside the program.

``Tracer.installed()`` wraps each layer's public functions at the names their
callers import (``etaprover.cli.prove_identity``, ``etaprover.prover.cusp_set``,
``QSeries.__mul__``, ...).  Every call records a span (name, start, end,
parent, operation id) in memory, and a hook on the result feeds the counters.
Leaving the context restores the original functions, so an untraced run pays
nothing.

Span times exclude the time the hooks of nested spans took.  A layer's self
time is its spans' time minus the time of their child spans; a
``<layer>.<name>_s`` figure is the inclusive time of the outermost spans of
that name.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter
from fractions import Fraction
from time import perf_counter

# Per-layer metrics: name -> (unit, better).
METRICS = {
    "parser.calls": ("count", "lower"),
    "parser.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "modularity.checks": ("count", "lower"),
    "modularity.self_s": ("s", "lower"),
    "cusps.cusp_set_calls": ("count", "lower"),
    "cusps.cusps_enumerated": ("count", "lower"),
    "cusps.cusp_set_s": ("s", "lower"),
    "cusps.order_evals": ("count", "lower"),
    "cusps.order_s": ("s", "lower"),
    "up.gh_bound_calls": ("count", "lower"),
    "up.gh_bound_s": ("s", "lower"),
    "up.sift_s": ("s", "lower"),
    "up.sift_kept_ratio": ("ratio", "higher"),
    "prover.self_s": ("s", "lower"),
    "prover.bound_s": ("s", "lower"),
    "prover.required_over_checked": ("ratio", "higher"),
    "etaproducts.expand_calls": ("count", "lower"),
    "etaproducts.expand_s": ("s", "lower"),
    "etaproducts.combo_expand_s": ("s", "lower"),
    "etaproducts.factorize_s": ("s", "lower"),
    "etaproducts.coeffs_out": ("count", "lower"),
    "qseries.mul_calls": ("count", "lower"),
    "qseries.mul_s": ("s", "lower"),
    "qseries.pow_s": ("s", "lower"),
    "qseries.invert_s": ("s", "lower"),
    "qseries.add_s": ("s", "lower"),
    "qseries.mul_term_pairs": ("pairs_computed", "lower"),
    "qseries.max_coeff_bits": ("bits", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _bits(coeffs) -> int:
    best = 0
    for c in coeffs:
        if isinstance(c, Fraction):
            n = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
        else:
            n = abs(c).bit_length()
        if n > best:
            best = n
    return best


# Hooks: (tracer, args, result) -> None, feeding Tracer.counts.
def _count_cusps(tr, args, result):
    tr.counts["cusps_enumerated"] += len(result)


def _count_order(tr, args, result):
    tr.counts["order_evals"] += 1


def _count_sift(tr, args, result):
    tr.counts["sift_in"] += len(args[0])
    tr.counts["sift_kept"] += len(result)


def _count_report(tr, args, result):
    if result.checked_depth >= 0:
        tr.counts["required"] += max(result.required_depth, 0) + 1
        tr.counts["checked"] += result.checked_depth + 1


def _count_expand(tr, args, result):
    tr.counts["coeffs_out"] += len(result)


def _count_mul(tr, args, result):
    a, b = args
    tr.counts["mul_term_pairs"] += len(a) * (len(b) if hasattr(b, "_e") else 1)
    bits = _bits(result._c)
    if bits > tr.counts["max_coeff_bits"]:
        tr.counts["max_coeff_bits"] = bits


def _targets():
    """(owner, attribute, span name, hook) for every wrapped function."""
    from etaprover import cli, cusps, etaproducts, prover, qseries, up
    Q, P, C = qseries.QSeries, etaproducts.EtaProduct, etaproducts.EtaCombo
    out = [(cli, "main", "cli.main", None)]
    out += [(cli, n, "parser.parse", None)
            for n in ("parse_program", "parse_expression")]
    out += [(m, "modular_function_check", "modularity.check", None)
            for m in (cli, prover, up)]
    out += [(m, "cusp_set", "cusps.cusp_set", _count_cusps)
            for m in (cli, prover, up)]
    out += [(m, "gamma0_cusp_orders", "cusps.order", None)
            for m in (cli, prover, up)]
    out += [(m, "gamma0_cusp_order", "cusps.order", _count_order)
            for m in (cusps, prover, up)]
    out += [(cli, n, "prover.prove", _count_report)
            for n in ("prove_identity", "prove_up_identity")]
    out += [(cli, "normalize_identity", "prover.normalize", None),
            (up, "up_order_lower_bound", "up.gh_bound", None),
            (up, "up_series", "up.sift", _count_sift),
            (P, "expand", "etaproducts.expand", _count_expand),
            (P, "expand_no_prefactor", "etaproducts.expand", _count_expand),
            (C, "expand", "etaproducts.combo_expand", None),
            (cli, "eta_factorize", "etaproducts.factorize", None),
            (Q, "__mul__", "qseries.mul", _count_mul),
            (Q, "__rmul__", "qseries.mul", _count_mul),
            (Q, "__pow__", "qseries.pow", None),
            (Q, "invert", "qseries.invert", None),
            (Q, "_unit_invert", "qseries.invert", None),
            (Q, "__add__", "qseries.add", None),
            (Q, "__radd__", "qseries.add", None)]
    return out


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self):
        self.spans: list = []   # (name, start, end, parent, op, hook_s, excl_s)
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list = []  # [span index, excluded hook time, parent]

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            frame = [len(tracer.spans), 0.0, stack[-1][0] if stack else -1]
            tracer.spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, name, start, perf_counter(), 0.0)
                raise
            end = perf_counter()
            if hook is not None:
                hook(tracer, args, result)
            tracer._close(frame, name, start, end, perf_counter() - end)
            return result

        return traced

    def _close(self, frame, name, start, end, hook_s):
        index, excl_s, parent = frame
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += excl_s + hook_s
        self.counts[name] += 1
        self.spans[index] = (name, start, end, parent, self.op, hook_s, excl_s)

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, hook in _targets():
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, hook))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.op = 0

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of the spans recorded since the last reset."""
        spans = self.spans
        clean = [s[2] - s[1] - s[6] for s in spans]
        child = [0.0] * len(spans)
        first_expand = {}
        incl: Counter = Counter()
        selft: Counter = Counter()
        for i, (name, start, _, parent, _, _, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += clean[i]
                if (name.startswith("etaproducts.") or name == "up.sift") \
                        and parent not in first_expand:
                    first_expand[parent] = i
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                incl[name] += clean[i]
        bound_s = 0.0
        for i, (name, start, _, _, _, _, _) in enumerate(spans):
            selft[name.split(".")[0]] += clean[i] - child[i]
            if name == "prover.prove":
                j = first_expand.get(i)
                if j is None:
                    bound_s += clean[i]
                else:
                    # hooks of children that ended before the first expansion
                    before = sum(s[5] + s[6] for s in spans[i + 1:j]
                                 if s[3] == i)
                    bound_s += spans[j][1] - start - before
        c = self.counts

        def ratio(a, b):
            return c[a] / c[b] if c[b] else 0.0

        return {
            "parser.calls": c["parser.parse"],
            "parser.self_s": selft["parser"],
            "cli.self_s": selft["cli"],
            "modularity.checks": c["modularity.check"],
            "modularity.self_s": selft["modularity"],
            "cusps.cusp_set_calls": c["cusps.cusp_set"],
            "cusps.cusps_enumerated": c["cusps_enumerated"],
            "cusps.cusp_set_s": incl["cusps.cusp_set"],
            "cusps.order_evals": c["order_evals"],
            "cusps.order_s": incl["cusps.order"],
            "up.gh_bound_calls": c["up.gh_bound"],
            "up.gh_bound_s": incl["up.gh_bound"],
            "up.sift_s": incl["up.sift"],
            "up.sift_kept_ratio": ratio("sift_kept", "sift_in"),
            "prover.self_s": selft["prover"],
            "prover.bound_s": bound_s,
            "prover.required_over_checked": ratio("required", "checked"),
            "etaproducts.expand_calls": c["etaproducts.expand"],
            "etaproducts.expand_s": incl["etaproducts.expand"],
            "etaproducts.combo_expand_s": incl["etaproducts.combo_expand"],
            "etaproducts.factorize_s": incl["etaproducts.factorize"],
            "etaproducts.coeffs_out": c["coeffs_out"],
            "qseries.mul_calls": c["qseries.mul"],
            "qseries.mul_s": incl["qseries.mul"],
            "qseries.pow_s": incl["qseries.pow"],
            "qseries.invert_s": incl["qseries.invert"],
            "qseries.add_s": incl["qseries.add"],
            "qseries.mul_term_pairs": c["mul_term_pairs"],
            "qseries.max_coeff_bits": c["max_coeff_bits"],
        }
