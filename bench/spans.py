"""Spans and counts around the public functions of each cfrieze module.

The wrappers are installed from here, so the program's sources stay as
they are.  Each call records a span (name, start, end, parent) in flat
in-memory arrays; a layer's self time is its spans' durations minus the
durations of their child spans.  Two counters need the call's arguments or
result and are taken in the wrapper: the window lengths passed to
``continuant_eval`` and the bit height of every ``Frieze.value`` result.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (span name, module, attribute path): the public functions the subcommands
# reach, per module.  A module-level function is wrapped in every cfrieze
# namespace that binds it, since callers look it up there.  Targets are
# looked up when the wrappers go in, so a fresh import is traced as well.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("exactnum.rat_parse", "exactnum", "rat_parse"),
    ("exactnum.rat_str", "exactnum", "rat_str"),
    ("continuant.eval", "continuant", "continuant_eval"),
    ("continuant.identity_suite", "continuant", "identity_suite"),
    ("poly.mul", "poly", "Poly.__mul__"),
    ("frieze.init", "frieze", "Frieze.__init__"),
    ("frieze.seed_validate", "frieze", "seed_validate"),
    ("frieze.value", "frieze", "Frieze.value"),
    ("frieze.first_row", "frieze", "Frieze.first_row"),
    ("frieze.period_report", "frieze", "Frieze.period_report"),
    ("section.reconstruct", "section", "reconstruct"),
    ("analysis.classify", "analysis", "classify"),
    ("analysis.is_integer_frieze", "analysis", "is_integer_frieze"),
    ("analysis.is_positive", "analysis", "is_positive"),
    ("transform.flip_sign_seed", "transform", "flip_sign_seed"),
    ("transform.scale_seed", "transform", "scale_seed"),
    ("transform.gamma", "transform", "gamma"),
    ("transform.gamma_inverse", "transform", "gamma_inverse"),
)

# metric name -> (unit, better)
PER_LAYER = {
    "continuant.eval_calls": ("count", "lower"),
    "continuant.eval_terms": ("count", "lower"),
    "continuant.eval_s": ("s", "lower"),
    "continuant.terms_per_value": ("terms/value", "lower"),
    "frieze.value_calls": ("count", "lower"),
    "frieze.value_s": ("s", "lower"),
    "frieze.period_report_calls": ("count", "lower"),
    "frieze.period_report_s": ("s", "lower"),
    "frieze.period_reports_per_analyze": ("calls/op", "lower"),
    "analysis.classify_s": ("s", "lower"),
    "analysis.is_integer_frieze_s": ("s", "lower"),
    "analysis.is_positive_s": ("s", "lower"),
    "frieze.first_row_calls": ("count", "lower"),
    "frieze.first_row_s": ("s", "lower"),
    "frieze.max_value_bits": ("bits", "lower"),
    "frieze.init_calls": ("count", "lower"),
    "frieze.init_s": ("s", "lower"),
    "frieze.seed_validate_s": ("s", "lower"),
    "section.reconstruct_calls": ("count", "lower"),
    "section.reconstruct_s": ("s", "lower"),
    "transform.calls": ("count", "lower"),
    "transform.s": ("s", "lower"),
    "cli.main_calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "exactnum.rat_parse_calls": ("count", "lower"),
    "exactnum.rat_str_calls": ("count", "lower"),
    "exactnum.s": ("s", "lower"),
    "poly.mul_calls": ("count", "lower"),
    "poly.mul_s": ("s", "lower"),
    "continuant.identity_suite_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _bits(q) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


class Tracer:
    """Installs the wrappers on entry and removes them on exit."""

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.eval_terms = 0
        self.max_value_bits = 0
        self._stack = [-1]
        self._patches = []

    # -- installation -----------------------------------------------------

    def __enter__(self):
        hooks = {"continuant.eval": self._count_terms,
                 "frieze.value": self._count_bits}
        modules = [m for name, m in sys.modules.items()
                   if name == "cfrieze" or name.startswith("cfrieze.")]
        for nid, (name, module, path) in enumerate(TARGETS):
            owner = importlib.import_module(f"cfrieze.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(nid, original, hooks.get(name))
            for ns in [owner] if outer else modules:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapper)
        return self

    def __exit__(self, *exc):
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()
        return False

    def _wrap(self, nid, fn, hook):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _count_terms(self, args, result):
        self.eval_terms += len(args[1])

    def _count_bits(self, args, result):
        bits = _bits(result)
        if bits > self.max_value_bits:
            self.max_value_bits = bits

    # -- derived numbers --------------------------------------------------

    def layer_totals(self):
        """Per span name: (calls, self seconds)."""
        count = len(self.span_start)
        child = array("q", bytes(8 * count))
        parents, starts, ends = self.span_parent, self.span_start, self.span_end
        for idx in range(count):
            parent = parents[idx]
            if parent >= 0:
                child[parent] += ends[idx] - starts[idx]
        calls, self_ns = Counter(), Counter()
        for idx in range(count):
            name = self.names[self.span_name[idx]]
            calls[name] += 1
            self_ns[name] += ends[idx] - starts[idx] - child[idx]
        return calls, {name: ns / 1e9 for name, ns in self_ns.items()}

    def write(self, path: Path):
        """Spans as four raw arrays in native byte order, plus a JSON header."""
        header = {"names": self.names, "spans": len(self.span_start),
                  "arrays": [["name", "H"], ["parent", "q"], ["start_ns", "q"],
                             ["end_ns", "q"]], "byteorder": sys.byteorder}
        path.with_suffix(".json").write_text(json.dumps(header), encoding="utf-8")
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)


def layer_metrics(tracer: Tracer, analyze_ops: int, stdout_bytes: int) -> dict:
    """The per-layer numbers of one traced pass, without the overhead ratio."""
    calls, self_s = tracer.layer_totals()

    def total(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    return {
        "continuant.eval_calls": calls["continuant.eval"],
        "continuant.eval_terms": tracer.eval_terms,
        "continuant.eval_s": self_s.get("continuant.eval", 0.0),
        "continuant.terms_per_value":
            tracer.eval_terms / max(calls["frieze.value"], 1),
        "frieze.value_calls": calls["frieze.value"],
        "frieze.value_s": self_s.get("frieze.value", 0.0),
        "frieze.period_report_calls": calls["frieze.period_report"],
        "frieze.period_report_s": self_s.get("frieze.period_report", 0.0),
        "frieze.period_reports_per_analyze":
            calls["frieze.period_report"] / max(analyze_ops, 1),
        "analysis.classify_s": self_s.get("analysis.classify", 0.0),
        "analysis.is_integer_frieze_s": self_s.get("analysis.is_integer_frieze", 0.0),
        "analysis.is_positive_s": self_s.get("analysis.is_positive", 0.0),
        "frieze.first_row_calls": calls["frieze.first_row"],
        "frieze.first_row_s": self_s.get("frieze.first_row", 0.0),
        "frieze.max_value_bits": tracer.max_value_bits,
        "frieze.init_calls": calls["frieze.init"],
        "frieze.init_s": self_s.get("frieze.init", 0.0),
        "frieze.seed_validate_s": self_s.get("frieze.seed_validate", 0.0),
        "section.reconstruct_calls": calls["section.reconstruct"],
        "section.reconstruct_s": self_s.get("section.reconstruct", 0.0),
        "transform.calls": sum(v for k, v in calls.items() if k.startswith("transform.")),
        "transform.s": total("transform."),
        "cli.main_calls": calls["cli.main"],
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.stdout_bytes": stdout_bytes,
        "exactnum.rat_parse_calls": calls["exactnum.rat_parse"],
        "exactnum.rat_str_calls": calls["exactnum.rat_str"],
        "exactnum.s": total("exactnum."),
        "poly.mul_calls": calls["poly.mul"],
        "poly.mul_s": self_s.get("poly.mul", 0.0),
        "continuant.identity_suite_s": self_s.get("continuant.identity_suite", 0.0),
    }

