"""Outside-in tracing of the program's layers.

A Tracer swaps the module attributes that the program's own callers look
up (for example ``distideal.groebner.buchberger``, which
``Ideal.groebner_basis`` resolves through its module globals) for
recording wrappers, and puts the originals back on exit, also when the
traced code raises.  Nothing under src/ is edited.

Spans are (name, start, end, parent, item) and stay in memory until
``write_spans``.  Wrappers record only while ``item`` is set, so checks
the benchmark runs between items are not traced.

``module_shares`` is the other outside view: one cProfile run, with each
module's share of self time.  It is the only view of ``poly``, whose
``leading`` and constructor are too hot to wrap.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import pstats
from collections import Counter
from fractions import Fraction
from math import comb
from time import perf_counter

import common

# (module, attribute, span name).  A function looked up through several
# modules' globals is wrapped in each of them under one span name.
TARGETS = (
    ("graph", "enumerate_connected", "graph.enumerate_connected"),
    ("graph", "canonical_form", "graph.canonical_form"),
    ("classify", "contains_induced", "graph.contains_induced"),
    ("graph", "all_pairs_distances", "graph.all_pairs_distances"),
    ("ideals", "all_pairs_distances", "graph.all_pairs_distances"),
    ("snf", "all_pairs_distances", "graph.all_pairs_distances"),
    ("ideals", "minors", "ideals.minors"),
    ("ideals", "distance_ideal", "ideals.distance_ideal"),
    ("ideals", "trivial_count_phi", "ideals.trivial_count_phi"),
    ("classify", "trivial_count_phi", "ideals.trivial_count_phi"),
    ("ideals", "char_poly_distance", "ideals.char_poly_distance"),
    ("ideals", "evaluate_ideal", "ideals.evaluate_ideal"),
    ("cli", "ideal_report", "ideals.ideal_report"),
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "s_polynomial", "groebner.s_polynomial"),
    ("groebner", "gcd_polynomial", "groebner.gcd_polynomial"),
    ("groebner", "reduce_poly", "groebner.reduce_poly"),
    ("groebner", "_minimize_and_interreduce", "groebner.interreduce"),
    ("snf", "smith_normal_form", "snf.smith_normal_form"),
    ("snf", "minors_gcd", "snf.minors_gcd"),
    ("classify", "classify_Z", "classify.classify_Z"),
    ("classify", "classify_R", "classify.classify_R"),
    ("classify", "minimal_forbidden_ok", "classify.minimal_forbidden_ok"),
    ("classify", "is_complete", "classify.structural"),
    ("classify", "is_complete_bipartite", "classify.structural"),
    ("classify", "is_star", "classify.structural"),
    ("cli", "main", "cli.main"),
)

NAME, START, END, PARENT, ITEM = range(5)


def parse_rendered(text):
    """Terms of a polynomial in the program's rendered form, e.g.
    ``2*x0^2*x1 - 1/3*x2 + 5``, as [(Fraction coefficient, {var: exp})]."""
    terms = []
    sign = 1
    for tok in text.split():
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        coeff, exps = Fraction(1), {}
        for factor in tok.split("*"):
            if factor[0].isalpha():
                var, _, e = factor.partition("^")
                exps[var] = int(e) if e else 1
            else:
                coeff = Fraction(factor)
        terms.append((sign * coeff, exps))
        sign = 1
    return terms


def _on_minors(tracer, args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    i = args[1] if len(args) > 1 else kwargs["i"]
    n = matrix.n
    tracer.counters["ideals.minors.out"] += len(result)
    tracer.counters["ideals.minors.examined"] += comb(n, i) ** 2


def _on_basis(tracer, args, kwargs, result):
    rendered = [p.render() for p in result]
    c = tracer.counters
    if rendered == ["1"]:
        c["groebner.buchberger.unit_exits"] += 1
    c["groebner.basis.max_len"] = max(c["groebner.basis.max_len"], len(rendered))
    for text in rendered:
        for coeff, exps in parse_rendered(text):
            bits = max(abs(coeff.numerator).bit_length(),
                       coeff.denominator.bit_length())
            c["groebner.basis.max_degree"] = max(
                c["groebner.basis.max_degree"], sum(exps.values()))
            c["groebner.basis.max_coeff_bits"] = max(
                c["groebner.basis.max_coeff_bits"], bits)


def _on_reduce(tracer, args, kwargs, result):
    if result.is_zero():
        tracer.counters["groebner.reduce_poly.zero"] += 1


ON_RESULT = {
    "ideals.minors": _on_minors,
    "groebner.buchberger": _on_basis,
    "groebner.reduce_poly": _on_reduce,
}


class Tracer:
    """Context manager that installs the recording wrappers."""

    def __init__(self, mods):
        self.mods = mods
        self.spans = []
        self.stack = []
        self.item = None
        self.counters = Counter()
        self.missing = set()
        self._saved = []

    def __enter__(self):
        try:
            for module_name, attr, span in TARGETS:
                self._install(getattr(self.mods, module_name), attr, span)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _install(self, module, attr, span):
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.add("%s.%s" % (module.__name__, attr))
            return
        on_result = ON_RESULT.get(span)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if tracer.item is None:
                    return (yield from fn(*args, **kwargs))
                idx = tracer._open(span)
                try:
                    return (yield from fn(*args, **kwargs))
                finally:
                    tracer._close(idx)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if tracer.item is None:
                    return fn(*args, **kwargs)
                idx = tracer._open(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if on_result is not None:
                    on_result(tracer, args, kwargs, result)
                return result
        self._saved.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def _open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.item])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][END] = perf_counter()
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()
        else:
            self.stack.remove(idx)

    # -- reading the spans -------------------------------------------------

    def calls(self, name):
        return sum(1 for s in self.spans if s[NAME] == name)

    def seconds(self, name, parents=None):
        """Total duration of the spans called ``name``, optionally only
        those whose parent span is one of ``parents``."""
        total = 0.0
        for s in self.spans:
            if s[NAME] != name:
                continue
            if parents is not None and (
                    s[PARENT] < 0 or self.spans[s[PARENT]][NAME] not in parents):
                continue
            total += s[END] - s[START]
        return total

    def self_seconds(self, name, minus):
        """Duration of ``name`` spans minus their direct ``minus`` children."""
        total = self.seconds(name)
        for s in self.spans:
            if (s[NAME] == minus and s[PARENT] >= 0
                    and self.spans[s[PARENT]][NAME] == name):
                total -= s[END] - s[START]
        return total

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")


def module_shares(profile, layers):
    """{layer: share of all self time} from a cProfile.Profile.

    Builtins (``max``, ``sorted``, ``dict.get`` ...) have no module of
    their own; their self time goes to the Python functions that called
    them, in proportion to the time spent under each caller."""
    stats = pstats.Stats(profile).stats
    prefix = os.path.join(common.SRC, "distideal") + os.sep
    own = Counter()
    total = 0.0

    def module_of(key):
        filename = key[0]
        if filename.startswith(prefix):
            return filename[len(prefix):].rsplit(".", 1)[0]
        return None

    for key, (_, _, tt, _, callers) in stats.items():
        total += tt
        if key[0] != "~":
            own[module_of(key)] += tt
            continue
        for caller, caller_stats in callers.items():
            own[module_of(caller)] += caller_stats[2]
    return {layer: (own[layer] / total if total else 0.0) for layer in layers}
