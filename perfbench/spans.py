"""Spans and counters recorded around solvlen's public entry points.

A wrapper replaces a traced function at every module attribute that
refers to it, so sites that imported it by name (``cli.derived_series``,
``cli.check_lemmas``, ``lift.derived_series``, ``lift.holomorph_perm``,
...) are covered as well as the defining module.  Per-element primitives
(``perm.perm_mul``, ``FpMatrix.__mul__``, ``atlas._perm_mul``) are never
wrapped: a wrapper would cost more than the work it measures.

Spans stay in memory; the worker writes them out once, when it ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (span name, module under solvlen, attribute)
SPANNED = (
    ("dsl.parse_spec", "dsl", "parse_spec"),
    ("atlas.build", "cli", "evaluate"),
    ("atlas.prop8_group", "atlas", "prop8_group"),
    ("atlas.holomorph_perm", "atlas", "holomorph_perm"),
    ("atlas.semidirect_series_orders", "atlas", "semidirect_series_orders"),
    ("grp.derived_series", "grp", "derived_series"),
    ("grp.normal_closure", "grp", "normal_closure"),
    ("grp.quotient_on_cosets", "grp", "quotient_on_cosets"),
    ("grp.check_lemmas", "grp", "check_lemmas"),
    ("perm.schreier_sims", "perm", "schreier_sims"),
    ("perm.normal_closure_perm", "perm", "normal_closure_perm"),
    ("lift.two_generator_reduction", "lift", "two_generator_reduction"),
    ("lift.lift_generators", "lift", "lift_generators"),
    ("lift.invariant_quadratic_form", "lift", "invariant_quadratic_form"),
)

# per-layer metrics that are the total time of outermost spans of a name
TIMED = ("perm.normal_closure_perm", "perm.schreier_sims",
         "grp.derived_series", "grp.elements", "grp.element_set",
         "grp.normal_closure", "grp.quotient_on_cosets", "grp.check_lemmas",
         "lift.two_generator_reduction", "lift.lift_generators",
         "lift.invariant_quadratic_form", "atlas.build", "atlas.prop8_group",
         "atlas.holomorph_perm", "atlas.semidirect_series_orders",
         "dsl.parse_spec")
CALLED = ("perm.normal_closure_perm", "perm.schreier_sims",
          "lift.two_generator_reduction")
COUNTED = ("perm.bsgs.levels", "perm.bsgs.strong_gens",
           "perm.bsgs.orbit_points", "perm.as_perm.calls", "grp.elements.count",
           "grp.element_set.count", "grp.closure.calls", "fpmat.products")

# span record fields
NAME, PARENT, START, END, VERDICT, OUTER = range(6)


class Tracer:
    """Span stack and per-verdict counters for one worker process."""

    def __init__(self):
        self.spans = []      # [name, parent index, start, end, verdict, outer]
        self.counts = defaultdict(Counter)   # verdict index -> counters
        self.sites = []      # "module.attr" of every patched reference
        self.verdict = None  # index of the verdict running now
        self._stack = []

    def add(self, key, n):
        self.counts[self.verdict][key] += n

    def span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = all(spans[i][NAME] != name for i in stack)
            rec = [name, stack[-1] if stack else None, 0.0, 0.0,
                   self.verdict, outer]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(self, out, args)
            return out
        return wrapper

    def counted(self, key, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.add(key, 1)
            if after is not None:
                after(self, out, args)
            return out
        return wrapper


def _chain_counts(tracer, bsgs, args):
    # exact counts read off a returned chain; a representation change
    # must keep them
    tracer.add("perm.bsgs.levels", len(bsgs.levels))
    tracer.add("perm.bsgs.strong_gens", len(bsgs.strong_generators()))
    tracer.add("perm.bsgs.orbit_points",
               sum(lv.orbit_size() for lv in bsgs.levels))


def _lemma_counts(tracer, findings, args):
    tracer.add("grp.check_lemmas.findings", len(findings))
    tracer.add("grp.check_lemmas.skipped",
               sum(f.status == "skipped" for f in findings))


AFTER = {"perm.schreier_sims": _chain_counts,
         "perm.normal_closure_perm": _chain_counts,
         "grp.check_lemmas": _lemma_counts}


def install(tracer):
    """Wrap every traced entry point of the imported solvlen package."""
    from solvlen import atlas, cli, dsl, fpmat, grp, lift, perm  # noqa: F401
    mods = [m for n, m in sorted(sys.modules.items())
            if n == "solvlen" or n.startswith("solvlen.")]

    def replace(orig, new):
        for m in mods:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, new)
                    tracer.sites.append(f"{m.__name__}.{attr}")

    for name, mod, attr in SPANNED:
        orig = getattr(sys.modules["solvlen." + mod], attr)
        replace(orig, tracer.span(name, orig, AFTER.get(name)))
    replace(perm.as_perm, tracer.counted("perm.as_perm.calls", perm.as_perm))

    def closure_products(tracer, out, args):
        # every closure multiplies each element by each generator once;
        # FpMatrix.__mul__ itself is too hot to wrap
        _, identity, gens, _ = args
        if isinstance(identity, fpmat.FpMatrix):
            tracer.add("fpmat.products", len(out[0]) * len(gens))
    replace(grp._closure, tracer.counted("grp.closure.calls", grp._closure,
                                         closure_products))

    def enumeration(name, method, cache_attr):
        timed = tracer.span(name, method)

        @functools.wraps(method)
        def wrapper(self):
            fresh = getattr(self, cache_attr) is None
            out = timed(self)
            if fresh:
                tracer.add(name + ".count", len(out))
            return out
        return wrapper

    grp.GroupHandle.elements = enumeration(
        "grp.elements", grp.GroupHandle.elements, "_elements")
    grp.SubgroupHandle.element_set = enumeration(
        "grp.element_set", grp.SubgroupHandle.element_set, "_elem_set")
    tracer.sites += ["solvlen.grp.GroupHandle.elements",
                     "solvlen.grp.SubgroupHandle.element_set"]


def layer_metrics(tracer, verdicts, verdict_seconds):
    """Per-layer metrics over the given verdict indices.

    ``verdict_seconds`` is the wall time of those verdicts; the part of it
    that no top-level span covers is ``trace.unattributed_s``.  Times are
    wall seconds, not paced: they are read as shares of a round.
    """
    chosen = set(verdicts)
    spans = tracer.spans
    child_time = Counter()
    for rec in spans:
        if rec[PARENT] is not None:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    total, calls, self_time = Counter(), Counter(), Counter()
    covered = 0.0
    lift_sifts = 0
    for i, rec in enumerate(spans):
        if rec[VERDICT] not in chosen:
            continue
        name, dur = rec[NAME], rec[END] - rec[START]
        calls[name] += 1
        self_time[name] += dur - child_time[i]
        if rec[OUTER]:
            total[name] += dur
        if rec[PARENT] is None:
            covered += dur
        if name == "perm.schreier_sims" and _under(spans, i,
                                                   "lift.lift_generators"):
            lift_sifts += 1
    counts = Counter()
    for v in verdicts:
        counts.update(tracer.counts[v])
    out = {f"{n}.s": float(total[n]) for n in TIMED}
    out.update({f"{n}.calls": calls[n] for n in CALLED})
    out.update({k: counts[k] for k in COUNTED})
    out["grp.derived_series.self_s"] = float(self_time["grp.derived_series"])
    findings = counts["grp.check_lemmas.findings"]
    out["grp.check_lemmas.skipped_ratio"] = (
        counts["grp.check_lemmas.skipped"] / findings if findings else 0.0)
    out["lift.lift_generators.hit_ratio"] = 1 / lift_sifts if lift_sifts else 0.0
    out["trace.unattributed_s"] = verdict_seconds - covered
    return out


def reduction_calls(tracer):
    """Number of two-generator reductions per verdict index."""
    return Counter(rec[VERDICT] for rec in tracer.spans
                   if rec[NAME] == "lift.two_generator_reduction")


def _under(spans, i, name):
    parent = spans[i][PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
