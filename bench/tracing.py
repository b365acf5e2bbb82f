"""Spans around the calls into each greenbox module, for the traced run.

``instrumented(tracer)`` replaces public functions at the module attribute
through which they are called (``greenbox.report.relative_box``,
``greenbox.presented.rref``, ``PresentedLevel.canonicalize``, ...) with
wrappers that record one span per call: name, start, end and the index of the
enclosing span.  Spans stay in memory and are written out by ``write_jsonl``
when the run ends.  Nothing in ``src/`` is changed; the originals are put
back when the context exits.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module whose attribute is replaced, attribute).  A span is
# named after the module that defines the function, not the one it is
# called through.
SPANNED = (
    ("report.load_config", "greenbox.cli", "load_config"),
    ("report.run_pipeline", "greenbox.cli", "run_pipeline"),
    ("report.emit", "greenbox.cli", "emit"),
    ("report.fuzz", "greenbox.cli", "fuzz"),
    ("extensions.kummer_extension", "greenbox.report", "kummer_extension"),
    ("extensions.artin_schreier_extension", "greenbox.report",
     "artin_schreier_extension"),
    ("green.fix_functor", "greenbox.report", "fix_functor"),
    ("green.check_green", "greenbox.report", "check_green"),
    ("green.check_norms", "greenbox.report", "check_norms"),
    ("mackey.check_axioms", "greenbox.report", "check_axioms"),
    ("mackey.random_mackey", "greenbox.report", "random_mackey"),
    ("mackey.small_random_mackey", "greenbox.report", "small_random_mackey"),
    ("boxes.relative_box", "greenbox.report", "relative_box"),
    ("boxes.box", "greenbox.report", "box"),
    ("boxes.coequalizer_oracle", "greenbox.report", "coequalizer_oracle"),
    ("boxes.prime_box_oracle", "greenbox.report", "prime_box_oracle"),
    ("boxes.compare_boxes", "greenbox.report", "compare_boxes"),
    ("etale.mult_map", "greenbox.report", "mult_map"),
    ("etale.ideal_and_square", "greenbox.report", "ideal_and_square"),
    ("etale.unit_section_check", "greenbox.report", "unit_section_check"),
    ("etale.kummer_congruence_checks", "greenbox.report",
     "kummer_congruence_checks"),
    ("etale.classical_etale_oracle", "greenbox.report",
     "classical_etale_oracle"),
    ("modules.projectivity_certificate", "greenbox.report",
     "projectivity_certificate"),
    ("modules.verify_certificate", "greenbox.report", "verify_certificate"),
    ("modules.eigen_decompose", "greenbox.report", "eigen_decompose"),
    ("modules.check_eigen", "greenbox.report", "check_eigen"),
    ("linalg.rref", "greenbox.linalg", "rref"),
    ("linalg.rref", "greenbox.presented", "rref"),
    ("presented.canonicalize", "greenbox.presented",
     "PresentedLevel.canonicalize"),
)

# Calls that are only counted: they are too many and too short for a span.
COUNTED = (
    ("linalg.span_add", "greenbox.linalg", "Span.add"),
)

# Spans whose arguments and results are kept for the size counts and for the
# descent-check probe.
KEPT = ("boxes.relative_box", "etale.ideal_and_square",
        "etale.kummer_congruence_checks")


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans = []              # (name, start, end, parent index or -1)
        self.counts = Counter()      # counted calls by name
        self.kept = defaultdict(list)  # span name -> [(args, kwargs, result)]
        self._stack = []

    def spanned(self, name, fn):
        spans, stack = self.spans, self._stack
        kept = self.kept[name] if name in KEPT else None

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if kept is not None:
                kept.append((args, kwargs, result))
            return result
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def _owner(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route the calls named in SPANNED and COUNTED through ``tracer``."""
    saved = []
    try:
        for targets, make in ((SPANNED, tracer.spanned),
                              (COUNTED, tracer.counted)):
            for name, module_name, attr in targets:
                owner, leaf = _owner(module_name, attr)
                orig = getattr(owner, leaf)
                saved.append((owner, leaf, orig))
                setattr(owner, leaf, make(name, orig))
        yield tracer
    finally:
        for owner, leaf, orig in reversed(saved):
            setattr(owner, leaf, orig)


def aggregate(spans) -> dict:
    """name -> [calls, inclusive seconds, self seconds].

    Self time is a span's duration minus the durations of its direct
    children.  A call nested directly in a span of the same name (``rref``
    with ``pivot_order="last"`` calls itself) adds to self time only."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for i, (name, t0, t1, parent) in enumerate(spans):
        entry = out.setdefault(name, [0, 0.0, 0.0])
        if parent < 0 or spans[parent][0] != name:
            entry[0] += 1
            entry[1] += t1 - t0
        entry[2] += t1 - t0 - child[i]
    return out


def write_jsonl(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, t0, t1, parent) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                 "end": t1, "parent": parent}) + "\n")


# per-layer time metric -> the spans whose inclusive time it sums
TIME_METRICS = {
    "boxes.relative_box_s": ("boxes.relative_box",),
    "boxes.coequalizer_oracle_s": ("boxes.coequalizer_oracle",),
    "boxes.prime_oracle_s": ("boxes.prime_box_oracle",),
    "boxes.box_s": ("boxes.box",),
    "boxes.compare_s": ("boxes.compare_boxes",),
    "presented.canonicalize_s": ("presented.canonicalize",),
    "linalg.rref_s": ("linalg.rref",),
    "etale.mult_map_s": ("etale.mult_map",),
    "etale.ideal_and_square_s": ("etale.ideal_and_square",),
    "etale.congruences_s": ("etale.kummer_congruence_checks",),
    "etale.classical_oracle_s": ("etale.classical_etale_oracle",),
    "mackey.random_mackey_s": ("mackey.random_mackey",
                               "mackey.small_random_mackey"),
    "mackey.check_axioms_s": ("mackey.check_axioms",),
    "green.fix_functor_s": ("green.fix_functor",),
    "green.axiom_checks_s": ("green.check_green", "green.check_norms"),
    "extensions.build_s": ("extensions.kummer_extension",
                           "extensions.artin_schreier_extension"),
    "modules.certificate_s": ("modules.projectivity_certificate",
                              "modules.verify_certificate"),
    "modules.eigen_s": ("modules.eigen_decompose", "modules.check_eigen"),
    "report.load_config_s": ("report.load_config",),
    "report.emit_s": ("report.emit",),
}


def layer_metrics(tracer: Tracer, nocheck_s: float) -> dict:
    """Per-layer metrics of one traced pass.

    ``nocheck_s`` is the time of the same ``relative_box`` calls made again
    with ``check=False``; the difference is the descent checks' share.
    """
    agg = aggregate(tracer.spans)

    def total(names, col):
        return sum(agg[n][col] for n in names if n in agg)

    out = {name: total(spans, 1) for name, spans in TIME_METRICS.items()}
    out["boxes.descent_check_s"] = out["boxes.relative_box_s"] - nocheck_s
    out["report.pipeline_self_s"] = total(("report.run_pipeline",), 2)
    out["presented.canonicalize_calls"] = total(("presented.canonicalize",), 0)
    out["linalg.rref_calls"] = total(("linalg.rref",), 0)
    out["linalg.span_add_calls"] = tracer.counts["linalg.span_add"]
    out["mackey.functors"] = total(("mackey.random_mackey",
                                    "mackey.small_random_mackey"), 0)

    # sizes of every relative box built in the pass, summed over levels
    gens = rows = rank = dim = cache = 0
    for _, _, bx in tracer.kept["boxes.relative_box"]:
        for lvl in bx.levels.values():
            gens += lvl.ngens
            rows += len(lvl.relations)
            rank += lvl.rel_rank()
            dim += lvl.dim
        cache += len(bx._mult_cache)
    out.update({
        "boxes.ambient_gens": gens,
        "boxes.relation_rows": rows,
        "boxes.relation_rank": rank,
        "boxes.reduced_dim": dim,
        "boxes.mult_cache_entries": cache,
        "boxes.useful_relation_ratio": rank / rows if rows else 0.0,
    })
    out["etale.congruence_checks"] = sum(
        rep.checks_run for _, _, rep in
        tracer.kept["etale.kummer_congruence_checks"])
    ideals = [data for _, _, data in tracer.kept["etale.ideal_and_square"]]
    out["etale.ideal_dim"] = sum(len(v) for d in ideals
                                 for v in d.ideal.values())
    out["etale.square_dim"] = sum(len(v) for d in ideals
                                  for v in d.square.values())
    return out


def span_table(tracer: Tracer) -> list:
    """Printable lines: calls, inclusive and self seconds per span name."""
    agg = aggregate(tracer.spans)
    lines = [f"{'span':36s} {'calls':>8s} {'incl_s':>10s} {'self_s':>10s}"]
    for name, (calls, incl, self_s) in sorted(agg.items(),
                                              key=lambda kv: -kv[1][1]):
        lines.append(f"{name:36s} {calls:8d} {incl:10.4f} {self_s:10.4f}")
    return lines
