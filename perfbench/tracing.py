"""Span recorder for the traced benchmark run.

The recorder wraps the public names through which one radmix layer reaches
the next, for the duration of a traced pass, and records one span per
wrapped call: name, start, end, parent span and a few call attributes.
Spans stay in memory until the run ends.  Per-layer metrics are derived
from them afterwards; a layer's self time is the duration of its spans
minus the time their child spans cover.

The program itself is not modified: every wrap is an attribute of a radmix
module or class, restored when the traced pass ends.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from radmix import bergman, norms, theorems, witnesses
from radmix.exponents import ExponentPair

REPRESENTATIONS = ("Lacunary", "PowerSingularity", "CesaroPower", "Monomial")


class SpanRecorder:
    """In-memory spans of one traced pass; ``run_id`` is shared by a run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []   # [name, start, end, parent index, attrs]
        self._open: list = []

    def wrap(self, name: str, fn, attrs=None):
        spans, stack = self.spans, self._open

        def spanned(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = [name, start, end, parent, None]
            if attrs is not None:
                spans[sid][4] = attrs(args, out)
            return out

        spanned.__wrapped__ = fn
        return spanned

    def to_json(self) -> list:
        return [[self.run_id, i, name, start, end, parent, attrs]
                for i, (name, start, end, parent, attrs) in enumerate(self.spans)]


def _evaluate_attrs(args, out):
    return [type(args[0]).__name__, int(np.size(args[1]))]


def _branch(pq) -> str:
    pq = pq if isinstance(pq, ExponentPair) else ExponentPair.of(*pq)
    if not pq.q.is_finite:
        return "q_inf"
    return "q_finite" if pq.p.is_finite else "p_inf"


def _mixed_norm_attrs(args, est):
    if math.isinf(est.value):
        status = "diverged"
    else:
        status = "converged" if est.converged else "not_converged"
    return [_branch(args[1]), len(est.trace), status]


def _apply_attrs(args, out):
    nr, m = args[1].grid.shape
    return [nr * nr * m * 16]


# (owner, attribute, span name, attribute extractor)
BOUNDARIES = (
    (norms, "evaluate", "functions.evaluate", _evaluate_attrs),
    (theorems, "evaluate", "functions.evaluate", _evaluate_attrs),
    (bergman, "evaluate", "functions.evaluate", _evaluate_attrs),
    (norms, "graded_radial_mesh", "meshes.graded_radial_mesh", None),
    (norms, "midpoint_angles", "meshes.midpoint_angles", None),
    (bergman, "graded_radial_mesh", "meshes.graded_radial_mesh", None),
    (bergman, "uniform_angles", "meshes.uniform_angles", None),
    (norms, "mixed_norm", "norms.mixed_norm", _mixed_norm_attrs),
    (theorems, "mixed_norm", "norms.mixed_norm", _mixed_norm_attrs),
    (theorems, "inclusion_witness_scan", "theorems.inclusion_witness_scan",
     None),
    (theorems.NormCache, "norm", "theorems.NormCache.norm", None),
    (theorems, "power_singularity", "witnesses.power_singularity", None),
    (theorems, "cesaro_power", "witnesses.cesaro_power", None),
    (witnesses, "power_singularity", "witnesses.power_singularity", None),
    (witnesses.ProjectionBlowupDensity, "__call__",
     "witnesses.ProjectionBlowupDensity", None),
    (bergman, "operator_norm_estimate", "bergman.operator_norm_estimate",
     None),
    (bergman, "apply_kernel_operator", "bergman.apply_kernel_operator",
     _apply_attrs),
    (bergman, "project", "bergman.project", None),
    (bergman, "duality_pairing", "bergman.duality_pairing", None),
    (bergman, "sample_on_grid", "bergman.sample_on_grid", None),
)


@contextmanager
def traced(recorder: SpanRecorder):
    """Wrap every layer boundary for the duration of the block.

    Yields the wrapper for the ``op`` argument of ``operator_norm_estimate``.
    """
    saved = []
    try:
        for owner, attr, name, attrs in BOUNDARIES:
            fn = vars(owner)[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, recorder.wrap(name, fn, attrs))
        yield lambda op: recorder.wrap("bergman.operator", op)
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def traced_pass(work, run_id: str) -> tuple:
    """One pass of ``work`` with every boundary wrapped and tracemalloc on.

    Returns the PassResult, with the peak traced allocation of a pass that
    reached ``bergman`` added to its counts, and the SpanRecorder.
    """
    recorder = SpanRecorder(run_id)
    tracemalloc.start()
    try:
        with traced(recorder) as op_wrapper:
            res = work.run_pass(op_wrapper)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    reached = any(s[0].startswith("bergman.") for s in recorder.spans)
    res.counts["bergman.peak_alloc_mb"] = peak / 2 ** 20 if reached else 0.0
    return res, recorder


# -- per-layer metrics ----------------------------------------------------------

COUNTS = (
    "functions.evaluate.calls", "functions.evaluate.points", "meshes.calls",
    "norms.mixed_norm.calls", "norms.levels_per_estimate",
    "norms.points_per_estimate", "norms.diverged", "norms.not_converged",
    "theorems.cells", "theorems.norm_cache.lookups",
    "theorems.norm_cache.misses", "theorems.norm_cache.hit_rate",
    "theorems.inconclusive_cells", "theorems.disagreements",
    "bergman.apply.calls", "bergman.tensor_bytes_computed",
    "bergman.project.calls",
)


def layer_metrics(spans: list, counts: dict) -> dict:
    """Per-layer counts and times of one traced pass.

    ``counts`` carries the verdict counts the workload itself reports.
    Counts and ratios of counts repeat exactly for a fixed seed; times are
    seconds of wall clock, self time unless the name says otherwise.
    """
    n = len(spans)
    child = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    own = [end - start - child[i]
           for i, (_, start, end, _, _) in enumerate(spans)]
    caller = [spans[p][0] if p is not None else None
              for _, _, _, p, _ in spans]

    m = {k: 0 for k in COUNTS}
    m.update(counts)
    times = {k: 0.0 for k in (
        "functions.evaluate.self_s", "meshes.self_s", "norms.mixed_norm.self_s",
        "norms.mixed_norm_s.q_inf", "norms.mixed_norm_s.q_finite",
        "norms.mixed_norm_s.p_inf", "theorems.self_s", "witnesses.self_s",
        "bergman.apply_s", "bergman.project_s", "bergman.sample_s")}
    eval_s = {r: 0.0 for r in REPRESENTATIONS}
    eval_points = {r: 0 for r in REPRESENTATIONS}
    levels = estimate_points = 0
    for i, (name, start, end, _, attrs) in enumerate(spans):
        layer = name.split(".", 1)[0]
        if name == "functions.evaluate":
            m["functions.evaluate.calls"] += 1
            m["functions.evaluate.points"] += attrs[1]
            times["functions.evaluate.self_s"] += own[i]
            if attrs[0] in eval_s:
                eval_s[attrs[0]] += own[i]
                eval_points[attrs[0]] += attrs[1]
            if caller[i] == "norms.mixed_norm":
                estimate_points += attrs[1]
        elif layer == "meshes":
            m["meshes.calls"] += 1
            times["meshes.self_s"] += own[i]
        elif name == "norms.mixed_norm":
            m["norms.mixed_norm.calls"] += 1
            times["norms.mixed_norm.self_s"] += own[i]
            times["norms.mixed_norm_s." + attrs[0]] += end - start
            levels += attrs[1]
            if attrs[2] != "converged":
                m["norms." + attrs[2]] += 1
            if caller[i] == "theorems.NormCache.norm":
                m["theorems.norm_cache.misses"] += 1
        elif layer == "theorems":
            times["theorems.self_s"] += own[i]
            if name == "theorems.inclusion_witness_scan":
                m["theorems.cells"] += 1
            else:
                m["theorems.norm_cache.lookups"] += 1
        elif layer == "witnesses":
            times["witnesses.self_s"] += own[i]
        elif name == "bergman.apply_kernel_operator":
            m["bergman.apply.calls"] += 1
            m["bergman.tensor_bytes_computed"] += attrs[0]
            times["bergman.apply_s"] += end - start
        elif name == "bergman.project":
            m["bergman.project.calls"] += 1
            times["bergman.project_s"] += end - start
        elif name == "bergman.sample_on_grid":
            times["bergman.sample_s"] += end - start
    calls = m["norms.mixed_norm.calls"]
    if calls:
        m["norms.levels_per_estimate"] = levels / calls
        m["norms.points_per_estimate"] = estimate_points / calls
    lookups = m["theorems.norm_cache.lookups"]
    if lookups:
        m["theorems.norm_cache.hit_rate"] = (
            1.0 - m["theorems.norm_cache.misses"] / lookups)
    for r in REPRESENTATIONS:
        m["functions.ns_per_point." + r] = (
            1e9 * eval_s[r] / eval_points[r] if eval_points[r] else 0.0)
    m.update(times)
    return m
