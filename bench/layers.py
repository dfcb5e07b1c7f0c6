"""Per-layer metrics from the spans of the traced passes.

Every metric is always reported; a layer a workload never calls reads 0
calls and 0 time. ``calls`` is per traced study pass, so it compares across
runs of any length; the percentiles are over every traced call (their sample
count is ``calls`` x traced passes, printed alongside).
"""

from __future__ import annotations

import numpy as np

from tracer import FILTERS
from workloads import ORACLE_RUNS

# layers a filter step is built from; ``share`` is their inclusive time inside
# filter spans over the total filter-span time
STEP_LAYERS = (
    "rng.generator",
    "resampling.multinomial_resample",
    "models.log_g",
    "models.sample_mutation",
    "twists.log_psi",
    "twists.log_q_psi",
    "twists.sample_twisted_mutation",
)
# the oracle's dense product-space matrices alive in one kernel set:
# m_bold, m_tilde, q_bold, phi, r_tilde
DENSE_MATRICES = 5


def _inside(start, end, idx, outer) -> np.ndarray:
    """Mask over ``idx``: span lies within one of the (non-nested) ``outer`` spans."""
    if len(idx) == 0 or len(outer) == 0:
        return np.zeros(len(idx), dtype=bool)
    order = np.argsort(start[outer])
    o_start, o_end = start[outer][order], end[outer][order]
    j = np.searchsorted(o_start, start[idx], side="right") - 1
    return (j >= 0) & (end[idx] <= o_end[np.maximum(j, 0)])


def layer_metrics(tracer, passes: int) -> tuple[dict, dict]:
    """``({name: (value, unit)}, {name: sample count})`` for the traced passes."""
    a = tracer.arrays()
    start, end = a["start"], a["end"]
    dur = end - start
    ids = {name: i for i, name in enumerate(tracer.names)}

    def spans(name):
        return np.flatnonzero(a["name"] == ids[name]) if name in ids else np.empty(0, int)

    has_parent = a["parent"] >= 0
    child = np.zeros(len(dur))
    np.add.at(child, a["parent"][has_parent], dur[has_parent])

    m, samples = {}, {}

    def timing(prefix, idx):
        us = dur[idx] * 1e6
        m[f"{prefix}.calls"] = (len(idx) / passes, "count")
        m[f"{prefix}.us_p50"] = (float(np.percentile(us, 50)) if len(us) else 0.0, "us")
        m[f"{prefix}.us_p99"] = (float(np.percentile(us, 99)) if len(us) else 0.0, "us")
        samples[prefix] = len(idx)

    def share(idx, outer):
        total = float(dur[outer].sum())
        inner = float(dur[idx][_inside(start, end, idx, outer)].sum())
        return inner / total if total > 0 else 0.0

    filter_spans = np.concatenate([spans(f"filters.{f}") for f in FILTERS])
    for f in FILTERS:
        idx = spans(f"filters.{f}")
        timing(f"filters.{f}", idx)
        steps = sum(tracer.sizes[i][1] for i in idx)
        self_s = float((dur[idx] - child[idx]).sum())
        m[f"filters.{f}.self_us_per_step"] = (self_s * 1e6 / steps if steps else 0.0, "us")

    for layer in STEP_LAYERS:
        idx = spans(layer)
        timing(layer, idx)
        m[f"{layer}.share"] = (share(idx, filter_spans), "ratio")

    eig = spans("twists.eigen_triple")
    m["twists.eigen_triple.calls"] = (len(eig) / passes, "count")
    m["twists.eigen_triple.ms"] = (float(np.median(dur[eig])) * 1e3 if len(eig) else 0.0, "ms")
    m["harness.draw_window.calls"] = (len(spans("harness.draw_window")) / passes, "count")

    moments = spans("oracle.exact_moments")
    kernels = spans("oracle.build_bold_kernels")
    timing("oracle.build_bold_kernels", kernels)
    m["oracle.build_bold_kernels.share"] = (share(kernels, moments), "ratio")
    by_n = {}
    for i in moments:
        n_particles, n_steps, k = tracer.sizes[i]
        by_n.setdefault(n_particles, ([], k))[0].append(dur[i] * 1e3 / max(n_steps, 1))
    for n_particles, _ in ORACLE_RUNS:
        per_step, k = by_n.get(n_particles, ([], 0))
        states = k**n_particles if per_step else 0
        m[f"oracle.exact_moments.ms_per_step.N{n_particles}"] = (
            float(np.median(per_step)) if per_step else 0.0, "ms")
        # computed from k^N, not measured
        m[f"oracle.states_computed.N{n_particles}"] = (states, "count")
        m[f"oracle.dense_bytes_computed.N{n_particles}"] = (
            DENSE_MATRICES * states * states * 8, "B")

    return m, samples
