"""How a computed sequence is judged; every such rule is written here once.

Divergent norms (functions outside the space) are recognised by sustained
growth across refinements; the growth rate against the effective boundary
cutoff is reported as a fitted exponent.

A growth scan never returns a silent verdict: a ratio trace is declared
unbounded only when the last three budgeted ratios each exceed the first by
a factor of at least two and are monotone; anything short of a clean signal
is reported as inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["ExponentFit", "classify_ratio_trace", "refinement_stop"]


def refinement_stop(values: Sequence[float], rel_tol: float) -> str | None:
    """Why a refinement whose levels gave ``values`` stops after the last,
    or None: ``nonfinite`` (it overflowed), ``tol`` (the last two agree to
    ``rel_tol``; two zeros do not, as every sample may have underflowed) or
    ``growth`` (five growths by over 1 + ``rel_tol`` among the last six
    values, all positive, the last gain over 0.6 of the first: a slowly
    converging boundary-singular integral gains at every level too, but its
    gains decay geometrically)."""
    v = values[-1]
    if not math.isfinite(v):
        return "nonfinite"
    scale = max(abs(values[-2]), abs(v)) if len(values) > 1 else 0.0
    if scale > 0.0 and abs(v - values[-2]) <= rel_tol * scale:
        return "tol"
    recent = values[-6:]
    if len(recent) == 6 and min(recent) > 0.0:
        g = [recent[i + 1] / recent[i] for i in range(5)]
        if all(gi > 1 + rel_tol for gi in g) and g[-1] - 1 > 0.6 * (g[0] - 1):
            return "growth"
    return None


def classify_ratio_trace(ratios: Sequence[float]) -> str:
    """'unbounded' needs the last three ratios monotone and >= 2x the first;
    a trace capped below 2x the first is 'bounded'; otherwise 'inconclusive'."""
    vals = [v for v in ratios if math.isfinite(v)]
    if len(vals) < 4:
        return "inconclusive"
    first = vals[0]
    tail = vals[-3:]
    if all(v >= 2.0 * first for v in tail) and tail[0] <= tail[1] <= tail[2]:
        return "unbounded"
    if all(v < 2.0 * first for v in vals[1:]):
        return "bounded"
    return "inconclusive"


@dataclass
class ExponentFit:
    """The package's one least-squares line, through the (log-abscissa,
    log-ordinate) points with finite coordinates, two abscissae distinct."""

    slope: float
    intercept: float
    residual: float
    points: list

    @staticmethod
    def fit(points: Iterable[tuple]) -> "ExponentFit":
        pts = [(x, y) for x, y in points if math.isfinite(x) and math.isfinite(y)]
        # a set, not np.unique: its first call loads about 1.8 MB
        if len({x for x, _ in pts}) < 2:
            raise ValueError("an exponent fit needs two distinct abscissae")
        x, y = np.array(pts).T
        slope, intercept = np.polyfit(x, y, 1)
        residual = float(np.max(np.abs(y - (slope * x + intercept))))
        return ExponentFit(float(slope), float(intercept), residual, pts)
