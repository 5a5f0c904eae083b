"""Quadrature meshes: dyadically graded radial rules and angular rules.

The radial rule is a composite Gauss-Legendre rule on the dyadic cells
[1 - 2^-j, 1 - 2^-(j+1)], whose nodes accumulate geometrically at the right
endpoint.  Boundary power singularities of the catalogued functions are
resolved down to scale 2^-levels, so depth is logarithmic in the smallest
feature size.  All nodes are strictly interior to the cell, hence the right
endpoint itself is never evaluated.  The rules nest: ``levels + 1`` keeps the
first ``levels`` cells of ``levels``, node for node and weight for weight,
and splits only the last, open cell [1 - 2^-levels, 1] in two.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def _gauss01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


# Beyond this depth the innermost nodes would round onto the endpoint.
MAX_GRADING_LEVELS = 42
# Gauss nodes per dyadic cell of the default radial rule.
NODES_PER_CELL = 8


@lru_cache(maxsize=256)
def _graded_unit(levels: int, nodes_per_cell: int):
    """Nodes/weights on [0, 1] grading toward 1; weights sum to 1 exactly."""
    if not 1 <= levels <= MAX_GRADING_LEVELS:
        raise ValueError(f"graded mesh levels must lie in "
                         f"[1, {MAX_GRADING_LEVELS}], got {levels}")
    x, w = _gauss01(nodes_per_cell)
    cuts = [0.0] + [1.0 - 0.5 ** j for j in range(1, levels + 1)] + [1.0]
    nodes, weights = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        nodes.append(a + (b - a) * x)
        weights.append((b - a) * w)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def graded_radial_mesh(levels: int, nodes_per_cell: int = NODES_PER_CELL,
                       lo: float = 0.0):
    """Composite Gauss mesh of [lo, 1] with nodes accumulating at 1."""
    u, w = _graded_unit(levels, nodes_per_cell)
    if lo == 0.0:
        return u, w
    # the affine map may overshoot 1 by an ulp, and near 1 the complex
    # modulus of a node can round up to 1 exactly; keep a few ulps clear
    nodes = np.minimum(lo + (1.0 - lo) * u, 1.0 - 4.0 * np.finfo(float).eps)
    return nodes, (1.0 - lo) * w


def midpoint_angles(count: int) -> np.ndarray:
    """Uniform angles offset by half a step.

    The half-step shift keeps every refinement level away from angle 0,
    where the catalogued boundary singularities sit; for periodic smooth
    integrands the rule is spectrally accurate, like the plain trapezoid.
    """
    return 2.0 * np.pi * (np.arange(count) + 0.5) / count


def uniform_angles(count: int) -> np.ndarray:
    """Plain uniform angles on [0, 2 pi), starting at 0."""
    return 2.0 * np.pi * np.arange(count) / count


def angular_distance(t) -> np.ndarray:
    """Distance in R / 2 pi Z, i.e. min_k |t + 2 pi k|."""
    t = np.mod(np.asarray(t, dtype=float), 2.0 * np.pi)
    return np.minimum(t, 2.0 * np.pi - t)
