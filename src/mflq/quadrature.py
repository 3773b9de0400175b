"""Fixed-step rules on uniform grids: the composite trapezoid rule and RK4
for linear ODEs with tabulated coefficients."""

from __future__ import annotations

import numpy as np

from .errors import FiniteEscapeError

# Norm threshold beyond which an ODE solution is declared to have escaped in
# finite time.
BLOWUP_NORM = 1e12


def trapezoid_weights(n_nodes: int, h: float) -> np.ndarray:
    """Node weights for the composite trapezoid rule with step h."""
    if n_nodes < 2:
        raise ValueError("trapezoid rule needs at least two nodes")
    w = np.full(n_nodes, h)
    w[0] = 0.5 * h
    w[-1] = 0.5 * h
    return w


def trapezoid(values, h: float, axis: int = 0) -> np.ndarray:
    """Integrate sampled values along an axis with the trapezoid rule."""
    values = np.asarray(values, dtype=float)
    n = values.shape[axis]
    w = trapezoid_weights(n, h)
    shape = [1] * values.ndim
    shape[axis] = n
    return np.sum(values * w.reshape(shape), axis=axis)


def _check_finite(name, y, node, time):
    norm = float(np.linalg.norm(y))
    if not np.isfinite(norm) or norm > BLOWUP_NORM:
        raise FiniteEscapeError(name, node, time, norm)


def linear_rk4(grid, L_node, g_node, L_mid, g_mid, start, name, backward=False):
    """Integrate dy/ds = L y + g with classical fixed-step RK4.

    L and g are tabulated at the nodes, (K+1, d, d) and (K+1, d), and at the
    interval midpoints, (K, d, d) and (K, d).  The sweep starts from
    ``start`` at the first node, or at the last one when ``backward``, and
    raises FiniteEscapeError (naming ``name``) at the first node whose
    solution is not finite or exceeds BLOWUP_NORM.  Returns y at every node.
    """
    K = grid.n_steps
    nodes = grid.nodes
    dt = -grid.h if backward else grid.h
    out = np.empty((K + 1,) + np.shape(start))
    steps = [(k, k - 1) for k in range(K, 0, -1)] if backward else [
        (k, k + 1) for k in range(K)
    ]
    out[steps[0][0]] = start
    for k, j in steps:
        y = out[k]
        Lm, gm = L_mid[min(k, j)], g_mid[min(k, j)]
        f1 = L_node[k] @ y + g_node[k]
        f2 = Lm @ (y + 0.5 * dt * f1) + gm
        f3 = Lm @ (y + 0.5 * dt * f2) + gm
        f4 = L_node[j] @ (y + dt * f3) + g_node[j]
        out[j] = y + (dt / 6.0) * (f1 + 2 * f2 + 2 * f3 + f4)
        _check_finite(name, out[j], j, nodes[j])
    return out
