"""Fixed-step rules on uniform grids: the composite trapezoid rule, the one
classical RK4 stepper that every ODE sweep runs on, and its wrapper for
linear ODEs with tabulated coefficients."""

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


def trapezoid(values, h: float) -> np.floating:
    """Integrate node samples, shape (K+1,), with the trapezoid rule."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"trapezoid expects node samples (K+1,), got {values.shape}")
    return np.sum(values * trapezoid_weights(values.size, h))


def _check_finite(name, y, node, time):
    norm = float(np.linalg.norm(y))
    if not np.isfinite(norm) or norm > BLOWUP_NORM:
        raise FiniteEscapeError(name, node, time, norm)


def rk4_steps(grid, f_node, f_mid, start, backward=False, post=None):
    """Classical fixed-step RK4 over a uniform grid, one step at a time.

    ``f_node(y, k)`` is the derivative at node k and ``f_mid(y, i)`` the one
    at the midpoint of interval i.  The sweep starts from ``start`` at the
    first node, or at the last one when ``backward``, and yields ``(j, y_j)``
    after every step; ``post``, when given, maps each new value before it is
    yielded and stepped from.  Callers store, accumulate and check for
    finite escape as they need.
    """
    K = grid.n_steps
    dt = -grid.h if backward else grid.h
    y = start
    for k in range(K, 0, -1) if backward else range(K):
        j = k - 1 if backward else k + 1
        i = min(k, j)
        f1 = f_node(y, k)
        f2 = f_mid(y + 0.5 * dt * f1, i)
        f3 = f_mid(y + 0.5 * dt * f2, i)
        f4 = f_node(y + dt * f3, j)
        y = y + (dt / 6.0) * (f1 + 2 * f2 + 2 * f3 + f4)
        if post is not None:
            y = post(y)
        yield j, y


def linear_rk4(grid, L_node, g_node, L_mid, g_mid, start, name, backward=False):
    """Integrate dy/ds = L y + g with classical fixed-step RK4.

    L and g are tabulated at the nodes, (K+1, d, d) and (K+1, d), and at the
    interval midpoints, (K, d, d) and (K, d).  The sweep starts from
    ``start`` at the first node, or at the last one when ``backward``, and
    raises FiniteEscapeError (naming ``name``) at the first node whose
    solution is not finite or exceeds BLOWUP_NORM.  Returns y at every node.
    """
    nodes = grid.nodes
    out = np.empty((grid.n_steps + 1,) + np.shape(start))
    first = grid.n_steps if backward else 0
    out[first] = start
    steps = rk4_steps(
        grid,
        lambda y, k: L_node[k] @ y + g_node[k],
        lambda y, i: L_mid[i] @ y + g_mid[i],
        out[first],
        backward,
    )
    for j, y in steps:
        _check_finite(name, y, j, nodes[j])
        out[j] = y
    return out
