"""Fixed-step rules on uniform grids: the composite trapezoid rule, the one
classical RK4 tableau that every ODE sweep runs on, and the two ways it is
driven.  ``rk4_steps`` takes one step at a time and serves the nonlinear
Riccati pair and the moment pair.  ``linear_rk4`` serves linear ODEs with
tabulated coefficients: each RK4 step of dy/ds = L y + g is an affine map
y -> Phi y + psi, so it builds those maps for a run of steps in one batched
pass of the same tableau and then walks the run with one product per step.
The Riccati sweep, the moment sweep and the linear walk screen each step
for finite escape with one dot product."""

from __future__ import annotations

import numpy as np

from .errors import FiniteEscapeError

# Norm threshold beyond which an ODE solution is declared to have escaped in
# finite time.
BLOWUP_NORM = 1e12

# A step whose norm stays below this cannot have escaped, so the named
# check, which reports the quantity, node and time, runs only past it.
_ESCAPE_SCREEN = 0.5 * BLOWUP_NORM

# Grid points per batched build, in the Riccati node and midpoint passes and
# in the propagator runs of ``linear_rk4``: it bounds the size of the
# build's temporaries however fine the grid.
_RUN = 256


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


def _screen_passes(y) -> bool:
    """True when y's norm is surely within _ESCAPE_SCREEN; NaN fails it."""
    v = y.ravel()
    return bool(v @ v <= _ESCAPE_SCREEN * _ESCAPE_SCREEN)


def _rk4_step(y, dt, k, i, j, f_node, f_mid):
    """One classical RK4 step of size dt from node k to node j through the
    midpoint i of their interval; k, i and j may be index arrays, stepping
    a batch of values at once."""
    f1 = f_node(y, k)
    f2 = f_mid(y + 0.5 * dt * f1, i)
    f3 = f_mid(y + 0.5 * dt * f2, i)
    f4 = f_node(y + dt * f3, j)
    return y + (dt / 6.0) * (f1 + 2 * f2 + 2 * f3 + f4)


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
        y = _rk4_step(y, dt, k, min(k, j), j, f_node, f_mid)
        if post is not None:
            y = post(y)
        yield j, y


def _affine_rate(L, g):
    """Rate of an augmented value Y = [Phi | psi] under dy/ds = L y + g at a
    batch of grid points: L[idx] @ Y, with g[idx] added to the last column."""

    def rate(Y, idx):
        R = L[idx] @ Y
        R[..., -1] += g[idx]
        return R

    return rate


def linear_rk4(grid, L_node, g_node, L_mid, g_mid, start, name, backward=False):
    """Integrate dy/ds = L y + g with classical fixed-step RK4.

    L and g are tabulated at the nodes, (K+1, d, d) and (K+1, d), and at the
    interval midpoints, (K, d, d) and (K, d).  The sweep starts from
    ``start`` at the first node, or at the last one when ``backward``, and
    raises FiniteEscapeError (naming ``name``) at the first node whose
    solution is not finite or exceeds BLOWUP_NORM.  Returns y at every node.

    Each RK4 step is the affine map y_j = Phi y_k + psi.  For every run of
    at most _RUN steps, in sweep order, one batched RK4 step applied to the
    augmented identity [I | 0] gives [Phi | psi] of all the run's steps;
    the run is then walked with one product and one add per step.
    """
    K = grid.n_steps
    nodes = grid.nodes
    d = np.shape(start)[-1]
    out = np.empty((K + 1,) + np.shape(start))
    first = K if backward else 0
    out[first] = start
    y = out[first]
    dt = -grid.h if backward else grid.h
    f_node, f_mid = _affine_rate(L_node, g_node), _affine_rate(L_mid, g_mid)
    eye = np.eye(d, d + 1)
    for s in range(0, K, _RUN):
        k = np.arange(s, min(s + _RUN, K))
        if backward:
            k = K - k
        j = k - 1 if backward else k + 1
        maps = _rk4_step(eye, dt, k, np.minimum(k, j), j, f_node, f_mid)
        Phi, psi = maps[..., :d], maps[..., d]
        for t, node in enumerate(j.tolist()):
            y = Phi[t] @ y + psi[t]
            if not _screen_passes(y):
                _check_finite(name, y, node, nodes[node])
            out[node] = y
    return out
