"""Fixed-step rules on uniform grids: the composite trapezoid rule, the one
classical RK4 tableau that every ODE sweep runs on, and the two ways it is
driven.  ``rk4_steps`` takes one step at a time and serves the nonlinear
Riccati pair and the moment pair.  ``linear_rk4`` serves linear ODEs with
tabulated coefficients: each RK4 step of dy/ds = L y + g is an affine map
y -> Phi y + psi, so it builds those maps for a run of steps in one batched
pass of the same tableau, composes every prefix of the run by doubling and
reads all the run's nodes off the composed maps at once.  The Riccati and
moment sweeps screen each step for finite escape with one dot product; a
linear sweep screens each run with one batched one."""

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
# build's temporaries however fine the grid, and a run's doubling scan to
# ceil(log2 _RUN) = 8 batched products.
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


def _prefix_products(M):
    """Every prefix product of a run of augmented affine maps, in place:
    M[t] becomes M[t] @ ... @ M[0].  A Hillis-Steele scan, one batched
    product per doubling of the span, so ceil(log2 len(M)) products in all;
    each map's last row stays [0 ... 0 1], so only the rows above it are
    formed."""
    d = M.shape[-1] - 1
    span = 1
    while span < len(M):
        M[span:, :d] = M[span:, :d] @ M[:-span]
        span *= 2


def _carry_run(maps, y, ends, out, name, times):
    """Carry y through a run of step maps [Phi | psi], (n, d, d+1), storing
    the value after each step at the grid index ``ends`` gives for it in
    ``out``; returns the last.  ``times`` are the grid's node times.

    The maps are augmented to (d+1)-square, composed by ``_prefix_products``
    and applied to [y; 1] in one batched product.  Nodes whose squared norm
    fails the screen get the named check in sweep order.  A composed map
    can overflow where the step-by-step values stay finite (a growing mode
    that y does not excite gives inf * 0), so at the first value that is not
    finite the composition restarts from the node before it.  A restart's
    first value is one plain step, so every restart advances a node.
    """
    n, d = maps.shape[:2]
    M = np.zeros((n, d + 1, d + 1))
    M[:, d, d] = 1.0
    r = 0
    while r < n:
        M[r:, :d] = maps[r:]
        with np.errstate(over="ignore", invalid="ignore"):
            _prefix_products(M[r:])
            Y = M[r:, :d] @ np.append(y, 1.0)
            tripped = ~(np.einsum("ti,ti->t", Y, Y) <= _ESCAPE_SCREEN**2)
        blown = ~np.isfinite(Y).all(axis=1)
        stop = max(int(blown.argmax()), 1) if blown.any() else n - r
        for t in np.flatnonzero(tripped[:stop]):
            node = ends[r + t]
            _check_finite(name, Y[t], node, times[node])
        out[ends[r : r + stop]] = Y[:stop]
        y = Y[stop - 1]
        r += stop
    return y


def linear_rk4(grid, L_node, g_node, L_mid, g_mid, start, name, backward=False):
    """Integrate dy/ds = L y + g with classical fixed-step RK4.

    L and g are tabulated at the nodes, (K+1, d, d) and (K+1, d), and at the
    interval midpoints, (K, d, d) and (K, d).  The sweep starts from
    ``start`` at the first node, or at the last one when ``backward``, and
    raises FiniteEscapeError (naming ``name``) at the first node whose
    solution is not finite or exceeds BLOWUP_NORM.  Returns y at every node.

    Each RK4 step is the affine map y_j = Phi y_k + psi.  For every run of
    at most _RUN steps, in sweep order, one batched RK4 step applied to the
    augmented identity [I | 0] gives [Phi | psi] of all the run's steps.
    Those maps are composed by doubling into the map from the run's start
    to each of its nodes, in ceil(log2 _RUN) batched products, and y at all
    the run's nodes is read off them with one more; no step is walked.
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
        y = _carry_run(maps, y, j, out, name, nodes)
    return out
