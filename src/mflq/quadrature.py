"""Fixed-step rules on uniform grids: the composite trapezoid rule, the one
classical RK4 tableau that every ODE sweep runs on, and the two ways it is
driven.  ``rk4_steps`` takes one step at a time and serves the nonlinear
Riccati pair and the moment pair.  ``linear_rk4`` serves linear ODEs with
coefficients on the grid: each RK4 step of dy/ds = L y + g is an affine map
y -> Phi y + psi, so it builds those maps, as increments Phi - I, for a run
of steps in one batched pass of the same tableau, and reads all the run's
nodes off them with a work-efficient scan: fewer map products than steps,
then one matrix-vector product per node, in a few batched products a
level.  It reads each table one run at a time, so a table may be an
``OnDemand`` one that builds only the run's points and is never held
whole.  It returns the rate L y + g at the nodes with y, formed on the
node tables each run already built.  The Riccati and moment sweeps screen
each step for finite escape with one dot product; a linear sweep screens
each run with one batched one."""

from __future__ import annotations

import numpy as np

from .errors import FiniteEscapeError

# Norm threshold beyond which an ODE solution is declared to have escaped in
# finite time.
BLOWUP_NORM = 1e12

# A step whose norm stays below this cannot have escaped, so the named
# check, which reports the quantity, node and time, runs only past it.
_ESCAPE_SCREEN = 0.5 * BLOWUP_NORM

# Grid points per run of a batched pass.  Every such pass (the Riccati node
# pass and dense output and ``linear_rk4``) cuts the grid with
# ``_run_slices``: this bounds a pass's run workspace however fine the
# grid, and a run's scan to 2 ceil(log2 _RUN) = 16 batched products.
_RUN = 256


def _run_slices(n_points):
    """The runs of n_points grid points, in order: slices of _RUN points but
    the last, so a workspace sized to the first holds any run's rows."""
    return [slice(s, min(s + _RUN, n_points)) for s in range(0, n_points, _RUN)]


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


def _stage(y, f, c):
    """The stage value y + c f, in one fresh array."""
    z = f * c
    z += y
    return z


def _rk4_step(y, dt, k, i, j, f_node, f_mid):
    """The increment (dt/6) (f1 + 2 f2 + 2 f3 + f4) of one classical RK4
    step of size dt from node k to node j through the midpoint i of their
    interval; k, i and j may be ranges of a run's rows, stepping a batch
    of values at once.  The caller adds y, so a linear sweep can keep the
    increment of a step map, which Phi = I + increment would round.

    Each rate must return a fresh array: the increment is formed in place
    on them, with the formula's roundings in its order, so the only arrays
    a step allocates are its three stage values."""
    f1 = f_node(y, k)
    f2 = f_mid(_stage(y, f1, 0.5 * dt), i)
    f3 = f_mid(_stage(y, f2, 0.5 * dt), i)
    f4 = f_node(_stage(y, f3, dt), j)
    f2 *= 2
    f2 += f1
    f3 *= 2
    f2 += f3
    f2 += f4
    f2 *= dt / 6.0
    return f2


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
        dy = _rk4_step(y, dt, k, min(k, j), j, f_node, f_mid)
        dy += y
        y = dy if post is None else post(dy)
        yield j, y


class OnDemand:
    """A coefficient table that is never held whole: ``table[idx]`` builds
    the points idx, an int, a slice or an index array, with ``build(idx)``.
    ``linear_rk4`` asks one run of points at a time, a stepwise sweep one
    point."""

    __slots__ = ("build",)

    def __init__(self, build):
        self.build = build

    def __getitem__(self, idx):
        return self.build(idx)


def _affine_rate(L, g):
    """Rate of an augmented value Y = [Phi | psi] under dy/ds = L y + g at a
    batch of a run's points, given as a range of rows of the run's tables L
    and g, which are read through the matching slice: L @ Y, with g added
    to the last column."""

    def rate(Y, rows):
        rows = slice(rows.start, rows.stop)
        R = L[rows] @ Y
        R[..., -1] += g[rows]
        return R

    return rate


def _prefix_products(D, y):
    """y carried through every prefix of a run of affine maps, given by
    their increments D = [Phi - I | psi], (n, d, d+1): returns Y, (n, d),
    the value after each map.  D is only read.

    A work-efficient scan (Blelloch 1990).  Let V[T] be the value after T
    steps, V[0] = y, and cap = 2^(ceil(log2 n) - 1).  The up-sweep composes
    the maps into blocks, B[t] first of steps 2t and 2t+1; then, level by
    level, each block ending at a multiple of 2b steps absorbs the block of
    b steps before it, until the block ending at node T spans b(T) steps,
    the largest power of two dividing T, at most cap.  That is fewer than n
    map products in ceil(log2 n) - 1 batched ones (one, unread, for n <= 2,
    where cap is 1).  The down-sweep reads every node off its block with
    one matrix-vector product: first the multiples of cap (at most two, in
    turn), then, level by level from b = cap / 2 down to 1, the nodes with
    b(T) = b, each from node T - b, which the levels before have reached.
    That is n products in at most ceil(log2 n) + 1 batched ones.

    Maps stay increments, composed as (I + A)(I + B) = I + (A + B + A B): a
    step's Phi - I is of order h, and Phi itself would hold it only to
    absolute precision eps, an error that a constant coefficient repeats at
    every step, so that it grows with the length of the sweep.
    """
    n, d = D.shape[:2]
    cap = 1 << max((n - 1).bit_length() - 1, 0)
    first, second = D[0::2], D[1::2]
    h = len(second)
    B = second[..., :d] @ first[:h]
    B += first[:h]
    B += second
    span = 2
    while 2 * span <= cap:
        late, early = B[span - 1 :: span], B[span // 2 - 1 :: span][: h // span]
        late += early + late[..., :d] @ early
        span *= 2
    V = np.empty((n + 1, d + 1))
    V[:, d] = 1.0
    V[0, :d] = y
    for T in range(cap, n + 1, cap):
        M = D[T - 1] if cap == 1 else B[T // 2 - 1]
        V[T, :d] = V[T - cap, :d] + M @ V[T - cap]
    span = cap
    while span > 1:
        half = span // 2
        src = V[::span][: (n + half) // span]
        M = first if half == 1 else B[half // 2 - 1 :: half]
        V[half::span, :d] = src[:, :d] + (M[: len(src)] @ src[..., None])[..., 0]
        span = half
    return V[1:, :d]


def _carry_run(maps, y, ends, out, name, times):
    """Carry y through a run of step maps given by their increments
    [Phi - I | psi], (n, d, d+1), storing the value after each step at the
    grid index ``ends`` gives for it in ``out``; returns the last.
    ``times`` are the grid's node times.

    ``_prefix_products`` scans the maps.  Nodes whose squared norm fails
    the screen get the named check in sweep order.  A composed block can
    overflow where the step-by-step values stay finite (a growing mode that
    y does not excite gives inf * 0), and every value read off it or off a
    value after it is then not finite, so at the first value that is not
    finite the scan restarts from the node before it.  A scan's first value
    is one plain step, so every restart advances a node.
    """
    n = len(maps)
    r = 0
    while r < n:
        with np.errstate(over="ignore", invalid="ignore"):
            Y = _prefix_products(maps[r:], y)
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


def _run_points(K, s, n, backward):
    """The run of n steps that starts s steps into a sweep over K steps:
    slices of its n + 1 nodes and n midpoints in sweep order, and the index
    array of the n nodes it steps to."""
    if not backward:
        return slice(s, s + n + 1), slice(s, s + n), np.arange(s + 1, s + n + 1)
    top = K - s

    def down(hi, count):
        return slice(hi, hi - count if hi >= count else None, -1)

    return down(top, n + 1), down(top - 1, n), np.arange(top - 1, top - n - 1, -1)


def linear_rk4(grid, L_node, g_node, L_mid, g_mid, start, name, backward=False):
    """Integrate dy/ds = L y + g with classical fixed-step RK4.

    L and g are given at the nodes, (K+1, d, d) and (K+1, d), and at the
    interval midpoints, (K, d, d) and (K, d), as arrays or as ``OnDemand``
    tables that build them.  The sweep starts from ``start`` at the first
    node, or at the last one when ``backward``, and raises
    FiniteEscapeError (naming ``name``) at the first node whose solution is
    not finite or exceeds BLOWUP_NORM.  Returns (y, rate): y and the rate
    L y + g at every node.

    Each RK4 step is the affine map y_j = Phi y_k + psi.  The sweep takes
    the K steps in the runs of ``_run_slices``, in sweep order.  Each run
    reads its tables once, through one slice per table in sweep order (an
    ``OnDemand`` table builds just those points, so no table is ever held
    whole), and its batched RK4 step from the augmented identity [I | 0]
    reads the stages' node and midpoint rows as slices of them: the
    increment gives [Phi - I | psi] of all the run's steps, and
    ``_carry_run`` reads y at all the run's nodes off them with the scan
    of ``_prefix_products``, in at most 2 ceil(log2 _RUN) batched
    products; no step is walked.  One batched matrix-vector product on the
    run's node tables then gives the rate at the run's nodes (the node a
    run shares with the one before it gets the same value twice).
    """
    K = grid.n_steps
    nodes = grid.nodes
    out = np.empty((K + 1,) + np.shape(start))
    first = K if backward else 0
    out[first] = start
    y = out[first]
    dt = -grid.h if backward else grid.h
    d = np.shape(start)[-1]
    eye = np.eye(d, d + 1)
    rate = np.empty_like(out)
    for run in _run_slices(K):
        n = run.stop - run.start
        at, mid, ends = _run_points(K, run.start, n, backward)
        L, g = L_node[at], g_node[at]
        f_node = _affine_rate(L, g)
        f_mid = _affine_rate(L_mid[mid], g_mid[mid])
        steps = range(n)
        maps = _rk4_step(eye, dt, steps, steps, range(1, n + 1), f_node, f_mid)
        y = _carry_run(maps, y, ends, out, name, nodes)
        rate[at] = (L @ out[at][..., None])[..., 0] + g
    return out, rate
