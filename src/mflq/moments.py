"""Deterministic moment propagation for homogeneous feedback systems.

For a homogeneous problem under a feedback pair (state gain, mean gain) the
second moments of the Riccati pair's two channels, the deviation X - E[X]
and the mean E[X], close into a pair of linear matrix ODEs for S =
(covariance, mean outer product E[X] E[X]^T), and the expected cost becomes
a trace integral against it.  This gives an exact (up to quadrature) route
to the cost of any gain pair, independent of both the Riccati machinery and
Monte Carlo; the stationarity probe built on top of it is what certifies a
synthesized gain as a critical point.

The coefficients enter through the coefficient table's channel maps and
terminal pair only: under the channel gains (fb, fb + mf) each channel
moves by F S + S F^T, the noise of both feeds the covariance, and each is
priced by its running weight [I; K]^T H [I; K] and its terminal weight,
G or G + G_bar.
E[X X^T] = S_0 + S_1 is formed only at the API boundary.  The pair is
linear but steps node by node, since its per-step propagator would be
(2n^2)^2 per gain; each step passes the quadrature's finite-escape screen.

Everything here runs over a batch axis so that finite-difference sweeps
evaluate all bumped gains in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import _mT, _sym
from .problem import (
    MatrixPath,
    ProblemData,
    TimeGrid,
    _closed_loop,
    _nonzero_terms,
    nodes_and_midpoints,
    sample_path,
    tabulate,
)
from .quadrature import _check_finite, _screen_passes, rk4_steps, trapezoid_weights


@dataclass(frozen=True)
class MomentPath:
    """Second moment and mean-outer-product trajectories on a grid."""

    grid: TimeGrid
    second: np.ndarray
    mean_outer: np.ndarray


def _require_centered_dynamics(p: ProblemData):
    nonzero = _nonzero_terms(p, ("b", "sigma"))
    if nonzero:
        raise ValueError(
            f"moment propagation requires zero drift/diffusion "
            f"inhomogeneities; {nonzero[0]} is nonzero"
        )


def _require_homogeneous(p: ProblemData):
    if not p.is_homogeneous:
        raise ValueError(
            "this computation requires a fully homogeneous problem; "
            "strip the inhomogeneities first"
        )


def _gain_nodes(gain, grid: TimeGrid, m: int, n: int):
    """Node samples of one gain, with a leading batch axis of length one.

    Accepts a MatrixPath, a scalar (filled across all entries), a constant
    (m, n) array or a sampled (K+1, m, n) stack; returns (1, K+1, m, n).
    """
    K = grid.n_steps
    if isinstance(gain, MatrixPath):
        return sample_path(gain, grid.nodes)[None]
    arr = np.asarray(gain, dtype=float)
    if arr.ndim == 0:
        arr = np.full((m, n), float(arr))
    if arr.shape == (m, n):
        return np.broadcast_to(arr, (1, K + 1, m, n)).copy()
    if arr.shape == (K + 1, m, n):
        return arr[None]
    raise ValueError(
        f"cannot interpret gain of shape {arr.shape}; expected ({m}, {n}), "
        f"({K + 1}, {m}, {n}) or a MatrixPath"
    )


def _as_gain_stack(gain, grid: TimeGrid, m: int, n: int):
    """Node and midpoint sample stacks of one gain in a form ``_gain_nodes``
    accepts, each with a leading batch axis of length one."""
    if isinstance(gain, MatrixPath):
        node, mid = nodes_and_midpoints(gain, grid)
        return node[None], mid[None]
    return _as_batch_stack(_gain_nodes(gain, grid, m, n), grid, m, n)


def _as_batch_stack(gains, grid: TimeGrid, m: int, n: int):
    """Node and midpoint stacks of a batch of sampled gains, (B, K+1, m, n)."""
    K = grid.n_steps
    arr = np.asarray(gains, dtype=float)
    if arr.ndim != 4 or arr.shape[1:] != (K + 1, m, n):
        raise ValueError(
            f"cannot interpret gain batch of shape {arr.shape}; expected "
            f"(batch, {K + 1}, {m}, {n})"
        )
    return arr, 0.5 * (arr[:, :-1] + arr[:, 1:])


def _channel_gains(fb, mf):
    """The channel gains (fb, fb + mf) of (B, K, m, n) gains, (B, K, 2, m, n)."""
    return np.stack((fb, fb + mf), axis=-3)


def _closed_loop_mats(maps, gains):
    """Closed-loop drift and diffusion of both channels, each (2, B, K, n, n).

    ``maps`` are the table's (F, G, H) at one family of times and ``gains``
    the channel gains of ``_channel_gains``; channel 0 is A + B fb, channel
    1 A + A_bar + (B + B_bar)(fb + mf), and G likewise.
    """
    return tuple(np.moveaxis(_closed_loop(t, gains), -3, 0) for t in maps[:2])


def _cost_mats(H, gains):
    """Running cost weight of each channel, (2, B, K, n, n).

    Each channel weighs its closed-loop state with [I; K]^T H [I; K] =
    Q + K^T S + S^T K + K^T R K: channel 0 the covariance, channel 1 the
    mean outer product.
    """
    HK = _closed_loop(H, gains)
    n = gains.shape[-1]
    return np.moveaxis(HK[..., :n, :] + _mT(gains) @ HK[..., n:, :], -3, 0)


def _price(W, S):
    """Sum of tr(W_c S_c) over the leading channel axis, batched over the rest."""
    return np.einsum("c...ij,c...ij->...", W, S)


def _rhs_pair(S, F, G):
    """Time derivative of the channel pair S = (covariance, mean outer).

    Each channel moves by F S + S F^T under its own closed-loop drift, and
    the noise adds G0 S0 G0^T + G1 S1 G1^T to the covariance.
    """
    FS = F @ S
    GSG = (G @ S) @ _mT(G)
    dS = FS + _mT(FS)
    dS[0] += _sym(GSG[0] + GSG[1])
    return dS


def _moment_steps(tab, gains_n, gains_m, X0, Y0):
    """Forward RK4 of the channel pair for a batch of gain trajectories.

    Takes the channel gains at the nodes and the midpoints and yields
    (k, S) for k = 0..K, S the (2, B, n, n) channel pair.  Each step passes
    the quadrature's escape screen; the first node past the blow-up norm
    raises FiniteEscapeError.
    """
    grid = tab.grid
    cl_nodes = _closed_loop_mats(tab.node_maps, gains_n)
    cl_mids = _closed_loop_mats(tab.mid_maps, gains_m)
    shape = (gains_n.shape[0], gains_n.shape[-1], gains_n.shape[-1])
    S = np.stack([
        np.broadcast_to(_sym(np.asarray(M, dtype=float)), shape) for M in (X0, Y0)
    ])
    S[0] -= S[1]
    yield 0, S
    steps = rk4_steps(
        grid,
        lambda s, k: _rhs_pair(s, *(c[:, :, k] for c in cl_nodes)),
        lambda s, i: _rhs_pair(s, *(c[:, :, i] for c in cl_mids)),
        S,
        post=_sym,
    )
    for k, S in steps:
        if not _screen_passes(S):
            _check_finite("moment trajectory", S, k, grid.nodes[k])
        yield k, S


def propagate_moments(
    p: ProblemData,
    feedback,
    mean_feedback,
    X0,
    Y0,
    n_steps: Optional[int] = None,
) -> MomentPath:
    """Propagate (E[X X^T], E[X] E[X]^T) forward under a feedback pair.

    Requires zero drift/diffusion inhomogeneities, initial data X0 = E[xi
    xi^T] and Y0 = E[xi] E[xi]^T.  Fixed-step RK4 of the channel pair;
    outputs re-symmetrized every step.
    """
    _require_centered_dynamics(p)
    grid = p.horizon if n_steps is None else p.horizon.with_steps(n_steps)
    fb_n, fb_m = _as_gain_stack(feedback, grid, p.m, p.n)
    mf_n, mf_m = _as_gain_stack(mean_feedback, grid, p.m, p.n)
    second = np.empty((grid.n_steps + 1, p.n, p.n))
    mean_outer = np.empty_like(second)
    steps = _moment_steps(tabulate(p, grid), _channel_gains(fb_n, mf_n),
                          _channel_gains(fb_m, mf_m), X0, Y0)
    for k, S in steps:
        second[k] = S[0, 0] + S[1, 0]
        mean_outer[k] = S[1, 0]
    return MomentPath(grid=grid, second=second, mean_outer=mean_outer)


def homogeneous_cost(p: ProblemData, feedback, mean_feedback, mp: MomentPath) -> float:
    """Expected cost of a gain pair from its propagated moments.

    Trapezoid rule of the running trace terms plus the terminal traces.
    The problem must be fully homogeneous, otherwise the quadratic moments
    do not determine the cost.
    """
    _require_homogeneous(p)
    grid = mp.grid
    gains = _channel_gains(
        _gain_nodes(feedback, grid, p.m, p.n),
        _gain_nodes(mean_feedback, grid, p.m, p.n),
    )
    tab = tabulate(p, grid)
    W = _cost_mats(tab.node_maps[2], gains)[:, 0]
    S = np.stack((mp.second - mp.mean_outer, mp.mean_outer))
    w = trapezoid_weights(grid.n_steps + 1, grid.h)
    running = float(np.sum(w * _price(W, S)))
    return running + float(_price(tab.terminal, S[:, -1]))


def batch_cost(
    p: ProblemData,
    feedbacks: np.ndarray,
    mean_feedbacks: np.ndarray,
    X0,
    Y0,
) -> np.ndarray:
    """Costs of a whole batch of gain trajectories in one RK4 sweep.

    feedbacks / mean_feedbacks have shape (batch, K+1, m, n) sampled on the
    problem's grid.  Returns the (batch,) cost vector.
    """
    _require_homogeneous(p)
    grid = p.horizon
    fb_n, fb_m = _as_batch_stack(feedbacks, grid, p.m, p.n)
    mf_n, mf_m = _as_batch_stack(mean_feedbacks, grid, p.m, p.n)
    if fb_n.shape[0] != mf_n.shape[0]:
        raise ValueError("feedback batches must have equal size")
    tab = tabulate(p, grid)
    gains = _channel_gains(fb_n, mf_n)
    W = _cost_mats(tab.node_maps[2], gains)
    w = trapezoid_weights(grid.n_steps + 1, grid.h)
    costs = np.zeros(fb_n.shape[0])
    steps = _moment_steps(tab, gains, _channel_gains(fb_m, mf_m), X0, Y0)
    for k, S in steps:
        costs += w[k] * _price(W[:, :, k], S)
    return costs + _price(tab.terminal[:, None], S)


def stationarity_residual(
    p: ProblemData,
    feedback,
    mean_feedback,
    X0,
    Y0,
    fd_step: float = 1e-5,
) -> float:
    """Max-norm cost gradient under constant-in-time gain bumps.

    Central differences: every entry of both gains is bumped by +/- fd_step
    uniformly in time, all 4*m*n propagations run as one batch on the
    problem's grid, and the largest absolute difference quotient comes
    back.  Near zero at a true optimum; order-one a fixed distance away.
    """
    _require_homogeneous(p)
    grid = p.horizon
    m, n = p.m, p.n
    fb_n = _gain_nodes(feedback, grid, m, n)
    mf_n = _gain_nodes(mean_feedback, grid, m, n)

    n_entries = m * n
    Bsz = 4 * n_entries
    fbs = np.repeat(fb_n, Bsz, axis=0)
    mfs = np.repeat(mf_n, Bsz, axis=0)
    row = 0
    for idx in range(n_entries):
        i, j = divmod(idx, n)
        for sign in (+1.0, -1.0):
            fbs[row, :, i, j] += sign * fd_step
            row += 1
        for sign in (+1.0, -1.0):
            mfs[row, :, i, j] += sign * fd_step
            row += 1

    costs = batch_cost(p, fbs, mfs, X0, Y0)
    plus = costs[0::2]
    minus = costs[1::2]
    grads = (plus - minus) / (2.0 * fd_step)
    return float(np.max(np.abs(grads)))
