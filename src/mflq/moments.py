"""Deterministic moment propagation for homogeneous feedback systems.

For a homogeneous problem under a feedback pair (state gain, mean gain) the
second moment E[X X^T] and squared mean E[X] E[X]^T close into a pair of
linear matrix ODEs, and the expected cost becomes a trace integral against
them.  This gives an exact (up to quadrature) route to the cost of any gain
pair, independent of both the Riccati machinery and Monte Carlo; the
stationarity probe built on top of it is what certifies a synthesized gain
as a critical point.

The coefficients enter through the coefficient table's channel maps only:
under the gains (fb, fb + mf) the deviation channel moves the covariance
and the mean channel the mean outer product, so the rate is written in
covariance form.

Everything here runs over a leading batch axis so that finite-difference
sweeps evaluate all bumped gains in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FiniteEscapeError
from .linalg import _mT, _sym
from .problem import (
    MatrixPath,
    ProblemData,
    TimeGrid,
    _closed_loop,
    nodes_and_midpoints,
    sample_path,
    tabulate,
)
from .quadrature import BLOWUP_NORM, rk4_steps, trapezoid_weights


@dataclass(frozen=True)
class MomentPath:
    """Second moment and mean-outer-product trajectories on a grid."""

    grid: TimeGrid
    second: np.ndarray
    mean_outer: np.ndarray


def _require_centered_dynamics(p: ProblemData):
    for name in ("b", "sigma"):
        na = getattr(p, name)
        if np.any(na.const_part.values != 0.0) or np.any(na.noise_part.values != 0.0):
            raise ValueError(
                f"moment propagation requires zero drift/diffusion "
                f"inhomogeneities; {name} is nonzero"
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


def _closed_loop_mats(maps, fb, mf):
    """Closed-loop drift and diffusion of both channels, each (2, B, K, n, n).

    ``maps`` are the table's (F, G, H) at one family of times and fb/mf
    gains of shape (B, K, m, n); channel 0 is A + B fb, channel 1
    A + A_bar + (B + B_bar)(fb + mf), and G likewise.
    """
    gains = _channel_gains(fb, mf)
    return tuple(np.moveaxis(_closed_loop(t, gains), -3, 0) for t in maps[:2])


def _cost_mats(H, fb, mf):
    """Running cost weights against the second moment and the mean outer.

    Each channel weighs its closed-loop state with [I; K]^T H [I; K] =
    Q + K^T S + S^T K + K^T R K.  M, the deviation weight, weighs
    E[X X^T]; N = mean weight - M weighs E[X] E[X]^T.
    """
    gains = _channel_gains(fb, mf)
    HK = _closed_loop(H, gains)
    n = gains.shape[-1]
    W = HK[..., :n, :] + _mT(gains) @ HK[..., n:, :]
    M = W[..., 0, :, :]
    return M, W[..., 1, :, :] - M


def _rhs_pair(Z, F, G):
    """Time derivative of the stacked pair Z = (second moment X, mean outer Y).

    Each channel of S = (X - Y, Y) moves by F S + S F^T under its own
    closed-loop drift, the noise adds G0 (X - Y) G0^T + G1 Y G1^T to the
    covariance X - Y, and dX is the covariance's rate plus dY.
    """
    S = np.stack((Z[0] - Z[1], Z[1]))
    FS = F @ S
    GSG = (G @ S) @ _mT(G)
    dS = FS + _mT(FS)
    dY = dS[1]
    return _sym(np.stack((dS[0] + GSG[0] + GSG[1] + dY, dY)))


def _moment_steps(tab, fb_n, fb_m, mf_n, mf_m, X0, Y0):
    """Forward RK4 of the moment pair for a batch of gain trajectories.

    Yields (k, Z) for k = 0..K, where Z stacks the second moment and the
    mean outer product as (2, B, n, n), each channel one contiguous block.
    Raises FiniteEscapeError at the first node whose largest entry is not
    finite or exceeds BLOWUP_NORM.
    """
    grid = tab.grid
    cl_nodes = _closed_loop_mats(tab.node_maps, fb_n, mf_n)
    cl_mids = _closed_loop_mats(tab.mid_maps, fb_m, mf_m)
    shape = (fb_n.shape[0], fb_n.shape[-1], fb_n.shape[-1])
    Z = np.stack([
        np.broadcast_to(_sym(np.asarray(M, dtype=float)), shape) for M in (X0, Y0)
    ])
    yield 0, Z
    steps = rk4_steps(
        grid,
        lambda z, k: _rhs_pair(z, *(c[:, :, k] for c in cl_nodes)),
        lambda z, i: _rhs_pair(z, *(c[:, :, i] for c in cl_mids)),
        Z,
        post=_sym,
    )
    for k, Z in steps:
        top = float(np.max(np.abs(Z)))
        if not np.isfinite(top) or top > BLOWUP_NORM:
            raise FiniteEscapeError("moment trajectory", k, grid.nodes[k], top)
        yield k, Z


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
    xi^T] and Y0 = E[xi] E[xi]^T.  Fixed-step RK4; outputs re-symmetrized
    every step.
    """
    _require_centered_dynamics(p)
    grid = p.horizon if n_steps is None else p.horizon.with_steps(n_steps)
    fb_n, fb_m = _as_gain_stack(feedback, grid, p.m, p.n)
    mf_n, mf_m = _as_gain_stack(mean_feedback, grid, p.m, p.n)
    second = np.empty((grid.n_steps + 1, p.n, p.n))
    mean_outer = np.empty_like(second)
    for k, Z in _moment_steps(tabulate(p, grid), fb_n, fb_m, mf_n, mf_m, X0, Y0):
        second[k] = Z[0, 0]
        mean_outer[k] = Z[1, 0]
    return MomentPath(grid=grid, second=second, mean_outer=mean_outer)


def homogeneous_cost(p: ProblemData, feedback, mean_feedback, mp: MomentPath) -> float:
    """Expected cost of a gain pair from its propagated moments.

    Trapezoid rule of the running trace terms plus the terminal traces.
    The problem must be fully homogeneous, otherwise the quadratic moments
    do not determine the cost.
    """
    _require_homogeneous(p)
    grid = mp.grid
    fb_n = _gain_nodes(feedback, grid, p.m, p.n)
    mf_n = _gain_nodes(mean_feedback, grid, p.m, p.n)
    M, N = _cost_mats(tabulate(p, grid).node_maps[2], fb_n, mf_n)
    w = trapezoid_weights(grid.n_steps + 1, grid.h)
    running = float(
        np.sum(
            w * (
                np.einsum("kij,kij->k", M[0], mp.second)
                + np.einsum("kij,kij->k", N[0], mp.mean_outer)
            )
        )
    )
    terminal = float(
        np.trace(p.G @ mp.second[-1]) + np.trace(p.G_bar @ mp.mean_outer[-1])
    )
    return running + terminal


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
    M, N = _cost_mats(tab.node_maps[2], fb_n, mf_n)
    w = trapezoid_weights(grid.n_steps + 1, grid.h)
    costs = np.zeros(fb_n.shape[0])
    for k, Z in _moment_steps(tab, fb_n, fb_m, mf_n, mf_m, X0, Y0):
        costs += w[k] * (
            np.einsum("bij,bij->b", M[:, k], Z[0])
            + np.einsum("bij,bij->b", N[:, k], Z[1])
        )
    costs += np.einsum("ij,bij->b", p.G, Z[0]) + np.einsum(
        "ij,bij->b", p.G_bar, Z[1]
    )
    return costs


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
