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
terminal pair only, the gains as paths sampled and paired by ``problem``'s
rules, as a coefficient is: under the channel gains (fb, fb + mf) of
``_channel_pair`` each channel moves by F S + S F^T, the noise of both
feeds the covariance, and each is priced by its running weight
[I; K]^T H [I; K] and its terminal weight, G or G + G_bar.
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
    _as_float_array,
    _channel_pair,
    _closed_loop,
    _nonzero_terms,
    nodes_and_midpoints,
    sample_path,
    tabulate,
)
from .quadrature import _check_finite, _screen_passes, rk4_steps, trapezoid_weights

# Gain bump of the stationarity probe's central differences.
FD_STEP = 1e-5
# The single-gain functions' gain arguments, as a refusal names them.
_GAIN_NAMES = ("feedback", "mean_feedback")


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


def _gain_path(gain, grid: TimeGrid, m: int, n: int, name="gain") -> MatrixPath:
    """One gain as a path: a MatrixPath as it is, a scalar (filled across
    all entries) or a constant (m, n) array as a constant path, a (K+1, m, n)
    stack as a path sampled on ``grid``.  A non-finite entry raises
    ValidationError naming the argument, ``name``."""
    if isinstance(gain, MatrixPath):
        return gain
    arr = _as_float_array(gain, name)
    if arr.ndim == 0:
        arr = np.full((m, n), float(arr))
    if arr.shape == (m, n):
        return MatrixPath.constant(arr)
    if arr.shape == (grid.n_steps + 1, m, n):
        return MatrixPath.sampled(grid, arr)
    raise ValueError(
        f"cannot interpret gain of shape {arr.shape}; expected ({m}, {n}), "
        f"({grid.n_steps + 1}, {m}, {n}) or a MatrixPath"
    )


def _as_batch_stack(gains, grid: TimeGrid, m: int, n: int, name="gains"):
    """Node and midpoint stacks of a batch of sampled gains, (B, K+1, m, n).
    A non-finite entry raises ValidationError naming the argument, ``name``."""
    K = grid.n_steps
    arr = _as_float_array(gains, name)
    if arr.ndim != 4 or arr.shape[1:] != (K + 1, m, n):
        raise ValueError(
            f"cannot interpret gain batch of shape {arr.shape}; expected "
            f"(batch, {K + 1}, {m}, {n})"
        )
    return arr, 0.5 * (arr[:, :-1] + arr[:, 1:])


def _closed_loop_mats(maps, gains):
    """Closed-loop drift and diffusion of both channels, each (2, B, K, n, n).

    ``maps`` are the table's (F, G, H) at one family of times and ``gains``
    the channel pair (fb, fb + mf) of ``_channel_pair``, (B, K, 2, m, n);
    channel 0 is A + B fb, channel 1 A + A_bar + (B + B_bar)(fb + mf), and
    G likewise.
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
    fb, mf = (nodes_and_midpoints(_gain_path(gain, grid, p.m, p.n, name), grid)
              for gain, name in zip((feedback, mean_feedback), _GAIN_NAMES))
    gains_n, gains_m = (_channel_pair(f, g)[None] for f, g in zip(fb, mf))
    second = np.empty((grid.n_steps + 1, p.n, p.n))
    mean_outer = np.empty_like(second)
    steps = _moment_steps(tabulate(p, grid), gains_n, gains_m, X0, Y0)
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
    fb, mf = (sample_path(_gain_path(gain, grid, p.m, p.n, name), grid.nodes)
              for gain, name in zip((feedback, mean_feedback), _GAIN_NAMES))
    gains = _channel_pair(fb, mf)[None]
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
    fb_n, fb_m = _as_batch_stack(feedbacks, grid, p.m, p.n, "feedbacks")
    mf_n, mf_m = _as_batch_stack(mean_feedbacks, grid, p.m, p.n, "mean_feedbacks")
    if fb_n.shape[0] != mf_n.shape[0]:
        raise ValueError("feedback batches must have equal size")
    tab = tabulate(p, grid)
    gains = _channel_pair(fb_n, mf_n)
    W = _cost_mats(tab.node_maps[2], gains)
    w = trapezoid_weights(grid.n_steps + 1, grid.h)
    costs = np.zeros(fb_n.shape[0])
    steps = _moment_steps(tab, gains, _channel_pair(fb_m, mf_m), X0, Y0)
    for k, S in steps:
        costs += w[k] * _price(W[:, :, k], S)
    return costs + _price(tab.terminal[:, None], S)


def stationarity_residual(
    p: ProblemData,
    feedback,
    mean_feedback,
    X0,
    Y0,
) -> float:
    """Max-norm cost gradient under constant-in-time gain bumps.

    Central differences: every entry of both gains is bumped by +/- FD_STEP
    uniformly in time, all 4*m*n propagations run as one batch on the
    problem's grid, and the largest absolute difference quotient comes
    back.  Near zero at a true optimum; order-one a fixed distance away.
    """
    _require_homogeneous(p)
    grid = p.horizon
    m, n = p.m, p.n
    fb_n, mf_n = (sample_path(_gain_path(gain, grid, m, n, name), grid.nodes)[None]
                  for gain, name in zip((feedback, mean_feedback), _GAIN_NAMES))

    n_entries = m * n
    Bsz = 4 * n_entries
    fbs = np.repeat(fb_n, Bsz, axis=0)
    mfs = np.repeat(mf_n, Bsz, axis=0)
    row = 0
    for idx in range(n_entries):
        i, j = divmod(idx, n)
        for sign in (+1.0, -1.0):
            fbs[row, :, i, j] += sign * FD_STEP
            row += 1
        for sign in (+1.0, -1.0):
            mfs[row, :, i, j] += sign * FD_STEP
            row += 1

    costs = batch_cost(p, fbs, mfs, X0, Y0)
    plus = costs[0::2]
    minus = costs[1::2]
    grads = (plus - minus) / (2.0 * FD_STEP)
    return float(np.max(np.abs(grads)))
