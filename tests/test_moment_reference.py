"""The channel-pair moment sweep against the (second, mean outer) sweep it
replaced.

``moments`` steps S = (covariance, mean outer product) and prices each
channel with its own running weight and the Riccati's terminal pair.  The
reference below keeps the earlier formulation as test-only code: the pair
Z = (E[X X^T], E[X] E[X]^T) stepped one node at a time through
``rk4_steps`` with a stage that converts into covariance form and back, the
max-entry escape rule, and the pricing M Z_0 + N Z_1 with M the deviation
weight and N = mean weight - M.

Paths and costs must agree to 1e-13 (1 + |x|), the mean outer product bit
for bit; the stationarity residual, a difference quotient with step 1e-5,
to 1e-9 absolute.
"""

import numpy as np
import pytest

from mflq.errors import FiniteEscapeError
from mflq.linalg import _mT, _sym
from mflq.moments import (
    _as_batch_stack,
    _gain_path,
    batch_cost,
    homogeneous_cost,
    propagate_moments,
    stationarity_residual,
)
from mflq.presets import random_spd
from mflq.problem import (
    MatrixPath,
    _closed_loop,
    nodes_and_midpoints,
    sample_path,
    tabulate,
)
from mflq.quadrature import BLOWUP_NORM, rk4_steps, trapezoid_weights
from mflq.synthesis import synthesize, value

TOL = 1e-13
RESIDUAL_TOL = 1e-9


def _channels(t, fb, mf):
    """Closed-loop map of both channels, (2, B, K, ...)."""
    return np.moveaxis(_closed_loop(t, np.stack((fb, fb + mf), axis=-3)), -3, 0)


def reference_rhs(Z, F, G):
    """Rate of Z = (second moment X, mean outer Y) through covariance form."""
    S = np.stack((Z[0] - Z[1], Z[1]))
    FS = F @ S
    GSG = (G @ S) @ _mT(G)
    dS = FS + _mT(FS)
    dY = dS[1]
    return _sym(np.stack((dS[0] + GSG[0] + GSG[1] + dY, dY)))


def reference_sweep(tab, fb_n, fb_m, mf_n, mf_m, X0, Y0):
    """Z at every node, (K+1, 2, B, n, n), checked entry by entry."""
    grid = tab.grid
    cl_nodes = [_channels(t, fb_n, mf_n) for t in tab.node_maps[:2]]
    cl_mids = [_channels(t, fb_m, mf_m) for t in tab.mid_maps[:2]]
    shape = (fb_n.shape[0], fb_n.shape[-1], fb_n.shape[-1])
    Z = np.stack([
        np.broadcast_to(_sym(np.asarray(M, dtype=float)), shape) for M in (X0, Y0)
    ])
    out = [Z]
    steps = rk4_steps(
        grid,
        lambda z, k: reference_rhs(z, *(c[:, :, k] for c in cl_nodes)),
        lambda z, i: reference_rhs(z, *(c[:, :, i] for c in cl_mids)),
        Z,
        post=_sym,
    )
    for k, Z in steps:
        top = float(np.max(np.abs(Z)))
        if not np.isfinite(top) or top > BLOWUP_NORM:
            raise FiniteEscapeError("moment trajectory", k, grid.nodes[k], top)
        out.append(Z)
    return np.stack(out)


def reference_weights(H, fb, mf):
    """M, weighing the second moment, and N = mean weight - M, weighing the
    mean outer product, each (B, K, n, n)."""
    gains = np.stack((fb, fb + mf), axis=-3)
    HK = _closed_loop(H, gains)
    n = gains.shape[-1]
    W = HK[..., :n, :] + _mT(gains) @ HK[..., n:, :]
    M = W[..., 0, :, :]
    return M, W[..., 1, :, :] - M


def reference_propagate(p, feedback, mean_feedback, X0, Y0):
    grid = p.horizon
    fb_n, fb_m = (s[None] for s in nodes_and_midpoints(
        _gain_path(feedback, grid, p.m, p.n), grid))
    mf_n, mf_m = (s[None] for s in nodes_and_midpoints(
        _gain_path(mean_feedback, grid, p.m, p.n), grid))
    Z = reference_sweep(tabulate(p, grid), fb_n, fb_m, mf_n, mf_m, X0, Y0)
    return Z[:, 0, 0], Z[:, 1, 0]


def reference_cost(p, feedback, mean_feedback, second, mean_outer):
    grid = p.horizon
    fb_n = sample_path(_gain_path(feedback, grid, p.m, p.n), grid.nodes)[None]
    mf_n = sample_path(_gain_path(mean_feedback, grid, p.m, p.n), grid.nodes)[None]
    M, N = reference_weights(tabulate(p, grid).node_maps[2], fb_n, mf_n)
    w = trapezoid_weights(grid.n_steps + 1, grid.h)
    running = np.sum(
        w * (np.einsum("kij,kij->k", M[0], second)
             + np.einsum("kij,kij->k", N[0], mean_outer))
    )
    return float(running + np.trace(p.G @ second[-1])
                 + np.trace(p.G_bar @ mean_outer[-1]))


def reference_batch_cost(p, feedbacks, mean_feedbacks, X0, Y0):
    grid = p.horizon
    fb_n, fb_m = _as_batch_stack(feedbacks, grid, p.m, p.n)
    mf_n, mf_m = _as_batch_stack(mean_feedbacks, grid, p.m, p.n)
    tab = tabulate(p, grid)
    M, N = reference_weights(tab.node_maps[2], fb_n, mf_n)
    Z = reference_sweep(tab, fb_n, fb_m, mf_n, mf_m, X0, Y0)
    w = trapezoid_weights(grid.n_steps + 1, grid.h)
    costs = np.zeros(fb_n.shape[0])
    for k, (second, mean_outer) in enumerate(Z):
        costs += w[k] * (
            np.einsum("bij,bij->b", M[:, k], second)
            + np.einsum("bij,bij->b", N[:, k], mean_outer)
        )
    return costs + np.einsum("ij,bij->b", p.G, Z[-1, 0]) + np.einsum(
        "ij,bij->b", p.G_bar, Z[-1, 1]
    )


def reference_residual(p, feedback, mean_feedback, X0, Y0, fd_step=1e-5):
    """Central differences over every entry of both gains, row by row."""
    m, n = p.m, p.n
    grid = p.horizon
    fb_n = sample_path(_gain_path(feedback, grid, m, n), grid.nodes)[None]
    mf_n = sample_path(_gain_path(mean_feedback, grid, m, n), grid.nodes)[None]
    fbs = np.repeat(fb_n, 4 * m * n, axis=0)
    mfs = np.repeat(mf_n, 4 * m * n, axis=0)
    row = 0
    for idx in range(m * n):
        i, j = divmod(idx, n)
        for bumped in (fbs, mfs):
            for sign in (+1.0, -1.0):
                bumped[row, :, i, j] += sign * fd_step
                row += 1
    costs = reference_batch_cost(p, fbs, mfs, X0, Y0)
    return float(np.max(np.abs((costs[0::2] - costs[1::2]) / (2.0 * fd_step))))


def assert_close(got, want, tol=TOL):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_less(np.abs(got - want), tol * (1.0 + np.abs(want)))


def homogeneous(seed, n, m, bars, n_steps=300):
    """A homogeneous ``random_spd`` instance, its synthesis and its moments."""
    p, law = random_spd(seed, n=n, m=m, n_steps=n_steps, with_bars=bars,
                        inhomogeneous=False)
    sol = synthesize(p)
    X0 = law.second_moment(p.horizon.t0)
    Y0 = np.outer(law.mean, law.mean)
    return p, law, sol, X0, Y0


CASES = [
    (seed, n, m, bars)
    for seed in range(4)
    for n, m in ((1, 1), (2, 2), (6, 3))
    for bars in (True, False)
]


@pytest.mark.parametrize("seed, n, m, bars", CASES)
def test_moments_match_second_moment_sweep(seed, n, m, bars):
    p, _, sol, X0, Y0 = homogeneous(seed, n, m, bars)
    fb = sol.gre.gain_dev
    mf = sol.gre.gain_mean - fb

    mp = propagate_moments(p, fb, mf, X0, Y0)
    second, mean_outer = reference_propagate(p, fb, mf, X0, Y0)
    assert_close(mp.second, second)
    assert np.array_equal(mp.mean_outer, mean_outer)
    assert_close(homogeneous_cost(p, fb, mf, mp),
                 reference_cost(p, fb, mf, second, mean_outer))

    fbs = np.stack((fb, fb + 0.1, fb - 0.05))
    mfs = np.stack((mf, mf - 0.1, mf + 0.02))
    assert_close(batch_cost(p, fbs, mfs, X0, Y0),
                 reference_batch_cost(p, fbs, mfs, X0, Y0))

    residual = stationarity_residual(p, fb, mf, X0, Y0)
    assert abs(residual - reference_residual(p, fb, mf, X0, Y0)) <= RESIDUAL_TOL


GAIN_FORMS = {
    "path": lambda sol: (sol.strategy.feedback, sol.strategy.mean_feedback),
    "scalar": lambda sol: (-0.5, 0.25),
    "constant": lambda sol: (sol.gre.gain_dev[0],
                             sol.gre.gain_mean[0] - sol.gre.gain_dev[0]),
    "sampled": lambda sol: (sol.gre.gain_dev,
                            sol.gre.gain_mean - sol.gre.gain_dev),
}


@pytest.mark.parametrize("form", sorted(GAIN_FORMS))
@pytest.mark.parametrize("n, m", [(1, 1), (2, 2)])
def test_every_gain_form_matches_second_moment_sweep(form, n, m):
    p, _, sol, X0, Y0 = homogeneous(1, n, m, True)
    fb, mf = GAIN_FORMS[form](sol)
    assert isinstance(fb, MatrixPath) == (form == "path")

    mp = propagate_moments(p, fb, mf, X0, Y0)
    second, mean_outer = reference_propagate(p, fb, mf, X0, Y0)
    assert_close(mp.second, second)
    assert np.array_equal(mp.mean_outer, mean_outer)
    assert_close(homogeneous_cost(p, fb, mf, mp),
                 reference_cost(p, fb, mf, second, mean_outer))
    residual = stationarity_residual(p, fb, mf, X0, Y0)
    assert abs(residual - reference_residual(p, fb, mf, X0, Y0)) <= RESIDUAL_TOL


@pytest.mark.parametrize("seed", range(3))
def test_synthesized_gains_are_stationary_and_cost_the_value(seed):
    """The benchmark's moment check at K = 1000: the optimal gains are a
    critical point of the moment cost, and that cost is the value."""
    p, law, sol, X0, Y0 = homogeneous(seed, 2, 2, True, n_steps=1000)
    fb = sol.gre.gain_dev
    mf = sol.gre.gain_mean - fb
    assert stationarity_residual(p, fb, mf, X0, Y0) <= 1e-6
    cost = homogeneous_cost(p, fb, mf, propagate_moments(p, fb, mf, X0, Y0))
    v = value(sol, law)
    assert abs(cost - v) <= 1e-6 * (1.0 + abs(v))
