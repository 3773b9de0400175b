"""The block Riccati stage against the seven-coefficient stage it replaced.

``integrate_gre`` builds each stage from one Hamiltonian block per channel,
assembled from three stacked coefficient maps, and applies the input
weight's pseudo-inverse in its eigenbasis.  The reference below keeps the
earlier formulation as test-only code: the input weight, the cross term and
the linear part assembled term by term from the seven channel-stacked
coefficient pairs (A, B, C, D, Q, S, R), with the pseudo-inverse formed as a
matrix.  It is driven through the same ``rk4_steps`` and feeds the adjoint
ODEs that ``solve_affine`` runs, the offsets and the value, so every
difference comes from the stage itself.

Values must agree to 1e-13 (1 + |x|); ranks, near-cutoff node lists and all
verdict flags exactly.
"""

from dataclasses import replace

import numpy as np
import pytest

from mflq import affine, linalg
from mflq.affine import AffineSolution, compute_corrections, solve_affine
from mflq.presets import example31, random_spd
from mflq.problem import InitialLaw, tabulate
from mflq.quadrature import rk4_steps
from mflq.riccati import (
    GreSolution,
    MidpointData,
    assess_regularity,
    dense_midpoints,
    hermite_midpoints,
    integrate_gre,
)
from mflq.synthesis import synthesize, value
from test_linalg import factor_pinv
from test_nodewise_reference import time_varying_problem

TOL = 1e-13
K = 200
NAMES = ("A", "B", "C", "D", "Q", "S", "R")


def mT(M):
    return M.swapaxes(-1, -2)


def sym(M):
    return 0.5 * (M + mT(M))


def ref_tables(samples):
    """The seven coefficients stacked as (coefficient, coefficient + bar)."""
    return tuple(
        np.stack(np.broadcast_arrays(samples[k], samples[k] + samples[k + "_bar"]),
                 axis=-3)
        for k in NAMES
    )


def ref_at(co, k):
    return tuple(c if c.ndim == 3 else c[k] for c in co)


def ref_weights(Y, co):
    A, B, C, D, Q, S, R = co
    P = Y[..., :1, :, :]
    PD = P @ D
    W = sym(R + mT(D) @ PD)
    cross = mT(B) @ Y + mT(PD) @ C + S
    return W, cross


def ref_rate(Y, co, cross, pinv_cross):
    A, B, C, D, Q, S, R = co
    P = Y[..., :1, :, :]
    lin = Y @ A + mT(A) @ Y + mT(C) @ (P @ C) + Q
    return sym(mT(cross) @ pinv_cross - lin)


def ref_rhs(Y, co):
    W, cross = ref_weights(Y, co)
    return ref_rate(Y, co, cross, factor_pinv(linalg.sym_factor(W)) @ cross)


def ref_gains(Y, co):
    W, cross = ref_weights(Y, co)
    factor = linalg.sym_factor(W)
    return W, cross, -(factor_pinv(factor) @ cross), factor


def reference_solution(p):
    """The Riccati pair, its node data and report, and its dense midpoints."""
    grid = p.horizon
    tab = tabulate(p, grid)
    nodes, mids = ref_tables(tab.node), ref_tables(tab.mid)
    Y = np.empty((K + 1, 2, p.n, p.n))
    Y[K] = np.stack((sym(p.G), sym(p.G + p.G_bar)))
    steps = rk4_steps(
        grid,
        lambda y, k: ref_rhs(y, ref_at(nodes, k)),
        lambda y, i: ref_rhs(y, ref_at(mids, i)),
        Y[K],
        backward=True,
        post=sym,
    )
    for j, y in steps:
        Y[j] = y
    W, cross, gain, factor = ref_gains(Y, nodes)
    sol = GreSolution(
        grid=grid, P=Y[:, 0], P_mean=Y[:, 1],
        input_weight=W[:, 0], input_weight_mean=W[:, 1],
        cross_term=cross[:, 0], cross_term_mean=cross[:, 1],
        gain_dev=gain[:, 0], gain_mean=gain[:, 1],
        factor=factor, table=tab, report=None,
    )
    sol = replace(sol, report=assess_regularity(sol))
    Y_mid = hermite_midpoints(Y, ref_rate(Y, nodes, cross, -gain), grid.h)
    _, _, gain_mid, _ = ref_gains(Y_mid, mids)
    midpoints = MidpointData(
        P=Y_mid[:, 0], P_mean=Y_mid[:, 1],
        gain_dev=gain_mid[:, 0], gain_mean=gain_mid[:, 1],
    )
    return sol, midpoints


def reference_affine(p, sol, mids):
    adjoint_noise, noise_mid = affine._noise_adjoint(p, sol, mids)
    adjoint_mean = affine._mean_adjoint(p, sol, adjoint_noise, noise_mid, mids)
    return AffineSolution(
        grid=sol.grid,
        adjoint_noise=adjoint_noise,
        adjoint_mean=adjoint_mean,
        corrections=compute_corrections(sol, adjoint_noise, adjoint_mean),
    )


def close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    err = np.max(np.abs(got - want) / (1.0 + np.abs(want)), initial=0.0)
    assert err <= TOL, err


def cases():
    spd = {
        f"random_spd {n}x{m}": random_spd(seed, n=n, m=m, n_steps=K)
        for seed, (n, m) in enumerate([(1, 1), (6, 3), (10, 5)])
    }
    return {
        "time_varying": (time_varying_problem(), InitialLaw.deterministic([1.0, -0.5])),
        **spd,
        "example31": example31(n_steps=K),
    }


CASES = cases()


@pytest.mark.parametrize("name", list(CASES))
def test_block_stage_matches_seven_coefficient_stage(name):
    p, law = CASES[name]
    assert p.horizon.n_steps == K
    ref, ref_mids = reference_solution(p)
    ref_aff = reference_affine(p, ref, ref_mids)

    sol = integrate_gre(p)
    for field in ("P", "P_mean", "input_weight", "input_weight_mean",
                  "cross_term", "cross_term_mean", "gain_dev", "gain_mean"):
        close(getattr(sol, field), getattr(ref, field))
    close(sol.factor.smallest_retained, ref.factor.smallest_retained)
    np.testing.assert_array_equal(sol.report.dev_rank, ref.report.dev_rank)
    np.testing.assert_array_equal(sol.report.mean_rank, ref.report.mean_rank)
    rep, ref_rep = sol.report, ref.report
    assert rep.regular == ref_rep.regular
    assert [c.passed for c in rep.conditions] == [c.passed for c in ref_rep.conditions]
    assert rep.near_cutoff_dev == ref_rep.near_cutoff_dev
    assert rep.near_cutoff_mean == ref_rep.near_cutoff_mean

    mids = dense_midpoints(sol)
    for field in ("P", "P_mean", "gain_dev", "gain_mean"):
        close(getattr(mids, field), getattr(ref_mids, field))

    aff = solve_affine(p, sol)
    close(aff.adjoint_noise, ref_aff.adjoint_noise)
    close(aff.adjoint_mean, ref_aff.adjoint_mean)
    close(aff.corrections.corr_noise, ref_aff.corrections.corr_noise)
    close(aff.corrections.corr_mean, ref_aff.corrections.corr_mean)
    assert aff.feasible == ref_aff.feasible

    full = synthesize(p)
    assert full.solvable == (ref_rep.regular and ref_aff.feasible)
    close(value(full, law), value(replace(full, gre=ref, affine=ref_aff), law))


def test_channels_agree_bitwise_without_mean_terms():
    """With every bar zero both channels run the same float operations."""
    p, _ = random_spd(3, n=3, m=2, n_steps=K, with_bars=False)
    sol = integrate_gre(p)
    assert np.array_equal(sol.P, sol.P_mean)
    assert np.array_equal(sol.gain_dev, sol.gain_mean)
    mids = dense_midpoints(sol)
    assert np.array_equal(mids.P, mids.P_mean)
    assert np.array_equal(mids.gain_dev, mids.gain_mean)
