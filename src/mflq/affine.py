"""Adjoint offset equations and the affine part of the optimal control.

With noise-affine inhomogeneities (each of the form f0(s) + f1(s) W(s)) the
backward adjoint equation closes inside the same family: its solution is
eta0(s) + adjoint_noise(s) W(s), where both coefficient paths solve linear
backward ODEs driven by the Riccati solution.  Only the noise coefficient
enters the offsets and the value, so eta0 is never integrated: the noise
coefficient solves an n-vector ODE of its own.  A separate mean adjoint
handles the expectation channel.  The control offset that these induce
splits the same way: a mean part and a coefficient multiplying the running
Brownian value.  Coefficients come from the table on the Riccati solution,
the quadratic ones only through its channel maps F = [A B] and G = [C D]:
each adjoint runs on its channel's closed-loop maps A + B K and C + D K.
Both adjoints are linear ODEs and go through ``quadrature.linear_rk4``,
which steps them through batched runs of RK4 propagators.  Their (d, d)
coefficient L and their forcing g are ``quadrature.OnDemand`` tables:
``linear_rk4`` builds them one run of points at a time, so no (K+1, n, n)
table of an adjoint is ever held; the vector loads they read are (K+1, n)
stacks formed once.  The noise adjoint's nodal rate, which its Hermite
midpoints need, comes back from its sweep with the solution: ``linear_rk4``
forms it on the node tables each run already built, so no table is built
twice.  The offsets of both channels are written into one channel-major
buffer, as the Riccati solution's pairs are, and their range constraints,
the second half of the paper's solvability test, are recorded as
``ConditionVerdict``s, as the regularity report records the first half.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _mT
from .problem import ProblemData, TimeGrid, _closed_loop
from .quadrature import OnDemand, linear_rk4
from .riccati import (
    DEFAULT_REG_TOL,
    GreSolution,
    MidpointData,
    _channels,
    _gain,
    _pair_buffer,
    _range_verdict,
    dense_midpoints,
    hermite_midpoints,
)


@dataclass(frozen=True)
class CorrectionSet:
    """Affine control offsets plus their pointwise attainability verdicts.

    corr_noise multiplies the running Brownian value; corr_mean is the
    deterministic offset of the mean control channel.  Attainability asks
    that the vectors being pseudo-inverted lie in the range of the
    corresponding input weight at every node: ``conditions`` holds one
    ``ConditionVerdict`` per channel, ``offset_range_dev`` and
    ``offset_range_mean``, recorded as the regularity report records the
    Riccati half of the solvability test.
    """

    corr_noise: np.ndarray
    corr_mean: np.ndarray
    conditions: tuple

    @property
    def feasible(self) -> bool:
        return all(c.passed for c in self.conditions)


@dataclass(frozen=True)
class AffineSolution:
    grid: TimeGrid
    adjoint_noise: np.ndarray
    adjoint_mean: np.ndarray
    corrections: CorrectionSet

    @property
    def feasible(self) -> bool:
        return self.corrections.feasible


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector products over broadcast stacks: (..., r, c), (..., c) -> (..., r)."""
    return (M @ v[..., None])[..., 0]


def _rows(x, idx, point_ndim=1):
    """A node or midpoint stack at the points idx; a constant, which has
    the dimensions of one point only, passes through."""
    return x if x.ndim == point_ndim else x[idx]


def _adjoint_ode(maps, channel, gain, Y, v, r, b, q):
    """L and g of one channel's adjoint d eta/ds = L eta + g, as ``OnDemand``
    tables over the points of Y that build the points asked for:

        L = -F^T and g = -(G^T v + K^T r + Y b + q),

    with F = A + B K and G = C + D K the channel's closed-loop maps under
    its gain K, Y its Riccati matrix and (v, r) its diffusion and control
    loads.  The vector terms K^T r and Y b are formed once over all the
    points; the matrix-sized ones, F, G and L, exist only for the points
    built.
    """
    F_open, G_open = (t[..., channel, :, :] for t in maps[:2])
    Kr, Yb = _mv(_mT(gain), r), _mv(Y, b)

    def build_L(idx):
        return -_mT(_closed_loop(_rows(F_open, idx, 2), gain[idx]))

    def build_g(idx):
        G = _closed_loop(_rows(G_open, idx, 2), gain[idx])
        return -(_mv(_mT(G), v[idx]) + Kr[idx] + Yb[idx] + _rows(q, idx))

    return OnDemand(build_L), OnDemand(build_g)


def _noise_loads(c, P):
    """Loads P sigma1 and rho1 of the noise channel."""
    return _mv(P, c["sigma1"]), c["rho1"]


def _mean_loads(c, P, e1):
    """Loads P sigma0 + eta1 and rho0 + rho_bar of the mean channel."""
    return _mv(P, c["sigma0"]) + e1, c["rho0"] + c["rho_bar"]


def _noise_ode(c, maps, P, Th):
    """L and g of the noise adjoint at a set of grid points."""
    return _adjoint_ode(maps, 0, Th, P, *_noise_loads(c, P), c["b1"], c["q1"])


def _noise_adjoint(p: ProblemData, sol: GreSolution, mids: MidpointData):
    """The noise adjoint and the Hermite midpoints of it that the mean
    adjoint reads, from the nodal rate L eta + g that its sweep returns."""
    tab = sol.table
    L_n, g_n = _noise_ode(tab.node, tab.node_maps, sol.P, sol.gain_dev)
    L_m, g_m = _noise_ode(tab.mid, tab.mid_maps, mids.P, mids.gain_dev)
    eta, rate = linear_rk4(
        sol.grid, L_n, g_n, L_m, g_m, p.g1, "adjoint offset", backward=True
    )
    return eta, hermite_midpoints(eta, rate, sol.grid.h)


def _mean_ode(c, maps, P, Pm, Ga, e1):
    """L and g of the mean adjoint at a set of grid points."""
    loads = _mean_loads(c, P, e1)
    return _adjoint_ode(maps, 1, Ga, Pm, *loads, c["b0"], c["q0"] + c["q_bar"])


def _mean_adjoint(p, sol, adjoint_noise, noise_mid, mids: MidpointData):
    """The mean adjoint from the noise adjoint at the nodes and midpoints."""
    tab = sol.table
    L_n, g_n = _mean_ode(
        tab.node, tab.node_maps, sol.P, sol.P_mean, sol.gain_mean, adjoint_noise
    )
    L_m, g_m = _mean_ode(
        tab.mid, tab.mid_maps, mids.P, mids.P_mean, mids.gain_mean, noise_mid
    )
    eta, _ = linear_rk4(
        sol.grid, L_n, g_n, L_m, g_m, p.g0 + p.g_bar, "mean adjoint offset",
        backward=True,
    )
    return eta


def compute_corrections(
    sol: GreSolution, adjoint_noise: np.ndarray, adjoint_mean: np.ndarray
) -> CorrectionSet:
    """Affine control offsets from the adjoint paths, with attainability.

    Both channels' targets B^T eta + D^T v + r come from the nodal maps in
    one stacked expression, where the mean channel's r adds rho0 and then
    rho_bar (the noise channel's rho_bar is zero).  -W^+ applies to them in
    the eigenbasis of the input-weight factorization kept on the Riccati
    solution, as for the gains.  Each target is also range-checked against
    its input weight: each channel's residuals become one ConditionVerdict,
    offset_range_dev or offset_range_mean, at DEFAULT_REG_TOL by the
    regularity report's range rule (first node on ties).
    """
    c, (F, G, _) = sol.table.node, sol.table.node_maps
    n = sol.P.shape[-1]
    v_noise, r_noise = _noise_loads(c, sol.P)
    v_mean, _ = _mean_loads(c, sol.P, adjoint_noise)
    pairs = (
        (v_noise, v_mean),
        (r_noise, c["rho0"]),
        (np.zeros_like(c["rho_bar"]), c["rho_bar"]),
    )
    v, r, r_bar = (np.stack(np.broadcast_arrays(*pair), axis=-2) for pair in pairs)
    eta = np.stack((adjoint_noise, adjoint_mean), axis=1)
    targets = _mv(_mT(F[..., n:]), eta) + _mv(_mT(G[..., n:]), v) + r + r_bar
    corr = _pair_buffer(targets.shape[:1] + targets.shape[2:])
    targets = targets[..., None]
    corr[...] = _gain(targets, sol.factor)[..., 0]
    corr_noise, corr_mean = _channels(corr)
    residual = sol.factor.range_residual(targets)
    conditions = tuple(
        _range_verdict(name, residual[:, ch], DEFAULT_REG_TOL)
        for ch, name in enumerate(("offset_range_dev", "offset_range_mean"))
    )
    return CorrectionSet(corr_noise, corr_mean, conditions)


def solve_affine(p: ProblemData, sol: GreSolution) -> AffineSolution:
    """Full affine stage: the noise and mean adjoints plus control offsets."""
    mids = dense_midpoints(sol)
    adjoint_noise, noise_mid = _noise_adjoint(p, sol, mids)
    adjoint_mean = _mean_adjoint(p, sol, adjoint_noise, noise_mid, mids)
    corrections = compute_corrections(sol, adjoint_noise, adjoint_mean)
    return AffineSolution(
        grid=sol.grid,
        adjoint_noise=adjoint_noise,
        adjoint_mean=adjoint_mean,
        corrections=corrections,
    )
