"""Adjoint offset equations and the affine part of the optimal control.

With noise-affine inhomogeneities (each of the form f0(s) + f1(s) W(s)) the
backward adjoint equation closes inside the same family: its solution is
eta0(s) + adjoint_noise(s) W(s), where both coefficient paths solve linear
backward ODEs driven by the Riccati solution.  Only the noise coefficient
enters the offsets and the value, so eta0 is never integrated: the noise
coefficient solves an n-vector ODE of its own.  A separate mean adjoint
handles the expectation channel.  The control offset that these induce
splits the same way: a mean part and a coefficient multiplying the running
Brownian value.  Coefficients come from the table on the Riccati solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problem import ProblemData, TimeGrid
from .quadrature import linear_rk4
from .riccati import (
    DEFAULT_REG_TOL,
    GreSolution,
    MidpointData,
    dense_midpoints,
    hermite_midpoints,
)


@dataclass(frozen=True)
class CorrectionSet:
    """Affine control offsets plus their pointwise attainability verdict.

    corr_noise multiplies the running Brownian value; corr_mean is the
    deterministic offset of the mean control channel.  Attainability asks
    that the vectors being pseudo-inverted lie in the range of the
    corresponding input weight at every node.
    """

    corr_noise: np.ndarray
    corr_mean: np.ndarray
    feasible: bool
    worst_dev_node: int
    worst_dev_residual: float
    worst_mean_node: int
    worst_mean_residual: float
    tol: float


@dataclass(frozen=True)
class AffineSolution:
    grid: TimeGrid
    adjoint_noise: np.ndarray
    adjoint_mean: np.ndarray
    corrections: CorrectionSet

    @property
    def feasible(self) -> bool:
        return self.corrections.feasible


def _mT(M: np.ndarray) -> np.ndarray:
    """Transpose the last two axes of a stack of matrices."""
    return M.swapaxes(-1, -2)


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector products over broadcast stacks: (..., r, c), (..., c) -> (..., r)."""
    return (M @ v[..., None])[..., 0]


def _noise_ode(c, P, Th):
    """L and g of the noise adjoint d eta1/ds = L eta1 + g at a set of grid points.

    L = -F^T and g = -(H^T P sigma1 + Th^T rho1 + P b1 + q1), with the
    closed-loop F = A + B Th and H = C + D Th; ``c`` maps coefficient names
    to their samples at those points.
    """
    H_t = _mT(c["C"] + c["D"] @ Th)
    g = (
        _mv(H_t, _mv(P, c["sigma1"])) + _mv(_mT(Th), c["rho1"])
        + _mv(P, c["b1"]) + c["q1"]
    )
    return -_mT(c["A"] + c["B"] @ Th), -g


def solve_adjoint(
    p: ProblemData, sol: GreSolution, mids: Optional[MidpointData] = None
) -> np.ndarray:
    """Solve the noise coefficient of the pathwise adjoint backward; (K+1, n).

    The equation is autonomous: it sees neither the constant part of the
    adjoint nor the mean channel, and its terminal value is g1.
    """
    tab = sol.table
    if mids is None:
        mids = dense_midpoints(sol)
    L_n, g_n = _noise_ode(tab.node, sol.P, sol.gain_dev)
    L_m, g_m = _noise_ode(tab.mid, mids.P, mids.gain_dev)
    return linear_rk4(
        sol.grid, L_n, g_n, L_m, g_m, p.g1, "adjoint offset", backward=True
    )


def _adjoint_noise_midpoints(sol: GreSolution, adjoint_noise: np.ndarray) -> np.ndarray:
    """Hermite midpoints of the noise adjoint from its own nodal derivative."""
    L, g = _noise_ode(sol.table.node, sol.P, sol.gain_dev)
    deriv = _mv(L, adjoint_noise) + g
    return hermite_midpoints(adjoint_noise, deriv, sol.grid.h)


def _mean_ode(c, P, Pm, Ga, e1):
    """L and g of the mean adjoint d eta_bar/ds = L eta_bar + g."""
    A = c["A"] + c["A_bar"]
    B = c["B"] + c["B_bar"]
    C = c["C"] + c["C_bar"]
    D = c["D"] + c["D_bar"]
    carrier = _mv(P, c["sigma0"]) + e1
    Ga_t = _mT(Ga)
    g = (
        _mv(Ga_t, _mv(_mT(D), carrier) + c["rho0"] + c["rho_bar"])
        + _mv(_mT(C), carrier)
        + c["q0"] + c["q_bar"]
        + _mv(Pm, c["b0"])
    )
    return -_mT(A + B @ Ga), -g


def solve_adjoint_mean(
    p: ProblemData,
    sol: GreSolution,
    adjoint_noise: np.ndarray,
    mids: Optional[MidpointData] = None,
) -> np.ndarray:
    """Solve the mean-channel adjoint ODE backward; returns (K+1, n).

    The drift couples to the already-solved noise coefficient of the
    pathwise adjoint (its expectation against the running Brownian value is
    what survives in the mean dynamics).
    """
    tab = sol.table
    if mids is None:
        mids = dense_midpoints(sol)
    e1_m = _adjoint_noise_midpoints(sol, adjoint_noise)
    L_n, g_n = _mean_ode(tab.node, sol.P, sol.P_mean, sol.gain_mean, adjoint_noise)
    L_m, g_m = _mean_ode(tab.mid, mids.P, mids.P_mean, mids.gain_mean, e1_m)
    return linear_rk4(
        sol.grid, L_n, g_n, L_m, g_m, p.g0 + p.g_bar, "mean adjoint offset",
        backward=True,
    )


def compute_corrections(
    sol: GreSolution, adjoint_noise: np.ndarray, adjoint_mean: np.ndarray
) -> CorrectionSet:
    """Affine control offsets from the adjoint paths, with attainability.

    Nodewise pseudo-inverse solves through the input-weight factorization
    kept on the Riccati solution; each right-hand-side vector is also
    range-checked against its input weight, and the worst residual per
    channel (first node on ties) is held to DEFAULT_REG_TOL.
    """
    c = sol.table.node
    target = (
        _mv(_mT(c["B"]), adjoint_noise)
        + _mv(_mT(c["D"]), _mv(sol.P, c["sigma1"]))
        + c["rho1"]
    )
    carrier = _mv(sol.P, c["sigma0"]) + adjoint_noise
    target_mean = (
        _mv(_mT(c["B"] + c["B_bar"]), adjoint_mean)
        + _mv(_mT(c["D"] + c["D_bar"]), carrier)
        + c["rho0"] + c["rho_bar"]
    )
    targets = np.stack((target, target_mean), axis=1)[..., None]
    corr = -(sol.factor.pinv @ targets)[..., 0]
    residual = sol.factor.range_residual(targets)
    worst = np.argmax(residual, axis=0)
    worst_dev = float(residual[worst[0], 0])
    worst_mean = float(residual[worst[1], 1])

    return CorrectionSet(
        corr_noise=np.ascontiguousarray(corr[:, 0]),
        corr_mean=np.ascontiguousarray(corr[:, 1]),
        feasible=(worst_dev <= DEFAULT_REG_TOL and worst_mean <= DEFAULT_REG_TOL),
        worst_dev_node=int(worst[0]),
        worst_dev_residual=worst_dev,
        worst_mean_node=int(worst[1]),
        worst_mean_residual=worst_mean,
        tol=DEFAULT_REG_TOL,
    )


def solve_affine(p: ProblemData, sol: GreSolution) -> AffineSolution:
    """Full affine stage: the noise and mean adjoints plus control offsets."""
    mids = dense_midpoints(sol)
    adjoint_noise = solve_adjoint(p, sol, mids=mids)
    adjoint_mean = solve_adjoint_mean(p, sol, adjoint_noise, mids=mids)
    corrections = compute_corrections(sol, adjoint_noise, adjoint_mean)
    return AffineSolution(
        grid=sol.grid,
        adjoint_noise=adjoint_noise,
        adjoint_mean=adjoint_mean,
        corrections=corrections,
    )
