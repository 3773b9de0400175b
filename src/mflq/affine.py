"""Adjoint offset equations and the affine part of the optimal control.

With noise-affine inhomogeneities (each of the form f0(s) + f1(s) W(s)) the
backward adjoint equation closes inside the same family: its solution is
adjoint_const(s) + adjoint_noise(s) W(s), where the two coefficient paths
solve linear backward ODEs driven by the Riccati solution.  A separate mean
adjoint handles the expectation channel.  The control offset that these
induce splits the same way: a mean part and a coefficient multiplying the
running Brownian value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import Optional

from .errors import FiniteEscapeError
from .problem import ProblemData, TimeGrid, grid_samples
from .riccati import (
    BLOWUP_NORM,
    DEFAULT_REG_TOL,
    GreSolution,
    MidpointData,
    dense_midpoints,
    hermite_midpoints,
)

# Noise-affine inhomogeneities that drive the pathwise adjoint pair.
_NOISE_NAMES = ("b", "sigma", "q", "rho")


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
    adjoint_const: np.ndarray
    adjoint_noise: np.ndarray
    adjoint_mean: np.ndarray
    corrections: CorrectionSet

    @property
    def feasible(self) -> bool:
        return self.corrections.feasible


def _check_finite(name, v, node, time):
    norm = float(np.linalg.norm(v))
    if not np.isfinite(norm) or norm > BLOWUP_NORM:
        raise FiniteEscapeError(name, node, time, norm)


def _mT(M: np.ndarray) -> np.ndarray:
    """Transpose the last two axes of a stack of matrices."""
    return M.swapaxes(-1, -2)


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector products over broadcast stacks: (..., r, c), (..., c) -> (..., r)."""
    return (M @ v[..., None])[..., 0]


def _backward_linear(grid: TimeGrid, L_node, g_node, L_mid, g_mid, terminal, name):
    """Integrate the linear ODE dy/ds = -(L y + g) backward with fixed-step RK4.

    L and g are tabulated at the nodes, (K+1, d, d) and (K+1, d), and at the
    interval midpoints, (K, d, d) and (K, d).  Returns y at every node,
    terminal included.
    """
    K = grid.n_steps
    h = grid.h
    nodes = grid.nodes
    out = np.empty((K + 1,) + np.shape(terminal))
    out[K] = terminal
    for k in range(K, 0, -1):
        y = out[k]
        Lm, gm = L_mid[k - 1], g_mid[k - 1]
        f1 = -(L_node[k] @ y + g_node[k])
        f2 = -(Lm @ (y - 0.5 * h * f1) + gm)
        f3 = -(Lm @ (y - 0.5 * h * f2) + gm)
        f4 = -(L_node[k - 1] @ (y - h * f3) + g_node[k - 1])
        out[k - 1] = y - (h / 6.0) * (f1 + 2 * f2 + 2 * f3 + f4)
        _check_finite(name, out[k - 1], k - 1, nodes[k - 1])
    return out


def _coeff_samples(p: ProblemData, grid: TimeGrid, names):
    """Node and midpoint samples of coefficient paths, constants unexpanded."""
    node, mid = {}, {}
    for name in names:
        node[name], mid[name] = grid_samples(getattr(p, name), grid)
    return node, mid


def _noise_samples(p: ProblemData, grid: TimeGrid, names):
    """(const, noise) part samples of noise-affine paths, constants unexpanded."""
    node, mid = {}, {}
    for name in names:
        na = getattr(p, name)
        c_n, c_m = grid_samples(na.const_part, grid)
        w_n, w_m = grid_samples(na.noise_part, grid)
        node[name] = (c_n, w_n)
        mid[name] = (c_m, w_m)
    return node, mid


def _noise_system(coeff, noise, P, Th):
    """Closed-loop pieces of the pathwise adjoint pair at a set of grid points.

    Returns (F^T, H^T, g0, g1) with F = A + B Th and H = C + D Th, where
    d eta1/ds = -(F^T eta1 + g1) and d eta0/ds = -(F^T eta0 + H^T eta1 + g0).
    """
    F_t = _mT(coeff["A"] + coeff["B"] @ Th)
    H_t = _mT(coeff["C"] + coeff["D"] @ Th)
    Th_t = _mT(Th)
    g = [
        _mv(H_t, _mv(P, noise["sigma"][i])) + _mv(Th_t, noise["rho"][i])
        + _mv(P, noise["b"][i]) + noise["q"][i]
        for i in (0, 1)
    ]
    return F_t, H_t, g[0], g[1]


def _noise_pair_ode(coeff, noise, P, Th):
    """Block form of the adjoint pair: L = [[F^T, H^T], [0, F^T]], g = (g0, g1)."""
    F_t, H_t, g0, g1 = _noise_system(coeff, noise, P, Th)
    n = F_t.shape[-1]
    L = np.zeros(F_t.shape[:-2] + (2 * n, 2 * n))
    L[..., :n, :n] = F_t
    L[..., :n, n:] = H_t
    L[..., n:, n:] = F_t
    return L, np.concatenate((g0, g1), axis=-1)


def solve_adjoint(
    p: ProblemData, sol: GreSolution, mids: Optional[MidpointData] = None
):
    """Solve the pathwise adjoint offset ODE pair backward.

    Returns (adjoint_const, adjoint_noise), each of shape (K+1, n).  The
    noise coefficient's equation is autonomous in the pair; the constant
    part is driven by it, so both integrate together as one stacked linear
    state of length 2n.
    """
    grid = sol.grid
    n = p.n
    cn, cm = _coeff_samples(p, grid, ("A", "B", "C", "D"))
    nn, nm = _noise_samples(p, grid, _NOISE_NAMES)

    if mids is None:
        mids = dense_midpoints(p, sol)
    L_n, g_n = _noise_pair_ode(cn, nn, sol.P, sol.gain_dev)
    L_m, g_m = _noise_pair_ode(cm, nm, mids.P, mids.gain_dev)
    terminal = np.concatenate((p.g0, p.g1))
    out = _backward_linear(grid, L_n, g_n, L_m, g_m, terminal, "adjoint offset")
    return out[:, :n], out[:, n:]


def _adjoint_noise_midpoints(
    p: ProblemData, sol: GreSolution, adjoint_noise: np.ndarray
) -> np.ndarray:
    """Hermite midpoints of the noise adjoint from its own nodal derivative."""
    cn, _ = _coeff_samples(p, sol.grid, ("A", "B", "C", "D"))
    nn, _ = _noise_samples(p, sol.grid, _NOISE_NAMES)
    F_t, _, _, g1 = _noise_system(cn, nn, sol.P, sol.gain_dev)
    deriv = -(_mv(F_t, adjoint_noise) + g1)
    return hermite_midpoints(adjoint_noise, deriv, sol.grid.h)


def _mean_ode(coeff, noise, P, Pm, Ga, e1):
    """L and g of the mean adjoint d eta_bar/ds = -(L eta_bar + g)."""
    A = coeff["A"] + coeff["A_bar"]
    B = coeff["B"] + coeff["B_bar"]
    C = coeff["C"] + coeff["C_bar"]
    D = coeff["D"] + coeff["D_bar"]
    carrier = _mv(P, noise["sigma"][0]) + e1
    Ga_t = _mT(Ga)
    g = (
        _mv(Ga_t, _mv(_mT(D), carrier) + noise["rho"][0] + coeff["rho_bar"])
        + _mv(_mT(C), carrier)
        + noise["q"][0] + coeff["q_bar"]
        + _mv(Pm, noise["b"][0])
    )
    return _mT(A + B @ Ga), g


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
    grid = sol.grid
    cn, cm = _coeff_samples(
        p, grid,
        ("A", "A_bar", "B", "B_bar", "C", "C_bar", "D", "D_bar",
         "q_bar", "rho_bar"),
    )
    nn, nm = _noise_samples(p, grid, _NOISE_NAMES)

    if mids is None:
        mids = dense_midpoints(p, sol)
    e1_m = _adjoint_noise_midpoints(p, sol, adjoint_noise)
    L_n, g_n = _mean_ode(cn, nn, sol.P, sol.P_mean, sol.gain_mean, adjoint_noise)
    L_m, g_m = _mean_ode(cm, nm, mids.P, mids.P_mean, mids.gain_mean, e1_m)
    terminal = p.g0 + p.g_bar
    return _backward_linear(grid, L_n, g_n, L_m, g_m, terminal, "mean adjoint offset")


def compute_corrections(
    p: ProblemData,
    sol: GreSolution,
    adjoint_const: np.ndarray,
    adjoint_noise: np.ndarray,
    adjoint_mean: np.ndarray,
    tol: float = DEFAULT_REG_TOL,
) -> CorrectionSet:
    """Affine control offsets from the adjoint paths, with attainability.

    Nodewise pseudo-inverse solves through the input-weight factorization
    kept on the Riccati solution; each right-hand-side vector is also
    range-checked against its input weight, and the worst residual per
    channel is recorded (first node on ties).  The adjoint_const argument
    participates only through the solvability contract (the offsets depend
    on the noise and mean adjoints); it is accepted so the full adjoint
    triple travels together.
    """
    del adjoint_const
    c, _ = _coeff_samples(p, sol.grid, ("B", "B_bar", "D", "D_bar", "rho_bar"))
    nz, _ = _noise_samples(p, sol.grid, ("sigma", "rho"))
    (s0, s1), (r0, r1) = nz["sigma"], nz["rho"]

    target = (
        _mv(_mT(c["B"]), adjoint_noise)
        + _mv(_mT(c["D"]), _mv(sol.P, s1))
        + r1
    )
    carrier = _mv(sol.P, s0) + adjoint_noise
    target_mean = (
        _mv(_mT(c["B"] + c["B_bar"]), adjoint_mean)
        + _mv(_mT(c["D"] + c["D_bar"]), carrier)
        + r0 + c["rho_bar"]
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
        feasible=(worst_dev <= tol and worst_mean <= tol),
        worst_dev_node=int(worst[0]),
        worst_dev_residual=worst_dev,
        worst_mean_node=int(worst[1]),
        worst_mean_residual=worst_mean,
        tol=tol,
    )


def solve_affine(
    p: ProblemData, sol: GreSolution, tol: float = DEFAULT_REG_TOL
) -> AffineSolution:
    """Full affine stage: adjoint triple plus control offsets."""
    mids = dense_midpoints(p, sol)
    adjoint_const, adjoint_noise = solve_adjoint(p, sol, mids=mids)
    adjoint_mean = solve_adjoint_mean(p, sol, adjoint_noise, mids=mids)
    corrections = compute_corrections(
        p, sol, adjoint_const, adjoint_noise, adjoint_mean, tol=tol
    )
    return AffineSolution(
        grid=sol.grid,
        adjoint_const=adjoint_const,
        adjoint_noise=adjoint_noise,
        adjoint_mean=adjoint_mean,
        corrections=corrections,
    )
