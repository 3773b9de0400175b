"""Euler-Maruyama simulation with exact mean closure.

The state mean and mean control that the dynamics and cost see are not
estimated from the sample: they solve the deterministic mean ODE exactly
(up to RK4), so a finite path ensemble simulates the true mean-field
dynamics rather than an interacting particle system.  Paths are advanced in
fixed-size chunks, each chunk drawing from its own counter-based generator
keyed by (seed, chunk index); results are therefore reproducible bit for
bit for a given seed, path count, and step count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .problem import (
    CoefficientTable,
    ControlSpec,
    InitialLaw,
    ProblemData,
    TimeGrid,
    nodes_and_midpoints,
    sample_path,
    tabulate,
)
from .quadrature import linear_rk4, trapezoid, trapezoid_weights

# Paths per generator chunk.  Part of the reproducibility contract: the
# draw for path i depends only on (seed, i // CHUNK) and i's offset.
CHUNK = 16384


@dataclass(frozen=True)
class SimulationReport:
    """Cost estimate and path statistics from one simulation run."""

    cost_mean: float
    cost_stderr: float
    n_paths: int
    n_steps: int
    seed: int
    times: np.ndarray
    mean_path: np.ndarray
    mean_control: np.ndarray
    sample_mean_path: np.ndarray
    mean_gap: float
    terminal_mean: np.ndarray
    terminal_second_moment: np.ndarray
    per_path_costs: Optional[np.ndarray] = None


def sample_stderr(values: np.ndarray) -> float:
    """Standard error of the sample mean, exactly zero for constant samples.

    A constant vector has zero sample variance by definition; computing it
    through np.std can leave ~1e-18 dust whenever n * value is not exactly
    representable, which would break the promise that deterministic
    problems report stderr 0.
    """
    if values.size < 2 or np.all(values == values[0]):
        return 0.0
    return float(np.std(values, ddof=1) / np.sqrt(values.size))


def mean_ode(
    p: ProblemData,
    spec: ControlSpec,
    m0,
    n_steps: Optional[int] = None,
):
    """Exact state-mean and control-mean trajectories under a control law.

    Solves dEX/ds = (A + A_bar + (B + B_bar)(feedback + mean_feedback)) EX
    + (B + B_bar) offset_mean + drift_const forward by RK4 and returns
    (EX, EU) sampled at the nodes, shapes (K+1, n) and (K+1, m).  A mean
    that leaves every finite bound (a diverging strategy) raises
    FiniteEscapeError at the first node past the blow-up threshold.
    """
    grid = p.horizon if n_steps is None else p.horizon.with_steps(n_steps)
    m0 = np.atleast_1d(np.asarray(m0, dtype=float))
    if m0.shape != (p.n,):
        raise ValidationError(f"initial mean: expected shape ({p.n},), got {m0.shape}")
    return _mean_path(tabulate(p, grid), spec, m0)


def _mean_path(tab: CoefficientTable, spec: ControlSpec, m0: np.ndarray):
    """The mean ODE of ``mean_ode`` over a tabulated problem."""
    grid = tab.grid
    fb_n, fb_m = nodes_and_midpoints(spec.feedback, grid)
    mf_n, mf_m = nodes_and_midpoints(spec.mean_feedback, grid)
    v0_n, v0_m = nodes_and_midpoints(spec.offset.const_part, grid)

    def ode(c, gain, v0):
        B = c["B"] + c["B_bar"]
        return c["A"] + c["A_bar"] + B @ gain, (B @ v0[..., None])[..., 0] + c["b0"]

    gain_n = fb_n + mf_n
    L_n, g_n = ode(tab.node, gain_n, v0_n)
    L_m, g_m = ode(tab.mid, fb_m + mf_m, v0_m)
    EX = linear_rk4(grid, L_n, g_n, L_m, g_m, m0, "state mean")
    EU = np.einsum("kij,kj->ki", gain_n, EX) + v0_n
    return EX, EU


class _CostTables:
    """Node samples of every cost coefficient on the working grid."""

    def __init__(self, tab: CoefficientTable):
        self.Q = tab.stack("Q")
        self.S = tab.stack("S")
        self.R = tab.stack("R")
        self.q0 = tab.stack("q0")
        self.q1 = tab.stack("q1")
        self.r0 = tab.stack("rho0")
        self.r1 = tab.stack("rho1")
        self.Qb = tab.stack("Q_bar")
        self.Sb = tab.stack("S_bar")
        self.Rb = tab.stack("R_bar")
        self.qb = tab.stack("q_bar")
        self.rb = tab.stack("rho_bar")

    def node_cost(self, k: int, X, U, W):
        """Per-path running integrand at node k; X (B, n), U (B, m), W (B,)."""
        out = np.einsum("bi,ij,bj->b", X, self.Q[k], X)
        out += 2.0 * np.einsum("bi,ij,bj->b", U, self.S[k], X)
        out += np.einsum("bi,ij,bj->b", U, self.R[k], U)
        out += 2.0 * (X @ self.q0[k] + (X @ self.q1[k]) * W)
        out += 2.0 * (U @ self.r0[k] + (U @ self.r1[k]) * W)
        return out

    def deterministic_cost(self, p: ProblemData, grid: TimeGrid, EX, EU) -> float:
        """Mean-channel running + terminal cost, exact given (EX, EU)."""
        running = (
            np.einsum("ki,kij,kj->k", EX, self.Qb, EX)
            + 2.0 * np.einsum("ki,kij,kj->k", EU, self.Sb, EX)
            + np.einsum("ki,kij,kj->k", EU, self.Rb, EU)
            + 2.0 * np.sum(EX * self.qb, axis=1)
            + 2.0 * np.sum(EU * self.rb, axis=1)
        )
        terminal = EX[-1] @ (p.G_bar @ EX[-1]) + 2.0 * (p.g_bar @ EX[-1])
        return float(trapezoid(running, grid.h) + terminal)


def _terminal_cost(p: ProblemData, X, W):
    return np.einsum("bi,ij,bj->b", X, p.G, X) + 2.0 * (
        X @ p.g0 + (X @ p.g1) * W
    )


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(chunk_index)])
    return np.random.Generator(np.random.Philox(key=key))


def _simulate_chunks(
    p: ProblemData,
    tab: CoefficientTable,
    tables: _CostTables,
    spec: ControlSpec,
    law: InitialLaw,
    n_paths: int,
    seed: int,
    EX: np.ndarray,
    EU: np.ndarray,
    extras: Sequence[Callable] = (),
):
    """Core Euler-Maruyama sweep over path chunks.

    Returns (costs, extra_accumulators, sum_state_per_node, terminal sums).
    ``extras`` are per-node integrands f(k, X - EX[k], U - EU[k], W) -> (B,),
    accumulated with the same trapezoid weights as the running cost.
    """
    grid = tab.grid
    K, h = grid.n_steps, grid.h
    t0 = grid.t0
    times = grid.nodes
    n = p.n

    A_n, Ab_n = tab.stack("A"), tab.stack("A_bar")
    B_n, Bb_n = tab.stack("B"), tab.stack("B_bar")
    C_n, Cb_n = tab.stack("C"), tab.stack("C_bar")
    D_n, Db_n = tab.stack("D"), tab.stack("D_bar")
    b0_n, b1_n = tab.stack("b0"), tab.stack("b1")
    s0_n, s1_n = tab.stack("sigma0"), tab.stack("sigma1")
    fb_n = sample_path(spec.feedback, times)
    mf_n = sample_path(spec.mean_feedback, times)
    v0_n = sample_path(spec.offset.const_part, times)
    v1_n = sample_path(spec.offset.noise_part, times)
    frozen = spec.offset.frozen_at_start

    w = trapezoid_weights(K + 1, h)
    sqrt_h = np.sqrt(h)
    sqrt_t0 = np.sqrt(t0) if t0 > 0.0 else 0.0

    # Mean-channel contributions to drift, diffusion, and control at nodes.
    mean_u = np.einsum("kij,kj->ki", mf_n, EX) + v0_n
    mean_drift = np.einsum("kij,kj->ki", Ab_n, EX) + np.einsum(
        "kij,kj->ki", Bb_n, EU
    ) + b0_n
    mean_diff = np.einsum("kij,kj->ki", Cb_n, EX) + np.einsum(
        "kij,kj->ki", Db_n, EU
    ) + s0_n

    costs = []
    extra_acc = [[] for _ in extras]
    sum_X = np.zeros((K + 1, n))
    sum_term = np.zeros(n)
    sum_term_outer = np.zeros((n, n))

    n_chunks = (n_paths + CHUNK - 1) // CHUNK
    for c in range(n_chunks):
        bsz = min(CHUNK, n_paths - c * CHUNK)
        rng = _chunk_rng(seed, c)
        gauss = rng.standard_normal((bsz, law.indep_load.shape[1]))
        z0 = rng.standard_normal(bsz)
        dW = sqrt_h * rng.standard_normal((bsz, K))

        W0 = sqrt_t0 * z0
        W = W0.copy()
        X = law.mean + W0[:, None] * law.brownian_load + gauss @ law.indep_load.T

        running = np.zeros(bsz)
        running_extra = [np.zeros(bsz) for _ in extras]

        for k in range(K + 1):
            anchor = W0 if frozen else W
            U = X @ fb_n[k].T + mean_u[k] + v1_n[k] * anchor[:, None]
            running += w[k] * tables.node_cost(k, X, U, W)
            for e_idx, fn in enumerate(extras):
                running_extra[e_idx] += w[k] * fn(k, X - EX[k], U - EU[k], W)
            sum_X[k] += X.sum(axis=0)
            if k < K:
                drift = X @ A_n[k].T + U @ B_n[k].T + mean_drift[k] + b1_n[k] * W[:, None]
                diff = X @ C_n[k].T + U @ D_n[k].T + mean_diff[k] + s1_n[k] * W[:, None]
                X = X + h * drift + dW[:, k : k + 1] * diff
                W = W + dW[:, k]

        running += _terminal_cost(p, X, W)
        costs.append(running)
        for e_idx in range(len(extras)):
            extra_acc[e_idx].append(running_extra[e_idx])
        sum_term += X.sum(axis=0)
        sum_term_outer += X.T @ X

    costs = np.concatenate(costs)
    extra_out = [np.concatenate(acc) for acc in extra_acc]
    return costs, extra_out, sum_X, sum_term, sum_term_outer


def simulate(
    p: ProblemData,
    spec: ControlSpec,
    law: InitialLaw,
    n_paths: int,
    n_steps: int,
    seed: int,
    extras: Sequence[Callable] = (),
    keep_costs: bool = False,
):
    """Simulate the controlled dynamics and estimate the expected cost.

    Returns a SimulationReport; with ``extras`` given, returns the report
    plus one per-path accumulated array per extra integrand.  An extra is
    called as f(k, X - EX[k], U - EU[k], W) at node k, where EX and EU are
    the report's exact ``mean_path`` and ``mean_control``.  The standard
    error is the sample standard deviation of per-path costs divided by
    sqrt(n_paths); deterministic problems report exactly zero.  With
    ``keep_costs`` the report carries the per-path cost vector, for
    estimators that need path-level joint statistics.
    """
    if n_paths < 1:
        raise ValidationError("n_paths must be positive")
    if law.dim != p.n:
        raise ValidationError(
            f"initial law dimension {law.dim} does not match state dimension {p.n}"
        )
    grid = p.horizon.with_steps(n_steps)
    tab = tabulate(p, grid)
    EX, EU = _mean_path(tab, spec, law.mean)
    tables = _CostTables(tab)
    det_cost = tables.deterministic_cost(p, grid, EX, EU)

    costs, extra_out, sum_X, sum_term, sum_term_outer = _simulate_chunks(
        p, tab, tables, spec, law, n_paths, seed, EX, EU, extras
    )
    costs = costs + det_cost

    cost_mean = float(np.mean(costs))
    cost_stderr = sample_stderr(costs)

    sample_mean = sum_X / n_paths
    mean_gap = float(np.max(np.abs(sample_mean - EX)))
    report = SimulationReport(
        cost_mean=cost_mean,
        cost_stderr=cost_stderr,
        n_paths=n_paths,
        n_steps=n_steps,
        seed=seed,
        times=grid.nodes,
        mean_path=EX,
        mean_control=EU,
        sample_mean_path=sample_mean,
        mean_gap=mean_gap,
        terminal_mean=sum_term / n_paths,
        terminal_second_moment=sum_term_outer / n_paths,
        per_path_costs=costs if keep_costs else None,
    )
    if extras:
        return report, extra_out
    return report


def estimate_cost(times: np.ndarray, X: np.ndarray, U: np.ndarray, p: ProblemData):
    """Cost estimate from recorded path ensembles.

    X has shape (paths, K+1, n) and U (paths, K+1, m); the mean channel
    uses their sample means.  The recorded paths carry no Brownian values,
    so a problem whose cost rides them (nonzero q.noise, rho.noise or g1)
    raises ValidationError.  Returns (mean, stderr).
    """
    riding = {"q.noise": p.q.noise_part.values, "rho.noise": p.rho.noise_part.values,
              "g1": p.g1}
    nonzero = [name for name, values in riding.items() if np.any(values != 0.0)]
    if nonzero:
        raise ValidationError(
            "estimate_cost needs a cost free of Brownian-riding terms; "
            "nonzero: " + ", ".join(nonzero)
        )
    times = np.asarray(times, dtype=float)
    X = np.asarray(X, dtype=float)
    U = np.asarray(U, dtype=float)
    if X.ndim != 3 or U.ndim != 3 or X.shape[:2] != U.shape[:2]:
        raise ValidationError("X and U must be (paths, nodes, dim) with equal fronts")
    n_paths, n_nodes = X.shape[:2]
    if times.shape != (n_nodes,):
        raise ValidationError("times length does not match the path arrays")
    h = float(times[1] - times[0])
    grid = TimeGrid(float(times[0]), float(times[-1]), n_nodes - 1)
    EX = X.mean(axis=0)
    EU = U.mean(axis=0)

    tables = _CostTables(tabulate(p, grid))
    det_cost = tables.deterministic_cost(p, grid, EX, EU)
    w = trapezoid_weights(n_nodes, h)
    per_path = np.zeros(n_paths)
    for k in range(n_nodes):
        per_path += w[k] * tables.node_cost(k, X[:, k], U[:, k], 0.0)
    per_path += _terminal_cost(p, X[:, -1], 0.0)
    per_path += det_cost

    mean = float(np.mean(per_path))
    return mean, sample_stderr(per_path)
