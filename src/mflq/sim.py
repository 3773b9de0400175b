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
    return _mean_path(tabulate(p, grid), _control_samples(spec, grid), m0)


def _control_samples(spec: ControlSpec, grid: TimeGrid):
    """(node, mid) samples of the feedback, the mean feedback and the offset's
    constant and noise parts, in that order."""
    paths = (spec.feedback, spec.mean_feedback,
             spec.offset.const_part, spec.offset.noise_part)
    return tuple(nodes_and_midpoints(path, grid) for path in paths)


def _mean_path(tab: CoefficientTable, control, m0: np.ndarray):
    """The mean ODE of ``mean_ode`` over a tabulated problem and control law."""
    (fb_n, fb_m), (mf_n, mf_m), (v0_n, v0_m), _ = control

    def ode(c, gain, v0):
        B = c["B"] + c["B_bar"]
        return c["A"] + c["A_bar"] + B @ gain, (B @ v0[..., None])[..., 0] + c["b0"]

    gain_n = fb_n + mf_n
    L_n, g_n = ode(tab.node, gain_n, v0_n)
    L_m, g_m = ode(tab.mid, fb_m + mf_m, v0_m)
    EX = linear_rk4(tab.grid, L_n, g_n, L_m, g_m, m0, "state mean")
    EU = np.einsum("kij,kj->ki", gain_n, EX) + v0_n
    return EX, EU


def _node_maps(tab: CoefficientTable) -> np.ndarray:
    """One linear map of the stacked state Z = [X; U] per node.

    Shape (K+1, 3n+m+2, n+m).  Rows, top to bottom: the running-cost weight
    [[Q, S^T], [S, R]], the drift [A B], the diffusion [C D], then
    2 [q0 r0] (linear cost) and 2 [q1 r1] (its Brownian-riding part), so a
    single product T[k] @ Z yields the cost terms and both increments.
    """
    S = tab.stack("S")
    return np.block([
        [tab.stack("Q"), np.swapaxes(S, 1, 2)],
        [S, tab.stack("R")],
        [tab.stack("A"), tab.stack("B")],
        [tab.stack("C"), tab.stack("D")],
        [2.0 * tab.stack("q0")[:, None], 2.0 * tab.stack("rho0")[:, None]],
        [2.0 * tab.stack("q1")[:, None], 2.0 * tab.stack("rho1")[:, None]],
    ])


def _terminal_map(p: ProblemData) -> np.ndarray:
    """The terminal cost as a map of X: rows G, 2 g0 and 2 g1, shape (n+2, n)."""
    return np.vstack((p.G, 2.0 * p.g0, 2.0 * p.g1))


def _quadratic_cost(TZ: np.ndarray, Z: np.ndarray, W) -> np.ndarray:
    """Per-path cost from a map's image TZ = T @ Z, with paths on the last axis.

    The leading rows of T hold the quadratic weight, its last two rows the
    linear cost and the part of it that rides the Brownian value W.
    """
    return np.einsum("ib,ib->b", TZ[: Z.shape[0]], Z) + TZ[-2] + TZ[-1] * W


def _mean_channel_cost(
    p: ProblemData, tab: CoefficientTable, EX: np.ndarray, EU: np.ndarray
) -> float:
    """Mean-channel running + terminal cost, exact given (EX, EU)."""
    running = (
        np.einsum("ki,kij,kj->k", EX, tab.stack("Q_bar"), EX)
        + 2.0 * np.einsum("ki,kij,kj->k", EU, tab.stack("S_bar"), EX)
        + np.einsum("ki,kij,kj->k", EU, tab.stack("R_bar"), EU)
        + 2.0 * np.sum(EX * tab.stack("q_bar"), axis=1)
        + 2.0 * np.sum(EU * tab.stack("rho_bar"), axis=1)
    )
    terminal = EX[-1] @ (p.G_bar @ EX[-1]) + 2.0 * (p.g_bar @ EX[-1])
    return float(trapezoid(running, tab.grid.h) + terminal)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(chunk_index)])
    return np.random.Generator(np.random.Philox(key=key))


def _simulate_chunks(
    p: ProblemData,
    tab: CoefficientTable,
    control,
    frozen: bool,
    law: InitialLaw,
    n_paths: int,
    seed: int,
    EX: np.ndarray,
    EU: np.ndarray,
    extras: Sequence[Callable] = (),
):
    """Core Euler-Maruyama sweep over path chunks.

    Returns (costs, extra_accumulators, sum_state_per_node, terminal sums).
    ``control`` is from ``_control_samples``; ``frozen`` pins the offset's W at W(t0).
    ``extras`` are per-node integrands f(k, X - EX[k], U - EU[k], W) -> (B,),
    accumulated with the same trapezoid weights as the running cost.

    Paths run along the last axis: the stacked state Z = [X; U] has shape
    (n+m, B), and each node costs one product with the node map of
    ``_node_maps``.  Each chunk's draws are taken path-major, as the
    reproducibility contract fixes them, and written once, scaled, into a
    step-major increment buffer that every chunk reuses.
    """
    grid = tab.grid
    K, h = grid.n_steps, grid.h
    t0 = grid.t0
    n = p.n
    d = n + p.m

    T = _node_maps(tab)
    TG = _terminal_map(p)
    (fb_n, _), (mf_n, _), (v0_n, _), (v1_n, _) = control

    w = trapezoid_weights(K + 1, h)
    sqrt_h = np.sqrt(h)
    sqrt_t0 = np.sqrt(t0) if t0 > 0.0 else 0.0

    # Mean-channel contributions to control, drift and diffusion at nodes;
    # drift and diffusion are stacked as the node map stacks their rows.
    mean_u = np.einsum("kij,kj->ki", mf_n, EX) + v0_n
    mean_drift = np.einsum("kij,kj->ki", tab.stack("A_bar"), EX) + np.einsum(
        "kij,kj->ki", tab.stack("B_bar"), EU
    ) + tab.stack("b0")
    mean_diff = np.einsum("kij,kj->ki", tab.stack("C_bar"), EX) + np.einsum(
        "kij,kj->ki", tab.stack("D_bar"), EU
    ) + tab.stack("sigma0")
    mean_step = np.concatenate((mean_drift, mean_diff), axis=1)
    riding_step = np.concatenate((tab.stack("b1"), tab.stack("sigma1")), axis=1)

    costs = []
    extra_acc = [[] for _ in extras]
    sum_X = np.zeros((K + 1, n))
    sum_term = np.zeros(n)
    sum_term_outer = np.zeros((n, n))
    dW_buf = np.empty((K, min(CHUNK, n_paths)))

    n_chunks = (n_paths + CHUNK - 1) // CHUNK
    for c in range(n_chunks):
        bsz = min(CHUNK, n_paths - c * CHUNK)
        rng = _chunk_rng(seed, c)
        gauss = rng.standard_normal((bsz, law.indep_load.shape[1]))
        z0 = rng.standard_normal(bsz)
        dW = dW_buf[:, :bsz]
        np.multiply(rng.standard_normal((bsz, K)).T, sqrt_h, out=dW)

        W0 = sqrt_t0 * z0
        W = W0.copy()
        anchor = W0 if frozen else W  # W advances in place
        Z = np.empty((d, bsz))
        X, U = Z[:n], Z[n:]
        X[...] = (
            law.mean + W0[:, None] * law.brownian_load + gauss @ law.indep_load.T
        ).T
        TZ = np.empty((T.shape[1], bsz))
        step = TZ[d : d + 2 * n]  # drift rows, then diffusion rows

        running = np.zeros(bsz)
        running_extra = [np.zeros(bsz) for _ in extras]

        for k in range(K + 1):
            np.matmul(fb_n[k], X, out=U)
            U += mean_u[k][:, None]
            U += v1_n[k][:, None] * anchor
            np.matmul(T[k], Z, out=TZ)
            running += w[k] * _quadratic_cost(TZ, Z, W)
            for e_idx, fn in enumerate(extras):
                running_extra[e_idx] += w[k] * fn(
                    k, (X - EX[k][:, None]).T, (U - EU[k][:, None]).T, W
                )
            sum_X[k] += X.sum(axis=1)
            if k < K:
                step += mean_step[k][:, None]
                step += riding_step[k][:, None] * W
                X += h * step[:n]
                X += dW[k] * step[n:]
                W += dW[k]

        running += _quadratic_cost(TG @ X, X, W)
        costs.append(running)
        for e_idx in range(len(extras)):
            extra_acc[e_idx].append(running_extra[e_idx])
        sum_term += X.sum(axis=1)
        sum_term_outer += X @ X.T

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
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must lie in [0, 2**64), got {seed}")
    if law.dim != p.n:
        raise ValidationError(
            f"initial law dimension {law.dim} does not match state dimension {p.n}"
        )
    grid = p.horizon.with_steps(n_steps)
    tab = tabulate(p, grid)
    control = _control_samples(spec, grid)
    EX, EU = _mean_path(tab, control, law.mean)
    det_cost = _mean_channel_cost(p, tab, EX, EU)

    costs, extra_out, sum_X, sum_term, sum_term_outer = _simulate_chunks(
        p, tab, control, spec.offset.frozen_at_start, law, n_paths, seed,
        EX, EU, extras,
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

    tab = tabulate(p, grid)
    T = _node_maps(tab)
    w = trapezoid_weights(n_nodes, h)
    per_path = np.zeros(n_paths)
    for k in range(n_nodes):
        Z = np.concatenate((X[:, k], U[:, k]), axis=1).T
        per_path += w[k] * _quadratic_cost(T[k] @ Z, Z, 0.0)
    XT = X[:, -1].T
    per_path += _quadratic_cost(_terminal_map(p) @ XT, XT, 0.0)
    per_path += _mean_channel_cost(p, tab, EX, EU)

    mean = float(np.mean(per_path))
    return mean, sample_stderr(per_path)
