"""Independent cross-checks of the solver outputs.

Four families, deliberately built on different machinery than the solver:

* a brute-force quadratic program on the Euler-discretised noiseless
  problem, minimised through its stacked normal equations;
* a completion-of-squares residual identity that re-expresses a simulated
  cost through the Riccati data, evaluated with common random numbers;
* a lower-bound battery that samples random strategies and checks none
  undercuts the reported value;
* a degeneration check that collapsing the mean coupling reproduces the
  single-equation special case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import sim
from .problem import (
    ControlSpec,
    InitialLaw,
    MatrixPath,
    NoiseAffinePath,
    ProblemData,
    sample_path,
    tabulate,
)
from .quadrature import trapezoid
from .riccati import GreSolution
from .synthesis import ClosedLoopSolution, value

DEGENERATION_P_TOL = 1e-10
DEGENERATION_GAIN_TOL = 1e-8


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    discrepancy: float
    tolerance: float
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class QpOracleResult:
    """Optimal cost of the Euler-discretised problem, or why there is none.

    status: "ok" for a positive-definite Hessian, "singular" when the
    normal equations are consistent but the minimiser is not unique,
    "unbounded" when the quadratic has no minimum.
    """

    status: str
    cost: Optional[float]
    n_intervals: int
    control: Optional[np.ndarray]


@dataclass(frozen=True)
class CompletionResult:
    """Both sides of the completed-square cost identity from zero state.

    ``gap_stderr`` is the standard error of the per-path difference of the
    two sides; both sides ride the same paths, so it is far below the
    standard error of either side alone and bounds what the gap can prove.
    """

    lhs: float
    rhs: float
    gap: float
    rel_gap: float
    lhs_stderr: float
    gap_stderr: float
    n_paths: int
    n_steps: int
    seed: int


def _require_noiseless(p: ProblemData):
    noisy = []
    for name in ("C", "C_bar", "D", "D_bar"):
        if np.any(getattr(p, name).values != 0.0):
            noisy.append(name)
    for name in ("b", "sigma", "q", "rho"):
        na = getattr(p, name)
        if np.any(na.noise_part.values != 0.0):
            noisy.append(f"{name}.noise")
    if np.any(p.sigma.const_part.values != 0.0):
        noisy.append("sigma.const")
    if np.any(p.g1 != 0.0):
        noisy.append("g1")
    if noisy:
        raise ValueError(
            "qp_oracle handles noiseless problems only; nonzero: "
            + ", ".join(noisy)
        )


def qp_oracle(p: ProblemData, x, K: int) -> QpOracleResult:
    """Brute-force optimal cost via a dense quadratic program.

    Forward-Euler discretisation with piecewise-constant controls on K
    intervals; since the problem is noiseless and the initial state is a
    point, state and mean coincide and the coefficient pairs collapse to
    their sums.  The cost is assembled as an explicit quadratic in the
    stacked control vector and minimised by solving the normal equations.
    A singular or indefinite Hessian is reported, never regularised away
    (indefinite: smallest eigenvalue below -1e-9 * max(||H||_F, 1)).

    First-order accurate in 1/K by construction (left-endpoint rectangle
    rule), which is exactly what makes it an independent check.
    """
    _require_noiseless(p)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n, m = p.n, p.m
    if x.shape != (n,):
        raise ValueError(f"initial state must have shape ({n},)")
    grid = p.horizon.with_steps(K)
    h = grid.h
    tab = tabulate(p, grid)
    node = {name: tab.stack(name)[:K] for name in tab.node}  # left interval ends
    Ah = node["A"] + node["A_bar"]
    Bh = node["B"] + node["B_bar"]
    Qh = node["Q"] + node["Q_bar"]
    Sh = node["S"] + node["S_bar"]
    Rh = node["R"] + node["R_bar"]
    qh = node["q0"] + node["q_bar"]
    rh = node["rho0"] + node["rho_bar"]
    bh = node["b0"]
    Gh = p.G + p.G_bar
    gh = p.g0 + p.g_bar

    # State as an affine function of the stacked control: X_j = Phi_j + Psi_j u.
    dim = K * m
    Phi = np.empty((K + 1, n))
    Psi = np.zeros((K + 1, n, dim))
    Phi[0] = x
    for j in range(K):
        step = np.eye(n) + h * Ah[j]
        Phi[j + 1] = step @ Phi[j] + h * bh[j]
        Psi[j + 1] = step @ Psi[j]
        Psi[j + 1][:, j * m : (j + 1) * m] += h * Bh[j]

    PsiR = Psi[:K]  # states entering the running cost
    flatR = PsiR.reshape(K * n, dim)
    # Quadratic J(u) = u^T H u + 2 c^T u + const.  Identically-zero weights
    # are skipped: the terms vanish and the matmuls dominate the runtime.
    H = np.zeros((dim, dim))
    c = np.zeros(dim)
    if np.any(Qh):
        QPsi = (Qh @ PsiR).reshape(K * n, dim)
        H += h * (flatR.T @ QPsi)
        c += h * (QPsi.T @ Phi[:K].reshape(K * n))
    if np.any(Sh):
        cross = h * (Sh @ PsiR).reshape(dim, dim)
        H += cross + cross.T
        c += h * (Sh @ Phi[:K, :, None]).reshape(dim)
    for j in range(K):
        H[j * m : (j + 1) * m, j * m : (j + 1) * m] += h * Rh[j]
    GPsiK = Gh @ Psi[K]
    H += Psi[K].T @ GPsiK
    H = 0.5 * (H + H.T)

    c += h * rh.reshape(dim)
    if np.any(qh):
        c += h * (flatR.T @ qh.reshape(K * n))
    c += GPsiK.T @ Phi[K] + Psi[K].T @ gh

    const = h * float(
        np.einsum("ja,jab,jb->", Phi[:K], Qh, Phi[:K])
        + 2.0 * np.einsum("ja,ja->", qh, Phi[:K])
    )
    const += float(Phi[K] @ (Gh @ Phi[K]) + 2.0 * gh @ Phi[K])

    scale = float(np.linalg.norm(H, ord="fro"))
    try:
        np.linalg.cholesky(H)
        definite = True
    except np.linalg.LinAlgError:
        definite = False

    if definite:
        u = np.linalg.solve(H, -c)
        cost = const + float(c @ u)
        return QpOracleResult("ok", cost, K, u.reshape(K, m))

    eigs = np.linalg.eigvalsh(H)
    if eigs[0] < -1e-9 * max(scale, 1.0):
        return QpOracleResult("unbounded", None, K, None)
    u, *_ = np.linalg.lstsq(H, -c, rcond=None)
    residual = float(np.linalg.norm(H @ u + c))
    if residual > 1e-8 * (1.0 + float(np.linalg.norm(c))):
        return QpOracleResult("unbounded", None, K, None)
    cost = const + float(c @ u)
    return QpOracleResult("singular", cost, K, u.reshape(K, m))


def completion_check(
    p: ProblemData,
    gre: GreSolution,
    spec: ControlSpec,
    n_paths: int,
    n_steps: int,
    seed: int,
) -> CompletionResult:
    """Completed-square identity for the cost from zero initial state.

    For a homogeneous problem with a regular Riccati pair, the cost of any
    strategy started at zero equals the integrated squared deviation of its
    control from the feedback rule, weighted by the input weights (a
    deviation term along paths plus a mean term).  Both sides are evaluated
    on the same simulated paths, so the gap isolates systematic error.
    """
    if not p.is_homogeneous:
        raise ValueError(
            "completion_check requires a homogeneous problem; "
            "strip the inhomogeneities first"
        )
    if not gre.report.regular:
        raise ValueError(
            "completion_check requires a regular Riccati pair; "
            "the identity has no meaning otherwise"
        )
    grid = p.horizon.with_steps(n_steps)
    times = grid.nodes
    law = InitialLaw.deterministic(np.zeros(p.n))

    weight = sample_path(MatrixPath.sampled(gre.grid, gre.input_weight), times)
    weight_mean = sample_path(
        MatrixPath.sampled(gre.grid, gre.input_weight_mean), times
    )
    gain = sample_path(MatrixPath.sampled(gre.grid, gre.gain_dev), times)
    gain_mean = sample_path(MatrixPath.sampled(gre.grid, gre.gain_mean), times)

    def deviation_term(k, dX, dU, W):
        d = dU - dX @ gain[k].T
        return np.einsum("bi,bi->b", d @ weight[k], d)

    report, (dev_acc,) = sim.simulate(
        p, spec, law, n_paths, n_steps, seed,
        extras=(deviation_term,), keep_costs=True,
    )

    EX, EU = report.mean_path, report.mean_control
    dm = EU - np.einsum("kij,kj->ki", gain_mean, EX)
    mean_term = float(
        trapezoid(np.einsum("ki,kij,kj->k", dm, weight_mean, dm), grid.h)
    )

    lhs = report.cost_mean
    rhs = float(np.mean(dev_acc)) + mean_term
    gap = abs(lhs - rhs)
    rel_gap = gap / max(1.0, abs(lhs), abs(rhs))
    diff = report.per_path_costs - dev_acc
    gap_stderr = sim.sample_stderr(diff)
    return CompletionResult(
        lhs=lhs,
        rhs=rhs,
        gap=gap,
        rel_gap=rel_gap,
        lhs_stderr=report.cost_stderr,
        gap_stderr=gap_stderr,
        n_paths=n_paths,
        n_steps=n_steps,
        seed=seed,
    )


def lower_bound_battery(
    p: ProblemData,
    sol: ClosedLoopSolution,
    law: InitialLaw,
    n_controls: int,
    n_paths: int,
    seed: int,
    n_steps: Optional[int] = None,
    value_override: Optional[float] = None,
) -> VerificationReport:
    """No sampled strategy may undercut the reported optimal value.

    Draws constant perturbations of the synthesized strategy (gain entries
    uniform in [-2, 2], offset entries in [-1, 1], all added on top of the
    optimum), simulates each, and checks every estimated cost stays above
    value - 3 stderr.  The synthesized strategy itself must land within 3
    stderr of the value.  ``value_override`` substitutes a deliberately
    wrong value to confirm the battery can fail.
    """
    if not sol.solvable and value_override is None:
        raise ValueError(
            "lower_bound_battery needs a solvable problem: the reported "
            "value is only a lower bound in that case"
        )
    if n_controls < 1:
        raise ValueError(
            f"lower_bound_battery needs n_controls >= 1, got {n_controls}"
        )
    if not (0 <= seed and seed + n_controls < 2**64):
        raise ValueError(
            f"lower_bound_battery needs 0 <= seed and seed + n_controls "
            f"< 2**64, got seed {seed} with {n_controls} controls"
        )
    v = value(sol, law) if value_override is None else float(value_override)
    steps = sol.grid.n_steps if n_steps is None else n_steps
    rng = np.random.Generator(
        np.random.Philox(key=np.array([np.uint64(seed), np.uint64(0x5EED)]))
    )
    m, n = p.m, p.n
    slack = 1e-9 * (1.0 + abs(v))

    violations = []
    worst_margin = np.inf
    for i in range(n_controls):
        bump_fb = rng.uniform(-2.0, 2.0, (m, n))
        bump_mf = rng.uniform(-2.0, 2.0, (m, n))
        bump_v0 = rng.uniform(-1.0, 1.0, m)
        bump_v1 = rng.uniform(-1.0, 1.0, m)
        spec = ControlSpec(
            feedback=sol.strategy.feedback.add_constant(bump_fb),
            mean_feedback=sol.strategy.mean_feedback.add_constant(bump_mf),
            offset=NoiseAffinePath(
                const_part=sol.strategy.offset.const_part.add_constant(bump_v0),
                noise_part=sol.strategy.offset.noise_part.add_constant(bump_v1),
                frozen_at_start=sol.strategy.offset.frozen_at_start,
            ),
        )
        rep = sim.simulate(p, spec, law, n_paths, steps, seed + 1 + i)
        margin = rep.cost_mean - (v - 3.0 * rep.cost_stderr)
        worst_margin = min(worst_margin, margin)
        if margin < -slack:
            violations.append(
                {"control": i, "cost": rep.cost_mean, "stderr": rep.cost_stderr}
            )

    rep_opt = sim.simulate(p, sol.strategy, law, n_paths, steps, seed)
    opt_gap = abs(rep_opt.cost_mean - v)
    opt_tol = 3.0 * rep_opt.cost_stderr + slack

    checks = (
        CheckResult(
            name="lower_bound",
            passed=not violations,
            discrepancy=float(max(0.0, -worst_margin)),
            tolerance=0.0,
            metadata={
                "value": v,
                "n_controls": n_controls,
                "n_paths": n_paths,
                "seed": seed,
                "worst_margin": float(worst_margin),
                "violations": violations,
            },
        ),
        CheckResult(
            name="optimal_attains_value",
            passed=bool(opt_gap <= opt_tol),
            discrepancy=float(opt_gap),
            tolerance=float(opt_tol),
            metadata={
                "value": v,
                "optimal_cost": rep_opt.cost_mean,
                "optimal_stderr": rep_opt.cost_stderr,
            },
        ),
    )
    return VerificationReport(checks=checks)


def classical_degeneration(p: ProblemData, gre: GreSolution) -> VerificationReport:
    """With no mean coupling, both Riccati channels must coincide.

    ``gre`` is the integrated Riccati pair of ``p``.  Precondition: every
    mean-coupling coefficient is zero (error if not).  Then the mean-channel
    equation is textually the deviation equation, so the integrated matrices
    and gains must agree to machine accuracy.
    """
    if p.has_mean_terms:
        raise ValueError(
            "classical_degeneration requires all mean-coupling coefficients "
            "to vanish"
        )
    p_gap = float(np.max(np.abs(gre.P_mean - gre.P)))
    g_gap = float(np.max(np.abs(gre.gain_mean - gre.gain_dev)))
    checks = (
        CheckResult(
            name="riccati_matrices_coincide",
            passed=p_gap <= DEGENERATION_P_TOL,
            discrepancy=p_gap,
            tolerance=DEGENERATION_P_TOL,
            metadata={"n_steps": gre.grid.n_steps},
        ),
        CheckResult(
            name="gains_coincide",
            passed=g_gap <= DEGENERATION_GAIN_TOL,
            discrepancy=g_gap,
            tolerance=DEGENERATION_GAIN_TOL,
            metadata={"n_steps": gre.grid.n_steps},
        ),
    )
    return VerificationReport(checks=checks)
