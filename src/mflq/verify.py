"""Independent cross-checks of the solver outputs.

Four families, deliberately built on different machinery than the solver:

* a brute-force quadratic program on the Euler-discretised noiseless
  problem in the stacked controls, its Hessian held as lower row blocks,
  assembled interval by interval and minimised through one in-place
  left-looking block Cholesky factorization;
* a completion-of-squares residual identity that re-expresses a simulated
  cost through the Riccati data, evaluated with common random numbers;
* a lower-bound battery that samples random strategies and checks none
  undercuts the reported value;
* a degeneration check that collapsing the mean coupling reproduces the
  single-equation special case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

from . import sim
from .linalg import _sym
from .problem import (
    ControlSpec,
    InitialLaw,
    MatrixPath,
    NoiseAffinePath,
    ProblemData,
    _nonzero_terms,
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
    noisy = _nonzero_terms(p, (
        "C", "C_bar", "D", "D_bar", "b.noise", "sigma.noise", "q.noise",
        "rho.noise", "sigma.const", "g1",
    ))
    if noisy:
        raise ValueError(
            "qp_oracle handles noiseless problems only; nonzero: "
            + ", ".join(noisy)
        )


# The oracle's Hessian is held as lower row blocks: block [s, e) stores rows
# s..e-1 and columns 0..e-1, nothing above its diagonal block.  A block is
# _BLOCK // m whole intervals (at least one), so each interval's m rows land
# in one block.  The factorization's temporaries are block x block, and the
# inverses of the diagonal blocks that it keeps hold Km x _BLOCK numbers at
# most (Km x m when m > _BLOCK).
_BLOCK = 256


def _row_bounds(dim: int, m: int) -> list:
    """Row ranges [s, e) of the Hessian's row blocks, whole intervals each."""
    rows = max(1, _BLOCK // m) * m
    return [(s, min(s + rows, dim)) for s in range(0, dim, rows)]


def _chol_inplace(rows: list) -> list:
    """Overwrite lower row blocks with their Cholesky factor L.

    ``rows`` are the row blocks of ``_row_bounds``, block i of shape
    (e_i - s_i, e_i).  Left-looking: block row i takes, for each earlier
    block j, the panel L_ij = (A_ij - L_i[:, :s_j] L_j[:, :s_j]^T) inv(L_jj)^T,
    then factors A_ii - L_i[:, :s_i] L_i[:, :s_i]^T by
    ``np.linalg.cholesky``.  Returns the inverses inv(L_ii), formed once
    each, for the panels and both substitutions.  Only the lower triangle
    is read; the diagonal blocks end with zeros above the diagonal.  Raises
    ``np.linalg.LinAlgError`` when the matrix is not positive definite,
    with the blocks partly overwritten.
    """
    inv = []
    for a in rows:
        s = a.shape[1] - a.shape[0]
        for lj, inv_j in zip(rows, inv):  # the blocks factored so far
            sj, ej = lj.shape[1] - lj.shape[0], lj.shape[1]
            panel = a[:, sj:ej]
            panel -= a[:, :sj] @ lj[:, :sj].T
            panel[...] = panel @ inv_j.T
        d = a[:, s:]
        d -= a[:, :s] @ a[:, :s].T
        d[...] = np.linalg.cholesky(d)
        inv.append(np.tril(np.linalg.inv(d)))
    return inv


def _solve_lower(rows: list, inv: list, b: np.ndarray) -> np.ndarray:
    """Solve L y = b, row block by row block, for ``_chol_inplace``'s factor."""
    y = np.array(b, dtype=float)
    for a, inv_i in zip(rows, inv):
        s, e = a.shape[1] - a.shape[0], a.shape[1]
        y[s:e] = inv_i @ (y[s:e] - a[:, :s] @ y[:s])
    return y


def _solve_lower_t(rows: list, inv: list, y: np.ndarray) -> np.ndarray:
    """Solve L^T x = y for the same factor, from the last row block.

    Each block, once solved, takes its share L_i[:, :s_i]^T x_i off the
    entries before it, so the rows are read as they are stored.
    """
    x = np.array(y, dtype=float)
    for a, inv_i in zip(reversed(rows), reversed(inv)):
        s, e = a.shape[1] - a.shape[0], a.shape[1]
        x[s:e] = inv_i.T @ x[s:e]
        x[:s] -= a[:, :s].T @ x[s:e]
    return x


def _hessian_lower(rows, T, hB, WB, Sh, Rh, h) -> None:
    """Fill the QP Hessian's lower row blocks, one interval at a time.

    ``rows`` are zeroed blocks laid out by ``_row_bounds``.  Keeps only the
    current control sensitivity Psi_j of the state (X_j = Phi_j + Psi_j u).
    The m rows of interval j, columns up to its diagonal block, are the
    state cost (W_{j+1} h B_j)^T Psi_{j+1}, the cross term h S_j Psi_j, and
    h R_j on the diagonal.  A diagonal block right of each interval's own m
    columns stays zero.
    """
    K, n, m = hB.shape
    psi = np.zeros((n, K * m))
    j = 0
    for a in rows:
        s = a.shape[1] - a.shape[0]
        for r0 in range(s, a.shape[1], m):
            r1 = r0 + m
            row = a[r0 - s : r1 - s, :r1]
            row[:, :r0] = h * (Sh[j] @ psi[:, :r0])
            psi[:, :r0] = T[j] @ psi[:, :r0]
            psi[:, r0:r1] = hB[j]
            row += WB[j].T @ psi[:, :r1]
            row[:, r0:r1] += h * Rh[j]
            j += 1


def qp_oracle(p: ProblemData, x, K: int) -> QpOracleResult:
    """Brute-force optimal cost via a dense quadratic program.

    Forward-Euler discretisation with piecewise-constant controls on K
    intervals; since the problem is noiseless and the initial state is a
    point, state and mean coincide and the coefficient pairs collapse to
    their sums.  The cost is assembled as an explicit quadratic
    u^T H u + 2 c^T u + const in the stacked control vector.  A backward
    weight recursion, W_K = G and W_j = h Q_j + T_j^T W_{j+1} T_j with
    T_j = I + h A_j, carries each later state cost back to step j; it is
    linear (no weight is inverted, no feedback is formed).  H is held as
    its lower row blocks alone (``_row_bounds``), about half of (Km)^2
    numbers, and a forward pass over the intervals fills them.  They are
    factored once, in place, by a left-looking block Cholesky, and the
    minimiser follows from two row-block substitutions, products with the
    kept inverses of the diagonal blocks.  A singular or indefinite Hessian
    is reported, never regularised away (indefinite: smallest eigenvalue
    below -1e-9 * max(||H||_F, 1)); that check assembles the full H again,
    the only (Km)^2 array the oracle then holds.

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

    # Only a weight's symmetric part enters the quadratic; the factorization
    # reads H's lower triangle alone, so the weights are symmetrized here.
    T = np.eye(n) + h * (node["A"] + node["A_bar"])
    hB = h * (node["B"] + node["B_bar"])
    Qh = _sym(node["Q"] + node["Q_bar"])
    Sh = node["S"] + node["S_bar"]
    Rh = _sym(node["R"] + node["R_bar"])
    qh = node["q0"] + node["q_bar"]
    rh = node["rho0"] + node["rho_bar"]
    bh = node["b0"]
    Gh = _sym(p.G + p.G_bar)
    gh = p.g0 + p.g_bar

    # Uncontrolled states Phi_j, then the weights W_j and the linear
    # weights v_j (v_K = G Phi_K + g, v_j = h (Q_j Phi_j + q_j) + T_j^T
    # v_{j+1}) of the costs after step j, for j = 1..K.
    Phi = np.empty((K + 1, n))
    Phi[0] = x
    for j in range(K):
        Phi[j + 1] = T[j] @ Phi[j] + h * bh[j]
    W = np.empty((K + 1, n, n))
    v = np.empty((K + 1, n))
    W[K] = Gh
    v[K] = Gh @ Phi[K] + gh
    for j in range(K - 1, 0, -1):
        W[j] = h * Qh[j] + T[j].T @ W[j + 1] @ T[j]
        v[j] = h * (Qh[j] @ Phi[j] + qh[j]) + T[j].T @ v[j + 1]
    WB = W[1:] @ hB

    c = (
        np.einsum("jam,ja->jm", hB, v[1:])
        + h * np.einsum("jma,ja->jm", Sh, Phi[:K])
        + h * rh
    ).reshape(K * m)
    const = h * float(
        np.einsum("ja,jab,jb->", Phi[:K], Qh, Phi[:K])
        + 2.0 * np.einsum("ja,ja->", qh, Phi[:K])
    )
    const += float(Phi[K] @ (Gh @ Phi[K]) + 2.0 * gh @ Phi[K])

    dim = K * m
    bounds = _row_bounds(dim, m)
    rows = [np.zeros((e - s, e)) for s, e in bounds]
    _hessian_lower(rows, T, hB, WB, Sh, Rh, h)
    try:
        inv = _chol_inplace(rows)
    except np.linalg.LinAlgError:
        pass  # not positive definite: classified below
    else:
        u = _solve_lower_t(rows, inv, _solve_lower(rows, inv, -c))
        cost = const + float(c @ u)
        return QpOracleResult("ok", cost, K, u.reshape(K, m))

    # The refused factorization overwrote part of the blocks.  Out of the
    # except clause its traceback no longer holds them, so they go before
    # H is assembled again, in full, for the eigenvalue and least-squares
    # verdicts: its rows filled in place, then mirrored block by block.  A
    # diagonal block is rebuilt from its lower triangle alone, because each
    # interval's own m x m block is filled on both sides of its diagonal.
    del rows
    H = np.zeros((dim, dim))
    _hessian_lower([H[s:e, :e] for s, e in bounds], T, hB, WB, Sh, Rh, h)
    for s, e in bounds:
        H[:s, s:e] = H[s:e, :s].T
        d = H[s:e, s:e]
        d[...] = np.tril(d) + np.tril(d, -1).T

    scale = float(np.linalg.norm(H, ord="fro"))
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
    Fewer than two paths raise ValueError: one path's standard error is 0,
    so a band of standard errors around the gap would collapse to a point.
    """
    if n_paths < 2:
        raise ValueError(f"completion_check needs n_paths >= 2, got {n_paths}")
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
    optimum) from the Philox stream keyed (seed, 0x5EED), simulates each,
    and checks every estimated cost stays above value - 3 stderr.  The
    synthesized strategy itself must land within 3 stderr of the value.
    ``value_override`` substitutes a deliberately wrong value to confirm
    the battery can fail.

    The perturbations and the optimum are swept in one batch on the paths
    of ``seed``, drawn once: common random numbers.  Each marginal test is
    as valid as on paths of its own, and the optimum's estimate is exactly
    ``sim.simulate(p, sol.strategy, law, n_paths, steps, seed)``.  The
    seed rule below, seed + n_controls < 2**64, dates from the per-strategy
    streams and is kept as is.  Fewer than two paths raise ValueError, as
    in ``completion_check``: a 3-stderr band of one path is a point.
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
    if n_paths < 2:
        raise ValueError(f"lower_bound_battery needs n_paths >= 2, got {n_paths}")
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

    def perturbed():
        """The n_controls perturbed strategies, their bumps drawn in turn."""
        for _ in range(n_controls):
            bump_fb = rng.uniform(-2.0, 2.0, (m, n))
            bump_mf = rng.uniform(-2.0, 2.0, (m, n))
            bump_v0 = rng.uniform(-1.0, 1.0, m)
            bump_v1 = rng.uniform(-1.0, 1.0, m)
            yield ControlSpec(
                feedback=sol.strategy.feedback.add_constant(bump_fb),
                mean_feedback=sol.strategy.mean_feedback.add_constant(bump_mf),
                offset=NoiseAffinePath(
                    const_part=sol.strategy.offset.const_part.add_constant(bump_v0),
                    noise_part=sol.strategy.offset.noise_part.add_constant(bump_v1),
                    frozen_at_start=sol.strategy.offset.frozen_at_start,
                ),
            )

    # Every strategy, the optimum last, runs on the paths of seed.
    *reports, rep_opt = [rep for rep, _ in sim._simulate_many(
        p, chain(perturbed(), (sol.strategy,)), law, n_paths, steps, seed
    )]
    violations = []
    worst_margin = np.inf
    for i, rep in enumerate(reports):
        margin = rep.cost_mean - (v - 3.0 * rep.cost_stderr)
        worst_margin = min(worst_margin, margin)
        if margin < -slack:
            violations.append(
                {"control": i, "cost": rep.cost_mean, "stderr": rep.cost_stderr}
            )

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
