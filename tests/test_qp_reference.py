"""The QP oracle against the dense assembly it replaced.

``qp_oracle`` holds its Hessian as lower row blocks, whole intervals each
and nothing above the diagonal blocks, fills each block from its row maps,
the transition products across it and the sensitivity at its first node,
factors them in place with a left-looking block Cholesky and solves by two
row-block substitutions.  The reference below keeps the earlier
formulation as test-only code: the full state-sensitivity stack Psi, the
Hessian Psi^T Q Psi of the normal equations, ``np.linalg.cholesky`` as the
definiteness test, then ``np.linalg.solve``, or ``eigvalsh`` / ``lstsq``
for a Hessian that is not positive definite.

Status must agree exactly, cost and control to 1e-12 (1 + |x|), on
noiseless problems with every deterministic coefficient set and with
time-varying ones, at K m below, on and just past the factorization's block
edges, including a control dimension that does not divide the block width,
and with a drift that grows or decays the state strongly across the blocks.
The factorization, the inverses of its diagonal factors and the
substitutions are also compared with numpy's on random SPD matrices, must
refuse what is not positive definite, and the positive-definite path calls
no ``np.linalg.solve``.  The oracle's traced memory must stay below four
fifths of one dense (Km)^2 array, and below one and a quarter when the
factorization refuses and H is assembled in full.  No name the oracle
reads may come from the Riccati integrator's modules.
"""

import builtins
import dis
import inspect
import tracemalloc
import types

import numpy as np
import pytest

from mflq import verify
from mflq.presets import scalar_classic
from mflq.problem import MatrixPath, TimeGrid, make_problem, tabulate
from mflq.verify import (
    _BLOCK,
    _chol_inplace,
    _row_bounds,
    _solve_lower,
    _solve_lower_t,
    qp_oracle,
)

TOL = 1e-12


def reference_qp_oracle(p, x, K):
    """Dense normal equations over the stacked state sensitivities."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n, m = p.n, p.m
    grid = p.horizon.with_steps(K)
    h = grid.h
    tab = tabulate(p, grid)
    node = {name: tab.stack(name)[:K] for name in tab.node}
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

    # X_j = Phi_j + Psi_j u
    dim = K * m
    Phi = np.empty((K + 1, n))
    Psi = np.zeros((K + 1, n, dim))
    Phi[0] = x
    for j in range(K):
        step = np.eye(n) + h * Ah[j]
        Phi[j + 1] = step @ Phi[j] + h * bh[j]
        Psi[j + 1] = step @ Psi[j]
        Psi[j + 1][:, j * m : (j + 1) * m] += h * Bh[j]

    PsiR = Psi[:K]
    flatR = PsiR.reshape(K * n, dim)
    QPsi = (Qh @ PsiR).reshape(K * n, dim)
    H = h * (flatR.T @ QPsi)
    c = h * (QPsi.T @ Phi[:K].reshape(K * n))
    cross = h * (Sh @ PsiR).reshape(dim, dim)
    H += cross + cross.T
    c += h * (Sh @ Phi[:K, :, None]).reshape(dim)
    for j in range(K):
        H[j * m : (j + 1) * m, j * m : (j + 1) * m] += h * Rh[j]
    GPsiK = Gh @ Psi[K]
    H += Psi[K].T @ GPsiK
    H = 0.5 * (H + H.T)
    c += h * rh.reshape(dim) + h * (flatR.T @ qh.reshape(K * n))
    c += GPsiK.T @ Phi[K] + Psi[K].T @ gh

    const = h * float(
        np.einsum("ja,jab,jb->", Phi[:K], Qh, Phi[:K])
        + 2.0 * np.einsum("ja,ja->", qh, Phi[:K])
    )
    const += float(Phi[K] @ (Gh @ Phi[K]) + 2.0 * gh @ Phi[K])

    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        pass
    else:
        u = np.linalg.solve(H, -c)
        return "ok", const + float(c @ u), u.reshape(K, m)

    scale = float(np.linalg.norm(H, ord="fro"))
    if np.linalg.eigvalsh(H)[0] < -1e-9 * max(scale, 1.0):
        return "unbounded", None, None
    u, *_ = np.linalg.lstsq(H, -c, rcond=None)
    if np.linalg.norm(H @ u + c) > 1e-8 * (1.0 + np.linalg.norm(c)):
        return "unbounded", None, None
    return "singular", const + float(c @ u), u.reshape(K, m)


def noiseless_problem(n, m, seed=0):
    """Noiseless mean-field instance with every deterministic coefficient set.

    A, R and the constant part of b are sampled on a 37-step grid, so their
    values on the oracle's grid come from interpolation; the rest is
    constant.  R + R_bar stays above the identity and the state weights
    dominate the cross terms, so the Hessian is positive definite.
    """
    rng = np.random.default_rng(seed)
    s = TimeGrid(0.0, 1.0, 37)
    t = s.nodes

    def mat(r, c, scale):
        return scale * rng.standard_normal((r, c))

    def psd(k, scale):
        M = mat(k, k, 1.0)
        return scale * (M @ M.T / k)

    A0, A1 = mat(n, n, 0.3), mat(n, n, 0.2)
    R0 = psd(m, 0.3)
    b0, b1 = mat(1, n, 0.3)[0], mat(1, n, 0.2)[0]
    return make_problem(
        n, m, TimeGrid(0.0, 1.0, 100),
        A=MatrixPath.sampled(s, A0 + np.sin(3.0 * t)[:, None, None] * A1),
        A_bar=mat(n, n, 0.1),
        B=mat(n, m, 0.8), B_bar=mat(n, m, 0.1),
        Q=np.eye(n) + psd(n, 0.5), Q_bar=psd(n, 0.2),
        S=mat(m, n, 0.1), S_bar=mat(m, n, 0.05),
        R=MatrixPath.sampled(
            s, R0 + (1.0 + 0.5 * np.sin(4.0 * t))[:, None, None] * np.eye(m)
        ),
        R_bar=0.3 * np.eye(m),
        G=np.eye(n) + psd(n, 0.5), G_bar=psd(n, 0.3),
        b=(MatrixPath.sampled(s, b0 + np.cos(5.0 * t)[:, None] * b1),
           np.zeros(n)),
        q=(mat(1, n, 0.2)[0], np.zeros(n)), q_bar=mat(1, n, 0.1)[0],
        rho=(mat(1, m, 0.2)[0], np.zeros(m)), rho_bar=mat(1, m, 0.1)[0],
        g=(mat(1, n, 0.2)[0], np.zeros(n)), g_bar=mat(1, n, 0.1)[0],
    )


def drift_problem(a, r):
    """Drift a I plus a small time-varying part, and a sampled B, n = m = 2.

    a = +6 grows the state about e^6 over the horizon and a = -40 decays it
    about e^-40, so the transition products that carry a row block's first
    node to its later intervals span large factors.  R = r I is scaled to
    the drift so that the optimal controls are of order one and H stays well
    conditioned, as 1e-12 agreement between two factorizations needs.
    """
    rng = np.random.default_rng(0)
    s = TimeGrid(0.0, 1.0, 37)
    wave = np.sin(3.0 * s.nodes)[:, None, None]
    A1, B0, B1 = (rng.standard_normal(shape) for shape in [(2, 2), (2, 2), (2, 2)])
    return make_problem(
        2, 2, TimeGrid(0.0, 1.0, 100),
        A=MatrixPath.sampled(s, a * np.eye(2) + 0.5 * wave * A1),
        B=MatrixPath.sampled(s, B0 + wave * B1),
        Q=np.eye(2), R=r * np.eye(2), G=np.eye(2),
    )


def late_singular_problem():
    """R vanishes from t = 1/2 on and there is no running state cost.

    The Hessian is diag(h R_j) plus the rank-one terminal term, so it is
    singular but consistent, and the first zero pivot sits at interval
    K/2: past the first block for K >= 2 * _BLOCK, after the factorization
    has overwritten the blocks before it.
    """
    s = TimeGrid(0.0, 1.0, 100)
    r = np.maximum(0.0, 1.0 - 2.0 * s.nodes)[:, None, None]
    return make_problem(
        1, 1, s, A=0.2, B=1.0, R=MatrixPath.sampled(s, r), G=1.0,
        b=(0.3, 0.0),
    )


def two_control_singular_problem():
    """Two controls that enter only through u_1 + u_2 / 2, with R = 0.

    The Hessian is singular but consistent, and each interval's 2 x 2
    diagonal block has nonzero entries off its diagonal.
    """
    return make_problem(
        1, 2, TimeGrid(0.0, 1.0, 20), A=0.2, B=np.array([[1.0, 0.5]]),
        Q=np.array([[1.0]]), G=np.array([[1.0]]),
        b=(np.array([0.3]), np.zeros(1)),
    )


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_less(np.abs(got - want), TOL * (1.0 + np.abs(want)))


def assert_matches_reference(p, x, K):
    res = qp_oracle(p, x, K)
    status, cost, control = reference_qp_oracle(p, x, K)
    assert res.status == status
    assert res.n_intervals == K
    if cost is None:
        assert res.cost is None and res.control is None
        return res
    assert_close(res.cost, cost)
    assert_close(res.control, control)
    return res


@pytest.mark.parametrize("K", [1, 37, 256, 257, 600])
def test_scalar_classic_matches_dense_reference(K):
    p, law = scalar_classic()
    assert assert_matches_reference(p, law.mean, K).status == "ok"


@pytest.mark.parametrize(
    "n, m, K",
    [(1, 1, 1), (1, 1, 37), (1, 1, 256), (1, 1, 257), (1, 1, 600),
     (2, 3, 1), (2, 3, 85), (2, 3, 86),
     (4, 2, 37), (4, 2, 128), (4, 2, 129)],
)
def test_full_noiseless_problem_matches_dense_reference(n, m, K):
    p = noiseless_problem(n, m, seed=n + m)
    x = np.linspace(1.0, -0.5, n)
    assert assert_matches_reference(p, x, K).status == "ok"


@pytest.mark.parametrize("K", [170, 171, 172])
def test_row_blocks_hold_whole_intervals_when_m_does_not_divide_the_block(K):
    # 85 intervals of 3 controls a block: two full blocks of 255 rows, then
    # nothing, one interval or two.
    m = 3
    bounds = _row_bounds(K * m, m)
    assert bounds[:2] == [(0, 255), (255, 510)]
    assert all(s % m == 0 and e % m == 0 for s, e in bounds)
    assert bounds[-1][1] == K * m
    p = noiseless_problem(2, m, seed=2 + m)
    assert assert_matches_reference(p, np.array([1.0, -0.5]), K).status == "ok"


@pytest.mark.parametrize("a, r", [(6.0, 300.0), (-40.0, 0.01)],
                         ids=["growing", "decaying"])
@pytest.mark.parametrize("K", [_BLOCK, _BLOCK + 1])
def test_strong_drift_across_row_blocks_matches_dense_reference(a, r, K):
    # K m = 2 _BLOCK: two full row blocks, then one interval past them.
    p = drift_problem(a, r)
    assert assert_matches_reference(p, np.array([1.0, -0.5]), K).status == "ok"


def test_positive_definite_path_makes_no_general_solve(monkeypatch):
    p, law = scalar_classic()
    K = 600
    status, cost, control = reference_qp_oracle(p, law.mean, K)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    res = qp_oracle(p, law.mean, K)
    assert res.status == status == "ok"
    assert_close(res.cost, cost)
    assert_close(res.control, control)


def test_singular_and_unbounded_fixtures_keep_their_status():
    g = TimeGrid(0.0, 1.0, 20)
    singular = assert_matches_reference(make_problem(1, 1, g, B=1.0), [1.0], 50)
    assert singular.status == "singular"
    unbounded = assert_matches_reference(
        make_problem(1, 1, g, B=1.0, R=-1.0), [1.0], 50
    )
    assert unbounded.status == "unbounded"


def test_singular_hessian_past_the_first_block_is_reassembled():
    K = 2 * _BLOCK + 88
    res = assert_matches_reference(late_singular_problem(), [1.0], K)
    assert res.status == "singular"
    assert res.cost == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("K", [5, 20])
def test_singular_hessian_with_two_controls_is_mirrored_once(K):
    res = assert_matches_reference(two_control_singular_problem(), [1.0], K)
    assert res.status == "singular"


def spd_matrix(N, seed):
    M = np.random.default_rng(seed).standard_normal((N, N))
    return M @ M.T + N * np.eye(N)


def row_blocks(A):
    """Row-block views of a dense matrix, cut as for one control."""
    return [A[s:e, :e] for s, e in _row_bounds(len(A), 1)]


@pytest.mark.parametrize("N", [1, 255, 256, 257, 700])
def test_blocked_cholesky_and_substitutions_match_numpy(N):
    A = spd_matrix(N, seed=N)
    b = np.random.default_rng(N + 1).standard_normal(N)
    L_ref = np.linalg.cholesky(A)
    L = A.copy()
    inv = _chol_inplace(row_blocks(L))
    L = np.tril(L)
    assert np.max(np.abs(L - L_ref)) <= TOL * np.max(np.abs(L_ref))
    bounds = _row_bounds(N, 1)
    assert len(inv) == len(bounds)
    for (s, e), inv_i in zip(bounds, inv):
        want = np.linalg.inv(L_ref[s:e, s:e])
        assert np.max(np.abs(inv_i - want)) <= TOL * np.max(np.abs(want))
        assert not np.triu(inv_i, 1).any()
    y = _solve_lower(row_blocks(L), inv, b)
    y_ref = np.linalg.solve(L_ref, b)
    assert np.max(np.abs(y - y_ref)) <= TOL * np.max(np.abs(y_ref))
    x = _solve_lower_t(row_blocks(L), inv, y)
    x_ref = np.linalg.solve(A, b)
    assert np.max(np.abs(x - x_ref)) <= TOL * np.max(np.abs(x_ref))


def test_blocked_cholesky_reads_only_the_lower_triangle():
    A = spd_matrix(300, seed=3)
    junk = A + np.triu(np.full_like(A, 7.0), 1)
    _chol_inplace(row_blocks(A))
    _chol_inplace(row_blocks(junk))
    np.testing.assert_array_equal(np.tril(junk), np.tril(A))


def third_block_failure(N=700):
    """SPD except for the pivot at 2 * _BLOCK + 40, which is negative."""
    A = spd_matrix(N, seed=7)
    k = 2 * _BLOCK + 40
    pivot = np.linalg.cholesky(A[: k + 1, : k + 1])[k, k] ** 2
    A[k, k] -= pivot + 1.0
    return A, k


def test_third_block_fixture_fails_at_its_pivot():
    A, k = third_block_failure()
    np.linalg.cholesky(A[:k, :k])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(A[: k + 1, : k + 1])


@pytest.mark.parametrize(
    "make",
    [
        lambda: np.diag(np.r_[np.ones(299), -1.0])
        + 0.01 * np.ones((300, 300)),
        lambda: np.zeros((300, 300)),
        lambda: third_block_failure()[0],
    ],
    ids=["indefinite", "zero", "third_block_pivot"],
)
def test_blocked_cholesky_refuses_what_is_not_positive_definite(make):
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(make())
    with pytest.raises(np.linalg.LinAlgError):
        _chol_inplace(row_blocks(make()))


def test_qp_oracle_holds_one_hessian_sized_array():
    """At K = 2000 the dense assembly peaked near 3 (Km)^2 arrays."""
    p, law = scalar_classic()
    K = 2000
    tracemalloc.start()
    try:
        res = qp_oracle(p, law.mean, K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.status == "ok"
    assert peak <= 1.5 * 8 * (K * p.m) ** 2


def traced_peak(p, x, K):
    tracemalloc.start()
    try:
        res = qp_oracle(p, x, K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return res, peak


def test_qp_oracle_holds_its_lower_row_blocks_only():
    """The row blocks, 0.56 (Km)^2 numbers at K = 2000, and the inverses of
    their diagonal blocks; a dense Hessian peaked at 1.12 (Km)^2."""
    p, law = scalar_classic()
    K = 2000
    res, peak = traced_peak(p, law.mean, K)
    assert res.status == "ok"
    assert peak <= 0.8 * 8 * (K * p.m) ** 2


@pytest.mark.parametrize(
    "make, status",
    [
        (lambda: make_problem(1, 1, TimeGrid(0.0, 1.0, 20), B=1.0),
         "singular"),
        (lambda: make_problem(1, 1, TimeGrid(0.0, 1.0, 20), B=1.0, R=-1.0),
         "unbounded"),
        (late_singular_problem, "singular"),
    ],
    ids=["singular", "unbounded", "late_singular"],
)
def test_refused_factorization_holds_one_hessian(make, status):
    """The refused blocks go before H is assembled again and mirrored in
    place; keeping them and mirroring through a copy peaked at 3.14 (Km)^2."""
    K = 1000
    res, peak = traced_peak(make(), [1.0], K)
    assert res.status == status
    assert peak <= 1.25 * 8 * K**2


# The solver modules the oracle must not read from, and the names of shared
# modules that it may: the coefficient table, the symmetric part and the
# noiseless precondition's list of nonzero noise terms.
SOLVER_MODULES = {"mflq.riccati", "mflq.affine", "mflq.quadrature", "mflq.synthesis"}
SHARED_NAMES = {
    ("mflq.problem", "tabulate"),
    ("mflq.problem", "_nonzero_terms"),
    ("mflq.linalg", "_sym"),
}


def global_reads(func):
    """(name, object) for each global that ``func`` and the ``verify``
    functions it reads load, nested code (comprehensions, lambdas) included."""
    seen, found, todo = set(), [], [func]
    while todo:
        f = todo.pop()
        if f in seen:
            continue
        seen.add(f)
        codes = [f.__code__]
        while codes:
            code = codes.pop()
            codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            for ins in dis.get_instructions(code):
                if ins.opname not in ("LOAD_GLOBAL", "LOAD_NAME"):
                    continue
                name = ins.argval
                if name in f.__globals__:
                    obj = f.__globals__[name]
                elif hasattr(builtins, name):
                    continue
                else:
                    raise AssertionError(f"{f.__name__} reads unbound {name}")
                found.append((name, obj))
                if inspect.isfunction(obj) and obj.__module__ == verify.__name__:
                    todo.append(obj)
    return found


def test_qp_oracle_reads_nothing_of_the_solver():
    """The oracle is the Riccati-free route: no name it or its verify
    helpers read resolves into the Riccati, adjoint, quadrature or synthesis
    modules, and of the other mflq modules only the allowed names."""
    reads = global_reads(qp_oracle)
    assert ("_chol_inplace", _chol_inplace) in reads  # helpers are walked
    for name, obj in reads:
        module = obj.__name__ if inspect.ismodule(obj) else getattr(
            obj, "__module__", None
        )
        if module is None or not module.startswith("mflq"):
            continue
        assert module not in SOLVER_MODULES, f"{name} comes from {module}"
        if module != verify.__name__:
            assert (module, name) in SHARED_NAMES, f"{name} comes from {module}"
