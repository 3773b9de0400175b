"""Hand-checkable cases for the rank-aware linear algebra helpers.

The one-matrix functions below (``pinv``, ``is_psd``, ``range_residual``,
``range_contained``, ``projector``) are the test-only reference for the
batched ``mflq.linalg.sym_factor``: an SVD pseudo-inverse with the same
relative cutoff, applied to one matrix at a time.  Other test modules import
them from here.
"""

from dataclasses import dataclass
import warnings

import numpy as np
import pytest

from mflq.linalg import (
    DEFAULT_RTOL,
    SymFactor,
    _eigh,
    _inverse_builder,
    _mT,
    _scalar_inverse,
    sym_factor,
)

# Relative symmetry slack for matrices that are symmetric by construction but
# assembled through non-associative float products.
_SYM_RTOL = 1e-9


@dataclass(frozen=True)
class PinvResult:
    """Moore-Penrose pseudo-inverse together with its rank decision.

    ``smallest_retained`` is the smallest singular value kept above the
    cutoff (0.0 when the matrix is treated as zero), so callers can tell how
    close the rank decision was.
    """

    pinv: np.ndarray
    rank: int
    singular_values: np.ndarray
    cutoff: float

    @property
    def smallest_retained(self) -> float:
        if self.rank == 0:
            return 0.0
        return float(self.singular_values[self.rank - 1])


def pinv(M) -> PinvResult:
    """Pseudo-invert M, zeroing singular values <= DEFAULT_RTOL * max_dim * s_max."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"pinv expects a matrix, got shape {M.shape}")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    cutoff = DEFAULT_RTOL * max(M.shape) * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    inv_s = np.zeros_like(s)
    inv_s[:rank] = 1.0 / s[:rank]
    P = (Vt.T * inv_s) @ U.T
    return PinvResult(pinv=P, rank=rank, singular_values=s, cutoff=cutoff)


def factor_pinv(factor) -> np.ndarray:
    """Pseudo-inverse matrices of a ``SymFactor`` stack, formed from its
    eigenpairs; the solver applies W^+ in the eigenbasis instead."""
    lam, V = factor.eigvals, factor.eigvecs
    inv = np.divide(1.0, lam, out=np.zeros(lam.shape), where=factor.keep)
    return (V * inv[..., None, :]) @ _mT(V)


def is_psd(M, tol: float = 0.0) -> tuple:
    """Decide positive semidefiniteness of a symmetric matrix.

    Returns (verdict, min_eigenvalue).  The verdict is True when the smallest
    eigenvalue is >= -tol.  Raises ValueError if M is visibly non-symmetric;
    the eigenvalues are taken from the symmetrized matrix.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"is_psd expects a square matrix, got shape {M.shape}")
    gap = np.linalg.norm(M - M.T)
    if gap > _SYM_RTOL * (1.0 + np.linalg.norm(M)):
        raise ValueError(
            f"is_psd expects a symmetric matrix (|M - M^T| = {gap:.3e})"
        )
    eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
    lam_min = float(eigs[0])
    return lam_min >= -tol, lam_min


def range_residual(N, M) -> float:
    """Normalised obstruction to range(N) being contained in range(M).

    Computes ||(I - M M^+) N|| / (1 + ||N||) in the Frobenius norm; exact
    containment gives 0 and the normalisation keeps the residual bounded by
    1 regardless of scaling.  M^+ is ``pinv(M)``, with its rank cutoff.
    """
    N = np.asarray(N, dtype=float)
    M = np.asarray(M, dtype=float)
    res = pinv(M)
    proj_out = N - M @ (res.pinv @ N)
    return float(np.linalg.norm(proj_out) / (1.0 + np.linalg.norm(N)))


def range_contained(N, M) -> tuple:
    """Test range(N) ⊆ range(M) to a residual of 1e-8; returns (verdict, residual)."""
    r = range_residual(N, M)
    return r <= 1e-8, r


def projector(M) -> np.ndarray:
    """Orthogonal projector M^+ M onto the row space of M, M^+ = ``pinv(M)``."""
    M = np.asarray(M, dtype=float)
    return pinv(M).pinv @ M


def test_pinv_full_rank_matches_inverse():
    M = np.array([[2.0, 1.0], [0.0, 3.0]])
    res = pinv(M)
    np.testing.assert_allclose(res.pinv, np.linalg.inv(M), atol=1e-14)
    assert res.rank == 2


def test_pinv_drops_tiny_singular_values():
    # diag(3, 1e-14, 0): cutoff = 1e-10 * 3 * 3 = 9e-10, so only the 3 survives.
    M = np.diag([3.0, 1e-14, 0.0])
    res = pinv(M)
    assert res.rank == 1
    assert res.cutoff == pytest.approx(9e-10)
    assert res.smallest_retained == 3.0
    np.testing.assert_allclose(res.pinv, np.diag([1 / 3.0, 0.0, 0.0]))


def test_pinv_zero_matrix():
    res = pinv(np.zeros((2, 2)))
    assert res.rank == 0
    assert res.smallest_retained == 0.0
    assert np.all(res.pinv == 0.0)


def test_pinv_rejects_non_matrix():
    with pytest.raises(ValueError):
        pinv(np.zeros(3))


def test_pinv_penrose_identities():
    rng = np.random.default_rng(42)
    M = rng.standard_normal((4, 3)) @ rng.standard_normal((3, 5))
    P = pinv(M).pinv
    np.testing.assert_allclose(M @ P @ M, M, atol=1e-12)
    np.testing.assert_allclose(P @ M @ P, P, atol=1e-12)
    np.testing.assert_allclose(M @ P, (M @ P).T, atol=1e-12)
    np.testing.assert_allclose(P @ M, (P @ M).T, atol=1e-12)


def test_is_psd_detects_indefinite():
    ok, lam = is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not ok
    assert lam == pytest.approx(-1.0)


def test_is_psd_accepts_with_slack():
    ok, lam = is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]), tol=1.0)
    assert ok


def test_is_psd_rejects_asymmetric():
    with pytest.raises(ValueError):
        is_psd(np.array([[1.0, 5.0], [0.0, 1.0]]))


def test_range_residual_orthogonal_direction():
    # N = e2, M = diag(1, 0): the whole unit-norm column is projected out,
    # and the normalisation gives 1 / (1 + 1) = 0.5 exactly.
    N = np.array([[0.0], [1.0]])
    M = np.diag([1.0, 0.0])
    assert range_residual(N, M) == 0.5


def test_range_residual_contained_is_zero():
    M = np.diag([1.0, 2.0])
    N = np.array([[3.0], [4.0]])
    assert range_residual(N, M) == pytest.approx(0.0, abs=1e-15)
    ok, r = range_contained(N, M)
    assert ok


def test_range_of_zero_matrix_only_contains_zero():
    M = np.zeros((2, 2))
    ok, r = range_contained(np.zeros((2, 1)), M)
    assert ok and r == 0.0
    ok, r = range_contained(np.array([[1.0], [0.0]]), M)
    assert not ok
    assert r == 0.5


def test_projector_is_idempotent():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 3))
    Pi = projector(M)
    np.testing.assert_allclose(Pi @ Pi, Pi, atol=1e-12)
    np.testing.assert_allclose(Pi @ M.T, M.T, atol=1e-12)


# -- batched symmetric factorization against the one-matrix functions --------

NEAR_FACTOR = 10.0


def _rotation(m, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))
    return q


def _weight_stack():
    """Symmetric 3x3 weights covering every branch of the rank decision.

    The cutoff of a matrix with largest |eigenvalue| 1 is 1e-10 * 3 = 3e-10;
    the two near-cutoff weights keep an eigenvalue 1% above it and drop one
    1% below it.  They are diagonal, so both routes see their eigenvalues
    exactly.
    """
    cut = DEFAULT_RTOL * 3 * 1.0
    q = _rotation(3, 7)
    spd = _rotation(3, 1) @ np.diag([2.0, 1.0, 0.5]) @ _rotation(3, 1).T
    return np.stack([
        0.5 * (spd + spd.T),
        q @ np.diag([2.0, -1.0, 0.5]) @ q.T,      # indefinite
        q @ np.diag([3.0, 1.0, 0.0]) @ q.T,       # singular
        np.zeros((3, 3)),                          # all zero
        np.diag([1.0, 1.01 * cut, 0.3]),           # just above the cutoff
        np.diag([0.4, 1.0, 0.99 * cut]),           # just below the cutoff
    ])


def _loop_reference(W, N):
    """Node-by-node answers from pinv, is_psd and range_residual."""
    res = [pinv(M) for M in W]
    return dict(
        pinv=np.stack([r.pinv for r in res]),
        rank=np.array([r.rank for r in res]),
        smallest=np.array([r.smallest_retained for r in res]),
        cutoff=np.array([r.cutoff for r in res]),
        min_eig=np.array([is_psd(M)[1] for M in W]),
        residual=np.array([range_residual(n, M) for n, M in zip(N, W)]),
    )


def _assert_matches_loop(W, N):
    f = sym_factor(W)
    ref = _loop_reference(W, N)
    np.testing.assert_array_equal(f.rank, ref["rank"])
    for got, want in (
        (factor_pinv(f), ref["pinv"]),
        (f.smallest_retained, ref["smallest"]),
        (f.cutoff, ref["cutoff"]),
        (f.min_eig, ref["min_eig"]),
        (f.range_residual(N), ref["residual"]),
    ):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert np.argmin(f.min_eig) == np.argmin(ref["min_eig"])
    assert np.argmax(f.range_residual(N)) == np.argmax(ref["residual"])

    def near(smin, cut):
        return np.flatnonzero((smin > 0.0) & (smin < NEAR_FACTOR * cut)).tolist()

    assert near(f.smallest_retained, f.cutoff) == near(ref["smallest"], ref["cutoff"])
    return f


def test_sym_factor_matches_loop_over_one_matrix_functions():
    W = _weight_stack()
    N = np.random.default_rng(5).standard_normal((W.shape[0], 3, 2))
    f = _assert_matches_loop(W, N)
    np.testing.assert_array_equal(f.rank, [3, 3, 2, 0, 3, 2])
    assert f.min_eig[1] == pytest.approx(-1.0)
    assert np.all(factor_pinv(f)[3] == 0.0)
    assert f.eigvecs.shape == (6, 3, 3)


def test_sym_factor_near_cutoff_decisions():
    W = _weight_stack()[4:]
    f = sym_factor(W)
    cut = DEFAULT_RTOL * 3
    # kept just above the cutoff, and flagged as a close call
    assert f.rank[0] == 3
    assert f.smallest_retained[0] == pytest.approx(1.01 * cut, rel=1e-12)
    assert f.smallest_retained[0] < NEAR_FACTOR * f.cutoff[0]
    # dropped just below it: the smallest retained value is the 0.4
    assert f.rank[1] == 2
    assert f.smallest_retained[1] == 0.4


def test_sym_factor_one_by_one_and_batch_shapes():
    W = np.array([2.0, -3.0, 0.0, 0.5]).reshape(2, 2, 1, 1)
    N = np.array([1.0, -2.0, 0.5, 0.0]).reshape(2, 2, 1, 1)
    f = sym_factor(W)
    assert f.rank.shape == (2, 2)
    np.testing.assert_array_equal(f.rank, [[1, 1], [0, 1]])
    np.testing.assert_array_equal(factor_pinv(f)[..., 0, 0], [[0.5, -1.0 / 3.0], [0.0, 2.0]])
    flat = f.range_residual(N).ravel()
    # a zero weight contains nothing: 0.5 / (1 + 0.5) of the unit column
    assert flat[2] == pytest.approx(0.5 / 1.5, abs=1e-15)
    _assert_matches_loop(W.reshape(4, 1, 1), N.reshape(4, 1, 1))


def test_stage_inverse_and_factor_share_the_rank_rule():
    """The RK4 stage's 1/lambda is nonzero exactly where ``SymFactor.keep``
    retains an eigenvalue, and equals 1/lambda there, bit for bit, on every
    branch of the rank decision including 0.99x and 1.01x the cutoff."""
    f = sym_factor(_weight_stack())
    _, decide = _inverse_builder(f.eigvals.shape)
    inv = decide(f.eigvals)[2]
    np.testing.assert_array_equal(inv != 0.0, f.keep)
    np.testing.assert_array_equal(inv[f.keep], 1.0 / f.eigvals[f.keep])
    np.testing.assert_array_equal(f.keep.sum(axis=-1), [3, 3, 2, 0, 3, 2])


def _cut(largest, m=3):
    """The cutoff the rule computes for a row whose largest modulus is given."""
    return (DEFAULT_RTOL * m) * largest


_C1, _C7 = _cut(1.0), _cut(7.25)
_EDGE_STACKS = {
    "exact_zeros": [[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]],
    "all_zero_weight": [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]],
    "negative": [[-3.0, -1.0, 2.0], [-5.0, -4.0, -1e-12]],
    "at_and_above_cutoff": [
        [_C1, np.nextafter(_C1, np.inf), 1.0],
        [-7.25, -_C7, np.nextafter(_C7, np.inf)],
    ],
    "channel_scales": [
        [2e-311, 1e-300, 1e-290],
        [-1e300, 1e-5, 1e290],
    ],
    "nan_row": [[np.nan] * 3, [0.5, 1.0, 2.0]],
    "nan_inside": [
        _eigh(np.diag([1.0, np.nan, 1.0]))[0].tolist(),
        [1.0, 1e-11, 3.0],
    ],
}


def _assert_rule_is_the_reference(workspace, lam):
    """``decide`` of one workspace, and ``SymFactor`` on a workspace of its
    own, against the allocating rule on the stack lam."""
    # Imported here: that module imports this one's reference functions.
    from test_riccati_workspace import allocating_eig_inverse, allocating_rank_rule

    want_keep, want_cut = allocating_rank_rule(lam)
    want_inv = allocating_eig_inverse(lam)
    inv, decide = workspace
    keep, cut, _ = decide(lam)
    assert keep.tobytes() == want_keep.tobytes()
    assert cut.tobytes() == want_cut.tobytes()
    assert decide(lam)[2] is inv
    assert inv.tobytes() == want_inv.tobytes()
    assert decide(lam)[0] is keep
    f = SymFactor(eigvals=lam, eigvecs=np.zeros(lam.shape + lam.shape[-1:]))
    assert f.keep.tobytes() == want_keep.tobytes()
    assert f.cutoff.tobytes() == want_cut[..., 0].tobytes()
    assert f.inv.tobytes() == want_inv.tobytes()


@pytest.mark.parametrize("case", sorted(_EDGE_STACKS))
def test_inverse_builder_is_the_allocating_rule_bitwise(case):
    """One (2, m) stack of ascending eigenvalues per case, on a fresh
    workspace: the keep mask, the cutoff and 1/lambda are bitwise those of
    the allocating rule the builder replaced."""
    lam = np.array(_EDGE_STACKS[case])
    _assert_rule_is_the_reference(_inverse_builder(lam.shape), lam)


def test_inverse_builder_edge_decisions():
    """The decisions the edge stacks exist for, stated outright."""
    _, decide = _inverse_builder((2, 3))
    rows = {case: decide(np.array(lam))[0].copy() for case, lam in _EDGE_STACKS.items()}
    np.testing.assert_array_equal(
        rows["at_and_above_cutoff"], [[False, True, True], [True, False, True]])
    np.testing.assert_array_equal(
        rows["all_zero_weight"], [[False] * 3, [True] * 3])
    np.testing.assert_array_equal(
        rows["channel_scales"], [[False, False, True], [True, False, False]])
    assert np.isnan(_EDGE_STACKS["nan_inside"][0][1])
    assert not np.isnan(_EDGE_STACKS["nan_inside"][0]).all()
    np.testing.assert_array_equal(
        rows["nan_inside"], [[False] * 3, [True, False, True]])
    np.testing.assert_array_equal(rows["nan_row"], [[False] * 3, [True] * 3])


def test_one_workspace_refilled_in_any_order_is_the_reference():
    """A workspace refilled with stack after stack, kept and dropped entries
    trading places, holds nothing over from the stack before; so does a
    batch of all the stacks at once."""
    stacks = [np.array(lam) for lam in _EDGE_STACKS.values()]
    workspace = _inverse_builder((2, 3))
    for lam in stacks + stacks[::-1]:
        _assert_rule_is_the_reference(workspace, lam)
    batch = np.stack(stacks)
    _assert_rule_is_the_reference(_inverse_builder(batch.shape), batch)


# 1 x 1 weights the scalar Riccati stage meets: signed zeros, the smallest
# subnormal, whose reciprocal overflows, a negative weight and non-finite
# ones.
_SCALAR_WEIGHTS = [0.0, -0.0, 5e-324, -3.0, np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("w", _SCALAR_WEIGHTS, ids=repr)
def test_eigh_of_a_scalar_stack_is_its_entry_and_one(w):
    """A (2, 1, 1) stack is its own eigendecomposition: ``_eigh`` returns
    each entry as the eigenvalue and 1.0 as the eigenvector, bitwise and
    without raising or warning; the scalar Riccati stage relies on it."""
    M = np.array([[[w]], [[1.5]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam, V = _eigh(M)
    assert lam.tobytes() == M[..., 0].tobytes()
    assert V.tobytes() == np.ones((2, 1, 1)).tobytes()


@pytest.mark.parametrize("w", _SCALAR_WEIGHTS + [1e-300, -1e-300, 1.0, -1.0],
                         ids=repr)
def test_scalar_inverse_is_the_rule_at_one_bitwise(w):
    """``_scalar_inverse``, the float statement of the rank rule, leaves
    bitwise the 1/lambda that ``decide`` leaves for a 1 x 1 weight."""
    _, decide = _inverse_builder((1,))
    with np.errstate(over="ignore"):
        want = decide(np.array([w]))[2][0]
    got = _scalar_inverse(w)
    assert type(got) is float
    assert np.float64(got).tobytes() == want.tobytes()
