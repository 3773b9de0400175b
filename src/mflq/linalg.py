"""Rank-aware linear algebra used by the Riccati and feasibility machinery.

Pseudo-inverses here are rank-revealing: singular values below a relative
cutoff are treated as exact zeros, and the retained rank travels with the
result so callers can flag near-degenerate weighting matrices instead of
silently inverting noise.  ``pinv``, ``is_psd`` and ``range_residual`` treat
one matrix at a time; ``sym_factor`` gives the same answers for a whole
stack of symmetric matrices from one batched eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_RTOL = 1e-10

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


def _mT(M: np.ndarray) -> np.ndarray:
    """Transpose the last two axes of a stack of matrices."""
    return M.swapaxes(-1, -2)


@dataclass(frozen=True)
class SymFactor:
    """Eigendecomposition of a stack of symmetric matrices, shape (..., m, m).

    Only the eigenpairs are stored; everything the node-wise machinery needs
    is derived from them on access.  The singular values of a symmetric
    matrix are the moduli of its eigenvalues, so ``keep``
    (|lambda| > DEFAULT_RTOL * m * max|lambda|) reproduces the rank decision
    of ``pinv`` exactly, and the pseudo-inverse, the PSD verdict and the
    range projector all follow from the same eigenpairs.
    """

    eigvals: np.ndarray   # (..., m), ascending
    eigvecs: np.ndarray   # (..., m, m), eigenvectors as columns

    @property
    def cutoff(self) -> np.ndarray:
        m = self.eigvals.shape[-1]
        return DEFAULT_RTOL * m * np.abs(self.eigvals).max(axis=-1)

    @property
    def keep(self) -> np.ndarray:
        """Eigenvalues retained above the cutoff, (..., m)."""
        return np.abs(self.eigvals) > self.cutoff[..., None]

    @property
    def pinv(self) -> np.ndarray:
        """Pseudo-inverse matrices, kept as a test reference; the solver
        applies W^+ in the eigenbasis instead."""
        lam, V = self.eigvals, self.eigvecs
        inv = np.divide(1.0, lam, out=np.zeros(lam.shape), where=self.keep)
        return (V * inv[..., None, :]) @ _mT(V)

    @property
    def rank(self) -> np.ndarray:
        return np.count_nonzero(self.keep, axis=-1)

    @property
    def smallest_retained(self) -> np.ndarray:
        """Smallest retained |eigenvalue|; 0.0 where the matrix counts as zero."""
        kept = np.where(self.keep, np.abs(self.eigvals), np.inf).min(axis=-1)
        return np.where(np.isinf(kept), 0.0, kept)

    @property
    def min_eig(self) -> np.ndarray:
        return self.eigvals[..., 0]

    def range_residual(self, N: np.ndarray) -> np.ndarray:
        """``range_residual(N[i], M[i])`` for every matrix of the stack.

        N has shape (..., m, r); the obstruction (I - V diag(keep) V^T) N is
        measured in the Frobenius norm and normalised by 1 + ||N||.
        """
        V = self.eigvecs
        out = N - V @ ((_mT(V) @ N) * self.keep[..., None])
        return np.linalg.norm(out, axis=(-2, -1)) / (
            1.0 + np.linalg.norm(N, axis=(-2, -1))
        )


def sym_factor(M) -> SymFactor:
    """Factor a stack of symmetric matrices with one batched ``eigh``.

    M has shape (..., m, m) and must already be symmetric; only its lower
    triangle is read.
    """
    lam, V = np.linalg.eigh(np.asarray(M, dtype=float))
    return SymFactor(eigvals=lam, eigvecs=V)


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
