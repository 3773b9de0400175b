"""Rank-aware linear algebra used by the Riccati and feasibility machinery.

Every pseudo-inverse here is rank-revealing: eigenvalues of a symmetric
weight below a relative cutoff are treated as exact zeros, and the retained
rank travels with the factorization so callers can flag near-degenerate
weighting matrices instead of silently inverting noise.  ``sym_factor``
factors a whole stack of symmetric matrices with one batched
eigendecomposition.  The rank rule, |lambda| > DEFAULT_RTOL * m *
max|lambda|, is stated in ``_inverse_builder``, whose ``decide`` fills the
retained mask, the cutoff and 1/lambda in place on a workspace its caller
owns, and, for a 1 x 1 weight in Python floats, in ``_scalar_inverse``,
bitwise the same.  It runs in three places: once per ``SymFactor``, at
construction, which keeps the three as fields for the rank, the verdicts,
the gains and the offsets to read; once per Riccati stage of a problem
with n + m > 2, on the stage's workspace; and, through ``_scalar_inverse``,
once per channel of each stage of a scalar problem.  Each keeps its state
to itself, so none is shared between calls or threads.

Every symmetric factorization in the package, the 4K per-stage calls of
a Riccati sweep with n + m > 2 included, goes through one seam, ``_eigh``;
a scalar sweep's stages factor nothing, since a 1 x 1 weight is its own
eigendecomposition.  The seam calls LAPACK's symmetric eigensolver through numpy's gufunc directly, under
the floating-point error state of numpy's public ``eigh`` wrapper but
without that wrapper's argument checks, which cost about 4 us a call, a
sixth of the sweep's time.  That error state is built once, at import,
and each call sets it on numpy's error-state context variable and resets
it afterwards, so no call rebuilds it.  Callers reach the seam as
``linalg._eigh``, so one patch of that attribute sees every
factorization.  The gufunc, the error-state builder and the context
variable live in private numpy modules; importing this module fails with
an ImportError that names the missing one and the installed numpy.
"""

from __future__ import annotations

import contextvars
import importlib
import types
from dataclasses import dataclass, field

import numpy as np

DEFAULT_RTOL = 1e-10


def _require(module: str, name: str, kind, what: str):
    """``module.name`` if it is an instance of ``kind``, or ImportError
    naming it and the installed numpy: the seam reaches into private numpy
    modules, which a numpy release may move or drop, and there is no
    fallback."""
    try:
        found = getattr(importlib.import_module(module), name, None)
    except ImportError:
        found = None
    if not isinstance(found, kind):
        raise ImportError(
            f"mflq needs the {what} {module}.{name}, which numpy "
            f"{np.__version__} does not provide"
        )
    return found


def _require_gufunc(module: str, name: str) -> np.ufunc:
    """The gufunc ``module.name``, or ImportError naming it and numpy."""
    return _require(module, name, np.ufunc, "gufunc")


# LAPACK's symmetric eigensolver on the lower triangle of a float64 stack.
_eigh_lo = _require_gufunc("numpy.linalg._umath_linalg", "eigh_lo")

_ERRSTATE_MODULE = "numpy._core._multiarray_umath"


def _require_error_state():
    """numpy's floating-point error state, as ``np.errstate`` sets it (numpy
    >= 2.0): the builder of an error-state object and the context variable
    each thread's ufuncs read it from; or ImportError naming the one that
    is missing or not what it was, and the installed numpy."""
    make = _require(_ERRSTATE_MODULE, "_make_extobj",
                    types.BuiltinFunctionType, "error-state builder")
    var = _require(_ERRSTATE_MODULE, "_extobj_contextvar",
                   contextvars.ContextVar, "error-state context variable")
    return make, var


_make_extobj, _extobj_contextvar = _require_error_state()


def _raise_nonconvergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


# The error state numpy's eigh wrapper sets, built once.  Its buffer size,
# which a gufunc call that casts nothing never reads, is numpy's at import.
_EIGH_ERRSTATE = _make_extobj(call=_raise_nonconvergence, invalid="call",
                              over="ignore", divide="ignore", under="ignore")


def _eigh(M: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors of a float64 symmetric stack.

    M has shape (..., m, m); only its lower triangle is read.  The result
    is bitwise that of ``np.linalg.eigh(M)``, under that wrapper's error
    state: a LAPACK failure sets the invalid flag, which raises LinAlgError,
    and overflow, division and underflow inside the solver are ignored, so
    a NaN input gives the wrapper's NaN eigenpairs (or its LinAlgError,
    where LAPACK fails on it) and no warning.  The wrapper's shape and
    dtype checks are left out: every caller passes a float64 stack of
    square matrices.  The error state is the prebuilt ``_EIGH_ERRSTATE``,
    set on the calling thread's context variable and reset in a
    ``finally``, so the caller's own state, a raising one included, is
    back in place after a return or a LinAlgError.  Rebuilding it per call,
    as ``np.errstate`` does, cost 0.7 us more a call on a (2, 1, 1) stack
    (2.5 against 1.8 us; the bare gufunc takes 1.5).
    """
    token = _extobj_contextvar.set(_EIGH_ERRSTATE)
    try:
        return _eigh_lo(M, signature="d->dd")
    finally:
        _extobj_contextvar.reset(token)


def _mT(M: np.ndarray) -> np.ndarray:
    """Transpose the last two axes of a stack of matrices."""
    return M.swapaxes(-1, -2)


def _sym(M: np.ndarray) -> np.ndarray:
    """Symmetric part of a stack of square matrices."""
    return 0.5 * (M + _mT(M))


def _inverse_builder(shape):
    """(inv, decide): the rank rule and the inverse it selects, in place, on
    one workspace for eigenvalue stacks of the given shape, (..., m).

    ``decide(lam)`` overwrites and returns (keep, cut, inv): the retained
    mask |lambda| > (DEFAULT_RTOL m) max|lambda|, (..., m), the cutoff, its
    last axis kept at length one, and inv, 1/lambda on the retained
    eigenvalues and 0 elsewhere (``np.reciprocal``: the same correctly
    rounded division as 1.0/lambda, without a scalar to convert).  A NaN
    eigenvalue makes its row's cutoff NaN, so that row keeps nothing.
    max|lambda| is reduced over the whole row, not read from the two ends of
    the ascending spectrum: ``_eigh`` can return a NaN between finite ends
    (diag(1, NaN, 1) gives [1, NaN, 1]), and such a row must still keep
    nothing.  ``SymFactor`` and the array Riccati stages run it, each on a
    workspace of its own; ``_scalar_inverse`` states its m = 1 case in
    floats for the scalar stages.
    """
    mod = np.empty(shape)
    cut = np.empty(shape[:-1] + (1,))
    keep = np.empty(shape, dtype=bool)
    inv = np.empty(shape)
    # A 0-d array: the ufunc takes it faster than a Python float.
    scale = np.array(DEFAULT_RTOL * shape[-1])
    largest = np.maximum.reduce

    def decide(lam):
        np.abs(lam, out=mod)
        largest(mod, axis=-1, keepdims=True, out=cut)
        np.multiply(scale, cut, out=cut)
        np.greater(mod, cut, out=keep)
        inv.fill(0.0)
        np.reciprocal(lam, out=inv, where=keep)
        return keep, cut, inv

    return inv, decide


def _scalar_inverse(w: float) -> float:
    """The rule of ``_inverse_builder`` at m = 1, in floats: 1/w if
    |w| > (DEFAULT_RTOL m) |w|, else 0.0, for a 1 x 1 weight w, which is its
    own eigenvalue.  Rounding for rounding it is what ``decide`` leaves in
    inv: the cutoff is one product, the division is correctly rounded, and
    a NaN, an infinite or a zero w keeps nothing.  Python's float division
    overflows to inf without a warning, where ``np.reciprocal`` warns."""
    mod = abs(w)
    return 1.0 / w if mod > DEFAULT_RTOL * mod else 0.0


@dataclass(frozen=True)
class SymFactor:
    """Eigendecomposition of a stack of symmetric matrices, shape (..., m, m),
    and its rank decision: the rule of ``_inverse_builder`` runs once, at
    construction, and keeps ``keep`` (..., m), ``cutoff`` (...) and ``inv``,
    the 1/lambda that applies W^+ in the eigenbasis.  The rank, the PSD
    verdict and the range projector follow from the eigenpairs and ``keep``.
    """

    eigvals: np.ndarray   # (..., m), ascending
    eigvecs: np.ndarray   # (..., m, m), eigenvectors as columns
    keep: np.ndarray = field(init=False)
    cutoff: np.ndarray = field(init=False)
    inv: np.ndarray = field(init=False)

    def __post_init__(self):
        _, decide = _inverse_builder(self.eigvals.shape)
        keep, cut, inv = decide(self.eigvals)
        object.__setattr__(self, "keep", keep)
        object.__setattr__(self, "cutoff", cut[..., 0])
        object.__setattr__(self, "inv", inv)

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
        """Normalised obstruction to range(N[i]) lying in range(M[i]).

        N has shape (..., m, r); the obstruction (I - V diag(keep) V^T) N is
        measured in the Frobenius norm and normalised by 1 + ||N||, so exact
        containment gives 0 and the residual stays below 1 at any scale.
        """
        V = self.eigvecs
        out = N - V @ ((_mT(V) @ N) * self.keep[..., None])
        return np.linalg.norm(out, axis=(-2, -1)) / (
            1.0 + np.linalg.norm(N, axis=(-2, -1))
        )


def sym_factor(M) -> SymFactor:
    """Factor a stack of symmetric matrices with one batched ``_eigh``.

    M has shape (..., m, m) and must already be symmetric; only its lower
    triangle is read.  A stack that is not C-contiguous, such as the
    node-major view of a channel-major pair of weights, is factored from a
    C-contiguous copy: the gufunc lays its outputs out like its input, and
    the products every caller forms with the eigenvectors run faster on a
    C-contiguous stack of small matrices than on a strided one (twice as
    fast for the gains at (n, m) = (1, 1)).
    """
    lam, V = _eigh(np.ascontiguousarray(M, dtype=float))
    return SymFactor(eigvals=lam, eigvecs=V)
