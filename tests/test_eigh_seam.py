"""The one symmetric factorization seam, ``mflq.linalg._eigh``.

Every eigendecomposition in ``src/`` goes through ``_eigh``, which calls
LAPACK's eigh gufunc directly under the error state of numpy's public
wrapper.  These tests pin three things: no solver path reaches numpy's
public eigh, eigvalsh or svd; the seam's eigenpairs are bitwise those of
the wrapper, NaN inputs included; and a LAPACK failure raises LinAlgError
while overflow, division and underflow inside the solver stay silent,
and the caller's own error state, on this thread and on others, is back
in place after every call.  The seam's gufunc, error-state builder and
error-state context variable live in private numpy modules, so importing
``mflq`` without one of them fails with an ImportError that names it and
the numpy found.
"""

import contextvars
import os
import subprocess
import sys
import threading
import types
import warnings

import numpy as np
import pytest

from mflq import linalg
from mflq.cli import main
from mflq.linalg import DEFAULT_RTOL, _eigh, _sym
from mflq.presets import example31, random_spd, scalar_classic
from mflq.riccati import dense_midpoints, integrate_gre
from mflq.synthesis import synthesize, value

PRESETS = {
    "scalar_classic": (scalar_classic, ["scalar_classic"]),
    "example31": (example31, ["example31"]),
    "random_spd_1": (lambda: random_spd(1), ["random_spd", "--seed", "1"]),
}


# ---------------------------------------------------------------------------
# the seam is the only route


@pytest.fixture
def public_factorizations_refused(monkeypatch):
    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"np.linalg.{name} called")

        return refused

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse(name))


@pytest.mark.parametrize("case", sorted(PRESETS))
def test_solver_never_calls_public_factorizations(case, public_factorizations_refused):
    build, _ = PRESETS[case]
    p, law = build()
    sol = synthesize(p)
    mids = dense_midpoints(sol.gre)
    assert np.all(np.isfinite(mids.gain_dev))
    assert np.isfinite(value(sol, law))


@pytest.mark.parametrize("case", sorted(PRESETS))
def test_cli_never_calls_public_factorizations(case, tmp_path, capsys,
                                               public_factorizations_refused):
    _, argv = PRESETS[case]
    doc = str(tmp_path / "problem.json")
    assert main(["example", *argv, "--out", doc]) == 0
    assert main(["solve", doc]) == 0
    assert main(["value", doc]) == 0
    assert main(["regularity", doc, "--csv", str(tmp_path / "csv")]) == 0
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# bitwise equal to numpy's wrapper


def _orthogonal(rng, m):
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def _from_spectrum(rng, lam):
    Q = _orthogonal(rng, len(lam))
    return _sym((Q * lam) @ Q.T)


def _weights(m, rng):
    """Symmetric m x m weights of every kind the stages meet."""
    out = {
        "spd": _from_spectrum(rng, rng.uniform(0.5, 2.0, m)),
        "indefinite": _from_spectrum(rng, rng.uniform(-2.0, 2.0, m)),
        "zero": np.zeros((m, m)),
    }
    if m > 1:
        out["psd_singular"] = _from_spectrum(
            rng, np.r_[np.zeros(m // 2), rng.uniform(0.5, 2.0, m - m // 2)])
        cutoff = DEFAULT_RTOL * m
        for factor in (0.99, 1.01):
            lam = np.r_[factor * cutoff, np.linspace(0.5, 1.0, m - 1)]
            out[f"cutoff_{factor}"] = _from_spectrum(rng, lam)
    return out


def _assert_bitwise(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def _stacks(m, rng):
    weights = list(_weights(m, rng).values())
    yield from weights
    for a, b in zip(weights, weights[1:] + weights[:1]):
        yield np.stack((a, b))
    K = 20
    picks = rng.integers(len(weights), size=(K + 1, 2))
    yield np.array([[weights[i] for i in row] for row in picks])


@pytest.mark.parametrize("m", range(1, 7))
def test_seam_matches_wrapper_bitwise(m):
    rng = np.random.default_rng(m)
    for M in _stacks(m, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _eigh(M)
        _assert_bitwise(got, np.linalg.eigh(M))


@pytest.mark.parametrize("m", range(1, 7))
def test_seam_matches_wrapper_on_strided_blocks(m):
    """The stages factor the bottom-right block of a Hamiltonian stack, a
    strided view, without copying it first."""
    rng = np.random.default_rng(10 + m)
    n = 3
    Z = _sym(rng.standard_normal((5, 2, n + m, n + m)))
    W = Z[..., n:, n:]
    _assert_bitwise(_eigh(W), np.linalg.eigh(W))


def test_near_cutoff_weights_keep_their_rank_decision():
    rng = np.random.default_rng(7)
    weights = _weights(4, rng)
    below = linalg.sym_factor(weights["cutoff_0.99"])
    above = linalg.sym_factor(weights["cutoff_1.01"])
    assert below.rank == 3
    assert above.rank == 4


def _outcome(eigh, M):
    """eigh's eigenpairs, or the LinAlgError it raised; no warning allowed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return eigh(M)
        except np.linalg.LinAlgError as exc:
            return exc


@pytest.mark.parametrize("m", range(1, 7))
def test_nan_input_gives_the_wrappers_outcome_and_no_warning(m):
    """A NaN weight gives the wrapper's NaN pattern where LAPACK returns
    (always at m <= 2) and the wrapper's LinAlgError where it fails."""
    rng = np.random.default_rng(20 + m)
    spd = _from_spectrum(rng, rng.uniform(0.5, 2.0, m))
    for i, j in {(0, 0), (m - 1, 0), (m - 1, m - 1)}:
        M = np.stack((spd, spd, spd))
        M[1, i, j] = M[1, j, i] = np.nan
        got, want = _outcome(_eigh, M), _outcome(np.linalg.eigh, M)
        if isinstance(want, Exception):
            assert isinstance(got, np.linalg.LinAlgError) and str(got) == str(want)
            assert m > 2
            continue
        for g, w in zip(got, want):
            np.testing.assert_array_equal(np.isnan(g), np.isnan(w))
        nans = [np.isnan(a).reshape(3, -1).any(axis=1) for a in got]
        assert list(nans[0] | nans[1]) == [False, True, False]
        _assert_bitwise(got, want)


# ---------------------------------------------------------------------------
# error semantics


def _flagging(op):
    """A gufunc stand-in that runs ``op`` first, then factors for real."""
    real = linalg._eigh_lo

    def stub(M, signature):
        op()
        return real(M, signature=signature)

    return stub


def test_invalid_flag_raises_linalgerror(monkeypatch):
    monkeypatch.setattr(linalg, "_eigh_lo", _flagging(lambda: np.sqrt(np.array(-1.0))))
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        _eigh(np.eye(2))


@pytest.mark.parametrize("op", [
    lambda: np.array(1e308) * 10.0,
    lambda: np.array(1.0) / 0.0,
    lambda: np.array(1e-308) * 1e-308,
], ids=["over", "divide", "under"])
def test_other_flags_stay_silent(op, monkeypatch):
    monkeypatch.setattr(linalg, "_eigh_lo", _flagging(op))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam, V = _eigh(np.diag([1.0, 2.0]))
    np.testing.assert_array_equal(lam, [1.0, 2.0])


def test_sweep_nonconvergence_is_not_a_finite_escape(monkeypatch):
    """A stage whose factorization fails raises LinAlgError, not the NaN
    the escape screen would report as a finite escape."""
    p, _ = scalar_classic(n_steps=50)
    monkeypatch.setattr(linalg, "_eigh_lo", _flagging(lambda: np.sqrt(np.array(-1.0))))
    with pytest.raises(np.linalg.LinAlgError):
        integrate_gre(p)


_SEAM_STATE = {"divide": "ignore", "over": "ignore", "under": "ignore",
               "invalid": "call"}


def _call_seam(fails):
    try:
        _eigh(np.eye(2))
    except np.linalg.LinAlgError:
        assert fails
    else:
        assert not fails


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_callers_error_state_is_restored(fails, monkeypatch):
    """After a return and after a LinAlgError, the caller's error state is
    back exactly: the default one, and an enclosing all="raise"."""
    if fails:
        monkeypatch.setattr(linalg, "_eigh_lo",
                            _flagging(lambda: np.sqrt(np.array(-1.0))))
    before, call = np.geterr(), np.geterrcall()
    _call_seam(fails)
    assert np.geterr() == before and np.geterrcall() is call
    with np.errstate(all="raise"):
        _call_seam(fails)
        assert np.geterr() == dict.fromkeys(before, "raise")
        assert np.geterrcall() is call
    assert np.geterr() == before


def test_overflow_stays_silent_under_a_raising_caller(monkeypatch):
    monkeypatch.setattr(linalg, "_eigh_lo", _flagging(lambda: np.array(1e308) * 10.0))
    with np.errstate(over="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        lam, V = _eigh(np.diag([1.0, 2.0]))
        assert np.geterr()["over"] == "raise"
    np.testing.assert_array_equal(lam, [1.0, 2.0])


def test_a_call_on_another_thread_leaves_this_threads_state_alone(monkeypatch):
    """While a second thread is inside the seam, and after it, this
    thread's enclosing state is its own; inside, the seam's state holds."""
    inside, release = threading.Event(), threading.Event()
    seen = {}
    real = linalg._eigh_lo

    def stub(M, signature):
        seen["inside"] = np.geterr()
        inside.set()
        assert release.wait(timeout=60)
        return real(M, signature=signature)

    def worker():
        seen["lam"], _ = _eigh(np.diag([1.0, 2.0]))

    monkeypatch.setattr(linalg, "_eigh_lo", stub)
    thread = threading.Thread(target=worker)
    with np.errstate(all="raise"):
        thread.start()
        try:
            assert inside.wait(timeout=60)
            during = np.geterr()
        finally:
            release.set()
            thread.join(timeout=60)
        after = np.geterr()
    raising = dict.fromkeys(_SEAM_STATE, "raise")
    assert during == after == raising
    assert seen["inside"] == _SEAM_STATE
    np.testing.assert_array_equal(seen["lam"], [1.0, 2.0])


# ---------------------------------------------------------------------------
# end to end


@pytest.mark.parametrize("case", sorted(PRESETS))
def test_solution_equals_the_wrappers_bitwise(case, monkeypatch):
    build, _ = PRESETS[case]
    p, _ = build()
    got = integrate_gre(p)
    monkeypatch.setattr(linalg, "_eigh", lambda M: tuple(np.linalg.eigh(M)))
    want = integrate_gre(p)
    for name in ("P", "P_mean", "gain_dev", "gain_mean", "rate"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in ("dev_rank", "mean_rank"):
        assert (getattr(got.report, name).tobytes()
                == getattr(want.report, name).tobytes()), name
    for name in ("regular", "conditions", "near_cutoff_dev", "near_cutoff_mean"):
        assert getattr(got.report, name) == getattr(want.report, name), name


# ---------------------------------------------------------------------------
# the private gufunc is checked at import


GUFUNC_MODULE = "numpy.linalg._umath_linalg"


@pytest.mark.parametrize("stub", [
    None,
    types.ModuleType(GUFUNC_MODULE),
    types.SimpleNamespace(eigh_lo=lambda M, signature: None),
], ids=["no_module", "no_gufunc", "not_a_gufunc"])
def test_missing_gufunc_raises_importerror_naming_numpy(stub, monkeypatch):
    """A None entry in sys.modules makes the module itself unimportable."""
    monkeypatch.setitem(sys.modules, GUFUNC_MODULE, stub)
    with pytest.raises(ImportError) as info:
        linalg._require_gufunc(GUFUNC_MODULE, "eigh_lo")
    assert f"{GUFUNC_MODULE}.eigh_lo" in str(info.value)
    assert f"numpy {np.__version__}" in str(info.value)


def test_installed_numpy_provides_the_gufunc():
    assert linalg._require_gufunc(GUFUNC_MODULE, "eigh_lo") is linalg._eigh_lo


def test_importing_mflq_without_the_gufunc_fails_loudly():
    """A numpy without the gufunc fails ``import mflq`` with that message,
    not a later AttributeError inside a sweep."""
    code = (
        "import sys, types, numpy\n"
        f"sys.modules[{GUFUNC_MODULE!r}] = types.ModuleType({GUFUNC_MODULE!r})\n"
        "import mflq\n"
    )
    src = os.path.dirname(os.path.dirname(linalg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode != 0
    last = run.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: mflq needs the gufunc "
                           f"{GUFUNC_MODULE}.eigh_lo, which numpy")


# ---------------------------------------------------------------------------
# the private error state is checked at import


ERRSTATE_MODULE = "numpy._core._multiarray_umath"
_ERRSTATE = sys.modules[ERRSTATE_MODULE]


def _errstate_stub(**changes):
    names = {"_make_extobj": _ERRSTATE._make_extobj,
             "_extobj_contextvar": _ERRSTATE._extobj_contextvar}
    names.update(changes)
    return types.SimpleNamespace(**{k: v for k, v in names.items() if v is not None})


@pytest.mark.parametrize("stub, missing", [
    (None, "_make_extobj"),
    (_errstate_stub(_make_extobj=None), "_make_extobj"),
    (_errstate_stub(_make_extobj=lambda **kwargs: None), "_make_extobj"),
    (_errstate_stub(_extobj_contextvar=None), "_extobj_contextvar"),
    (_errstate_stub(_extobj_contextvar=object()), "_extobj_contextvar"),
], ids=["no_module", "no_builder", "builder_not_builtin", "no_variable",
        "variable_not_a_contextvar"])
def test_missing_error_state_raises_importerror_naming_numpy(stub, missing,
                                                             monkeypatch):
    monkeypatch.setitem(sys.modules, ERRSTATE_MODULE, stub)
    with pytest.raises(ImportError) as info:
        linalg._require_error_state()
    assert f"{ERRSTATE_MODULE}.{missing}" in str(info.value)
    assert f"numpy {np.__version__}" in str(info.value)


def test_installed_numpy_provides_the_error_state():
    make, var = linalg._require_error_state()
    assert make is linalg._make_extobj and var is linalg._extobj_contextvar
    assert isinstance(var, contextvars.ContextVar)


def test_importing_mflq_without_the_error_state_fails_loudly():
    code = (
        "import sys, types, numpy\n"
        f"sys.modules[{ERRSTATE_MODULE!r}] = types.ModuleType({ERRSTATE_MODULE!r})\n"
        "import mflq\n"
    )
    src = os.path.dirname(os.path.dirname(linalg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode != 0
    last = run.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: mflq needs the error-state builder "
                           f"{ERRSTATE_MODULE}._make_extobj, which numpy")
