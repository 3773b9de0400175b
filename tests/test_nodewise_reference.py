"""Batched node-wise passes against a node-by-node recomputation.

The Riccati and offset layers factor every input weight of a grid in one
batched symmetric eigendecomposition.  Here each array those passes produce
is rebuilt one node at a time from the test-only one-matrix functions of
``test_linalg`` (``pinv``, ``is_psd``, ``range_residual``) and coefficients
evaluated with ``MatrixPath.at``: weights, cross terms, gains, ranks, rank
margins, the six regularity verdicts, the gain defects, and the affine
offsets with their attainability residuals.

Ranks, verdicts and near-cutoff lists must agree exactly and values to
1e-12.  A worst node is the first occurrence of the worst batched per-node
value, and it must equal the node-by-node worst node whenever that value is
unique to within the tolerance; where several nodes tie (for example range
residuals that are pure roundoff at every node) it must be one of the tied
nodes.
"""

import numpy as np
import pytest

from mflq import affine
from mflq.affine import solve_affine
from mflq.presets import example31, random_spd, scalar_classic
from mflq.problem import TimeGrid, make_problem
from mflq.quadrature import trapezoid
from mflq.riccati import NEAR_CUTOFF_FACTOR, integrate_gre
from test_linalg import is_psd, pinv, range_residual

TOL = 1e-12
K = 200


def singular_weight_problem():
    """Mean-field instance with R = diag(1, 0) and no control in the noise.

    The input weights equal R at every node, so the second control
    direction is never invertible and both the range conditions and the
    offset attainability fail with a well-defined worst node.
    """
    g = TimeGrid(0.0, 1.0, K)
    return make_problem(
        2, 2, g,
        A=[[0.1, 0.3], [-0.2, 0.0]], A_bar=0.1 * np.eye(2),
        B=np.eye(2), B_bar=[[0.0, 0.2], [0.1, 0.0]],
        C=0.2 * np.eye(2), Q=np.eye(2), R=np.diag([1.0, 0.0]),
        G=np.eye(2), G_bar=0.5 * np.eye(2),
        b=([0.2, -0.1], [0.1, 0.3]), sigma=([0.1, 0.2], [0.0, 0.1]),
        rho=([0.3, -0.2], [0.1, 0.4]), g=([0.1, 0.2], [0.3, -0.1]),
    )


def time_varying_problem():
    """Mean-field instance whose A, R and constant part of b are sampled paths.

    They are sampled on a 37-step grid, which does not divide the solve
    grid, so their node and midpoint values on the solve grid come from
    interpolation rather than from the samples themselves.
    """
    g = TimeGrid(0.0, 1.0, K)
    s = TimeGrid(0.0, 1.0, 37).nodes
    A = np.stack([[[0.2 * np.sin(3.0 * t), 0.4], [-0.3, 0.1 * np.cos(2.0 * t)]]
                  for t in s])
    R = np.stack([[[1.0 + 0.5 * np.sin(4.0 * t), 0.2 * t], [0.2 * t, 2.0 - t]]
                  for t in s])
    b0 = np.stack([[0.3 * np.cos(5.0 * t), -0.2 + 0.1 * t] for t in s])
    return make_problem(
        2, 2, g,
        A=A, A_bar=0.1 * np.eye(2),
        B=[[1.0, 0.2], [0.0, 0.8]], B_bar=[[0.0, 0.1], [0.1, 0.0]],
        C=0.2 * np.eye(2), C_bar=[[0.0, 0.1], [0.0, 0.0]],
        D=[[0.3, 0.0], [0.1, 0.2]], D_bar=0.1 * np.eye(2),
        Q=np.eye(2), Q_bar=0.2 * np.eye(2), S=[[0.1, 0.0], [0.0, 0.1]],
        R=R, R_bar=0.3 * np.eye(2),
        G=np.eye(2), G_bar=0.5 * np.eye(2),
        b=(b0, [0.1, -0.2]), sigma=([0.1, 0.2], [0.05, 0.1]),
        q=([0.2, 0.0], [0.0, 0.1]), rho=([0.3, -0.2], [0.1, 0.4]),
        q_bar=[0.1, 0.1], rho_bar=[0.0, 0.2], g=([0.1, 0.2], [0.3, -0.1]),
        g_bar=[0.05, 0.0],
    )


CASES = {
    "random_spd_0": lambda: random_spd(0, n_steps=K)[0],
    "random_spd_3": lambda: random_spd(3, n_steps=K)[0],
    "scalar_classic": lambda: scalar_classic(n_steps=K)[0],
    "example31": lambda: example31(n_steps=K)[0],
    "singular_R": singular_weight_problem,
    "time_varying": time_varying_problem,
}


def _coeffs(p, t, bar):
    out = {}
    for name in ("A", "B", "C", "D", "Q", "S", "R"):
        out[name] = getattr(p, name).at(t) + (
            getattr(p, name + "_bar").at(t) if bar else 0.0
        )
    return out


def _assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=TOL, atol=TOL)


def _assert_worst(node, value, batched, ref, pick):
    """Check a worst node and value against per-node values of both routes.

    The worst node is the first occurrence (``pick`` is argmin or argmax) in
    the batched per-node values, which match the node-by-node ones.  It is
    the node-by-node worst node whenever that one is unique within TOL, and
    one of the tied nodes otherwise.
    """
    _assert_close(batched, ref)
    assert node == int(pick(batched))
    assert value == batched[node]
    ref_node = int(pick(ref))
    tied = np.flatnonzero(np.abs(ref - ref[ref_node]) <= TOL)
    if tied.size == 1:
        assert node == ref_node
    else:
        assert node in tied


def _near(smin, cutoff):
    return tuple(
        k for k in range(len(smin))
        if smin[k] > 0.0 and smin[k] < NEAR_CUTOFF_FACTOR * cutoff[k]
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_passes_match_node_by_node(case):
    p = CASES[case]()
    gre = integrate_gre(p)
    aff = solve_affine(p, gre)
    times = gre.grid.nodes
    h = gre.grid.h

    f = gre.factor
    channels = (
        ("dev", gre.P, False, gre.input_weight, gre.cross_term, gre.gain_dev,
         gre.report.dev_rank, f.smallest_retained[:, 0], f.cutoff[:, 0]),
        ("mean", gre.P_mean, True, gre.input_weight_mean, gre.cross_term_mean,
         gre.gain_mean, gre.report.mean_rank, f.smallest_retained[:, 1],
         f.cutoff[:, 1]),
    )
    report = {c.name: c for c in gre.report.conditions}
    min_eig = gre.factor.min_eig
    range_res = gre.factor.range_residual(
        np.stack((gre.cross_term, gre.cross_term_mean), axis=1)
    )
    for ch, (label, M, bar, W, cross, gain, rank, smin, cut) in enumerate(channels):
        ref = {key: [] for key in ("W", "cross", "gain", "rank", "smin", "cut",
                                   "lam", "res", "defect")}
        for k, t in enumerate(times):
            c = _coeffs(p, t, bar)
            P = gre.P[k]
            Wk = c["R"] + c["D"].T @ P @ c["D"]
            Wk = 0.5 * (Wk + Wk.T)
            crk = c["B"].T @ M[k] + c["D"].T @ P @ c["C"] + c["S"]
            res = pinv(Wk)
            gk = -(res.pinv @ crk)
            ref["W"].append(Wk)
            ref["cross"].append(crk)
            ref["gain"].append(gk)
            ref["rank"].append(res.rank)
            ref["smin"].append(res.smallest_retained)
            ref["cut"].append(res.cutoff)
            ref["lam"].append(is_psd(Wk)[1])
            ref["res"].append(range_residual(crk, Wk))
            ref["defect"].append(np.linalg.norm(Wk @ gk + crk))
        ref = {key: np.array(v) for key, v in ref.items()}

        _assert_close(W, ref["W"])
        _assert_close(cross, ref["cross"])
        _assert_close(gain, ref["gain"])
        np.testing.assert_array_equal(rank, ref["rank"])
        _assert_close(smin, ref["smin"])
        _assert_close(cut, ref["cut"])
        defect = np.linalg.norm(W @ gain + cross, axis=(1, 2))
        _assert_close(defect, ref["defect"])
        near = getattr(gre.report, f"near_cutoff_{label}")
        assert near == _near(ref["smin"], ref["cut"])

        psd = report[f"psd_{label}"]
        assert psd.passed == (ref["lam"].min() >= -psd.tolerance)
        _assert_worst(
            psd.worst_node, psd.worst_value, min_eig[:, ch], ref["lam"], np.argmin
        )

        rng = report[f"range_{label}"]
        assert rng.passed == (ref["res"].max() <= rng.tolerance)
        _assert_worst(
            rng.worst_node, rng.worst_value, range_res[:, ch], ref["res"], np.argmax
        )

        l2 = report[f"l2_gain_{label}"]
        sq = np.sum(gain ** 2, axis=(1, 2))
        sq_ref = np.sum(ref["gain"] ** 2, axis=(1, 2))
        assert l2.passed
        assert l2.worst_value == pytest.approx(trapezoid(sq_ref, h), rel=TOL, abs=TOL)
        _assert_worst(l2.worst_node, sq[l2.worst_node], sq, sq_ref, np.argmax)

    corr = aff.corrections
    e1, ebar = aff.adjoint_noise, aff.adjoint_mean
    ref = {key: [] for key in ("noise", "mean", "target", "res_dev", "res_mean")}
    for k, t in enumerate(times):
        c, cb = _coeffs(p, t, False), _coeffs(p, t, True)
        P = gre.P[k]
        s0, s1 = p.sigma.const_part.at(t), p.sigma.noise_part.at(t)
        r0, r1 = p.rho.const_part.at(t), p.rho.noise_part.at(t)
        target = c["B"].T @ e1[k] + c["D"].T @ (P @ s1) + r1
        target_m = (
            cb["B"].T @ ebar[k] + cb["D"].T @ (P @ s0 + e1[k])
            + r0 + p.rho_bar.at(t)
        )
        W, Wm = gre.input_weight[k], gre.input_weight_mean[k]
        ref["noise"].append(-(pinv(W).pinv @ target))
        ref["mean"].append(-(pinv(Wm).pinv @ target_m))
        ref["target"].append([target, target_m])
        ref["res_dev"].append(range_residual(target[:, None], W))
        ref["res_mean"].append(range_residual(target_m[:, None], Wm))
    ref = {key: np.array(v) for key, v in ref.items()}

    _assert_close(corr.corr_noise, ref["noise"])
    _assert_close(corr.corr_mean, ref["mean"])
    offset_res = gre.factor.range_residual(ref["target"][..., None])
    dev, mean = corr.conditions
    _assert_worst(
        dev.worst_node, dev.worst_value,
        offset_res[:, 0], ref["res_dev"], np.argmax,
    )
    _assert_worst(
        mean.worst_node, mean.worst_value,
        offset_res[:, 1], ref["res_mean"], np.argmax,
    )
    assert corr.feasible == (
        ref["res_dev"].max() <= dev.tolerance
        and ref["res_mean"].max() <= mean.tolerance
    )


def test_singular_weight_case_fails_where_expected():
    """The singular instance exercises the failing branches, not just ties."""
    p = singular_weight_problem()
    gre = integrate_gre(p)
    assert np.all(gre.report.dev_rank == 1) and np.all(gre.report.mean_rank == 1)
    failing = [c.name for c in gre.report.conditions if not c.passed]
    assert failing == ["range_dev", "range_mean"]
    assert not solve_affine(p, gre).feasible


@pytest.mark.parametrize("case", sorted(CASES))
def test_offset_targets_match_node_by_node_bitwise(case, monkeypatch):
    """Both channels' offset targets equal the node-by-node sums exactly.

    The mean target adds rho0 and then rho_bar, as the reference does, so
    the worst-residual values compared exactly above are the same floats.
    """
    p = CASES[case]()
    gre = integrate_gre(p)
    seen = []
    gain = affine._gain

    def capture(targets, factor):
        seen.append(targets[..., 0])
        return gain(targets, factor)

    monkeypatch.setattr(affine, "_gain", capture)
    aff = solve_affine(p, gre)
    (targets,) = seen
    e1, ebar = aff.adjoint_noise, aff.adjoint_mean
    for k, t in enumerate(gre.grid.nodes):
        c, cb = _coeffs(p, t, False), _coeffs(p, t, True)
        P = gre.P[k]
        s0, s1 = p.sigma.const_part.at(t), p.sigma.noise_part.at(t)
        r0, r1 = p.rho.const_part.at(t), p.rho.noise_part.at(t)
        target = c["B"].T @ e1[k] + c["D"].T @ (P @ s1) + r1
        target_m = (
            cb["B"].T @ ebar[k] + cb["D"].T @ (P @ s0 + e1[k])
            + r0 + p.rho_bar.at(t)
        )
        assert np.array_equal(targets[k, 0], target), k
        assert np.array_equal(targets[k, 1], target_m), k
