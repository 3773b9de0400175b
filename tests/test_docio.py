"""Document round-trips and validation diagnostics."""

import numpy as np
import pytest

from mflq.docio import (
    PROBLEM_KIND,
    STRATEGY_KIND,
    dumps,
    emit_problem,
    emit_strategy,
    load_document,
    load_problem,
    load_strategy,
)
from mflq.errors import ValidationError
from mflq.presets import example31, random_spd, scalar_classic
from mflq.problem import ControlSpec, MatrixPath, NoiseAffinePath, TimeGrid, make_problem
from mflq.synthesis import synthesize


def roundtrip(p, law):
    doc = load_document(dumps(emit_problem(p, law)))
    return load_problem(doc)


def raw_values(coeff):
    return coeff.values if hasattr(coeff, "values") else np.asarray(coeff)


@pytest.mark.parametrize("preset", [scalar_classic, example31])
def test_analytic_presets_roundtrip_losslessly(preset):
    p, law = preset(n_steps=100)
    q, law2 = roundtrip(p, law)
    assert q.horizon == p.horizon
    for name in ("A", "B", "D_bar", "Q", "R", "G", "G_bar"):
        np.testing.assert_array_equal(
            raw_values(getattr(q, name)), raw_values(getattr(p, name))
        )
    np.testing.assert_array_equal(law2.mean, law.mean)


def test_random_preset_roundtrips_bit_for_bit():
    p, law = random_spd(7, n_steps=60)
    text1 = dumps(emit_problem(p, law))
    q, law2 = load_problem(load_document(text1))
    text2 = dumps(emit_problem(q, law2))
    assert text1 == text2


def test_sampled_paths_roundtrip():
    g = TimeGrid(0.0, 1.0, 4)
    ramp = MatrixPath.sampled(g, np.linspace(0, 1, 5).reshape(5, 1, 1))
    p = make_problem(1, 1, g, Q=ramp, R=1.0, G=1.0)
    q, _ = load_problem(load_document(dumps(emit_problem(p))))
    assert not q.Q.is_constant
    np.testing.assert_array_equal(q.Q.values, p.Q.values)


def test_strategy_roundtrip_keeps_frozen_flag():
    p, _ = scalar_classic(n_steps=50)
    sol = synthesize(p)
    spec = ControlSpec(
        feedback=sol.strategy.feedback,
        mean_feedback=sol.strategy.mean_feedback,
        offset=NoiseAffinePath.of([0.3], [0.7], frozen_at_start=True),
    )
    doc = load_document(dumps(emit_strategy(spec, 1, 1, p.horizon)))
    spec2 = load_strategy(doc, 1, 1, p.horizon)
    assert spec2.offset.frozen_at_start is True
    np.testing.assert_array_equal(spec2.feedback.values, spec.feedback.values)
    np.testing.assert_array_equal(
        spec2.offset.noise_part.values, spec.offset.noise_part.values
    )


def test_missing_coefficients_default_to_zero():
    doc = {
        "kind": PROBLEM_KIND,
        "dims": {"n": 1, "m": 1},
        "horizon": {"t": 0.0, "T": 1.0, "steps": 10},
        "coefficients": {"R": [1.0], "G": [1.0]},
    }
    p, law = load_problem(doc)
    assert law is None
    assert np.all(p.A.values == 0.0)
    assert p.R.at(0.5)[0, 0] == 1.0


def test_unknown_coefficient_is_reported_by_path():
    doc = {
        "kind": PROBLEM_KIND,
        "dims": {"n": 1, "m": 1},
        "horizon": {"t": 0.0, "T": 1.0, "steps": 10},
        "coefficients": {"R": [1.0], "G": [1.0], "Z": [2.0]},
    }
    with pytest.raises(ValidationError) as exc:
        load_problem(doc)
    assert any("coefficients.Z" in v for v in exc.value.violations)


def test_multiple_errors_reported_together():
    doc = {
        "kind": PROBLEM_KIND,
        "dims": {"n": 1, "m": 1},
        "horizon": {"t": 0.0, "T": 1.0, "steps": 10},
        "coefficients": {
            "R": [1.0, 2.0],          # wrong length
            "G": ["not-a-number"],    # wrong type
        },
    }
    with pytest.raises(ValidationError) as exc:
        load_problem(doc)
    joined = "\n".join(exc.value.violations)
    assert "coefficients.R" in joined
    assert "coefficients.G" in joined


def test_wrong_kind_rejected():
    with pytest.raises(ValidationError, match="mflq-problem"):
        load_problem({"kind": "something-else"})
    with pytest.raises(ValidationError, match="mflq-strategy"):
        load_strategy({"kind": PROBLEM_KIND}, 1, 1, TimeGrid(0.0, 1.0, 10))


def test_strategy_without_offset_gets_the_zero_offset():
    p, _ = scalar_classic(n_steps=20)
    doc = emit_strategy(ControlSpec.zero(1, 1), 1, 1, p.horizon)
    del doc["offset"]
    spec = load_strategy(doc, 1, 1, p.horizon)
    for part in (spec.offset.const_part, spec.offset.noise_part):
        assert part.is_constant
        np.testing.assert_array_equal(part.values, np.zeros(1))
    assert spec.offset.frozen_at_start is False


def test_strategy_dimension_mismatch():
    p, _ = scalar_classic(n_steps=20)
    doc = emit_strategy(ControlSpec.zero(2, 2), 2, 2, p.horizon)
    with pytest.raises(ValidationError, match="dims"):
        load_strategy(doc, 1, 1, p.horizon)


def test_strategy_horizon_mismatch():
    spec = ControlSpec.zero(1, 1)
    doc = emit_strategy(spec, 1, 1, TimeGrid(0.0, 2.0, 10))
    with pytest.raises(ValidationError, match="horizon"):
        load_strategy(doc, 1, 1, TimeGrid(0.0, 1.0, 10))


def test_bad_json_reports_line():
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_document('{"kind": "mflq-problem",')
    with pytest.raises(ValidationError, match="top level"):
        load_document("[1, 2, 3]")


def test_dumps_is_deterministic_and_nan_free():
    p, law = scalar_classic(n_steps=10)
    assert dumps(emit_problem(p, law)) == dumps(emit_problem(p, law))
    bad = {"kind": STRATEGY_KIND, "x": float("nan")}
    with pytest.raises(ValueError):
        dumps(bad)
