"""Front-end behavior: exit codes, report contents, CSV output, determinism.

Every test drives ``main`` in-process and inspects the captured streams,
so the suite never spawns a subprocess.
"""

import csv
import json

import numpy as np
import pytest

from mflq import cli, docio, presets, riccati, sim, synthesis
from mflq.cli import main
from mflq.problem import (
    ControlSpec,
    InitialLaw,
    MatrixPath,
    NoiseAffinePath,
    TimeGrid,
    make_problem,
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, p, law, name="problem.json"):
    target = tmp_path / name
    target.write_text(docio.dumps(docio.emit_problem(p, law)))
    return str(target)


# The fields of a regularity verdict, each condition's keys in a report.
CONDITION_KEYS = {"name", "passed", "worst_node", "worst_value", "tolerance"}


def write_preset(capsys, tmp_path, name, filename):
    target = tmp_path / filename
    code, out, err = run(capsys, ["example", name, "--out", str(target)])
    assert code == 0
    assert out == ""
    return str(target)


# ---------------------------------------------------------------------------
# example


def test_example_emits_parseable_document(capsys):
    code, out, err = run(capsys, ["example", "scalar_classic"])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "mflq-problem"
    assert doc["dims"] == {"n": 1, "m": 1}
    assert doc["initial_law"]["mean"] == [1.0]


def test_example_rejects_unknown_name(capsys):
    # argparse handles the choices check and exits itself
    with pytest.raises(SystemExit) as exc:
        main(["example", "no_such_preset"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags, fragment", [
    (["--steps", "0"], "n_steps must be at least 1"),
    (["--n", "0"], "dimensions n and m must be positive"),
])
def test_example_refuses_empty_grid_or_dimension(capsys, tmp_path, flags, fragment):
    """Zero steps is refused, not read as "use the default"; zero state
    dimension is refused before a document is written."""
    target = tmp_path / "spd.json"
    code, out, err = run(capsys, ["example", "random_spd", "--out", str(target)] + flags)
    assert code == 2
    assert out == ""
    assert fragment in err
    assert not target.exists()


@pytest.mark.parametrize("flag", ["--n", "--m"])
def test_example_names_a_negative_dimension(capsys, flag):
    """random_spd checks its dimensions before drawing, so a negative one
    gets the dimension message rather than numpy's shape error."""
    code, out, err = run(capsys, ["example", "random_spd", flag, "-1"])
    assert code == 2
    assert out == ""
    assert "dimensions n and m must be positive" in err


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_example_names_a_seed_out_of_range(capsys, seed):
    """random_spd takes the seeds ``simulate`` takes, [0, 2**64), and names
    any other one instead of failing inside the generator."""
    code, out, err = run(capsys, ["example", "random_spd", "--seed", str(seed)])
    assert code == 2
    assert out == ""
    assert f"seed must lie in [0, 2**64), got {seed}" in err


# ---------------------------------------------------------------------------
# solve


def test_solve_reports_samples_and_flags(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "scalar_classic", "classic.json")
    code, out, err = run(capsys, ["solve", path, "--at", "0.0,1.0"])
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "solve"
    assert rep["regular"] and rep["feasible"] and rep["solvable"]

    first, last = rep["samples"]
    assert first["time"] == 0.0
    # P(s) = 1/(2 - s), gain -P
    assert abs(first["P"][0][0] - 0.5) < 1e-9
    assert abs(first["gain_dev"][0][0] + 0.5) < 1e-9
    assert first["offset_const"] == [0.0]
    assert first["offset_noise"] == [0.0]
    assert last["P"][0][0] == 1.0

    assert rep["corrections"]["feasible"] is True
    names = [c["name"] for c in rep["conditions"]]
    assert "psd_dev" in names and "range_mean" in names
    assert all(set(c) == CONDITION_KEYS for c in rep["conditions"])


def test_solve_rejects_time_outside_horizon(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "scalar_classic", "classic.json")
    code, out, err = run(capsys, ["solve", path, "--at", "2.0"])
    assert code == 2
    assert "invalid:" in err


def test_solve_finite_escape_exits_3(capsys, tmp_path):
    g = TimeGrid(0.0, 1.0, 400)
    p = make_problem(1, 1, g, B=1.0, Q=1.0, R=-1.0, G=10.0)
    path = write_doc(tmp_path, p, None, "blowup.json")
    code, out, err = run(capsys, ["solve", path])
    assert code == 3
    assert err.startswith("numerical failure:")


def test_missing_file_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, ["solve", str(tmp_path / "absent.json")])
    assert code == 2
    assert "invalid:" in err


def test_malformed_document_exits_2(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    code, out, err = run(capsys, ["solve", str(bad)])
    assert code == 2
    assert "invalid:" in err


@pytest.mark.parametrize("section, field, value, where", [
    ("horizon", "steps", True, "horizon.steps"),
    ("dims", "n", True, "dims.n"),
    ("horizon", "T", True, "horizon.T"),
    ("coefficients", "B", [True], "coefficients.B"),
])
def test_json_booleans_are_not_numbers(capsys, tmp_path, section, field,
                                       value, where):
    """JSON true loads as a Python bool, which is an int; a document that
    gives one where a number belongs is refused, naming the field."""
    path = write_preset(capsys, tmp_path, "scalar_classic", "classic.json")
    doc = json.loads(open(path).read())
    doc[section][field] = value
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, out, err = run(capsys, ["solve", path])
    assert code == 2
    assert out == ""
    assert f"invalid: {where}:" in err


def test_frozen_problem_coefficient_exits_2(capsys, tmp_path):
    """frozen_at_start belongs to strategy offsets; on a problem coefficient
    it is refused instead of being solved as the running Brownian value."""
    path = write_preset(capsys, tmp_path, "scalar_classic", "classic.json")
    doc = json.loads(open(path).read())
    doc["coefficients"]["b"] = {"const": [0.0], "noise": [2.0],
                                "frozen_at_start": True}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, out, err = run(capsys, ["solve", path])
    assert code == 2
    assert out == ""
    assert "b: frozen_at_start" in err


# ---------------------------------------------------------------------------
# regularity


def test_regularity_flags_range_failure(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "example31", "mf.json")
    code, out, err = run(capsys, ["regularity", path])
    assert code == 0
    rep = json.loads(out)
    assert rep["regular"] is False
    assert rep["failing"] == ["range_dev"]
    by_name = {c["name"]: c for c in rep["conditions"]}
    assert abs(by_name["range_dev"]["worst_value"] - 0.5) < 1e-12
    assert all(set(c) == CONDITION_KEYS for c in rep["conditions"])
    assert rep["rank_dev"] == {"min": 0, "max": 0}


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_regularity_refuses_negative_or_nonfinite_tol(capsys, tmp_path, value):
    """A negative or NaN tolerance would fail conditions that hold."""
    path = write_preset(capsys, tmp_path, "scalar_classic", "classic.json")
    code, out, err = run(capsys, ["regularity", path, "--tol", value])
    assert code == 2
    assert out == ""
    assert "--tol must be a finite non-negative number" in err


def test_regularity_csv_integrates_the_riccati_pair_once(capsys, tmp_path, monkeypatch):
    """With --csv the report and the time series come from one synthesis.

    Every module binding of ``integrate_gre`` the command can reach is
    wrapped; the report must match the one printed without --csv and the
    CSV the one ``solve --csv`` writes.
    """
    path = write_preset(capsys, tmp_path, "scalar_classic", "classic.json")
    _, plain, _ = run(capsys, ["regularity", path])
    run(capsys, ["solve", path, "--csv", str(tmp_path / "solve")])

    sweeps = []

    def counting(*args, **kwargs):
        sweeps.append(1)
        return riccati.integrate_gre(*args, **kwargs)

    for mod in (cli, synthesis):
        monkeypatch.setattr(mod, "integrate_gre", counting)
    code, out, err = run(capsys, ["regularity", path, "--csv", str(tmp_path / "reg")])
    assert code == 0
    assert len(sweeps) == 1
    assert out == plain
    written = (tmp_path / "reg" / "timeseries.csv").read_bytes()
    assert written == (tmp_path / "solve" / "timeseries.csv").read_bytes()


# ---------------------------------------------------------------------------
# value


def test_value_uses_document_law(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "scalar_classic", "classic.json")
    code, out, err = run(capsys, ["value", path])
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["value"] - 0.5) < 1e-8
    assert rep["valid"] is True
    assert rep["label"] == "optimal value"


def test_value_law_override(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "scalar_classic", "classic.json")
    code, out, err = run(capsys, ["value", path, "--law", "mean=-3"])
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["value"] - 4.5) < 1e-8
    assert rep["law"] == {"mean": [-3.0], "brownian_load": [0.0],
                          "indep_load": [[0.0]]}


def test_value_weak_label_when_not_solvable(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "example31", "mf.json")
    code, out, err = run(capsys, ["value", path])
    assert code == 0
    rep = json.loads(out)
    assert rep["valid"] is False
    assert rep["label"] == "weak value candidate"
    assert abs(rep["value"] - 2.0) < 1e-10


def test_value_requires_some_law(capsys, tmp_path):
    g = TimeGrid(0.0, 1.0, 100)
    p = make_problem(1, 1, g, B=1.0, Q=1.0, R=1.0, G=1.0)
    path = write_doc(tmp_path, p, None, "lawless.json")
    code, out, err = run(capsys, ["value", path])
    assert code == 2
    assert "initial law" in err


@pytest.mark.parametrize("flag,fragment", [
    ("nonsense", "key=value"),
    ("mean=a,b", "comma-separated numbers"),
    ("spread=1", "unknown field"),
    ("mean=1,2,3", "expected 1 or 1 entries"),
])
def test_bad_law_flags(capsys, tmp_path, flag, fragment):
    path = write_preset(capsys, tmp_path, "scalar_classic", "classic.json")
    code, out, err = run(capsys, ["value", path, "--law", flag])
    assert code == 2
    assert fragment in err


def write_spd(capsys, tmp_path):
    """A random_spd document with n = 3, m = 2 on a 100-step grid, and the
    initial law it holds."""
    target = tmp_path / "spd.json"
    code, out, err = run(capsys, ["example", "random_spd", "--n", "3", "--m", "2",
                                  "--steps", "100", "--out", str(target)])
    assert code == 0
    _, law = docio.load_problem(json.loads(target.read_text()))
    return str(target), law


def value_report(capsys, path, *flags):
    """The report ``mflq value`` prints with one --law per flag."""
    argv = ["value", path]
    for flag in flags:
        argv += ["--law", flag]
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


@pytest.mark.parametrize("flag, field, want", [
    ("brownian_load=0.2", "brownian_load", [0.2, 0.2, 0.2]),
    ("brownian_load=0.1,-0.2,0.3", "brownian_load", [0.1, -0.2, 0.3]),
    ("indep_load=0.3", "indep_load", (0.3 * np.eye(3)).tolist()),
    ("indep_load=1,2,3,4,5,6,7,8,9", "indep_load",
     [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]),
])
def test_law_field_takes_one_value_or_every_entry(capsys, tmp_path, flag,
                                                 field, want):
    """One value fills brownian_load, or gives that multiple of I for
    indep_load; otherwise the flag gives every entry, row-major for
    indep_load.  The other fields stay the document's."""
    path, doc_law = write_spd(capsys, tmp_path)
    expected = {name: getattr(doc_law, name).tolist()
                for name in ("mean", "brownian_load", "indep_load")}
    expected[field] = want
    assert value_report(capsys, path, flag)["law"] == expected


def test_repeated_law_flags_combine(capsys, tmp_path):
    """Flags apply in order, a later one overriding an earlier one on the
    same field, and the value is the one of the combined law."""
    path, doc_law = write_spd(capsys, tmp_path)
    rep = value_report(capsys, path, "mean=1", "indep_load=0.3", "mean=2,0,-1")
    law = InitialLaw(np.array([2.0, 0.0, -1.0]), doc_law.brownian_load,
                     0.3 * np.eye(3))
    assert rep["law"] == {"mean": [2.0, 0.0, -1.0],
                          "brownian_load": doc_law.brownian_load.tolist(),
                          "indep_load": (0.3 * np.eye(3)).tolist()}
    p, _ = docio.load_problem(json.loads((tmp_path / "spd.json").read_text()))
    assert rep["value"] == synthesis.value(synthesis.synthesize(p), law)


def test_law_override_without_a_document_law_starts_from_zeros(capsys, tmp_path):
    g = TimeGrid(0.0, 1.0, 100)
    p = make_problem(2, 1, g, A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]],
                     Q=np.eye(2), R=[[1.0]], G=np.eye(2))
    path = write_doc(tmp_path, p, None, "lawless.json")
    law = value_report(capsys, path, "brownian_load=0.5")["law"]
    assert law == {"mean": [0.0, 0.0], "brownian_load": [0.5, 0.5],
                   "indep_load": [[0.0, 0.0], [0.0, 0.0]]}
    law = value_report(capsys, path, "indep_load=0.1,0,0,0.2")["law"]
    assert law == {"mean": [0.0, 0.0], "brownian_load": [0.0, 0.0],
                   "indep_load": [[0.1, 0.0], [0.0, 0.2]]}


# ---------------------------------------------------------------------------
# simulate


def test_simulate_zero_strategy_is_exact(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "example31", "mf.json")
    code, out, err = run(capsys, [
        "simulate", path, "--strategy", "zero",
        "--paths", "200", "--steps", "50", "--seed", "3",
    ])
    assert code == 0
    rep = json.loads(out)
    assert rep["strategy"] == "zero"
    assert rep["cost_mean"] == 2.0
    assert rep["cost_stderr"] == 0.0
    assert rep["n_paths"] == 200


def read_table(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_simulate_csv_writes_the_simulated_strategy(capsys, tmp_path, monkeypatch):
    """--csv writes the simulated strategy's gains and the report's state
    mean on the simulation grid; the zero strategy and a strategy file run
    no synthesis for it.  The series used to be a synthesis's, not the
    strategy's that was simulated."""
    path = write_preset(capsys, tmp_path, "scalar_classic", "classic.json")
    p, law = docio.load_problem(json.loads((tmp_path / "classic.json").read_text()))
    spec = ControlSpec(MatrixPath.constant([[-0.5]]),
                       MatrixPath.constant([[0.25]]), NoiseAffinePath.zero((1,)))
    spath = tmp_path / "strategy.json"
    spath.write_text(docio.dumps(docio.emit_strategy(spec, 1, 1, p.horizon)))
    argv = ["simulate", path, "--paths", "20", "--steps", "20", "--seed", "1"]
    monkeypatch.setattr(cli, "synthesize", None)
    for choice, used in (("zero", ControlSpec.zero(1, 1)), (str(spath), spec)):
        _, plain, _ = run(capsys, [*argv, "--strategy", choice])
        target = tmp_path / "csv"
        code, out, err = run(capsys, [*argv, "--strategy", choice,
                                      "--csv", str(target)])
        assert (code, out) == (0, plain)
        rows = read_table(target / "timeseries.csv")
        assert list(rows[0]) == ["time", "gain_dev_0_0", "gain_mean_0_0", "EX_0"]
        EX = sim.simulate(p, used, law, 20, 20, 1).mean_path
        want_fb = used.feedback.values[0, 0]
        want_gm = want_fb + used.mean_feedback.values[0, 0]
        nodes = p.horizon.with_steps(20).nodes
        assert len(rows) == len(nodes)
        for k, row in enumerate(rows):
            assert float(row["time"]) == nodes[k]
            assert float(row["gain_dev_0_0"]) == want_fb
            assert float(row["gain_mean_0_0"]) == want_gm
            assert float(row["EX_0"]) == EX[k, 0]
        # dX = u ds with u = 0 keeps the mean at its start x = 1.
        if choice == "zero":
            assert {float(row["EX_0"]) for row in rows} == {1.0}


def test_simulate_csv_of_the_optimum_matches_solve(capsys, tmp_path):
    """On the synthesis grid the optimum's series are the solve CSV's gain
    and state-mean columns."""
    path = write_preset(capsys, tmp_path, "scalar_classic", "classic.json")
    run(capsys, ["solve", path, "--csv", str(tmp_path / "solve")])
    code, _, _ = run(capsys, ["simulate", path, "--paths", "4", "--seed", "1",
                              "--csv", str(tmp_path / "sim")])
    assert code == 0
    sim_rows = read_table(tmp_path / "sim" / "timeseries.csv")
    solve_rows = read_table(tmp_path / "solve" / "timeseries.csv")
    assert len(sim_rows) == len(solve_rows) == 1001
    for got, want in zip(sim_rows, solve_rows):
        for key, text in got.items():
            assert float(text) == pytest.approx(float(want[key]), rel=1e-12,
                                                abs=1e-14)


@pytest.mark.parametrize("kind, good, bad", [
    ("problem", "coefficients", "coefficents"),
    ("strategy", "offset", "ofset"),
])
def test_misspelt_top_level_key_exits_2(capsys, tmp_path, kind, good, bad):
    """An unknown top-level key is refused: a misspelt coefficients object
    used to load as the all-zero problem (value 0.0 where it is 0.5), and
    a misspelt offset as the zero offset."""
    path = write_preset(capsys, tmp_path, "scalar_classic", "classic.json")
    if kind == "problem":
        doc = json.loads((tmp_path / "classic.json").read_text())
        target, argv = tmp_path / "classic.json", ["value", path]
    else:
        doc = docio.emit_strategy(ControlSpec.zero(1, 1), 1, 1,
                                  TimeGrid(0.0, 1.0, 1000))
        target = tmp_path / "strategy.json"
        argv = ["simulate", path, "--strategy", str(target), "--paths", "4"]
    doc[bad] = doc.pop(good)
    target.write_text(json.dumps(doc))
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"invalid: {bad}: unknown field" in err.splitlines()


def test_simulate_refuses_zero_steps(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "scalar_classic", "classic.json")
    code, out, err = run(capsys, [
        "simulate", path, "--steps", "0", "--paths", "100", "--law", "mean=1",
    ])
    assert code == 2
    assert out == ""
    assert "n_steps must be at least 1" in err


def test_simulate_reports_are_byte_identical(capsys, tmp_path):
    g = TimeGrid(0.0, 1.0, 50)
    p = make_problem(1, 1, g, B=1.0, Q=1.0, R=1.0, G=1.0, sigma=(1.0, 0.0))
    path = write_doc(tmp_path, p, None, "noisy.json")
    argv = ["simulate", path, "--law", "mean=1", "--paths", "400",
            "--seed", "11"]
    code1, out1, err1 = run(capsys, argv)
    code2, out2, err2 = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2

    code3, out3, _ = run(capsys, argv[:-1] + ["12"])
    assert code3 == 0
    assert json.loads(out3)["cost_mean"] != json.loads(out1)["cost_mean"]


def test_simulate_solver_steps_sets_the_synthesis_grid(capsys, tmp_path):
    """--solver-steps is the grid the optimal strategy is synthesized on: the
    report is the simulation of synthesize(p, n_steps=40)'s strategy."""
    path = write_preset(capsys, tmp_path, "scalar_classic", "classic.json")
    p, law = docio.load_problem(json.loads((tmp_path / "classic.json").read_text()))
    argv = ["simulate", path, "--paths", "200", "--steps", "50", "--seed", "3"]
    code, out, err = run(capsys, argv + ["--solver-steps", "40"])
    assert code == 0
    rep = json.loads(out)
    want = sim.simulate(p, synthesis.synthesize(p, n_steps=40).strategy, law,
                        200, 50, 3)
    assert rep["cost_mean"] == want.cost_mean
    assert rep["cost_stderr"] == want.cost_stderr
    assert rep["terminal_mean"] == want.terminal_mean.tolist()
    assert rep["law"] == {"mean": [1.0], "brownian_load": [0.0],
                          "indep_load": [[0.0]]}
    code, out, err = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["cost_mean"] != want.cost_mean


def test_simulate_strategy_from_file(capsys, tmp_path):
    problem_path = write_preset(capsys, tmp_path, "example31", "mf.json")
    doc = json.loads((tmp_path / "mf.json").read_text())
    g = TimeGrid(doc["horizon"]["t"], doc["horizon"]["T"],
                 doc["horizon"]["steps"])
    spec = ControlSpec.zero(1, 1)
    spath = tmp_path / "strategy.json"
    spath.write_text(docio.dumps(docio.emit_strategy(spec, 1, 1, g)))

    code, out, err = run(capsys, [
        "simulate", problem_path, "--strategy", str(spath),
        "--paths", "50", "--steps", "40",
    ])
    assert code == 0
    rep = json.loads(out)
    assert rep["strategy"] == f"file:{spath}"
    assert rep["cost_mean"] == 2.0


def test_misspelt_offset_key_exits_2(capsys, tmp_path):
    """A key of a noise-affine object other than const, noise and
    frozen_at_start is refused: a misspelt flag used to load unfrozen."""
    problem_path = write_preset(capsys, tmp_path, "example31", "mf.json")
    doc = json.loads((tmp_path / "mf.json").read_text())
    g = TimeGrid(doc["horizon"]["t"], doc["horizon"]["T"],
                 doc["horizon"]["steps"])
    sdoc = docio.emit_strategy(presets.example31_null_control(), 1, 1, g)
    del sdoc["offset"]["frozen_at_start"]
    sdoc["offset"]["frozen_at_strat"] = True
    spath = tmp_path / "null.json"
    spath.write_text(docio.dumps(sdoc))
    code, out, err = run(capsys, [
        "simulate", problem_path, "--strategy", str(spath),
        "--paths", "16", "--steps", "40",
    ])
    assert code == 2
    assert out == ""
    assert "offset.frozen_at_strat: unknown field" in err


def test_simulate_diverging_strategy_exits_3(capsys, tmp_path):
    problem_path = write_preset(capsys, tmp_path, "scalar_classic", "classic.json")
    g = TimeGrid(0.0, 1.0, 200)
    spec = ControlSpec(
        feedback=MatrixPath.constant([[900.0]]),
        mean_feedback=MatrixPath.constant([[0.0]]),
        offset=NoiseAffinePath.zero((1,)),
    )
    spath = tmp_path / "diverging.json"
    spath.write_text(docio.dumps(docio.emit_strategy(spec, 1, 1, g)))
    code, out, err = run(capsys, [
        "simulate", problem_path, "--strategy", str(spath),
        "--paths", "16", "--steps", "200",
    ])
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: state mean")


# ---------------------------------------------------------------------------
# csv output


def test_solve_csv_timeseries(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "scalar_classic", "classic.json")
    outdir = tmp_path / "series"
    code, out, err = run(capsys, ["solve", path, "--csv", str(outdir)])
    assert code == 0

    with open(outdir / "timeseries.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header == ["time", "P_0_0", "P_mean_0_0", "gain_dev_0_0",
                      "gain_mean_0_0", "EX_0"]
    assert len(body) == 1001

    first, last = body[0], body[-1]
    assert float(first[0]) == 0.0
    assert abs(float(first[1]) - 0.5) < 1e-9
    assert abs(float(first[3]) + 0.5) < 1e-9
    assert float(first[5]) == 1.0
    assert float(last[0]) == 1.0
    assert float(last[1]) == 1.0
    # state mean under the optimal gain: E X(s) = (2 - s)/2
    assert abs(float(last[5]) - 0.5) < 1e-6
    # mean channel collapses onto the deviation channel without bar terms
    assert first[1] == first[2] and first[3] == first[4]


# ---------------------------------------------------------------------------
# verify


def test_verify_qp_gap_fails_with_coarse_oracle(capsys, tmp_path):
    g = TimeGrid(0.0, 1.0, 200)
    p = make_problem(1, 1, g, B=1.0, Q=1.0, R=1.0, G=1.0)
    path = write_doc(tmp_path, p, None, "plain.json")
    code, out, err = run(capsys, [
        "verify", path, "--suite", "qp", "--law", "mean=1",
        "--qp-intervals", "4",
    ])
    assert code == 4
    rep = json.loads(out)
    assert rep["passed"] is False
    check = rep["suites"]["qp"]["checks"][0]
    assert check["discrepancy"] > check["tolerance"]
    assert check["metadata"]["status"] == "ok"

    code, out, err = run(capsys, [
        "verify", path, "--suite", "qp", "--law", "mean=1",
    ])
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_verify_refuses_negative_or_nonfinite_qp_tol(capsys, tmp_path, value):
    """With --qp-tol -1 a 1e-15 gap used to fail the oracle check with exit 4."""
    path = write_preset(capsys, tmp_path, "scalar_classic", "classic.json")
    code, out, err = run(capsys, ["verify", path, "--suite", "qp", "--qp-tol", value])
    assert code == 2
    assert out == ""
    assert "--qp-tol must be a finite non-negative number" in err


def test_verify_explicit_suite_must_apply(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "example31", "mf.json")
    code, out, err = run(capsys, ["verify", path, "--suite", "qp"])
    assert code == 2
    assert "D_bar" in err

    code, out, err = run(capsys, ["verify", path, "--suite", "degeneration"])
    assert code == 2
    assert "mean-coupling" in err


def test_verify_all_skips_inapplicable_suites(capsys, tmp_path):
    # nothing applies to this instance: the qp oracle rejects control
    # noise, the core is not regular, synthesis is not solvable, and the
    # mean coupling is essential.  "all" reports the reasons and passes
    # vacuously instead of failing.
    path = write_preset(capsys, tmp_path, "example31", "mf.json")
    code, out, err = run(capsys, [
        "verify", path, "--paths", "100", "--steps", "50",
    ])
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["suites"] == {}
    assert rep["skipped"] == {
        "qp": "qp_oracle handles noiseless problems only; nonzero: D_bar",
        "completion": "the quadratic core is not regular",
        "battery": "problem is not closed-loop solvable; the value is not a "
                   "certified lower bound",
        "degeneration": "mean-coupling coefficients are nonzero",
    }


def test_verify_names_a_pass_with_no_suite_run_vacuous(capsys, tmp_path):
    argv = ["--suite", "all", "--paths", "100", "--steps", "50",
            "--controls", "2"]
    path = write_preset(capsys, tmp_path, "example31", "mf.json")
    code, out, err = run(capsys, ["verify", path] + argv)
    rep = json.loads(out)
    assert (code, rep["passed"], rep["suites"]) == (0, True, {})
    assert rep["vacuous"] is True
    path = write_preset(capsys, tmp_path, "scalar_classic", "classic.json")
    code, out, err = run(capsys, ["verify", path] + argv)
    rep = json.loads(out)
    assert (code, rep["passed"]) == (0, True)
    assert list(rep["suites"]) == ["battery", "completion", "degeneration", "qp"]
    assert rep["vacuous"] is False


def test_verify_battery_on_solvable_instance(capsys, tmp_path):
    path = write_preset(capsys, tmp_path, "scalar_classic", "classic.json")
    code, out, err = run(capsys, [
        "verify", path, "--suite", "battery", "--controls", "4",
        "--paths", "200", "--steps", "100", "--seed", "2",
    ])
    assert code == 0
    rep = json.loads(out)
    names = [c["name"] for c in rep["suites"]["battery"]["checks"]]
    assert "lower_bound" in names and "optimal_attains_value" in names


@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", "-1"],
    ["simulate", "--seed", str(2**64 + 1)],
    ["verify", "--suite", "battery", "--seed", "-1"],
    ["verify", "--suite", "battery", "--controls", "2", "--seed", str(2**64 - 2)],
])
def test_seeds_outside_the_generator_range_are_refused(capsys, tmp_path, argv):
    """A seed is one unsigned 64-bit key word: -1 and 2**64 + 1 would alias
    2**64 - 1 and 1, and the battery keys its strategies with seed + 1 up to
    seed + controls."""
    path = write_preset(capsys, tmp_path, "scalar_classic", "classic.json")
    code, out, err = run(capsys, [argv[0], path, "--paths", "20",
                                  "--steps", "20"] + argv[1:])
    assert code == 2
    assert out == ""
    assert "seed" in err


@pytest.mark.parametrize("preset, suite", [
    ("random_spd", "battery"),
    ("random_spd", "completion"),
    ("scalar_classic", "completion"),
])
def test_one_path_checks_are_refused(capsys, tmp_path, preset, suite):
    """One path's standard error is 0: its 3-stderr band is a point, and a
    sound problem would exit 4 with "passed": false.  It exits 2 instead."""
    target = tmp_path / "problem.json"
    code, _, _ = run(capsys, ["example", preset, "--seed", "1", "--out", str(target)])
    assert code == 0
    code, out, err = run(capsys, ["verify", str(target), "--suite", suite,
                                  "--paths", "1", "--steps", "50"])
    assert code == 2
    assert out == ""
    assert "n_paths >= 2" in err


def _count_calls(monkeypatch, bindings):
    """Wrap each (module, name) binding; returns the list each call appends to."""
    calls = []
    for mod, name in bindings:
        original = getattr(mod, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(mod, name, counting)
    return calls


def test_verify_synthesizes_at_most_once(capsys, tmp_path, monkeypatch):
    """Every suite reads one Riccati sweep, the qp and battery suites share
    one synthesis on it, and a suite refused on its preconditions pays for
    neither."""
    path = write_preset(capsys, tmp_path, "scalar_classic", "classic.json")
    argv = ["verify", path, "--paths", "200", "--steps", "50", "--controls", "2"]
    _, plain, _ = run(capsys, argv)

    calls = _count_calls(monkeypatch, [
        (cli, "closed_loop"), (cli, "integrate_gre"), (synthesis, "integrate_gre"),
    ])
    code, out, err = run(capsys, argv)
    assert code == 0
    assert out == plain
    assert set(json.loads(out)["suites"]) == {
        "qp", "completion", "battery", "degeneration",
    }
    assert (calls.count("closed_loop"), calls.count("integrate_gre")) == (1, 1)

    calls.clear()
    noisy = write_preset(capsys, tmp_path, "example31", "mf.json")
    code, out, err = run(capsys, ["verify", noisy, "--suite", "qp"])
    assert code == 2
    assert calls == []


@pytest.mark.parametrize("suite", ["completion", "degeneration"])
def test_verify_single_sweep_suites_skip_the_affine_stage(capsys, tmp_path,
                                                          monkeypatch, suite):
    """Run alone, the completion and degeneration suites read the Riccati
    sweep only: one sweep and no adjoint or offset stage."""
    path = write_preset(capsys, tmp_path, "scalar_classic", "classic.json")
    calls = _count_calls(monkeypatch, [
        (cli, "integrate_gre"), (synthesis, "integrate_gre"),
        (synthesis, "solve_affine"),
    ])
    code, out, err = run(capsys, [
        "verify", path, "--suite", suite, "--paths", "200", "--steps", "50",
    ])
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert (calls.count("integrate_gre"), calls.count("solve_affine")) == (1, 0)


def test_each_suite_under_all_equals_the_suite_run_alone(capsys, tmp_path):
    """Every check has the CheckResult fields, and a suite's entry does not
    depend on the suites run beside it."""
    path = write_preset(capsys, tmp_path, "scalar_classic", "classic.json")
    argv = ["verify", path, "--paths", "200", "--steps", "50", "--controls", "2",
            "--seed", "4"]
    code, out, err = run(capsys, argv + ["--suite", "all"])
    assert code == 0
    suites = json.loads(out)["suites"]
    assert list(suites) == ["battery", "completion", "degeneration", "qp"]
    for name, entry in suites.items():
        assert set(entry) == {"passed", "checks"}
        assert entry["checks"]
        assert all(set(c) == {"name", "passed", "discrepancy", "tolerance",
                              "metadata"} for c in entry["checks"])
        code, out, err = run(capsys, argv + ["--suite", name])
        assert code == 0
        alone = json.loads(out)
        assert alone["suites"] == {name: entry}
        assert alone["skipped"] == {}
