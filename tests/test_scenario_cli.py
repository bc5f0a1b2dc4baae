from __future__ import annotations

import json
from pathlib import Path

import pytest

import setfix
from setfix import RunReport, SchemaError, load_scenario, run_scenario, scenario_from_dict
from setfix.cli import main as cli_main
from setfix.errors import json_text
from setfix.iteration import orbit_summary, steps_to_csv
from setfix.scenario import (
    HARNESSES,
    _HARNESS_TABLE,
    builtin_scenario_names,
    emit_report,
    write_report,
)

from oracles import csv_writer_steps


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"

#: Orbit report rows of 1, 2 and 3 parts, with signed zeros, subnormal-sized
#: and negative values and a None target.
_STEP_ROWS = [
    {"n": 0, "parts": [[-0.0, 1e-300]], "h_to_prev": 0.0, "h_to_target": None},
    {"n": 1, "parts": [[-2.5, -1e-300], [0.1, 0.30000000000000004]], "h_to_prev": 1e-300,
     "h_to_target": -0.0},
    {"n": 2, "parts": [[-1.0, -0.5], [0.0, 0.0], [1.5, 2.0]], "h_to_prev": 5e-324,
     "h_to_target": 2.220446049250313e-16},
    {"n": 3, "parts": [[-1e300, 1e-300]], "h_to_prev": -0.0, "h_to_target": -3.0},
]


def minimal_scenario(**overrides) -> dict:
    base = {
        "operator": "sqrt_example",
        "perturbation": {"kind": "takahashi", "lam": 0.75},
        "analyses": ["certify"],
        "grid_n": 101,
        "scan_grid_n": 2001,
        "x0_list": [],
    }
    base.update(overrides)
    return base


@pytest.fixture(scope="module")
def sqrt_report():
    return run_scenario("sqrt_takahashi_34")


@pytest.fixture(scope="module")
def square_report():
    return run_scenario("square_takahashi_half")


class TestSchemaValidation:
    def test_builtins_listed(self):
        assert builtin_scenario_names() == ["sqrt_takahashi_34",
                                            "square_takahashi_half"]

    def test_unknown_scenario(self):
        with pytest.raises(SchemaError, match="built-in"):
            load_scenario("no_such_scenario")

    def test_x0_outside_domain_named(self):
        with pytest.raises(SchemaError, match="9.5"):
            scenario_from_dict(minimal_scenario(
                analyses=["certify", "iterate"], x0_list=[0.5, 9.5]))

    def test_stability_requires_certify(self):
        with pytest.raises(SchemaError, match="certify"):
            scenario_from_dict(minimal_scenario(analyses=["stability"]))

    def test_iterate_requires_x0(self):
        with pytest.raises(SchemaError, match="x0_list"):
            scenario_from_dict(minimal_scenario(analyses=["certify", "iterate"]))

    def test_unknown_operator(self):
        with pytest.raises(SchemaError, match="unknown built-in"):
            scenario_from_dict(minimal_scenario(operator="mystery"))

    def test_unknown_analysis(self):
        with pytest.raises(SchemaError, match="unknown analysis"):
            scenario_from_dict(minimal_scenario(analyses=["dance"]))

    def test_bad_perturbation(self):
        with pytest.raises(SchemaError):
            scenario_from_dict(minimal_scenario(
                perturbation={"kind": "takahashi", "lam": 1.5}))

    @pytest.mark.parametrize("overrides", [{"tol": True}, {"x0_list": [True]}])
    def test_rejects_bools_as_numbers(self, overrides):
        with pytest.raises(SchemaError):
            scenario_from_dict(minimal_scenario(**overrides))

    def test_bad_harness(self):
        with pytest.raises(SchemaError, match="harness"):
            scenario_from_dict(minimal_scenario(
                analyses=["certify", "stability"],
                stability_options={"harnesses": ["wobble"]}))


class TestSqrtScenario:
    def test_shape(self, sqrt_report):
        rep = sqrt_report
        assert rep.all_ok
        assert rep.fixed_points["T"]["strict"] == rep.fixed_points["TG"]["strict"]
        assert abs(rep.fixed_points["T"]["strict"][0] - 1.0) < 1e-9

    def test_certificates(self, sqrt_report):
        cert_t = sqrt_report.certificates["T"]
        assert cert_t["feasible"] is False
        assert abs(cert_t["witness"]["x"] - 0.25) <= 1e-3
        assert abs(cert_t["witness"]["y"] - 1.0) <= 1e-3
        assert cert_t["witness"]["bound"] >= 4.0 / 3.0 - 1e-9
        cert_g = sqrt_report.certificates["TG"]
        assert cert_g["feasible"] is True
        assert cert_g["margin"] >= 0.0

    def test_constants(self, sqrt_report):
        consts = sqrt_report.constants
        assert abs(consts["L"] - 0.25) <= 1e-12
        assert abs(consts["l"] - 16.0 / 9.0) <= 1e-9
        assert consts["valid_l"] is False
        assert 0.0 < consts["k"] < 1.0
        assert consts["ulam_hyers_c"] >= 2.0 - 1e-9

    def test_stability_verdicts(self, sqrt_report):
        by_prop = {r["property"]: r for r in sqrt_report.stability}
        assert set(by_prop) == {
            "DataDependence", "PsiMPDataDependence", "UlamHyers", "WellPosed",
            "Ostrowski", "QuasiContraction", "WeakQuasiContraction"}
        for prop in ("DataDependence", "PsiMPDataDependence", "UlamHyers",
                     "WellPosed", "Ostrowski", "WeakQuasiContraction"):
            assert by_prop[prop]["applicable"] and by_prop[prop]["holds"], prop
        # the comparison constant 16/9 exceeds 1: strong variant not applicable
        assert not by_prop["QuasiContraction"]["applicable"]

    def test_orbits(self, sqrt_report):
        assert len(sqrt_report.orbits) == 4  # two starts, T and TG each
        assert all(o["converged"] for o in sqrt_report.orbits)

    def test_orbits_from_the_strict_fixed_point(self):
        # S_1 = {x*} = S_0: two steps, and no rate without three positive
        # distances to x*
        raw = dict(load_scenario("sqrt_takahashi_34").raw, x0_list=[1.0], analyses=["iterate"])
        orbits = run_scenario(scenario_from_dict(raw)).orbits
        assert [(o["operator"], o["steps"], o["converged"], o["limit_estimate"], o["rate"])
                for o in orbits] == [("T", 2, True, 1.0, None), ("TG", 2, True, 1.0, None)]


class TestSquareScenario:
    def test_certificates_infeasible(self, square_report):
        assert square_report.certificates["T"]["feasible"] is False
        assert square_report.certificates["TG"]["feasible"] is False

    def test_constants(self, square_report):
        consts = square_report.constants
        assert abs(consts["L"] - 0.5) <= 1e-12
        assert abs(consts["l"] - 16.0 / 17.0) <= 1e-9
        assert consts["valid_l"] is True
        assert consts["k"] is None

    def test_stability_all_not_applicable(self, square_report):
        assert square_report.stability
        for rep in square_report.stability:
            assert not rep["applicable"]
            assert "certificate" in rep["details"]["reason"]
        assert square_report.all_ok  # not-applicable does not fail the run

    def test_fixed_points(self, square_report):
        assert abs(square_report.fixed_points["T"]["strict"][0]) < 1e-9


class TestIntervalFixedSet:
    """T(x) = [0, 1] on [0, 1]: Fix(T) is the whole domain and SFix(T) is empty."""

    @pytest.fixture(scope="class")
    def report(self):
        term = {"kind": "const", "value": 0.0}
        unit = {"domain": [0.0, 1.0], "pieces": [
            {"sub": [0.0, 1.0], "lower": term, "upper": {"kind": "const", "value": 1.0}}]}
        return run_scenario(scenario_from_dict(minimal_scenario(
            operator=unit, analyses=["certify", "stability"], grid_n=21, scan_grid_n=101),
            name="unit_valued"))

    def test_fixed_set_is_one_part(self, report):
        written = json.loads(emit_report(report)["report.json"])
        assert written["fixed_points"]["T"] == {"fixed": [[0.0, 1.0]], "strict": []}
        assert written["fixed_points"]["TG"] == {"fixed": [[0.0, 1.0]], "strict": []}

    def test_harnesses_name_the_missing_strict_point(self, report):
        assert report.certificates["TG"]["feasible"] is True
        assert report.stability
        for rep in report.stability:
            assert not rep["applicable"]
            assert rep["details"]["reason"] == "no unique strict fixed point located"


def test_strict_point_that_the_perturbation_widens_gets_no_l():
    """T(x) = m(x) +- 7e-10, with m of slope -0.5 on [0.4, 0.6] and 1/8
    outside, through m(0.5) = 0.5: Fix(T) is 9.3e-10 wide, narrower than
    STRICT_TOL, so it is reported as its midpoint 0.5, where H(T(0.5), {0.5})
    = 7e-10.  G(x, y) = -0.5x + 1.5y keeps T_G a self-map of [0, 1] but scales
    that distance by b = 1.5 to 1.05e-9, so 0.5 is no strict fixed point of
    T_G, and l (whose ratio needs one) is null."""
    def band(a: float, b: float) -> dict:
        return {"lower": {"kind": "affine", "a": a, "b": b - 7e-10},
                "upper": {"kind": "affine", "a": a, "b": b + 7e-10}}
    op = {"domain": [0.0, 1.0], "pieces": [
        {"sub": [0.0, 0.4], **band(0.125, 0.5)}, {"sub": [0.4, 0.6], **band(-0.5, 0.75)},
        {"sub": [0.6, 1.0], **band(0.125, 0.375)}]}
    report = run_scenario(scenario_from_dict(minimal_scenario(
        operator=op, perturbation={"kind": "general", "a": -0.5, "b": 1.5}, scan_grid_n=1001)))
    assert report.fixed_points == {"T": {"fixed": [0.5], "strict": [0.5]},
                                   "TG": {"fixed": [0.5], "strict": []}}
    assert report.constants["l"] is None and report.constants["valid_l"] is False
    assert report.constants["l_skipped"] == 0


@pytest.mark.parametrize("variant, params", [
    ("combined", {"alpha": 0.71875, "beta": 0.0, "gamma": 0.1125}),
    ("ciric_reich_rus", {"alpha": 0.875, "beta": 0.0, "gamma": 0.0}),
])
def test_variant_without_derived_constants_gets_no_verdict(variant, params, tmp_path):
    """The harness constants are derived for ciric only: another variant's
    certificate is reported, and every harness is not applicable."""
    raw = dict(load_scenario("sqrt_takahashi_34").raw, variant=variant)
    spath = tmp_path / f"sqrt_{variant}.json"
    spath.write_text(json.dumps(raw))
    out = tmp_path / "report.json"
    assert cli_main(["run", str(spath), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["certificates"]["TG"]["feasible"] is True
    assert report["constants"]["params_TG"] == {**params, "variant": variant}
    assert report["constants"]["ulam_hyers_c"] is None
    assert report["constants"]["xi"] is None
    assert [rep["property"] for rep in report["stability"]] == [
        h.property for h in _HARNESS_TABLE.values()]
    for rep in report["stability"]:
        assert rep["applicable"] is False
        assert rep["details"]["reason"] == ("the stability constants are derived for the ciric "
                                            f"condition, not for variant {variant!r}")


def test_one_xi_check_per_operator(monkeypatch):
    # run_scenario checks xi on T once and hands the result to data dependence;
    # the automatic psi of psi-MP checks T_G at L = 1.  Every binding is wrapped.
    check, calls = setfix.certify.retraction_displacement_check, []

    def counted(t, params, L, xstar, grid_n):
        calls.append((t.name, L, xstar, grid_n))
        return check(t, params, L, xstar, grid_n)

    for module in (setfix, setfix.certify, setfix.scenario, setfix.stability):
        if getattr(module, "retraction_displacement_check", None) is check:
            monkeypatch.setattr(module, "retraction_displacement_check", counted)
    run_scenario("sqrt_takahashi_34")
    assert calls == [("sqrt_example", 0.250000000000074, 1.0, 501),
                     ("sqrt_example|takahashi(0.75)", 1.0, 1.0, 501)]


class TestDeterminismAndRoundTrip:
    def test_byte_identical_reports(self, sqrt_report):
        again = run_scenario("sqrt_takahashi_34")
        a = emit_report(sqrt_report)["report.json"]
        b = emit_report(again)["report.json"]
        assert a == b

    def test_json_round_trip_bit_exact(self, sqrt_report):
        text = emit_report(sqrt_report)["report.json"]
        clone = RunReport.from_dict(json.loads(text))
        assert clone.to_dict() == sqrt_report.to_dict()

    def test_timing_not_serialized(self, sqrt_report):
        assert sqrt_report.timing  # collected in memory
        assert "timing" not in json.loads(emit_report(sqrt_report)["report.json"])

    def test_csv_emission(self, sqrt_report):
        files = emit_report(sqrt_report, "csv")
        assert "verdicts.csv" in files and "orbits_summary.csv" in files
        verdicts = files["verdicts.csv"].strip().splitlines()
        assert len(verdicts) == 1 + len(sqrt_report.stability)
        orbit_files = [n for n in files if n.startswith("orbit_")]
        assert len(orbit_files) == len(sqrt_report.orbits)

    @pytest.mark.parametrize("name", builtin_scenario_names())
    def test_orbit_csv_matches_orbit_to_csv(self, name):
        scenario = load_scenario(name)
        raw = dict(scenario.raw, analyses=["iterate"])
        report = run_scenario(scenario_from_dict(raw, name=name))
        files = emit_report(report, "csv")
        xstar = report.fixed_points["T"]["strict"][0]
        t = scenario.resolve_operator()
        ops = {"T": t, "TG": setfix.perturb(t, scenario.resolve_perturbation())}
        for i, orbit in enumerate(report.orbits):
            trace = setfix.picard_orbit(ops[orbit["operator"]], orbit["x0"], max_n=10_000,
                                        tol=scenario.tol, target=xstar)
            csv_text = files[f"orbit_{i}_{orbit['operator']}.csv"]
            assert csv_text == setfix.orbit_to_csv(trace)

    def test_csv_header_only_without_orbits(self):
        rep = run_scenario(scenario_from_dict(minimal_scenario()))
        files = emit_report(rep, "csv")
        assert files["orbits_summary.csv"].strip().splitlines() == [
            "operator,x0,steps,converged,final_h_to_prev,final_h_to_target,rate"]

    def test_csv_cells(self):
        # a string as is, None empty, anything else its repr; no quoting
        step = {"n": 0, "parts": [[0.5, 0.5]], "h_to_prev": 0.0, "h_to_target": None}
        orbit = {"operator": "TG", "x0": 0.5, "steps": 1, "converged": False,
                 "limit_estimate": None, "final_h_to_prev": 0.1, "final_h_to_target": None,
                 "rate": None, "trace": [step]}
        verdict = {"property": "UlamHyers", "holds": True, "applicable": True,
                   "constant": 2.0, "samples": 10, "worst_ratio": 0.5, "details": {}}
        files = emit_report(RunReport({}, {}, {}, {}, [orbit], [verdict]), "csv")
        assert files["verdicts.csv"] == ("property,holds,applicable,constant,samples,"
                                         "worst_ratio\nUlamHyers,True,True,2.0,10,0.5\n")
        assert files["orbits_summary.csv"] == (
            "operator,x0,steps,converged,final_h_to_prev,final_h_to_target,rate\n"
            "TG,0.5,1,False,0.1,,\n")

    @pytest.mark.parametrize("steps", [
        _STEP_ROWS[:1], _STEP_ROWS[1:2], _STEP_ROWS[2:3], _STEP_ROWS, _STEP_ROWS[::-1]])
    def test_orbit_csv_matches_the_csv_writer(self, steps):
        assert steps_to_csv(steps) == csv_writer_steps(steps)

    @pytest.mark.parametrize("name", builtin_scenario_names())
    def test_packaged_report_equals_the_golden_copy(self, name):
        # the golden copies pin every report byte; they are only read here
        assert emit_report(run_scenario(name))["report.json"] == \
            (GOLDEN / f"{name}.json").read_text()

    @pytest.mark.parametrize("name", builtin_scenario_names())
    def test_golden_orbit_files_match_the_csv_writer(self, name):
        report = RunReport.from_dict(json.loads((GOLDEN / f"{name}.json").read_text()))
        files = emit_report(report, "csv")
        assert report.orbits
        for i, orbit in enumerate(report.orbits):
            assert files[f"orbit_{i}_{orbit['operator']}.csv"] == csv_writer_steps(orbit["trace"])

    def test_json_text(self):
        assert json_text({"b": None, "a": [1.5, True]}) == (
            '{\n  "a": [\n    1.5,\n    true\n  ],\n  "b": null\n}\n')

    def test_orbit_rows_extend_the_iterate_row(self, sqrt_report, capsys):
        scenario = load_scenario("sqrt_takahashi_34")
        t = scenario.resolve_operator()
        ops = {"T": t, "TG": setfix.perturb(t, scenario.resolve_perturbation())}
        for orbit in sqrt_report.orbits:
            trace = setfix.picard_orbit(ops[orbit["operator"]], orbit["x0"], max_n=10_000,
                                        tol=scenario.tol, target=1.0)
            row = orbit_summary(orbit["x0"], trace)
            assert {k: orbit[k] for k in row} == row
            assert set(orbit) - set(row) == {"operator", "rate", "trace"}
        assert cli_main(["iterate", "sqrt_example", "--x0", "4.0", "--x0", "0.3",
                         "--target", "1.0"]) == 0
        rows = [orbit_summary(x0, setfix.picard_orbit(t, x0, target=1.0)) for x0 in (4.0, 0.3)]
        assert capsys.readouterr().out == json_text({"orbits": rows})

    def test_write_report(self, sqrt_report, tmp_path):
        out = tmp_path / "rep.json"
        written = write_report(sqrt_report, out, "json")
        assert written == [out]
        assert json.loads(out.read_text())["scenario"]["name"] == "sqrt_takahashi_34"
        csv_written = write_report(sqrt_report, tmp_path / "csvdir", "csv")
        assert any(p.name == "verdicts.csv" for p in csv_written)


class TestCli:
    def test_run_builtin(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli_main(["run", "sqrt_takahashi_34", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["certificates"]["TG"]["feasible"]

    def test_run_scenario_file(self, tmp_path):
        spath = tmp_path / "tiny.json"
        spath.write_text(json.dumps(minimal_scenario()))
        out = tmp_path / "tiny_report.json"
        assert cli_main(["run", str(spath), "--out", str(out)]) == 0
        assert out.exists()

    def test_certify_subcommand(self, tmp_path, capsys):
        code = cli_main(["certify", "sqrt_example", "--grid", "101"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is False
        assert abs(payload["witness"]["bound"] - 4.0 / 3.0) <= 1e-9

    def test_iterate_subcommand(self, capsys):
        code = cli_main(["iterate", "sqrt_example", "--x0", "4.0",
                         "--target", "1.0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["orbits"][0]["converged"] is True

    def test_iterate_csv(self, tmp_path):
        code = cli_main(["iterate", "sqrt_example", "--x0", "2.0", "--format",
                         "csv", "--out", str(tmp_path / "orbits")])
        assert code == 0
        files = list((tmp_path / "orbits").glob("*.csv"))
        assert len(files) == 1
        assert files[0].read_text().startswith("n,part0_lo,part0_hi")

    def test_iterate_csv_names_each_start_by_position(self, tmp_path, capsys):
        # the two starts print alike under %g and are the same start twice
        out = tmp_path / "orbits"
        x0s = ["0.3", "0.3000001", "0.3"]
        argv = ["iterate", "sqrt_example", "--format", "csv", "--out", str(out)]
        assert cli_main(argv + [a for x0 in x0s for a in ("--x0", x0)]) == 0
        assert "wrote 3 orbit files" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["orbit_0.csv", "orbit_1.csv",
                                                          "orbit_2.csv"]
        for i, x0 in enumerate(x0s):
            row = (out / f"orbit_{i}.csv").read_text().splitlines()[1].split(",")
            assert row[:3] == ["0", repr(float(x0)), repr(float(x0))]

    @pytest.mark.parametrize("target", ["nan", "inf"])
    def test_iterate_non_finite_target_exits_2(self, target, capsys):
        assert cli_main(["iterate", "sqrt_example", "--x0", "4.0", "--target", target]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "ParameterRangeError" in err and "finite target" in err

    def test_certify_nan_margin_requirement_exits_2(self, capsys):
        argv = ["certify", "sqrt_example", "--perturb-lam", "0.75", "--grid", "51"]
        assert cli_main(argv + ["--margin-req", "nan"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "ParameterRangeError" in err and "margin_req" in err
        assert cli_main(argv + ["--margin-req", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["feasible"] is True

    def test_stability_subcommand(self, tmp_path, capsys):
        code = cli_main(["stability", "sqrt_example", "--perturb-lam", "0.75",
                         "--harness", "ulam_hyers", "--grid", "201"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stability"][0]["property"] == "UlamHyers"
        assert payload["stability"][0]["holds"] is True

    @pytest.mark.parametrize("argv", [
        ["certify", "sqrt_example", "--format", "csv"],
        ["certify", "sqrt_example", "--tol", "1e-6"],
        ["stability", "sqrt_example", "--perturb-lam", "0.75", "--format", "csv"],
        ["iterate", "sqrt_example", "--x0", "2.0", "--grid", "11"],
    ])
    def test_unread_option_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bad_input_exit_code(self, capsys):
        assert cli_main(["iterate", "sqrt_example", "--x0", "99"]) == 2
        assert "OutOfDomain" in capsys.readouterr().err

    def test_failing_verdict_gives_nonzero_exit(self, tmp_path):
        # T(x) = {1 - x} oscillates: its orbit stalls and the run must fail
        reflection = {
            "domain": [0.0, 1.0],
            "pieces": [{"sub": [0.0, 1.0],
                        "lower": {"kind": "affine", "a": -1.0, "b": 1.0},
                        "upper": {"kind": "affine", "a": -1.0, "b": 1.0}}],
        }
        spath = tmp_path / "reflect.json"
        spath.write_text(json.dumps(minimal_scenario(
            operator=reflection, analyses=["iterate"], x0_list=[0.3])))
        out = tmp_path / "reflect_report.json"
        assert cli_main(["run", str(spath), "--out", str(out)]) == 1
        payload = json.loads(out.read_text())
        assert any(not o["converged"] for o in payload["orbits"])

    def test_non_self_map_perturbation_exits_2(self, tmp_path, capsys):
        # the perturbation passes the axiom check, but T_G leaves X
        raw = dict(load_scenario("sqrt_takahashi_34").raw,
                   perturbation={"kind": "general", "a": -0.5, "b": 1.5})
        spath = tmp_path / "escape.json"
        spath.write_text(json.dumps(raw))
        out = tmp_path / "escape_report.json"
        assert cli_main(["run", str(spath), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: NotSelfMapError: perturbation")
        assert "'a': -0.5, 'b': 1.5" in err[0] and not out.exists()

    def test_unknown_scenario_exit_code(self, capsys):
        assert cli_main(["run", "definitely_missing"]) == 2

    def test_nan_coefficient_operator_file_exits_2(self, tmp_path, capsys):
        op = setfix.sqrt_example().to_json()
        op["pieces"][1]["upper"]["coeff"] = float("nan")
        op_path = tmp_path / "nan_op.json"
        op_path.write_text(json.dumps(op))  # writes the bare token NaN
        assert cli_main(["certify", str(op_path), "--grid", "51"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "SchemaError" in err and "'coeff'" in err

    def test_non_string_output_path_exits_2(self, tmp_path, capsys):
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps(minimal_scenario(output={"path": 5})))
        assert cli_main(["run", str(spath)]) == 2
        assert "'path'" in capsys.readouterr().err

    def test_operator_json_file(self, tmp_path, capsys):
        op_path = tmp_path / "op.json"
        op_path.write_text(json.dumps(setfix.sqrt_example().to_json()))
        assert cli_main(["certify", str(op_path), "--grid", "51"]) == 0
        assert json.loads(capsys.readouterr().out)["feasible"] is False

    @pytest.mark.parametrize("args", [
        ["certify", "{op}", "--grid", "51"],
        ["iterate", "{op}", "--x0", "1.0"],
        ["stability", "{op}", "--perturb-lam", "0.75"],
    ])
    @pytest.mark.parametrize("text", ["{bad", b"\xff\xfe"])
    def test_malformed_operator_file_exits_2(self, args, text, tmp_path, capsys):
        op_path = tmp_path / "bad_op.json"
        if isinstance(text, bytes):
            op_path.write_bytes(text)
        else:
            op_path.write_text(text)
        assert cli_main([a.format(op=op_path) for a in args]) == 2
        err = capsys.readouterr().err
        assert "SchemaError" in err and "bad_op.json" in err

    @pytest.mark.parametrize("text", [b"{bad", b"\xff\xfe{"])
    def test_malformed_scenario_file_exits_2(self, text, tmp_path, capsys):
        spath = tmp_path / "bad.json"
        spath.write_bytes(text)
        assert cli_main(["run", str(spath), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "SchemaError" in err and "bad.json" in err
        assert not (tmp_path / "r.json").exists()


def packaged_with_options(**blocks) -> dict:
    """sqrt_takahashi_34's JSON with some 'stability_options' blocks replaced."""
    raw = dict(load_scenario("sqrt_takahashi_34").raw)
    raw["stability_options"] = dict(raw["stability_options"], **blocks)
    return raw


class TestStabilityOptions:
    @pytest.mark.parametrize("blocks", [
        {"ulam_hyer": {}},                                    # names no harness
        {"ulam_hyers": {"samples_per_esp": 10}},              # a key it does not take
        {"quasi_contraction": {"x": 1}},
        {"ostrowski": [0.1]},
        {"ulam_hyers": {"eps_list": "abc"}},                  # wrong JSON types
        {"ulam_hyers": {"eps_list": [0.1, True]}},
        {"ulam_hyers": {"samples_per_eps": 2.0}},
        {"well_posed": {"r0": True}},
        {"well_posed": {"n_max": "60"}},
        {"ostrowski": {"x0": "4"}},
        {"data_dependence": {"f": "other"}},
        {"psi_mp_data_dependence": {"psi": "manual"}},
        {"psi_mp_data_dependence": {"psi": {"kind": "cubic", "C": 1.0}}},
        {"psi_mp_data_dependence": {"psi": {"kind": "linear"}}},
        {"psi_mp_data_dependence": {"psi": {"kind": "power", "C": 1.0, "p": "x"}}},
        {"psi_mp_data_dependence": {"psi": {"kind": "linear", "C": -1.0}}},
        {"well_posed": {"r0": -0.1}},                         # outside its range
        {"well_posed": {"rho": -0.8}},
        {"ostrowski": {"delta0": -0.1}},
        {"ostrowski": {"x0": 9.0}},
        {"ulam_hyers": {"eps_list": []}},
        {"ulam_hyers": {"eps_list": [0.1, -0.1]}},
        {"ulam_hyers": {"eps_list": [0.0]}},
        {"ulam_hyers": {"samples_per_eps": 0}},
        {"well_posed": {"n_max": 0}},
        {"ostrowski": {"n_max": 0}},
        {"ostrowski": {"final_tol": 0.0}},
    ])
    def test_malformed_option_fails_at_load(self, blocks):
        with pytest.raises(SchemaError):
            scenario_from_dict(packaged_with_options(**blocks))

    @pytest.mark.parametrize("blocks", [
        {"ostrowski": {"x0": 4}},
        {"data_dependence": {"f": "self"}},
        {"psi_mp_data_dependence": {"psi": {"kind": "power", "C": 4.0, "p": 0.5}}},
        {"well_posed": {"r0": 0, "rho": 1}},
    ])
    def test_wellformed_option_loads(self, blocks):
        scenario_from_dict(packaged_with_options(**blocks))

    @pytest.mark.parametrize("psi", [
        {"kind": "linear", "C": True},
        {"kind": "power", "C": 4.0, "p": False},
        {"kind": "linear", "C": "2"},
    ])
    def test_comparison_function_needs_json_numbers(self, psi):
        with pytest.raises(SchemaError):
            scenario_from_dict(packaged_with_options(psi_mp_data_dependence={"psi": psi}))

    def test_explicit_psi(self):
        # Psi(t) = 8.5t satisfies the psi-MP premise on sqrt|0.75; 3t does not
        def report(C: float) -> dict:
            raw = packaged_with_options(
                harnesses=["psi_mp_data_dependence"],
                psi_mp_data_dependence={"psi": {"kind": "linear", "C": C}})
            (rep,) = run_scenario(scenario_from_dict(raw)).stability
            return rep
        holds = report(8.5)
        assert (holds["applicable"], holds["holds"]) == (True, True)
        assert holds["worst_ratio"] == 0.93942162954016
        assert holds["details"]["psi"] == {"kind": "linear", "C": 8.5}
        fails = report(3.0)
        assert fails["applicable"] is False
        assert fails["details"]["reason"].startswith(
            "HypothesisFailedError: psi-MP premise |x-x*| <= Psi(D(x,T_G(x))) "
            "fails at x=1.0074999999999998")

    def test_well_posedness_below_float_resolution_is_not_applicable(self, tmp_path):
        # at rho = 0.5 the requested displacement r_n falls below the float
        # resolution at x* = 1 before n_max, and no point realizes it
        spath = tmp_path / "rho.json"
        spath.write_text(json.dumps(packaged_with_options(
            well_posed={"r0": 0.1, "rho": 0.5, "n_max": 60})))
        out = tmp_path / "rho_report.json"
        assert cli_main(["run", str(spath), "--out", str(out)]) == 0
        reports = {rep["property"]: rep for rep in json.loads(out.read_text())["stability"]}
        assert list(reports) == [_HARNESS_TABLE[key].property for key in HARNESSES]
        well_posed = reports.pop("WellPosed")
        assert well_posed["applicable"] is False
        assert well_posed["details"]["reason"].startswith("ConstructionFailedError: ")
        assert all(rep["holds"] or not rep["applicable"] for rep in reports.values())

    @pytest.mark.parametrize("key, block", [
        ("well_posed", {"r0": 0.1, "rho": 1.0}),
        ("ostrowski", {"delta0": 0.1, "rho": 1.0}),
    ])
    def test_non_decaying_driver_sequence_is_not_applicable(self, key, block):
        # the harness raises the violated premise, and the run reports it
        report = run_scenario(scenario_from_dict(packaged_with_options(**{key: block})))
        assert report.all_ok
        prop = _HARNESS_TABLE[key].property
        rows = {rep["property"]: rep for rep in json.loads(json_text(report.stability))}
        row = rows.pop(prop)
        assert (row["applicable"], row["holds"]) == (False, False)
        assert row["details"]["reason"].startswith("HypothesisFailedError: ")
        golden = json.loads((GOLDEN / "sqrt_takahashi_34.json").read_text())["stability"]
        assert rows == {rep["property"]: rep for rep in golden if rep["property"] != prop}

    def test_cli_exits_2_on_malformed_option(self, tmp_path, capsys):
        spath = tmp_path / "bad.json"
        spath.write_text(json.dumps(packaged_with_options(ulam_hyers={"eps_list": "abc"})))
        assert cli_main(["run", str(spath), "--out", str(tmp_path / "r.json")]) == 2
        assert "SchemaError" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("argv", [
        ["iterate", "sqrt_example", "--x0", "4", "--tol", "0"],
        ["certify", "sqrt_example", "--grid", "0"],
        ["run", "sqrt_takahashi_34", "--tol", "0"],
    ])
    def test_cli_passes_zero_on(self, argv):
        assert cli_main(argv) == 2

    @pytest.mark.parametrize("fixture, applicable", [
        ("sqrt_report", True), ("square_report", False)])
    def test_table_property_is_the_report_property(self, fixture, applicable, request):
        report = request.getfixturevalue(fixture)
        assert [_HARNESS_TABLE[key].property for key in HARNESSES] == [
            rep["property"] for rep in report.stability]
        assert any(rep["applicable"] for rep in report.stability) == applicable
