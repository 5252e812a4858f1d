import json
import math
import os
import signal
import stat
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import polycam
from polycam.cli import _classify, build_parser, main, run_scenario
from polycam.errors import PolycamError
from polycam.scenarios import generate_synthetic_suite, scenario_to_json

BAND = ("--poc-min", "1.5e-6", "--poc-max", "5e-6")
DOCUMENTED_CLASSES = {"parse": 2, "validation": 3, "non-convergence": 4,
                      "infeasible-with-bound": 5}


def run_cli(args):
    return main(list(args))


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenarios")
    docs = generate_synthetic_suite(seed=11, count=1, regime="LEO",
                                    poc_band=(1.5e-6, 5e-6))
    path = root / "case.json"
    path.write_text(scenario_to_json(docs[0]))
    return path


@pytest.fixture(scope="module")
def leo_0005(tmp_path_factory):
    """Scenario leo-0005-000, as ``polycam generate --seed 5 --count 1``
    writes it."""
    path = tmp_path_factory.mktemp("leo-0005") / "leo-0005-000.json"
    path.write_text(scenario_to_json(generate_synthetic_suite(5, 1)[0]) + "\n")
    return path


class TestGenerateCommand:
    def test_deterministic_files(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        assert run_cli(["generate", "--seed", "5", "--count", "2",
                        "--regime", "LEO", "--out-dir", str(a_dir)]) == 0
        assert run_cli(["generate", "--seed", "5", "--count", "2",
                        "--regime", "LEO", "--out-dir", str(b_dir)]) == 0
        for name in ("leo-0005-000.json", "leo-0005-001.json"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_out_dir_on_a_file_exit_2(self, tmp_path, capsys):
        blocker = tmp_path / "F"
        blocker.write_text("")
        code = run_cli(["generate", "--seed", "5", "--count", "1",
                        "--out-dir", str(blocker)])
        out, err = capsys.readouterr()
        assert code == 2 and err == ""
        payload = json.loads(out)
        assert payload["error"]["class"] == "parse"
        assert str(blocker) in payload["error"]["message"]

    def test_negative_seed_exit_3(self, tmp_path, capsys):
        out_dir = tmp_path / "cases"
        code = run_cli(["generate", "--seed", "-1", "--count", "1",
                        "--out-dir", str(out_dir)])
        out, err = capsys.readouterr()
        assert code == 3 and err == ""
        payload = json.loads(out)
        assert payload["error"]["class"] == "validation"
        assert "seed" in payload["error"]["message"]
        assert not out_dir.exists()

    def test_fifo_at_a_scenario_path_exit_2(self, tmp_path, capsys):
        # writing would replace the FIFO with a regular file
        fifo = tmp_path / "leo-0007-000.json"
        os.mkfifo(fifo)
        code = run_cli(["generate", "--seed", "7", "--count", "2",
                        "--out-dir", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 2 and err == ""
        assert json.loads(out)["error"] == {
            "class": "parse",
            "message": f"{fifo} exists and is not a regular file"}
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        # refused before any scenario was written
        assert os.listdir(tmp_path) == [fifo.name]


class TestRunCommand:
    def test_successful_run_writes_result(self, scenario_file, tmp_path):
        out = tmp_path / "result.json"
        csv = tmp_path / "bplane.csv"
        code = run_cli(["run", str(scenario_file), "--out", str(out),
                        "--bplane-csv", str(csv)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["status"] == "ok"
        assert result["validation"]["poc_log_error"] <= 0.1
        assert result["validation"]["chan_quadrature_agree"] is True
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "xi_km,zeta_km,label"
        assert lines[1].endswith("ballistic")
        assert lines[2].endswith("maneuver")

    def test_result_json_round_trip(self, scenario_file, tmp_path):
        out = tmp_path / "result.json"
        run_cli(["run", str(scenario_file), "--out", str(out)])
        first = json.loads(out.read_text())
        # floats survive the round trip exactly (repr-based serialization)
        again = json.loads(json.dumps(first))
        assert again["validation"]["validated_poc"] == \
            first["validation"]["validated_poc"]

    def test_result_revalidates_to_same_probability(self, scenario_file,
                                                    tmp_path):
        from polycam.mapbuilder import ControlSchedule, IMPULSIVE, start_state
        from polycam.scenarios import parse_scenario
        from polycam.validate import validate_solution

        out = tmp_path / "result.json"
        run_cli(["run", str(scenario_file), "--out", str(out)])
        result = json.loads(out.read_text())
        event, _ = parse_scenario(json.loads(scenario_file.read_text()))
        schedule = ControlSchedule(mode=IMPULSIVE,
                                   node_epochs=tuple(result["node_epochs_s"]))
        # the run's start: its back-propagation without a step count
        start = start_state(event, schedule)
        report = validate_solution(event, schedule,
                                   np.array(result["solution"]["phi"]),
                                   result["target_poc"], start)
        recomputed = report.validated_poc
        stored = result["validation"]["validated_poc"]
        assert abs(recomputed - stored) / stored <= 1e-12

    def test_deterministic_modulo_wall_time(self, scenario_file, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        run_cli(["run", str(scenario_file), "--out", str(out_a)])
        run_cli(["run", str(scenario_file), "--out", str(out_b)])
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        for doc in (a, b):
            doc.pop("wall_time_s")
            doc["solution"].pop("solve_wall_time_s")
        assert a == b

    def test_safe_scenario_zero_dv(self, scenario_file, tmp_path):
        out = tmp_path / "safe.json"
        code = run_cli(["run", str(scenario_file), "--target-poc", "1e-2",
                        "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["solution"]["dv_total_ms"] == 0.0

    def test_malformed_covariance_exit_3(self, scenario_file, tmp_path,
                                         capsys):
        doc = json.loads(scenario_file.read_text())
        doc["conjunction"]["cov_secondary_km2"][0][0] = -1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "never.json"
        code = run_cli(["run", str(bad), "--out", str(out)])
        assert code == 3
        assert not out.exists()
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["class"] == "validation"

    def test_unparseable_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code = run_cli(["run", str(bad)])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["class"] == "parse"

    @pytest.mark.parametrize("key, value", [("order", "abc"), ("steps", [3]),
                                            ("target_poc", "y"), ("nodes", 5),
                                            ("nodes", None),
                                            ("filter_grid", 3),
                                            ("dynamics", ["j2"]),
                                            ("target_poc", None),
                                            ("etol", None), ("max_iter", None),
                                            ("steps", None), ("umax", None),
                                            ("filter_keep", None),
                                            ("order", 2.7), ("order", True),
                                            ("steps", 99.9),
                                            ("target", 1e-9)])
    def test_malformed_default_exit_2(self, scenario_file, tmp_path, capsys,
                                      key, value):
        doc = json.loads(scenario_file.read_text())
        doc.setdefault("defaults", {})[key] = value
        bad = tmp_path / "bad-default.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["run", str(bad)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "error"
        assert payload["error"]["class"] == "parse"
        assert key in payload["error"]["message"]

    @pytest.mark.parametrize("key, value", [("order", 1e308), ("order", 11),
                                            ("steps", 1e308),
                                            ("max_iter", 1e308)],
                             ids=["order-huge", "order-11", "steps-huge",
                                  "max_iter-huge"])
    def test_out_of_range_default_exit_3_at_once(self, scenario_file,
                                                 tmp_path, capsys, key,
                                                 value):
        # an integral but huge value converts; unchecked, it would reach
        # the table build or the integrator and the run would not end
        doc = json.loads(scenario_file.read_text())
        doc.setdefault("defaults", {})[key] = value
        bad = tmp_path / "out-of-range.json"
        bad.write_text(json.dumps(doc))

        class Overdue(BaseException):
            pass

        def overdue(signum, frame):
            raise Overdue

        previous = signal.signal(signal.SIGALRM, overdue)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            code = run_cli(["run", str(bad)])
        except Overdue:
            pytest.fail(f"{key} = {value!r} ran for more than a second")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["class"] == "validation"

    @pytest.mark.parametrize("key, value, code, message", [
        ("nodes", ["nan"], 2, "non-finite node"),
        ("nodes", ["inf"], 2, "non-finite node"),
        ("nodes", ["nanorb"], 2, "non-finite node"),
        ("filter_grid", ["nan", "0.5orb"], 2, "non-finite node"),
        ("fixed_dir", "nan,1,0", 2, "non-finite fixed direction"),
        ("umax", "nan", 3, "u_max must be positive"),
        ("etol", "nan", 3, "e_tol must be positive and finite"),
        ("etol", "inf", 3, "e_tol must be positive and finite")],
        ids=["nodes-nan", "nodes-inf", "nodes-nanorb", "filter_grid-nan",
             "fixed_dir-nan", "umax-nan", "etol-nan", "etol-inf"])
    def test_non_finite_default_rejected(self, scenario_file, tmp_path, capsys,
                                         key, value, code, message):
        doc = json.loads(scenario_file.read_text())
        doc.setdefault("defaults", {})[key] = value
        bad = tmp_path / "non-finite.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["run", str(bad), "--order", "2"]) == code
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["class"] == \
            ("parse" if code == 2 else "validation")
        assert message in payload["error"]["message"]

    @pytest.mark.parametrize("body, key, value", [
        ("primary", "r_km", ["a", "b", "c"]),
        ("primary", "r_km", [1.0, 2.0, [3.0]]),
        ("secondary", "v_kms", ["a", "b", "c"]),
        ("secondary", "v_kms", [1.0, 2.0, [3.0]])],
        ids=["r-words", "r-ragged", "v-words", "v-ragged"])
    def test_malformed_state_vector_exit_2(self, scenario_file, tmp_path,
                                           capsys, body, key, value):
        doc = json.loads(scenario_file.read_text())
        doc["conjunction"][body][key] = value
        bad = tmp_path / "bad-state.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["run", str(bad)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["class"] == "parse"
        assert f"{body}.{key}" in payload["error"]["message"]

    @pytest.mark.parametrize("frame, code, message", [
        (["ECI"], 2, "'frame'"),
        ("XYZ", 3, "XYZ"),
        ("SYNODIC", 3, "do not match")],
        ids=["not-a-string", "unknown", "not-the-dynamics-frame"])
    def test_conjunction_frame_checked(self, scenario_file, tmp_path, capsys,
                                       frame, code, message):
        doc = json.loads(scenario_file.read_text())
        doc["conjunction"]["frame"] = frame
        bad = tmp_path / "bad-frame.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["run", str(bad), "--order", "2"]) == code
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["class"] == \
            ("parse" if code == 2 else "validation")
        assert message in payload["error"]["message"]

    def test_primary_at_the_origin_exit_3(self, tmp_path, capsys):
        doc = generate_synthetic_suite(3, 1, "LEO", poc_band=(1.5e-6, 4e-6))[0]
        for body in ("primary", "secondary"):
            doc["conjunction"][body]["r_km"] = [0.0, 0.0, 0.0]
        bad = tmp_path / "origin.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["run", str(bad), "--order", "2"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["class"] == "validation"
        assert "center of attraction" in payload["error"]["message"]

    @pytest.mark.parametrize("hbr", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_non_finite_hbr_exit_3(self, scenario_file, tmp_path, capsys,
                                   hbr):
        doc = json.loads(scenario_file.read_text())
        doc["conjunction"]["hbr_km"] = hbr
        bad = tmp_path / "bad-hbr.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["run", str(bad), "--order", "2"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["class"] == "validation"
        assert "HBR" in payload["error"]["message"]

    def test_overflowing_hbr_exit_4_without_a_warning(self, scenario_file):
        doc = json.loads(scenario_file.read_text())
        doc["conjunction"]["hbr_km"] = 1e308
        args = build_parser().parse_args(["run", "x.json", "--order", "2",
                                          "--steps", "20"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, payload = run_scenario(doc, args)
        assert code == 4
        assert payload["error"] == {
            "class": "non-convergence",
            "message": "collision-probability series overflowed"}

    def test_missing_file_exit_2(self, capsys):
        assert run_cli(["run", "/nonexistent/nope.json"]) == 2

    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    def test_unreadable_scenario_exit_2(self, tmp_path, capsys, kind):
        path = tmp_path / "case.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"name": "\xff"}')
        assert run_cli(["run", str(path)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["class"] == "parse"
        assert str(path) in payload["error"]["message"]

    def test_radial_primary_exit_3(self, tmp_path, capsys):
        # no RTN frame exists where position and velocity are parallel
        doc = generate_synthetic_suite(3, 1, "LEO", poc_band=(1.5e-6, 4e-6))[0]
        doc["conjunction"]["primary"] = {"r_km": [7000.0, 0.0, 0.0],
                                         "v_kms": [1.0, 0.0, 0.0]}
        doc["conjunction"]["secondary"] = {"r_km": [7000.0, 0.01, 0.0],
                                           "v_kms": [1.0, 0.0, 7.0]}
        bad = tmp_path / "radial.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["run", str(bad), "--order", "2"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["class"] == "validation"
        assert "parallel" in payload["error"]["message"]

    def test_fall_into_the_centre_exit_4(self, tmp_path, capsys):
        # nearly radial, so the frame exists, but the back-propagation
        # meets the centre: the error control's steps shrink past their
        # floor
        doc = generate_synthetic_suite(3, 1, "LEO", poc_band=(1.5e-6, 4e-6))[0]
        doc["conjunction"]["primary"] = {"r_km": [7000.0, 0.0, 0.0],
                                         "v_kms": [1.0, 1e-6, 0.0]}
        doc["conjunction"]["secondary"] = {"r_km": [7000.0, 0.01, 0.0],
                                           "v_kms": [1.0, 0.0, 7.0]}
        bad = tmp_path / "falling.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["run", str(bad), "--order", "2"]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["class"] == "non-convergence"
        assert "step control failed" in payload["error"]["message"]

    @pytest.mark.parametrize("flag", ["--nodes", "--filter-grid"])
    def test_far_epoch_exit_4(self, tmp_path, capsys, flag):
        # the closed-form coast back to 1e30 s overflows its sine in the
        # complex-step pass: a documented failure, not a traceback
        assert run_cli(["generate", "--seed", "5", "--count", "1",
                        "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        path = tmp_path / "leo-0005-000.json"
        assert run_cli(["run", str(path), flag, "1e30"]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["class"] == "non-convergence"
        assert "closed-form coast failed" in payload["error"]["message"]

    @pytest.fixture
    def open_orbit(self, leo_0005, tmp_path):
        """leo-0005-000 with both velocities 1.6 times as large: the same
        closest approach, the primary on a hyperbolic orbit."""
        doc = json.loads(leo_0005.read_text())
        for body in ("primary", "secondary"):
            state = doc["conjunction"][body]
            state["v_kms"] = [1.6 * v for v in state["v_kms"]]
        path = tmp_path / "hyperbolic.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("dyn", ["kepler", "j2"])
    def test_open_orbit_designs_on_target(self, open_orbit, capsys, dyn):
        # nodes in seconds need no period; off an ellipse a Kepler coast
        # integrates
        assert run_cli(["run", str(open_orbit), "--nodes", "600",
                        "--dyn", dyn]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["segment_steps"][0] > 1
        assert abs(payload["validation"]["poc_log_error"]) < 1e-9

    @pytest.mark.parametrize("dyn", ["kepler", "j2"])
    @pytest.mark.parametrize("flags, token", [
        ((), "'0.5orb'"),
        (("--nodes", "600", "--filter-grid", "600,0.25orb"), "'0.25orb'")],
        ids=["default-nodes", "filter-grid"])
    def test_orbit_fraction_on_an_open_orbit_exit_3(self, open_orbit, capsys,
                                                    dyn, flags, token):
        assert run_cli(["run", str(open_orbit), "--dyn", dyn, *flags]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["class"] == "validation"
        assert token in payload["error"]["message"]
        assert "closed orbit" in payload["error"]["message"]

    def test_result_reports_the_steps_of_each_segment(self, scenario_file,
                                                      tmp_path):
        # a Kepler coast takes one closed-form step; J2 integrates its steps
        def steps(*flags):
            out = tmp_path / "out.json"
            assert run_cli(["run", str(scenario_file), "--order", "2",
                            *flags, "--out", str(out)]) == 0
            return json.loads(out.read_text())["segment_steps"]

        three = ("--nodes", "2.5orb,1.5orb,0.5orb", "--steps", "60")
        assert steps(*three) == [1, 1, 1]
        assert steps(*three, "--dyn", "j2") == [60, 60, 60]
        assert steps("--nodes", "0.5orb") == [1]
        (meshed,) = steps("--nodes", "0.5orb", "--dyn", "j2")
        assert 1 < meshed < 100

    def test_infeasible_bound_exit_5(self, scenario_file, capsys):
        code = run_cli(["run", str(scenario_file), "--umax", "1e-7"])
        assert code == 5
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["class"] == "infeasible-with-bound"

    def test_fixed_direction_flag(self, scenario_file, tmp_path):
        out = tmp_path / "fixed.json"
        code = run_cli(["run", str(scenario_file), "--fixed-dir", "tangential",
                        "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        dv = np.array(result["solution"]["per_node_dv_ms"][0])
        direction = dv / np.linalg.norm(dv)
        assert abs(abs(direction[1]) - 1.0) <= 1e-12

    def test_filter_grid_flags(self, scenario_file, tmp_path):
        out = tmp_path / "filtered.json"
        code = run_cli(["run", str(scenario_file),
                        "--filter-grid", "1.5orb,1.0orb,0.5orb",
                        "--filter-keep", "1", "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert len(result["node_epochs_s"]) == 1

    @pytest.mark.parametrize("defaults, extra, source", [
        ({}, ("--filter-keep", "3"), "--filter-keep"),
        ({}, ("--filter-keep", "3", "--filter-grid", "1.0orb,0.5orb",
              "--umax", "1.0"), "--filter-keep"),
        ({"filter_keep": 3}, (), "defaults key 'filter_keep'"),
        ({"filter_keep": 1, "filter_grid": "1.0orb,0.5orb"},
         ("--umax", "1.0"), "defaults key 'filter_keep'"),
        ({"filter_keep": 1, "filter_grid": "1.0orb,0.5orb", "umax": 1.0},
         (), "defaults key 'filter_keep'")],
        ids=["no-grid", "with-umax", "default-no-grid",
             "default-with-umax-flag", "default-with-umax-default"])
    def test_unread_filter_keep_exit_2(self, scenario_file, tmp_path, capsys,
                                       defaults, extra, source):
        # a keep count that no filtering reads would be dropped silently,
        # whether it comes from the flag or from the scenario's defaults
        doc = json.loads(scenario_file.read_text())
        doc.setdefault("defaults", {}).update(defaults)
        case = tmp_path / "keep.json"
        case.write_text(json.dumps(doc))
        out = tmp_path / "never.json"
        code = run_cli(["run", str(case), *extra, "--out", str(out)])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["class"] == "parse"
        assert source in payload["error"]["message"]
        assert not out.exists()

    def test_filter_keep_default_with_grid_default(self, scenario_file,
                                                   tmp_path):
        doc = json.loads(scenario_file.read_text())
        doc.setdefault("defaults", {}).update(
            {"filter_keep": 2, "filter_grid": ["1.5orb", "1.0orb", "0.5orb"]})
        case = tmp_path / "keep-two.json"
        case.write_text(json.dumps(doc))
        out = tmp_path / "filtered.json"
        assert run_cli(["run", str(case), "--order", "2",
                        "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["node_epochs_s"]) == 2

    @pytest.mark.parametrize("grid, distinct, extra", [
        ("0.5orb,0.5orb,1orb", "0.5orb,1orb", ("--umax", "0.05")),
        ("0.5orb,0.5orb", "0.5orb", ("--umax", "0.2")),
        ("1orb,1orb,0.5orb", "1orb,0.5orb", ("--filter-keep", "2"))],
        ids=["umax-three", "umax-two", "keep-two"])
    def test_repeated_grid_epoch_counts_once(self, leo_0005, capsys, grid,
                                             distinct, extra):
        # a repeated epoch is one node, not two impulses stacked at one
        # epoch nor a schedule whose epochs do not increase
        def run(tokens):
            code = run_cli(["run", str(leo_0005), "--filter-grid", tokens,
                            *extra])
            payload = json.loads(capsys.readouterr().out)
            payload.pop("wall_time_s", None)
            payload.get("solution", {}).pop("solve_wall_time_s", None)
            return code, payload

        assert run(grid) == run(distinct)

    def test_keep_beyond_the_distinct_epochs_exit_3(self, leo_0005, capsys):
        assert run_cli(["run", str(leo_0005), "--filter-grid",
                        "0.5orb,0.5orb,1orb", "--filter-keep", "3"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["class"] == "validation"
        assert "keep must lie in [1, 2]" in payload["error"]["message"]

    def test_result_is_strict_json(self, leo_0005, tmp_path, capsys):
        # the ballistic PoC underflows to 0 at this radius, so the solver
        # returns the zero maneuver and the log error is infinite
        doc = json.loads(leo_0005.read_text())
        doc["conjunction"]["hbr_km"] = 1e-300
        case = tmp_path / "tiny-hbr.json"
        case.write_text(json.dumps(doc))
        assert run_cli(["run", str(case)]) == 0

        def refuse(token):
            raise ValueError(f"{token} is not strict JSON")

        payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert payload["validation"]["validated_poc"] == 0.0
        assert payload["validation"]["poc_log_error"] is None

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 6: the status does not follow validation, so a "
        "design 1 decade off its target reports ok"))
    def test_off_target_design_is_not_ok(self, leo_0005, capsys):
        # an impulse a microsecond before closest approach barely moves
        # the encounter: the solve spends 3.1e8 m/s and validates at PoC
        # 9.96e-6 against the target 1e-6
        code = run_cli(["run", str(leo_0005), "--nodes", "1e-6"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["validation"]["poc_log_error"] > 0.9
        assert code != 0

    def test_nodes_in_seconds(self, scenario_file, tmp_path):
        out = tmp_path / "seconds.json"
        code = run_cli(["run", str(scenario_file), "--nodes", "2500",
                        "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["node_epochs_s"] == [-2500.0]

    def test_batch_out_dir(self, tmp_path):
        gen_dir = tmp_path / "cases"
        run_cli(["generate", "--seed", "12", "--count", "2", "--regime",
                 "LEO", *BAND, "--out-dir", str(gen_dir)])
        results = tmp_path / "results"
        files = sorted(str(p) for p in gen_dir.glob("*.json"))
        code = run_cli(["run", *files, "--out-dir", str(results)])
        assert code == 0
        assert len(list(results.glob("*.result.json"))) == 2

    @pytest.mark.parametrize("flag, name", [("--out", "x.json"),
                                            ("--bplane-csv", "b.csv"),
                                            ("--out-dir", None)])
    def test_unwritable_output_exit_2(self, scenario_file, tmp_path, capsys,
                                      flag, name):
        # an output path under an existing file cannot be written
        blocker = tmp_path / "F"
        blocker.write_text("")
        target = blocker if name is None else blocker / name
        code = run_cli(["run", str(scenario_file), flag, str(target)])
        out, err = capsys.readouterr()
        assert code == 2 and err == ""
        payload = json.loads(out)
        assert payload["error"]["class"] == "parse"
        assert str(target) in payload["error"]["message"]

    @pytest.mark.parametrize("flag", ["--out", "--bplane-csv", "--out-dir",
                                      "--out via symlink"])
    def test_output_on_a_fifo_exit_2(self, scenario_file, tmp_path, capsys,
                                     monkeypatch, flag):
        # writing would replace the FIFO with a regular file
        import polycam.cli as cli
        parsed = []
        monkeypatch.setattr(cli, "parse_scenario",
                            lambda doc: parsed.append(doc))
        fifo = tmp_path / "case.result.json"
        os.mkfifo(fifo)
        target = fifo
        if flag == "--out-dir":
            target = tmp_path
        elif flag == "--out via symlink":
            flag, target = "--out", tmp_path / "link.json"
            target.symlink_to(fifo)
        code = run_cli(["run", str(scenario_file), flag, str(target)])
        out, err = capsys.readouterr()
        assert code == 2 and err == ""
        payload = json.loads(out)
        assert payload["error"]["class"] == "parse"
        named = fifo if flag == "--out-dir" else target
        assert str(named) in payload["error"]["message"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        # refused before any scenario was read or run
        assert parsed == []

    def test_overflowing_covariance_exit_4(self, scenario_file):
        doc = json.loads(scenario_file.read_text())
        doc["conjunction"]["cov_primary_km2"] = (np.eye(6) * 1e300).tolist()
        args = build_parser().parse_args(["run", "x.json", "--order", "2",
                                          "--steps", "20"])
        # the positive-definiteness check's determinant overflows too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, payload = run_scenario(doc, args)
        assert code == 4
        assert payload["error"] == {
            "class": "non-convergence",
            "message": "collision-probability series overflowed"}

    def test_written_files_honour_the_umask(self, scenario_file, tmp_path,
                                            capsys):
        out = tmp_path / "result.json"
        previous = os.umask(0o022)
        try:
            assert run_cli(["run", str(scenario_file), "--out", str(out),
                            "--steps", "20", "--order", "2"]) == 0
            assert run_cli(["generate", "--seed", "7", "--count", "1",
                            "--out-dir", str(tmp_path / "gen")]) == 0
        finally:
            os.umask(previous)
        for path in (out, tmp_path / "gen" / "leo-0007-000.json"):
            assert stat.S_IMODE(os.stat(path).st_mode) == 0o644

    def test_output_directories_are_created(self, scenario_file, tmp_path,
                                            capsys):
        csv = tmp_path / "missing" / "b.csv"
        out = tmp_path / "other" / "x.json"
        code = run_cli(["run", str(scenario_file), "--out", str(out),
                        "--bplane-csv", str(csv)])
        assert code == 0 and csv.exists() and out.exists()
        assert capsys.readouterr().out == ""

    def test_bplane_csv_with_several_scenarios_exit_2(self, tmp_path, capsys):
        # one CSV would keep only the last scenario's rows
        gen_dir = tmp_path / "cases"
        run_cli(["generate", "--seed", "12", "--count", "2", "--regime",
                 "LEO", *BAND, "--out-dir", str(gen_dir)])
        capsys.readouterr()
        files = sorted(str(p) for p in gen_dir.glob("*.json"))
        csv = tmp_path / "b.csv"
        code = run_cli(["run", *files, "--bplane-csv", str(csv)])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["class"] == "parse"
        assert "--bplane-csv" in payload["error"]["message"]
        assert not csv.exists()

    def test_out_with_out_dir_exit_2(self, scenario_file, tmp_path, capsys):
        # the result went to the directory and --out was never written
        out = tmp_path / "one.json"
        results = tmp_path / "dir"
        code = run_cli(["run", str(scenario_file), "--out", str(out),
                        "--out-dir", str(results)])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["class"] == "parse"
        assert "--out-dir" in payload["error"]["message"]
        assert not out.exists() and not results.exists()

    def test_out_dir_collision_exit_2(self, scenario_file, tmp_path,
                                      capsys):
        # both results would be named case.result.json; one would be lost
        files = []
        for name in ("x", "y"):
            (tmp_path / name).mkdir()
            copy = tmp_path / name / "case.json"
            copy.write_text(scenario_file.read_text())
            files.append(str(copy))
        results = tmp_path / "res"
        code = run_cli(["run", *files, "--order", "2",
                        "--out-dir", str(results)])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["class"] == "parse"
        assert "--out-dir" in payload["error"]["message"]
        assert not results.exists()

    def test_several_scenarios_exit_with_the_first_failure(self,
                                                           scenario_file,
                                                           tmp_path, capsys):
        doc = json.loads(scenario_file.read_text())
        doc.setdefault("defaults", {})["order"] = 11
        out_of_range = tmp_path / "order-11.json"
        out_of_range.write_text(json.dumps(doc))
        missing = str(tmp_path / "missing.json")
        assert run_cli(["run", missing, str(out_of_range)]) == 2
        assert run_cli(["run", str(out_of_range), missing]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("flag, value", [("--order", "abc"),
                                             ("--steps", "1.5"),
                                             ("--mode", "foo"),
                                             ("--dyn", "xyz")])
    def test_malformed_flag_exit_2(self, scenario_file, capsys, flag, value):
        # a flag value goes through its option's one converter, as a
        # scenario default does
        assert run_cli(["run", str(scenario_file), flag, value]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "error"
        assert payload["error"]["class"] == "parse"
        assert flag in payload["error"]["message"]

    @pytest.mark.parametrize("files", ["broken-then-good", "two-good"])
    def test_bad_flag_reported_once_before_any_scenario(
            self, scenario_file, tmp_path, capsys, monkeypatch, files):
        import polycam.cli as cli
        parsed = []
        monkeypatch.setattr(cli, "parse_scenario",
                            lambda doc: parsed.append(doc))
        (tmp_path / "x").mkdir()
        good = tmp_path / "x" / "case.json"
        good.write_text(scenario_file.read_text())
        if files == "broken-then-good":
            first = tmp_path / "broken.json"
            first.write_text("{not json")
        else:
            first = scenario_file
        code = run_cli(["run", str(first), str(good), "--order", "abc"])
        assert code == 2
        # one error object, and no scenario was read or run
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == {"class": "parse",
                                    "message": "bad --order value 'abc'"}
        assert parsed == []

    def test_out_of_range_order_flag_exit_3(self, scenario_file, capsys):
        assert run_cli(["run", str(scenario_file), "--order", "11"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["class"] == "validation"

    def test_console_entry_point(self, scenario_file):
        # the child finds the package where this process imported it from
        src = os.path.dirname(os.path.dirname(polycam.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "polycam", "run", str(scenario_file)],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["status"] == "ok"

    def test_closed_stdout_exits_2_without_a_traceback(self, scenario_file):
        # a reader that stops early, as `| head -c 100` does: the result
        # cannot be written, which exits 2 like an unwritable file
        src = os.path.dirname(os.path.dirname(polycam.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.Popen(
            [sys.executable, "-m", "polycam", "run", str(scenario_file),
             "--steps", "20", "--order", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 2
        assert b"Traceback" not in err and b"BrokenPipeError" not in err

    def test_run_loads_neither_scipy_integrate_nor_optimize(
            self, scenario_file, tmp_path):
        # a default design loads only the row kernel of scipy, and none of
        # the numpy subpackages that scipy's package init pulls in
        src = os.path.dirname(os.path.dirname(polycam.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = tmp_path / "result.json"
        script = textwrap.dedent(f"""
            import json, sys
            import polycam.cli

            code = polycam.cli.main(["run", {str(scenario_file)!r},
                                     "--out", {str(out)!r}])
            print(json.dumps([code, sorted(name for name in sys.modules
                                           if name.startswith("scipy")),
                              "numpy.f2py" in sys.modules]))
        """)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=300,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        code, loaded, f2py = json.loads(proc.stdout)
        assert code == 0
        assert json.loads(out.read_text())["status"] == "ok"
        assert loaded == ["scipy.sparse._sparsetools"]
        assert not f2py

    def test_low_thrust_mode(self, scenario_file, tmp_path):
        out = tmp_path / "lt.json"
        code = run_cli(["run", str(scenario_file), "--mode", "lowthrust",
                        "--nodes", "0.52orb,0.48orb", "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["validation"]["poc_log_error"] <= 0.1
        assert len(result["node_epochs_s"]) == 1  # last node is idle

    def test_batch_wall_times_under_a_second(self, tmp_path):
        gen_dir = tmp_path / "batch"
        run_cli(["generate", "--seed", "77", "--count", "5", "--regime",
                 "LEO", *BAND, "--out-dir", str(gen_dir)])
        results = tmp_path / "batch-results"
        files = sorted(str(p) for p in gen_dir.glob("*.json"))
        assert run_cli(["run", *files, "--out-dir", str(results)]) == 0
        for path in results.glob("*.result.json"):
            result = json.loads(path.read_text())
            assert result["solution"]["solve_wall_time_s"] < 1.0
            assert result["wall_time_s"] < 1.0


class TestDynOverride:
    def test_kepler_to_j2(self, scenario_file, tmp_path):
        out = tmp_path / "j2.json"
        code = run_cli(["run", str(scenario_file), "--dyn", "j2",
                        "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["validation"]["poc_log_error"] \
            <= 0.1

    def test_cr3bp_frame_mismatch(self, scenario_file, capsys):
        code = run_cli(["run", str(scenario_file), "--dyn", "cr3bp"])
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert "do not match" in payload["error"]["message"]



def test_run_flags_keep_their_spellings_and_attributes():
    # the flags come from the options table and are not converted when
    # parsed: the value reaches its attribute as given
    flags = {"--dyn": "dyn", "--mode": "mode", "--nodes": "nodes",
             "--fixed-dir": "fixed_dir", "--order": "order",
             "--target-poc": "target_poc", "--etol": "etol",
             "--max-iter": "max_iter", "--steps": "steps", "--umax": "umax",
             "--filter-grid": "filter_grid", "--filter-keep": "filter_keep"}
    argv = ["run", "case.json"]
    for flag, attr in flags.items():
        argv += [flag, f"value of {attr}"]
    args = build_parser().parse_args(argv)
    assert all(getattr(args, attr) == f"value of {attr}"
               for attr in flags.values())


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_has_a_documented_class():
    for cls in _subclasses(PolycamError):
        name, code = _classify(cls("message"))
        assert DOCUMENTED_CLASSES.get(name) == code, cls.__name__


_DELETE = object()
_MUTATIONS = [_DELETE, None, True, "word", [1.0], 0, -1, 1e308, math.nan,
              math.inf, 3.5]
# run options a generated document leaves out, mutated as set fields
_ABSENT_DEFAULTS = ["dynamics", "fixed_dir", "steps", "umax", "filter_grid",
                    "filter_keep"]


def _field_paths(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


def test_scenario_field_fuzz_gives_documented_outcomes():
    """Every one-field mutation of seeded generated documents, run through
    ``run_scenario``, exits 0 or with a documented class and its code."""
    docs = generate_synthetic_suite(2406, 2, "LEO", poc_band=(1.5e-6, 4e-6)) \
        + generate_synthetic_suite(2406, 1, "CISLUNAR",
                                   poc_band=(1.5e-6, 4e-6))
    paths = list(_field_paths(docs[0]))
    paths += [("defaults", key) for key in _ABSENT_DEFAULTS]
    cases = [(path, mutation) for path in paths for mutation in _MUTATIONS]
    assert len(cases) >= 200
    args = build_parser().parse_args(["run", "fuzz.json", "--order", "2",
                                      "--steps", "20"])
    failures = []
    for index, (path, mutation) in enumerate(cases):
        doc = json.loads(json.dumps(docs[index % len(docs)]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if mutation is _DELETE:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = mutation
        try:
            code, payload = run_scenario(doc, args)
            json.dumps(payload)
        except Exception as exc:  # any escape is a traceback at the CLI
            failures.append((path, mutation, repr(exc)))
            continue
        if code != 0 and \
                DOCUMENTED_CLASSES.get(payload["error"]["class"]) != code:
            failures.append((path, mutation, code, payload))
    assert not failures
