import json
import os
import subprocess
import sys

import numpy as np
import pytest

import polycam
from polycam.cli import main
from polycam.scenarios import generate_synthetic_suite, scenario_to_json

BAND = ("--poc-min", "1.5e-6", "--poc-max", "5e-6")


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
        from polycam.mapbuilder import ControlSchedule, IMPULSIVE
        from polycam.scenarios import parse_scenario
        from polycam.validate import validate_solution

        out = tmp_path / "result.json"
        run_cli(["run", str(scenario_file), "--out", str(out)])
        result = json.loads(out.read_text())
        event, _ = parse_scenario(json.loads(scenario_file.read_text()))
        schedule = ControlSchedule(mode=IMPULSIVE,
                                   node_epochs=tuple(result["node_epochs_s"]))
        report = validate_solution(event, schedule,
                                   np.array(result["solution"]["phi"]),
                                   result["target_poc"])
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
                                            ("target_poc", "y")])
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

    def test_missing_file_exit_2(self, capsys):
        assert run_cli(["run", "/nonexistent/nope.json"]) == 2

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
