"""``tests/replay_digests.py --compare`` fails on the moves it lists."""

import sys

import pytest

import replay_digests
from polycam.cli import build_parser, run_scenario
from polycam.scenarios import generate_synthetic_suite

LINES = [
    "single_impulse 7 0 leo-0007-000/kepler 0 aa 1.0e-06 0.1 9 1.00e-11",
    "single_impulse 7 1 leo-0007-001/j2 0 bb 1.0e-06 0.2 8 2.00e-11",
    "node_search 7 0 leo-0007-000/umax 4 cc - - - -",
]


def perturbed(index, field, value):
    lines = [line.split() for line in LINES]
    lines[index][field:field + len(value)] = value
    return [" ".join(line) for line in lines]


@pytest.mark.parametrize("after, code", [
    (LINES, 0),
    # a digest and the figures move at round-off only
    (perturbed(0, 5, ["dd"]), 0),
    (perturbed(0, 5, ["dd", "1.0e-06", "0.10000000001"]), 0),
    (perturbed(1, 4, ["4", "ee", "-", "-", "-", "-"]), 1),
    (LINES[:2], 1),
    (perturbed(1, 5, ["ee", "1.0e-06", "0.2000004"]), 1),
], ids=["same", "digest", "dv-round-off", "exit", "one-side", "dv-move"])
def test_compare_exits_1_on_a_listed_move(tmp_path, monkeypatch, capsys,
                                          after, code):
    monkeypatch.setattr(sys, "path", list(sys.path))
    before_path, after_path = tmp_path / "before.txt", tmp_path / "after.txt"
    before_path.write_text("\n".join(LINES) + "\n")
    after_path.write_text("\n".join(after) + "\n")
    assert replay_digests.main(
        ["--compare", str(before_path), str(after_path)]) == code
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "  evaluations:")


def test_compare_reads_an_oracle_output(tmp_path, monkeypatch, capsys):
    # --oracle appends a field that --compare reads past
    monkeypatch.setattr(sys, "path", list(sys.path))
    before_path, after_path = tmp_path / "before.txt", tmp_path / "after.txt"
    before_path.write_text("\n".join(LINES) + "\n")
    after_path.write_text("\n".join(
        f"{line} {ratio}" for line, ratio in zip(LINES, ["0.9992", "-", "-"])
    ) + "\n")
    assert replay_digests.main(
        ["--compare", str(before_path), str(after_path)]) == 0
    assert "all: 3 designs, 0 digests moved" in capsys.readouterr().out


def oracle_ratio(regime, *argv):
    doc = generate_synthetic_suite(2406, 1, regime,
                                   poc_band=(1.5e-6, 4e-6))[0]
    parsed = build_parser().parse_args(["run", "case.json", *argv])
    _, payload = run_scenario(doc, parsed)
    return replay_digests._oracle_ratio(doc, parsed, payload)


def test_oracle_ratio_of_a_single_impulse_design():
    # leo-2406-000 under Kepler: within the grid's resolution of the oracle
    assert abs(float(oracle_ratio("LEO", "--nodes", "0.5orb")) - 1.0) < 0.01


@pytest.mark.parametrize("regime, argv", [
    ("LEO", ("--nodes", "1orb,0.5orb", "--mode", "lowthrust")),
    ("LEO", ("--nodes", "2.5orb,0.5orb")),
    ("CISLUNAR", ("--nodes", "7200")),
    # the ballistic PoC is already below the target: no impulse
    ("LEO", ("--nodes", "0.5orb", "--target-poc", "1e-2")),
    # no solution: the design exits 4
    ("LEO", ("--nodes", "1e30"))],
    ids=["low-thrust", "two-impulses", "cislunar", "zero-dv", "failed"])
def test_no_oracle_ratio(regime, argv):
    assert oracle_ratio(regime, *argv) == "-"
