"""``tests/replay_digests.py --compare`` fails on the moves it lists."""

import sys

import pytest

import replay_digests

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
