"""tests/run_digest.py's comparison, on synthetic digest lines: its 524 runs
are too slow for this suite."""
import json

import pytest

import run_digest

LINE = {"run": "mu=0.3 start=(0.2, 1.0) perturbed(-0.05)/eq", "outcome": "reached_e",
        "events": ["tangency", "fl_entry", "reached_e"], "t_final": 1.25, "theta_f": None,
        "steps": 40, "rejected": 3, "evaluations": 290, "records": 5}


@pytest.mark.parametrize("change,flagged", [
    ({}, False),
    ({"outcome": "timeout"}, True),
    ({"events": ["tangency", "reflection", "reached_e"]}, True),
    ({"t_final": 1.25 + 2e-9}, True),
    ({"t_final": 1.25 - 2e-9}, True),
    ({"t_final": 1.25 + 5e-10}, False),
    ({"steps": 41, "evaluations": 297}, False),  # a count moved: reported as changed, not failed
])
def test_differences(change, flagged):
    assert bool(run_digest.differences(LINE, {**LINE, **change})) is flagged


SHORE = {**LINE, "outcome": "reached_shore", "events": ["shore_exit"], "theta_f": 2.5}
ROW = {"run": "mu=0.3 start=(0.2, 1.0) deviation constant_omega=0", "outcome": "reached_e", "events": [],
       "t_final": 1.25, "margin": 0.0, "t_eq": 1.25}  # a deviation row has no theta_f


@pytest.mark.parametrize("old,new,flagged", [
    (SHORE, {**SHORE, "theta_f": 2.5 + 2e-9}, True),
    (SHORE, {**SHORE, "theta_f": 2.5 - 2e-9}, True),
    (SHORE, {**SHORE, "theta_f": 2.5 + 5e-10}, False),
    (SHORE, {**SHORE, "theta_f": None}, True),
    ({**SHORE, "theta_f": None}, SHORE, True),
    (LINE, {**LINE, "theta_f": None}, False),
    (ROW, ROW, False),
])
def test_differences_in_theta_f(old, new, flagged):
    assert bool(run_digest.differences(old, new)) is flagged


def test_against_counts_changed_and_failed_runs(tmp_path, monkeypatch, capsys):
    old = [LINE, {**LINE, "run": "b"}, {**LINE, "run": "c"}, {**LINE, "run": "gone"}]
    path = tmp_path / "digest.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in old))
    new = [LINE, {**LINE, "run": "b", "steps": 41}, {**LINE, "run": "c", "t_final": 1.25 + 2e-9}]
    monkeypatch.setattr(run_digest, "digest", lambda: iter(new))
    assert run_digest.main(["--against", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "c: t_final" in out and "gone: not in the new digest" in out
    assert err.strip() == "3 runs, 2 with any field changed, 2 failures"
    monkeypatch.setattr(run_digest, "digest", lambda: iter(old))
    assert run_digest.main(["--against", str(path)]) == 0
    assert capsys.readouterr().err.strip() == "4 runs, 0 with any field changed, 0 failures"
