"""Unit tests for the command-line interface (``run-scenario`` and the parser)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_parser_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])


class TestRunScenarioCommand:
    def test_list_prints_named_presets(self, capsys):
        code = main(["run-scenario", "--list"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "uniform-churn" in captured
        assert "join-leave-attack" in captured

    def test_named_scenario_runs_and_prints_result_table(self, capsys):
        code = main(["--seed", "5", "run-scenario", "--name", "uniform-churn", "--steps", "12"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "scenario 'uniform-churn'" in captured
        assert "events applied" in captured
        assert "stop reason" in captured
        assert "mean worst corruption" in captured
        assert "structural invariants: OK" in captured

    def test_json_spec_scenario_runs(self, tmp_path, capsys):
        from repro.scenarios import Scenario

        spec = Scenario(
            name="spec-demo",
            max_size=1024,
            initial_size=90,
            tau=0.1,
            k=2.0,
            seed=4,
            steps=10,
        )
        path = tmp_path / "scenario.json"
        path.write_text(spec.to_json())
        code = main(["run-scenario", "--spec", str(path)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "scenario 'spec-demo'" in captured
        assert "| events applied" in captured

    def test_missing_name_and_spec_is_an_error(self, capsys):
        code = main(["run-scenario"])
        captured = capsys.readouterr()
        assert code == 2
        assert "run-scenario needs" in captured.err

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"alpha": float("inf")}, "alpha must be finite"),
            ({"epsilon": float("nan")}, "epsilon must be finite"),
            ({"workload": {"kind": "shrink"}}, "workload 'shrink'"),
            ({"workload": {"kind": "uniform", "bogus": 1}}, "'bogus'"),
        ],
    )
    def test_spec_with_bad_values_exits_2(self, tmp_path, capsys, fields, message):
        """Non-finite parameters (JSON ``Infinity`` / ``NaN``) and a source
        spec that does not fit its constructor are input errors: exit 2."""
        from repro.scenarios import Scenario

        spec = Scenario(name="bad", max_size=1024, initial_size=90, tau=0.1, k=2.0, steps=5)
        data = dict(spec.to_dict(), **fields)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        code = main(["run-scenario", "--spec", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert "Traceback" not in captured.err
