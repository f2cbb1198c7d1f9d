"""The ``python -m repro`` command-line interface."""

import os

import pytest

from repro.__main__ import main


@pytest.fixture
def micro_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


class TestCLI:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.fixture
    def tiny_cli(self, micro_env, monkeypatch):
        """Point the CLI at a micro scale so commands run in seconds."""
        import repro.experiments as ex
        import repro.__main__ as cli

        tiny = ex.SMOKE.with_(
            n_train=64, n_test=32, image_size=8, num_classes=4, base_width=2,
            parent_epochs=1, retrain_epochs=0, target_ratios=(0.5,), n_repetitions=1,
        )
        monkeypatch.setattr(cli, "_scale", lambda args: tiny)
        return tiny

    def test_curve_command_micro(self, tiny_cli, capsys):
        assert main(["curve", "--model", "resnet20", "--method", "wt"]) == 0
        out = capsys.readouterr().out
        assert "parent test error" in out
        assert "commensurate operating point" in out

    @pytest.mark.parametrize("method", ["lowrank", "uniform", "random"])
    def test_curve_command_new_families(self, tiny_cli, capsys, method):
        """Acceptance: every new registry family produces a prune curve
        end-to-end through the CLI."""
        assert main(["curve", "--model", "resnet20", "--method", method]) == 0
        out = capsys.readouterr().out
        assert method.upper() in out
        assert "commensurate operating point" in out

    def test_curve_command_spec_string_with_hyperparams(self, tiny_cli, capsys):
        assert main(
            ["curve", "--model", "resnet20", "--method", "lowrank(rank_frac=0.25)"]
        ) == 0
        assert "LOWRANK(RANK_FRAC=0.25)" in capsys.readouterr().out

    def test_curve_command_rejects_unknown_method(self, tiny_cli, capsys):
        with pytest.raises(SystemExit):
            main(["curve", "--method", "frobnicate"])
        assert "registered methods" in capsys.readouterr().err

    def test_potential_command_micro(self, tiny_cli, capsys):
        assert main(["potential", "--model", "resnet20", "--method", "wt"]) == 0
        out = capsys.readouterr().out
        assert "Prune potential" in out
        assert "nominal" in out

    def test_tables_command_micro(self, tiny_cli, capsys):
        assert main(["tables", "--model", "resnet20", "--methods", "wt,ft"]) == 0
        out = capsys.readouterr().out
        assert "PR/FR at commensurate accuracy" in out
        assert "train vs test distribution" in out
        assert "WT" in out and "FT" in out

    def test_tables_defaults_to_registry(self, monkeypatch):
        """Without --methods the tables enumerate every registered method."""
        import repro.__main__ as cli
        from repro.pruning import available_methods

        seen = []

        def fake_table(task, models, methods, scale, **knobs):
            from repro.experiments.summary_tables import resolve_method_names

            seen.append(resolve_method_names(methods))
            return [], ""

        monkeypatch.setattr("repro.experiments.pr_fr_table", fake_table)
        monkeypatch.setattr("repro.experiments.overparam_table", fake_table)
        assert main(["tables"]) == 0
        assert seen == [available_methods(), available_methods()]

    def test_methods_command_lists_registry(self, capsys):
        from repro.pruning import available_methods

        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        for name in available_methods():
            assert name in out


class TestResilienceCLI:
    def test_degraded_zoo_points_at_a_rerun(self, micro_env, tmp_path, monkeypatch, capsys):
        from repro.resilience import chaos

        monkeypatch.delenv(chaos.ENV_VAR, raising=False)
        # Every parent dies at once, so every prune run is a dependency
        # failure and nothing trains.
        chaos.configure(exception_rate=1.0, only_keys=("-parent-",))
        try:
            assert main(["zoo", "--on-error", "collect", "--max-retries", "0"]) == 1
        finally:
            chaos.disable()
        out = capsys.readouterr().out
        assert "re-run this command to rebuild the failed cells" in out
        [manifest] = tmp_path.glob("failures-*.json")
        assert f"failure manifest: {manifest}" in out

    def test_report_degraded_prints_manifest_pointer(self, capsys):
        from repro.__main__ import _report_degraded
        from repro.parallel import GridTiming
        from repro.resilience import CellFailure

        timing = GridTiming(
            label="curve",
            jobs=1,
            wall_seconds=0.1,
            failures=[
                CellFailure(
                    key="rep0", index=0, kind="exception",
                    error_type="ChaosError", message="injected", attempts=2,
                )
            ],
            manifest_path="/tmp/failures-curve.json",
        )
        _report_degraded(timing)
        out = capsys.readouterr().out
        assert "FAILED rep0: exception ChaosError: injected (2 attempts)" in out
        assert "failure manifest: /tmp/failures-curve.json" in out

    def test_report_degraded_silent_when_clean(self, capsys):
        from repro.__main__ import _report_degraded
        from repro.parallel import GridTiming

        _report_degraded(GridTiming(label="curve", jobs=1, wall_seconds=0.1))
        _report_degraded(None)
        assert capsys.readouterr().out == ""
