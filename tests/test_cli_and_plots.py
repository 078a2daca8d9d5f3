"""CLI and terminal-plot tests."""

import pytest

from repro.__main__ import main
from repro.runtime.plots import bar_chart, scatter


class TestCli:
    def test_protocols_lists_everything(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        assert "neobft-hm" in out
        assert "unreplicated" in out

    def test_run_command(self, capsys):
        code = main([
            "run", "unreplicated", "--clients", "2",
            "--duration-ms", "2", "--warmup-ms", "1",
        ])
        assert code == 0
        assert "tput=" in capsys.readouterr().out

    def test_sweep_command(self, capsys):
        code = main([
            "sweep", "unreplicated", "--clients", "1,4",
            "--duration-ms", "2", "--warmup-ms", "1",
        ])
        assert code == 0
        assert capsys.readouterr().out.count("tput=") == 2

    def test_aom_command(self, capsys):
        code = main(["aom", "--variant", "hm", "--group", "4", "--packets", "500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "saturation" in out
        assert "p99.9" in out

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "raft"])


class TestPlots:
    def test_bar_chart_scales(self):
        lines = bar_chart([("a", 10.0), ("b", 5.0)], width=10)
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_bar_chart_empty(self):
        assert bar_chart([]) == []

    def test_scatter_contains_points(self):
        lines = scatter([(0, 0), (10, 10)], width=20, height=5)
        assert any("*" in line for line in lines)
