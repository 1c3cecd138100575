"""CLI subcommands (small parameters so the suite stays fast)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["fig8"])
        assert args.synopses == 100
        assert args.trials == 200

    def test_unknown_attack_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--attack", "teleport"])

    def test_bench_needs_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench"])
        assert exit_info.value.code != 0
        assert "usage:" in capsys.readouterr().err
        assert build_parser().parse_args(["bench", "scale"]).bench_command == "scale"


class TestSubcommands:
    def test_fig7(self, capsys):
        code = main([
            "fig7", "--sizes", "500", "--malicious", "1", "3",
            "--trials", "5", "--theta-max", "12",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 7" in out
        assert "smallest theta" in out

    def test_fig8(self, capsys):
        code = main(["fig8", "--counts", "50", "500", "--trials", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 8" in out
        assert "p99" in out

    def test_comm(self, capsys):
        code = main(["comm"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2400" in out

    def test_rounds(self, capsys):
        code = main(["rounds", "--sizes", "40", "80"])
        out = capsys.readouterr().out
        assert code == 0
        assert "set-sampling" in out

    def test_connectivity(self, capsys):
        code = main(["connectivity", "--nodes", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "connected share" in out

    @pytest.mark.parametrize("attack", ["drop", "junk", "hide", "spurious-veto"])
    def test_demo_attacks(self, capsys, attack):
        code = main([
            "demo", "--attack", attack, "--nodes", "25",
            "--compromised", "4", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "revoked sensors" in out

    def test_report_to_stdout(self, capsys):
        code = main(["report", "--trials", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# VMAT reproduction report" in out
        assert "Figure 7" in out and "Figure 8" in out
        assert "alarm-only: stalled" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        code = main(["report", "--trials", "4", "--output", str(target)])
        assert code == 0
        assert target.exists()
        assert "Figure 8" in target.read_text()

    def test_fig7_plot_flag(self, capsys):
        code = main([
            "fig7", "--sizes", "500", "--malicious", "1",
            "--trials", "4", "--theta-max", "10", "--plot",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "mis-revoked" in out


class TestBadInput:
    """Bad input ends in one error line and a nonzero exit, never a
    traceback: argparse rejects a ``--nodes`` below 2 (exit 2), and
    ``main`` turns any :class:`~repro.errors.ReproError` into an
    ``ERROR`` line on stderr (exit 1)."""

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["demo", "--seed", str(2**63)], 1, "ERROR  seed must fit in a signed 64-bit int"),
            (["demo", "--nodes", "0"], 2, "argument --nodes"),
            (["demo", "--compromised", "0"], 1, "ERROR  the base station is trusted"),
            (["comm", "--nodes", "-5"], 2, "argument --nodes"),
        ],
        ids=["seed-past-int64", "demo-zero-nodes", "compromised-base-station", "comm-negative-nodes"],
    )
    def test_one_error_line(self, capsys, argv, code, message):
        try:
            got = main(argv)
        except SystemExit as exit_info:
            got = exit_info.code
        captured = capsys.readouterr()
        assert got == code
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert "naive collect-all" not in captured.out
