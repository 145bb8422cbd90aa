"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sites_lists_everything(capsys):
    code, out, _err = run_cli(capsys, "sites")
    assert code == 0
    assert "s1" in out and "s10" in out
    assert "w1" in out and "wikipedia" in out
    assert "w20" in out


def test_replay_no_push(capsys):
    code, out, _err = run_cli(capsys, "replay", "s2", "--runs", "2")
    assert code == 0
    assert "PLT" in out and "SpeedIndex" in out
    assert "no_push" in out


def test_replay_push_all(capsys):
    code, out, _err = run_cli(capsys, "replay", "s2", "--strategy", "push_all",
                              "--runs", "2")
    assert code == 0
    assert "pushed bytes" in out


def test_replay_unknown_site_fails_cleanly(capsys):
    code, _out, err = run_cli(capsys, "replay", "nope")
    assert code == 2
    assert "unknown site" in err


def test_replay_unknown_strategy_fails_cleanly(capsys):
    code, _out, err = run_cli(capsys, "replay", "s2", "--strategy", "wat")
    assert code == 2
    assert "unknown strategy" in err


def test_order_command(capsys):
    code, out, _err = run_cli(capsys, "order", "s2", "--runs", "2")
    assert code == 0
    assert "computed push order" in out
    assert "style.css" in out


def test_suite_command(capsys):
    code, out, _err = run_cli(capsys, "suite", "s7", "--runs", "2")
    assert code == 0
    assert "push_critical_optimized" in out
    assert "baseline" in out


def test_fig1_command(capsys):
    code, out, _err = run_cli(capsys, "fig", "1")
    assert code == 0
    assert "HTTP/2 sites" in out


def test_fig5_command(capsys):
    code, out, _err = run_cli(capsys, "fig", "5", "--runs", "2")
    assert code == 0
    assert "interleaving" in out


def test_fig_unknown_fails(capsys):
    code, _out, err = run_cli(capsys, "fig", "9")
    assert code == 2
    assert "unknown figure" in err


def test_fig_points_at_the_extension_commands(capsys):
    """`fig 7` / `fig 8` were flagless duplicates of `fig7` / `fig8`."""
    code, _out, err = run_cli(capsys, "fig", "7")
    assert code == 2
    assert "fig7" in err and "fig8" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("replay", "s1", "--runs", "0"),
        ("replay", "s1", "--jobs", "-3"),
        ("replay", "s1", "--chunk", "0"),
        ("suite", "s1", "--runs", "-1"),
        ("population", "--loads", "0"),
        ("population", "--batch", "0"),
        ("waterfall", "s1", "--width", "0"),
        ("abtest", "s1", "--rum-runs", "0"),
        ("replay", "s1", "--runs", "many"),
        ("fig", "3", "--sites", "0"),
        ("fig", "2", "--sites", "-2"),
    ],
)
def test_counts_below_one_are_usage_errors(capsys, argv):
    """A bad count is rejected where it is typed: exit 2 and a message
    naming the flag, not a traceback from inside the run."""
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    flag = next(arg for arg in argv if arg.startswith("--"))
    assert f"argument {flag}" in capsys.readouterr().err


def test_negative_optimizer_population_is_a_config_error(capsys):
    """``--population`` may be 0 (anchors only) but never negative: the
    candidate config raises ConfigError before any search runs."""
    code, out, err = run_cli(
        capsys, "optimize", "--quick", "--population", "-3", "--no-cache"
    )
    assert code == 2
    assert out == ""
    assert "population must be >= 0, got -3" in err


def test_push_n_strategy_parsing(capsys):
    code, out, _err = run_cli(capsys, "replay", "s6", "--strategy", "push_3",
                              "--runs", "2")
    assert code == 0
    assert "push_3" in out


def test_waterfall_command(capsys):
    code, out, _err = run_cli(capsys, "waterfall", "s2", "--strategy", "push_all",
                              "--width", "40")
    assert code == 0
    assert "PUSH" in out
    assert "first paint" in out


def test_jobs_is_clamped_to_the_cpu_count(monkeypatch):
    """``--jobs`` above the CPU count yields a pool of exactly one
    worker per CPU; ``--jobs 1`` yields the serial executor."""
    from repro import cli
    from repro.experiments.engine import SerialExecutor, WarmPoolExecutor

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    parser = cli.build_parser()
    args = parser.parse_args(["replay", "s2", "--jobs", "16", "--no-cache"])
    with cli._engine_from_args(args) as engine:
        assert isinstance(engine.executor, WarmPoolExecutor)
        assert engine.executor.workers == 3
    args = parser.parse_args(["replay", "s2", "--jobs", "1", "--no-cache"])
    with cli._engine_from_args(args) as engine:
        assert isinstance(engine.executor, SerialExecutor)
