"""Tests for the command-line interface."""

import hashlib
import shlex

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: Every command at its smallest flags: (argv, SHA-256 of stdout,
#: {file the command writes: SHA-256 of its bytes}).  Each render is a
#: pure function of its flags, so a refactor of the CLI or of anything
#: under it that changes one byte of output fails here.
CLI_PINS = [
    ("sites", "8a3a2dac29ffca00b8d5241a2f7b87b4dc65e867bf2ff2d6dcc39d7644e4fcd8", {}),
    ("replay s2 --runs 1", "cb6b3205e655b59f917f1e418ef9b937dbef3dee8218e35b5c33eaa0a48e3a4f", {}),
    ("suite s2 --runs 1", "0798eb32f8304e729dee8e8dc2c1bec141c13224d58e8d840855cc6721670918", {}),
    ("order s2 --runs 1", "5d58fb39187d9fc08512138c13cfe2cb3bee7201e576ba2a9da1378871778277", {}),
    ("fig 1", "9fa65a157f19ca74acc7df6d56483c032dd03a277f2e5e56a8bbd395abea3bc1", {}),
    ("fig 2 --sites 1 --runs 1", "5a33e3e7dc7061fa5e8d9cddaf2e60ff8bc20eb7eaa1c0c064a571744756dc37", {}),
    ("fig 3 --sites 1 --runs 1", "ea92c672255a0734c40853003f6a3d499b650e3207bc3d9ac80ddc8c6cd16f24", {}),
    ("fig 3a --sites 1 --runs 1", "b6477594994d8c5199d011aa0b5ac666547e20d6e6177f50cbacf5629d6ff08c", {}),
    ("fig 3b --sites 1 --runs 1", "9a40694e6d6e4d7e3b8eb490f365c3df044c6263e92040011672b4db27194fd6", {}),
    ("fig 4 --runs 1", "da74104f7e72d6dd10131dbb75186d7d53ac17a907e513a5bd5b1e13522e3db1", {}),
    ("fig 5 --runs 1", "b5962c0fcbe585044e190a4433f53b6f9bd9787c79a1d54d8961cfa6025ad767", {}),
    ("fig 6 --runs 1", "3820508d308b70219305420bb2407835d67471907dc5939416a3775c866591e6", {}),
    ("fig7 --quick", "929133e70a7667710e4f064342b399d107e9db1898d9e44275963eba08040c42", {}),
    ("fig7 --quick --burst", "a3962cd6bdfce9d881e9101a54025c4a7b3886cadcaa0377b6ace9a67bf086a8", {}),
    (
        "fig8 --quick --fingerprints fingerprints.json",
        "6179a3bde3701b17ffca079d906e8fe6337fff27592d9482cd49b905d559962d",
        {"fingerprints.json": "5753a8fbe086ec7f9fec854752654887f7879f1f12cf4c53f32cb7d40f2eaddc"},
    ),
    ("waterfall s2", "8383d4401dce7f4baf453930607cb435a86820729c00a2724cce841f4590843f", {}),
    (
        "trace s1 --strategy custom --vs no_push --seed 1 --qlog qlog",
        "6c18a1180fd6bf9a0495148652fa953fca2e8b3aff3c2782bfc389f24ec1e086",
        {
            "qlog/s1.custom.qlog.json": "3ed9b28d3656160581ccc07ae6fb81433bfa0a5a3d59e8e3bc2c313c8088bd67",
            "qlog/s1.no_push.qlog.json": "7668e15bfef94577190f6affa2a6da24a99877c2f0997059f6a1c81d6a90481a",
        },
    ),
    (
        "population --quick --loads 2 --batch 2 --json population.json",
        "482dbff18ac2cdc7cc3e735cf61d6e2ea16baf5a076fd25c969ac0591d81c584",
        {"population.json": "124e4af82e112daa9762a7856b09c9c67de88f9be71e46e657e92b66e7ce2b7d"},
    ),
    (
        "optimize --quick --table table.json --json optimize.json",
        "e38a2f8a1d605a8c3abe5c520b437b91d4fa7bb3916a44093404c2e9794887d7",
        {
            "optimize.json": "7addfe95ad6d8f2a678a2a6dc4a5b91ac093e930a8b1c4deef223f338478f2bf",
            "table.json": "5d6fc43f2ac0451736f90f0ce000ef975fa3f7f4038236322e8e3bfff765912b",
        },
    ),
    ("abtest s2 --runs 1 --rum-runs 1", "670e8cf7f8001afabd395d38b5a8d9e8cb7f26779bb2ebf64f9f8f8a47e49469", {}),
]


@pytest.mark.parametrize(
    "command, stdout_sha, file_shas", CLI_PINS, ids=[pin[0] for pin in CLI_PINS]
)
def test_command_output_is_pinned(
    capsys, monkeypatch, tmp_path, command, stdout_sha, file_shas
):
    """Stdout and every written file are byte-identical to the pins.
    Files are written relative to an empty working directory, so the
    set of files a command leaves is pinned too."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    code, out, _err = run_cli(capsys, *shlex.split(command))
    assert code == 0
    written = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file()
    }
    assert (hashlib.sha256(out.encode()).hexdigest(), written) == (stdout_sha, file_shas)


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


def test_cache_and_no_cache_exclude_each_other(capsys):
    """``--cache DIR --no-cache`` is a usage error, not a silent
    ``--no-cache``."""
    with pytest.raises(SystemExit) as excinfo:
        main(["replay", "s1", "--cache", "cache-dir", "--no-cache"])
    assert excinfo.value.code == 2
    assert (
        "argument --no-cache: not allowed with argument --cache"
        in capsys.readouterr().err
    )


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
