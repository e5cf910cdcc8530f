"""Command-line contract: outputs, files, exit codes, reproducibility."""

import hashlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ccpnet import cli, dataio
from helpers import check_path_dump


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_kv(stdout):
    pairs = {}
    for line in stdout.splitlines():
        for tok in line.split():
            if "=" in tok:
                key, val = tok.split("=", 1)
                pairs.setdefault(key, []).append(val)
    return pairs


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["threshold", "--ce", "bis-2010h1", "--rho", "0"], 461),
        (["threshold", "--ce", "bis-2010h1", "--alpha", "credit=3", "--rho", "0"], 54),
        (["threshold", "--ce", "bis-2010h1", "--alpha", "credit=3", "--rho", "0.1"], 17),
        (["threshold", "--ce", "bis-2010h1", "--alpha", "credit=2", "--rho", "0.2"], 11),
        (["threshold", "--ce", "equal:6", "--rho", "0"], 23),
    ],
)
def test_threshold_values(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    kv = parse_kv(out)
    assert kv["n_star"] == [str(expected)]
    # three curve rows around the crossing
    assert len(kv["N"]) == 3


@pytest.mark.parametrize(
    "argv,expected",
    [
        (
            ["threshold", "--ce", "bis-2010h1", "--rho", "0"],
            "n_star=461\n"
            "N=460 bilateral_ee=3277987.25 ccp_ee=3278000.022\n"
            "N=461 bilateral_ee=3285128.834 ccp_ee=3285126.114\n"
            "N=462 bilateral_ee=3292270.419 ccp_ee=3292252.19\n"
        ),
        (
            ["threshold", "--ce", "bis-2010h1", "--alpha", "credit=3", "--rho", "0"],
            "n_star=54\n"
            "N=53 bilateral_ee=384012.7851 ccp_ee=384128.9746\n"
            "N=54 bilateral_ee=391397.6464 ccp_ee=391377.1589\n"
            "N=55 bilateral_ee=398782.5076 ccp_ee=398624.0511\n"
        ),
        (
            ["threshold", "--ce", "bis-2010h1", "--alpha", "credit=3", "--rho", "0.1"],
            "n_star=17\n"
            "N=16 bilateral_ee=117695.6759 ccp_ee=117877.5475\n"
            "N=17 bilateral_ee=125542.0543 ccp_ee=125474.4846\n"
            "N=18 bilateral_ee=133388.4327 ccp_ee=133063.6235\n"
        ),
        (
            ["threshold", "--ce", "bis-2010h1", "--alpha", "credit=2", "--rho", "0.2"],
            "n_star=11\n"
            "N=10 bilateral_ee=71969.71234 ccp_ee=72114.13926\n"
            "N=11 bilateral_ee=79966.34704 ccp_ee=79899.44125\n"
            "N=12 bilateral_ee=87962.98175 ccp_ee=87674.20138\n"
        ),
    ],
    ids=["461", "54", "17", "11"],
)
def test_threshold_published_stdout(capsys, argv, expected):
    """The four published thresholds print byte for byte this text: n_star
    and both curves at 10 significant digits around the crossing."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected


def test_threshold_curves_show_crossing(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--ce", "equal:6", "--rho", "0")
    kv = parse_kv(out)
    rows = list(zip(kv["N"], kv["bilateral_ee"], kv["ccp_ee"]))
    at = {int(n): (float(b), float(c)) for n, b, c in rows}
    assert at[23][1] < at[23][0]
    assert at[22][1] >= at[22][0]


def test_threshold_ce_from_file(capsys, tmp_path):
    path = tmp_path / "ce.csv"
    path.write_text(
        "class,exposure\n"
        "commodity,457\nequity,706\nfx,2524\nrates,17533\ncredit,1666\nother,1788\n"
    )
    code, out, _ = run_cli(
        capsys, "threshold", "--ce", str(path), "--cleared", "credit", "--rho", "0"
    )
    assert code == 0
    assert parse_kv(out)["n_star"] == ["461"]


def test_threshold_ce_file_errors(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("class,exposure\ncredit\n")
    assert run_cli(capsys, "threshold", "--ce", str(bad))[0] == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run_cli(capsys, "threshold", "--ce", str(empty))[0] == 2
    bad.write_text("class,exposure\ncredit,abc\n")
    code, _, err = run_cli(capsys, "threshold", "--ce", str(bad))
    assert code == 2 and f"{bad}:2: non-numeric exposure" in err


def test_threshold_bad_inputs_exit_2(capsys, tmp_path):
    assert run_cli(capsys, "threshold", "--ce", "unknown-set")[0] == 2
    assert run_cli(capsys, "threshold", "--alpha", "nope=3")[0] == 2
    assert run_cli(capsys, "threshold", "--alpha", "credit")[0] == 2
    assert run_cli(capsys, "threshold", "--cleared", "missing")[0] == 2
    assert run_cli(capsys, "threshold", "--ce", "equal:0")[0] == 2
    assert run_cli(capsys, "threshold", "--ce", "equal:six")[0] == 2
    assert run_cli(capsys, "threshold", "--ce", "equal:100000000000")[0] == 2
    assert run_cli(capsys, "threshold", "--alpha", "credit=nan")[0] == 2
    assert run_cli(capsys, "threshold", "--alpha", "credit=inf")[0] == 2
    for extra, message in [
        (("--w", "1.5"), "clearing fraction 1.5 outside [0, 1]"),
        (("--rho", "1.5"), "rho must lie in [0, 1)"),
        (("--alpha", "credit=abc"), "bad value in --alpha 'credit=abc'"),
    ]:
        code, _, err = run_cli(capsys, "threshold", *extra)
        assert code == 2 and message in err, extra
    code, _, err = run_cli(capsys, "threshold", "--ce", str(tmp_path))
    assert code == 2
    assert "is a directory" in err
    undecodable = tmp_path / "latin1.csv"
    undecodable.write_bytes(b"class,exposure\nd\xe9riv\xe9s,1\n")
    code, _, err = run_cli(capsys, "threshold", "--ce", str(undecodable))
    assert code == 2
    assert "credit-exposure file is not" in err and str(undecodable) in err
    # --alpha and --cleared pick a class by name, so a name given twice is ambiguous
    twice = tmp_path / "twice.csv"
    twice.write_text("class,exposure\ncredit,1\nrates,2\ncredit,3\n")
    for extra in ([], ["--alpha", "credit=3"], ["--cleared", "credit"]):
        code, _, err = run_cli(capsys, "threshold", "--ce", str(twice), *extra)
        assert code == 2, extra
        assert "class names must be unique, repeated: ['credit']" in err


def test_overflowing_alpha_exits_2(capsys, tmp_path):
    """An alpha whose class std overflows float64 squared is a config error,
    for one threshold and for a surface row."""
    for argv in (
        ("threshold", "--ce", "bis-2010h1", "--alpha", "credit=1e160"),
        ("surface", "--ce", "bis-2010h1", "--alpha-grid", "1e160:1e160:1",
         "--rho-grid", "0:0.5:2", "--out", str(tmp_path / "s.csv")),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert not out
        assert err.startswith("config error: ") and "overflow" in err, argv
    assert not (tmp_path / "s.csv").exists()


def test_unexpected_error_without_text_prints_its_type(capsys, monkeypatch):
    def fail(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_threshold", fail)
    code, out, err = run_cli(capsys, "threshold")
    assert code == 3
    assert not out
    assert err == "error: MemoryError\n"


# ---------------------------------------------------------------------------
# surface
# ---------------------------------------------------------------------------


def test_surface_single_cell_matches_threshold(capsys, tmp_path):
    out_file = tmp_path / "surf.csv"
    code, out, _ = run_cli(
        capsys,
        "surface",
        "--alpha-grid", "3:3:1",
        "--rho-grid", "0.1:0.1:1",
        "--out", str(out_file),
    )
    assert code == 0
    rows = out_file.read_text().splitlines()
    assert rows[0] == "alpha,rho,n_star"
    assert rows[1].split(",")[2] == "17"


def test_surface_monotone_and_corner(capsys, tmp_path):
    out_file = tmp_path / "surf.csv"
    code, _, _ = run_cli(
        capsys,
        "surface",
        "--alpha-grid", "1:3:5",
        "--rho-grid", "0:0.2:5",
        "--out", str(out_file),
    )
    assert code == 0
    rows = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
    grid = {}
    for alpha, rho, n in rows:
        grid.setdefault(float(alpha), []).append(int(n))
    assert grid[1.0][0] == 461
    for series in grid.values():  # each row of fixed alpha, rho ascending
        assert all(a >= b for a, b in zip(series, series[1:]))


def test_surface_bad_grid_exits_2(capsys, tmp_path):
    for alpha_grid, rho_grid in [
        ("1:3", "0:0.2:5"),
        ("a:b:3", "0:0.2:5"),
        ("nan:1:2", "0:0.2:5"),
        ("1:3:2", "0:nan:2"),
        ("1:inf:3", "0:0.2:5"),
        ("inf:3:3", "0:0.2:5"),
        ("1:3:2", "0:inf:2"),
    ]:
        code, _, _ = run_cli(
            capsys,
            "surface",
            "--alpha-grid", alpha_grid,
            "--rho-grid", rho_grid,
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2, (alpha_grid, rho_grid)
    # the grid sizes are bounded before any grid array or the surface exists
    for alpha_grid, rho_grid, bound in [
        ("1:3:100000000000", "0:0.2:5", "steps <= 1000000"),
        ("1:3:2", "0:0.2:1000001", "steps <= 1000000"),
        ("1:3:10001", "0:0.2:10000", "at most 100000000 cells"),
    ]:
        code, out, err = run_cli(
            capsys,
            "surface",
            "--alpha-grid", alpha_grid,
            "--rho-grid", rho_grid,
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2 and not out, (alpha_grid, rho_grid)
        assert err.startswith("config error:") and bound in err, err
    # the alpha grid sets the cleared class's alpha; --alpha may not
    grids = ("--alpha-grid", "1:3:3", "--rho-grid", "0:0.2:3")
    code, out, err = run_cli(
        capsys, "surface", "--alpha", "credit=7", *grids, "--out", str(tmp_path / "s.csv")
    )
    assert code == 2 and not out
    assert "--alpha-grid sets the alpha of the cleared class 'credit'" in err
    assert not (tmp_path / "s.csv").exists()
    for extra in (("--alpha", "rates=2"), ("--alpha", "credit=7", "--cleared", "rates")):
        code, _, _ = run_cli(capsys, "surface", *extra, *grids, "--out", str(tmp_path / "t.csv"))
        assert code == 0, extra


def test_surface_and_report_out_paths(capsys, tmp_path):
    """``surface`` creates a missing directory for its file; an ``--out`` of
    the wrong kind is a config error before any work."""
    grids = ("--alpha-grid", "3:3:1", "--rho-grid", "0.1:0.1:1")
    nested = tmp_path / "new" / "deeper" / "surf.csv"
    code, out, _ = run_cli(capsys, "surface", *grids, "--out", str(nested))
    assert code == 0 and f"surface={nested}" in out
    assert nested.read_text().splitlines()[1].split(",")[2] == "17"
    code, out, err = run_cli(capsys, "surface", *grids, "--out", str(tmp_path))
    assert code == 2 and not out
    assert f"config error: output file is a directory: {str(tmp_path)!r}" in err
    code, _, err = run_cli(capsys, "surface", *grids, "--out", str(nested / "x.csv"))
    assert code == 2 and "output path lies under a file" in err
    code, out, err = run_cli(
        capsys, "report", "--dump", str(tmp_path / "none.csv"), "--out", str(nested)
    )
    assert code == 2 and not out
    assert f"config error: output directory is a file: {str(nested)!r}" in err
    dump = tmp_path / "none.csv"
    for argv in (["surface", *grids], ["report", "--dump", str(dump)]):
        code, out, err = run_cli(capsys, *argv, "--out", "")
        assert code == 2 and not out, argv
        assert "config error: output path is empty" in err


def test_surface_benchmark_grid_digest(capsys, tmp_path):
    """The 300x300 benchmark grid is pinned byte for byte."""
    out = tmp_path / "surface.csv"
    code, _, _ = run_cli(
        capsys,
        "surface",
        "--ce", "bis-2010h1",
        "--alpha-grid", "1:3:300",
        "--rho-grid", "0:0.5:300",
        "--out", str(out),
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "ac843a9612a8c50507a8e37c9d8ac93199d41fe02967344288a2900e70fd8e56"
    )


# ---------------------------------------------------------------------------
# scenarios + report
# ---------------------------------------------------------------------------


def _scen_args(tmp_path, sub="run", *extra):
    return [
        "scenarios",
        "--paths", "1000",
        "--seed", "5",
        "--out", str(tmp_path / sub),
        *extra,
    ]


def test_scenarios_run_and_outputs(capsys, tmp_path):
    code, out, err = run_cli(
        capsys,
        "scenarios",
        "--paths", "20000",
        "--seed", "5",
        "--threads", "2",
        "--out", str(tmp_path / "run"),
    )
    assert code == 0
    kv = parse_kv(out)
    assert kv["scenario"] == ["no_ccp", "irs_ccp", "cds_ccp", "two_ccps", "joint_ccp"]
    ratios = [float(v) for v in kv["total_ee_ratio"]]
    assert ratios[0] == 1.0
    # default flags reproduce the reference reduction ratios
    for got, ref in zip(ratios[1:], (0.74, 1.02, 0.64, 0.56)):
        assert got == pytest.approx(ref, abs=0.02)
    for name in ("file_dump", "file_mean_max", "file_ratios_expected_exposure"):
        assert name in kv
        path = kv[name][0]
        assert Path(path).read_text()
    assert "running 5 scenarios" in err  # progress goes to stderr only
    # every ES cell holds about 200 tail samples at 20,000 paths
    assert kv["low_confidence_es_cells"] == ["0"]


def test_scenarios_byte_identical_across_runs_and_threads(capsys, tmp_path):
    """5000 paths make three chunks, the last one short: a rerun and runs
    at 2 and 3 threads write the same bytes in every output file."""
    digests = {}
    for sub, threads in [("a", "1"), ("b", "1"), ("c", "2"), ("d", "3")]:
        argv = _scen_args(tmp_path, sub, "--paths", "5000", "--dump-paths", "--threads", threads)
        assert run_cli(capsys, *argv)[0] == 0
        digests[sub] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (tmp_path / sub).iterdir()
        }
    assert set(digests["a"]) == {
        "report.csv", "histograms.csv", "paths.npy", "mean_max.csv", "analytic_ee.csv",
        "ratios_expected_exposure.csv", "ratios_var99.csv", "ratios_es99.csv",
    }
    for sub in "bcd":
        assert digests[sub] == digests["a"], sub


def test_scenarios_config_file_with_flag_overrides(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("paths = 1000\nseed = 5\nrho = 0.1\nmirror_dealers = false\n")
    code, out, _ = run_cli(
        capsys,
        "scenarios",
        "--config", str(cfg),
        "--seed", "6",
        "--out", str(tmp_path / "cfg_run"),
    )
    assert code == 0
    text = (tmp_path / "cfg_run" / "report.csv").read_text()
    assert "# seed = 6" in text  # flag overrides config file


# one line per run input: a config line, the flags that give the same
# value, and the flags that give another
_INPUT_SAMPLES = [
    ("seed = 7", ["--seed", "7"], ["--seed", "8"]),
    ("paths = 2000", ["--paths", "2000"], ["--paths", "3000"]),
    ("level = 0.975", ["--level", "0.975"], ["--level", "0.95"]),
    ("notionals = occ-2010q4", ["--notionals", "occ-2010q4"], ["--notionals", "occ-2009q1"]),
    ("mirror_dealers = false", ["--no-mirror"], ["--mirror"]),
    ("rho = 0.1", ["--rho", "0.1"], ["--rho", "0.2"]),
    ("beta.credit = 0.02", ["--beta", "credit=0.02"], ["--beta", "credit=0.03"]),
    ("marginal.credit = t3", ["--marginal", "credit=t3"], ["--marginal", "credit=gaussian"]),
    ("w.swaps = 0.8", ["--w", "swaps=0.8"], ["--w", "swaps=0.7"]),
    (
        "scenario.irs_ccp.w.swaps = 0.8",
        ["--scenario", "irs_ccp.w.swaps=0.8"], ["--scenario", "irs_ccp.w.swaps=0.7"],
    ),
    ("out_dir = {tmp}/a", ["--out", "{tmp}/a"], ["--out", "{tmp}/b"]),
]


def _run_config(monkeypatch, capsys, argv):
    """The RunConfig that ``scenarios`` builds its market from."""
    seen = []

    def stop(rc):
        seen.append(rc)
        raise dataio.ConfigError("stopped before the market is built")

    monkeypatch.setattr(dataio, "build_market", stop)
    _, _, err = run_cli(capsys, "scenarios", *argv)
    assert seen, err
    return seen[0]


def test_flags_and_config_keys_set_the_same_inputs(monkeypatch, capsys, tmp_path):
    """Every run input has a config key and a flag that set the same
    RunConfig, and a flag wins over the config file."""
    cfg = tmp_path / "run.cfg"
    for line, same, other in _INPUT_SAMPLES:
        cfg.write_text(line.format(tmp=tmp_path) + "\n")
        same, other = ([a.format(tmp=tmp_path) for a in f] for f in (same, other))
        from_file = _run_config(monkeypatch, capsys, ["--config", str(cfg)])
        assert from_file == _run_config(monkeypatch, capsys, same) != dataio.RunConfig(), line
        assert _run_config(monkeypatch, capsys, ["--config", str(cfg), *other]) == (
            _run_config(monkeypatch, capsys, other)
        ), line
    # the samples cover the table, one line per row
    keys = [line.split(" = ")[0] for line, _, _ in _INPUT_SAMPLES]
    rows = [next(r.key for r in dataio.RUN_INPUTS if r.match(k) is not None) for k in keys]
    assert rows == [r.key for r in dataio.RUN_INPUTS]


def test_config_paths_are_relative_to_the_config_file(capsys, tmp_path, monkeypatch):
    """notionals and out_dir in a config file are read from the file's
    directory, wherever the command runs; flags are read from the working
    directory."""
    conf = tmp_path / "conf"
    (conf / "tables").mkdir(parents=True)
    (conf / "tables" / "t.csv").write_text(
        "dealer,forwards,options,swaps,credit\nA,1,1,5,2\nB,2,1,3,1\n"
    )
    (conf / "run.cfg").write_text("notionals = tables/t.csv\nout_dir = sub/out\npaths = 1000\n")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    code, out, err = run_cli(capsys, "scenarios", "--config", str(conf / "run.cfg"))
    assert code == 0, err
    dump = conf / "sub" / "out" / "report.csv"
    assert parse_kv(out)["file_dump"] == [str(dump)]
    assert f"# notionals = {conf / 'tables' / 't.csv'}\n" in dump.read_text()
    assert not (elsewhere / "sub").exists()
    (elsewhere / "t.csv").write_text((conf / "tables" / "t.csv").read_text())
    argv = ["--config", str(conf / "run.cfg"), "--notionals", "t.csv", "--out", "flagged"]
    assert run_cli(capsys, "scenarios", *argv)[0] == 0
    assert "# notionals = t.csv\n" in (elsewhere / "flagged" / "report.csv").read_text()


@pytest.mark.parametrize("name", ["t.csv ", " t.csv", "t\n.csv", "t.csv\n", "t\r.csv"])
def test_notionals_that_the_header_cannot_hold_exit_2(capsys, tmp_path, monkeypatch, name):
    """The header records notionals as one stripped line, so a path with
    leading or trailing white space or a line break would not round-trip:
    it exits 2 as a flag, and build_market refuses it in a RunConfig."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text("dealer,forwards,options,swaps,credit\nA,1,1,5,2\nB,2,1,3,1\n")
    code, _, err = run_cli(capsys, "scenarios", "--notionals", name, "--paths", "1000")
    assert code == 2
    assert f"notionals must be one line without leading or trailing white space, got {name!r}" in err
    assert not (tmp_path / "out").exists()
    with pytest.raises(dataio.ConfigError, match="notionals must be one line"):
        dataio.build_market(dataio.RunConfig(notionals=name))


def test_notionals_rule_holds_in_config_files_and_dumps(capsys, tmp_path, monkeypatch):
    """The same rule reads a dump's header, and a config file's notionals
    once its directory is joined to them."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / " conf").mkdir()
    (tmp_path / " conf" / "run.cfg").write_text("notionals = t.csv\npaths = 1000\n")
    code, _, err = run_cli(capsys, "scenarios", "--config", " conf/run.cfg")
    assert code == 2 and "notionals must be one line" in err and "' conf/t.csv'" in err
    dump = tmp_path / "report.csv"
    # \x0b ends a line to str.splitlines, not to a file read
    dump.write_text(_DUMP.replace("# level = 0.99\n", "# level = 0.99\n# notionals = a\x0bb\n"))
    code, _, err = run_cli(capsys, "report", "--dump", str(dump), "--out", str(tmp_path / "o"))
    assert code == 2 and f"{dump}:5: notionals must be one line" in err


def test_scenarios_notionals_flag_replaces_missing_config_table(capsys, tmp_path):
    """A config whose notional table is missing exits 2 before the run is
    announced, unless --notionals names another table."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("notionals = missing.csv\npaths = 1000\n")
    code, _, err = run_cli(
        capsys, "scenarios", "--config", str(cfg), "--out", str(tmp_path / "bad")
    )
    assert code == 2
    assert f"notional table not found: {str(tmp_path / 'missing.csv')!r}" in err
    assert "running" not in err
    assert not (tmp_path / "bad").exists()
    code, _, err = run_cli(
        capsys, "scenarios", "--config", str(cfg), "--notionals", "occ-2009q1",
        "--out", str(tmp_path / "good"),
    )
    assert code == 0 and "running 5 scenarios, paths=1000" in err
    assert (tmp_path / "good" / "report.csv").exists()


def test_scenarios_analytic_ee_invariant_to_paths(capsys, tmp_path):
    """Path count moves the MC estimates and their standard errors, never the
    closed-form expected-exposure columns."""
    run_cli(capsys, "scenarios", "--paths", "1000", "--seed", "5", "--out", str(tmp_path / "p1"))
    run_cli(capsys, "scenarios", "--paths", "2000", "--seed", "5", "--out", str(tmp_path / "p2"))
    a = (tmp_path / "p1" / "analytic_ee.csv").read_bytes()
    b = (tmp_path / "p2" / "analytic_ee.csv").read_bytes()
    assert a == b
    assert (tmp_path / "p1" / "report.csv").read_text() != (
        tmp_path / "p2" / "report.csv"
    ).read_text()


def test_scenarios_t3_run_skips_analytic_table(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, *_scen_args(tmp_path, "t3", "--marginal", "credit=t3")
    )
    assert code == 0
    assert not (tmp_path / "t3" / "analytic_ee.csv").exists()
    assert (tmp_path / "t3" / "report.csv").exists()


def test_scenarios_dump_paths(capsys, tmp_path):
    code, out, _ = run_cli(capsys, *_scen_args(tmp_path, "dump", "--dump-paths"))
    assert code == 0
    kv = parse_kv(out)
    # 1000 paths leave about 10 samples in each ES tail: every cell is flagged
    report = dataio.load_report(kv["file_dump"][0])
    assert kv["low_confidence_es_cells"] == [str(report.low_confidence.sum())] == ["100"]
    assert kv["file_paths"] == [str(tmp_path / "dump" / "paths.npy")]
    check_path_dump(np.load(kv["file_paths"][0]), report)


def test_scenarios_level_flag(capsys, tmp_path):
    code, _, _ = run_cli(capsys, *_scen_args(tmp_path, "lvl", "--level", "0.95"))
    assert code == 0
    text = (tmp_path / "lvl" / "report.csv").read_text()
    assert "# level = 0.95" in text
    assert run_cli(capsys, *_scen_args(tmp_path, "lvl2", "--level", "1.5"))[0] == 2


def test_tail_measures_named_from_level(capsys, tmp_path):
    code, out, _ = run_cli(capsys, *_scen_args(tmp_path, "lvl", "--level", "0.95"))
    assert code == 0
    names = sorted(os.listdir(tmp_path / "lvl"))
    assert "ratios_var95.csv" in names and "ratios_es95.csv" in names
    assert not any("99" in name for name in names)
    assert "file_ratios_var95=" in out
    measures = {
        line.split(",")[2]
        for line in (tmp_path / "lvl" / "report.csv").read_text().splitlines()
        if not line.startswith("#")
    }
    assert {"var95", "es95", "es95_exceedances"} <= measures
    assert not any("99" in m for m in measures)
    # re-rendering a dump keeps its level's names
    code, _, _ = run_cli(
        capsys, "report", "--dump", str(tmp_path / "lvl" / "report.csv"),
        "--out", str(tmp_path / "again"),
    )
    assert code == 0
    again = sorted(n for n in os.listdir(tmp_path / "again") if n.startswith("ratios_"))
    assert again == [n for n in names if n.startswith("ratios_")]


def test_scenarios_bad_inputs_exit_2(capsys, tmp_path):
    # rejected run arguments announce no run
    for flag, value, message in [
        ("--paths", "10", "n_paths below the 10^3 floor"),
        ("--level", "1.5", "level must lie in (0, 1)"),
        ("--threads", "0", "threads must be >= 1"),
        ("--threads", "65", "threads must be <= 64"),
        ("--seed", str(2**130), "seed must be an integer in [0, 2**128)"),
        ("--paths", str(10**13), "needs a VaR/ES tail buffer of"),
    ]:
        code, _, err = run_cli(capsys, *_scen_args(tmp_path, "x", flag, value))
        assert code == 2 and message in err
        assert "running" not in err, flag
    assert not (tmp_path / "x").exists()
    # an output directory that names a file stops before any path is simulated
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    code, _, err = run_cli(capsys, *_scen_args(tmp_path, "taken"))
    assert code == 2
    assert f"output directory is a file: {str(taken)!r}" in err
    assert "running" not in err
    assert taken.read_text() == "kept\n"
    code, _, err = run_cli(capsys, *_scen_args(tmp_path, "taken/sub"))
    assert code == 2 and "output path lies under a file" in err
    # a market that fails validation announces no run either
    table = "dealer,forwards,options,swaps,credit\n{}\n"
    repeated = tmp_path / "repeated.csv"
    repeated.write_text(table.format("A,1,1,1,1\nA,2,2,2,2"))
    reserved = tmp_path / "reserved.csv"
    reserved.write_text(table.format("A,1,1,1,1\n__max__,2,2,2,2"))
    two_swaps = tmp_path / "two_swaps.csv"
    two_swaps.write_text("dealer,swaps,swaps,credit\nA,1,2,1\nB,2,1,2\n")
    for extra, message in [
        (("--notionals", str(repeated)), "dealer names must be unique"),
        (("--beta", "swaps=-1"), "class 'swaps': beta must be finite and > 0"),
        (("--rho", "1.5"), "rho must lie in [0, 1)"),
        (("--notionals", str(two_swaps)), "class names must be unique, repeated: ['swaps']"),
        (("--notionals", str(reserved)), "reserved by the report dump: ['__max__']"),
    ]:
        code, _, err = run_cli(capsys, *_scen_args(tmp_path, "v", *extra))
        assert code == 2 and message in err, extra
        assert "running" not in err, extra
    assert not (tmp_path / "v").exists()
    # a clearing fraction for a class that its scenarios do not clear
    for sid, cls in [("no_ccp", "swaps"), ("irs_ccp", "credit"), ("cds_ccp", "forwards")]:
        cfg = tmp_path / f"{sid}.cfg"
        cfg.write_text(f"scenario.{sid}.w.{cls} = 0.5\n")
        code, _, err = run_cli(capsys, *_scen_args(tmp_path, "u", "--config", str(cfg)))
        assert code == 2, sid
        assert f"scenario.{sid}.w.{cls} changes nothing" in err
        assert "running" not in err
    code, _, err = run_cli(capsys, *_scen_args(tmp_path, "u", "--w", "forwards=0.5"))
    assert code == 2
    assert "w setting for class 'forwards' changes nothing" in err
    assert "running" not in err
    # a shared fraction that every scenario clearing its class overrides
    overridden = tmp_path / "overridden.cfg"
    overridden.write_text(
        "".join(f"scenario.{sid}.w.credit = 0.7\n" for sid in ("cds_ccp", "two_ccps", "joint_ccp"))
    )
    code, _, err = run_cli(
        capsys, *_scen_args(tmp_path, "u", "--config", str(overridden), "--w", "credit=0.5")
    )
    assert code == 2
    assert "w setting for class 'credit' changes nothing: every scenario clearing it" in err
    assert "running" not in err
    assert not (tmp_path / "u").exists()
    # an empty output path, from a flag or from a config file
    empty_out = tmp_path / "empty_out.cfg"
    empty_out.write_text("paths = 1000\nout_dir =\n")
    for argv in (["--paths", "1000", "--out", ""], ["--config", str(empty_out)]):
        code, _, err = run_cli(capsys, "scenarios", *argv)
        assert code == 2 and "config error: output path is empty" in err, argv
        assert "running" not in err, argv
    assert run_cli(capsys, *_scen_args(tmp_path, "y", "--beta", "swaps"))[0] == 2
    assert run_cli(capsys, *_scen_args(tmp_path, "z", "--marginal", "credit=cauchy"))[0] == 2
    assert run_cli(capsys, *_scen_args(tmp_path, "b", "--beta", "swaps=inf"))[0] == 2
    assert run_cli(capsys, *_scen_args(tmp_path, "n", "--beta", "swaps=nan"))[0] == 2
    nan_row = tmp_path / "nan.csv"
    nan_row.write_text("dealer,forwards,options,swaps,credit\nA,1,1,nan,1\nB,1,1,1,1\n")
    assert run_cli(capsys, *_scen_args(tmp_path, "c", "--notionals", str(nan_row)))[0] == 2
    for sub in ("b", "n", "c"):
        assert not (tmp_path / sub).exists()
    assert (
        run_cli(capsys, "scenarios", "--notionals", "/missing.csv", "--paths", "1000")[0]
        == 2
    )
    code, _, err = run_cli(capsys, *_scen_args(tmp_path, "d", "--notionals", str(tmp_path)))
    assert code == 2
    assert "notional table not found" in err
    assert not (tmp_path / "d").exists()
    code, _, err = run_cli(
        capsys, *_scen_args(tmp_path, "m", "--config", str(tmp_path / "none.cfg"))
    )
    assert code == 2
    assert "config error: run config not found" in err
    assert not (tmp_path / "m").exists()
    # a seed has at most 128 bits, from a config file too
    big_seed = tmp_path / "seed.cfg"
    big_seed.write_text(f"seed = {2**128}\n")
    code, _, err = run_cli(
        capsys, "scenarios", "--config", str(big_seed), "--paths", "1000",
        "--out", str(tmp_path / "s"),
    )
    assert code == 2
    assert "seed must be" in err
    assert not (tmp_path / "s").exists()
    # bytes that are no text, in a notional table and in a run config
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"dealer,forwards,options,swaps,credit\nSoci\xe9t\xe9,1,1,1,1\n")
    code, _, err = run_cli(capsys, *_scen_args(tmp_path, "u", "--notionals", str(latin1)))
    assert code == 2
    assert "notional table is not" in err and str(latin1) in err
    latin1_cfg = tmp_path / "latin1.cfg"
    latin1_cfg.write_bytes(b"seed = 5 # caf\xe9\n")
    code, _, err = run_cli(capsys, *_scen_args(tmp_path, "u", "--config", str(latin1_cfg)))
    assert code == 2
    assert "run config is not" in err and str(latin1_cfg) in err
    assert not (tmp_path / "u").exists()


@pytest.mark.parametrize(
    "rows",
    [
        ["A,1,1,1,1", "B,2,2,2,2", "A,3,3,3,3"],  # a name given twice
        ["A,1,1,1,1", "A (EU),2,2,2,2"],  # a name that the mirror twin of A takes
    ],
    ids=["repeated_row", "mirror_twin"],
)
def test_scenarios_duplicate_dealer_names_exit_2(capsys, tmp_path, rows):
    """Reports key their rows by dealer name, so two dealers of one name
    would be merged when a dump is read back."""
    table = tmp_path / "dup.csv"
    table.write_text("\n".join(["dealer,forwards,options,swaps,credit", *rows]) + "\n")
    code, _, err = run_cli(capsys, *_scen_args(tmp_path, "dup", "--notionals", str(table)))
    assert code == 2
    assert "dealer names must be unique" in err
    assert not (tmp_path / "dup").exists()


def test_scenarios_market_without_positions(capsys, tmp_path):
    """A market whose notionals are all zero has no exposure: the run exits
    0, and its closed-form totals carry a nan ratio, like its dealers' rows."""
    table = tmp_path / "zero.csv"
    table.write_text("dealer,forwards,options,swaps,credit\nA,0,0,0,0\nB,0,0,0,0\n")
    argv = _scen_args(tmp_path, "zero", "--notionals", str(table), "--no-mirror")
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
    rows = (tmp_path / "zero" / "analytic_ee.csv").read_text().splitlines()[2:]
    assert len(rows) == 15 and all(row.endswith(",0,nan") for row in rows)
    report = dataio.load_report(str(tmp_path / "zero" / "report.csv"))
    assert not report.ee.any() and not report.mean_max.any()


def test_undefined_ratios_are_nan_in_every_table(capsys, tmp_path):
    """A dealer whose base EE is zero has an undefined ratio to base: nan in
    the closed-form table as in the Monte Carlo ratio tables and dump."""
    table = tmp_path / "one_zero.csv"
    table.write_text(
        "dealer,forwards,options,swaps,credit\nA,9,8,50,7\nB,1,5,20,3\nZ,0,0,0,0\n"
    )
    argv = _scen_args(tmp_path, "z", "--notionals", str(table), "--no-mirror")
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
    rows = (tmp_path / "z" / "analytic_ee.csv").read_text().splitlines()[2:]
    zero = [row.split(",") for row in rows if row.startswith("Z,")]
    assert len(zero) == 5 and all(row[2:] == ["0", "nan"] for row in zero)
    assert all(not row.endswith(",") for row in rows)
    table_rows = (tmp_path / "z" / "ratios_expected_exposure.csv").read_text().splitlines()
    assert [row for row in table_rows if row.startswith("Z,")] == ["Z" + ",nan" * 5]
    report = dataio.load_report(str(tmp_path / "z" / "report.csv"))
    assert np.isnan(report.ee_ratio[:, 2]).all()


def test_scenarios_removes_stale_optional_files(capsys, tmp_path):
    """A run into a directory that holds an earlier run leaves there exactly
    the files that it reports: an optional file that it does not write (the
    closed-form table, histograms, a path dump) or a VaR or ES ratio table
    at another level is removed, so none of the earlier run's passes for
    its own."""
    out = tmp_path / "st"
    for extra, optional in (
        (["--seed", "1", "--dump-paths"], {"analytic_ee", "histograms", "paths"}),
        (["--seed", "2", "--marginal", "credit=t3"], {"histograms"}),
        (["--seed", "3", "--no-histograms"], {"analytic_ee"}),
        # the next run's VaR and ES tables are tagged 99, not 95
        (["--seed", "4", "--level", "0.95"], {"analytic_ee", "histograms"}),
        (["--seed", "5"], {"analytic_ee", "histograms"}),
    ):
        argv = ["scenarios", "--paths", "1000", "--out", str(out), *extra]
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 0, err
        files = {k[5:]: v[0] for k, v in parse_kv(stdout).items() if k.startswith("file_")}
        assert {"analytic_ee", "histograms", "paths"} & files.keys() == optional, extra
        assert sorted(os.listdir(out)) == sorted(os.path.basename(f) for f in files.values())


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_scenarios_rejects_nonpositive_threads(capsys, tmp_path, threads):
    code, _, err = run_cli(capsys, *_scen_args(tmp_path, "t", "--threads", threads))
    assert code == 2
    assert "threads" in err
    assert not (tmp_path / "t").exists()


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["threshold", "--bogus"])
    assert exc.value.code == 2


def test_python_m_ccpnet(capsys, monkeypatch):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "ccpnet", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )

    ok = run("threshold", "--ce", "bis-2010h1", "--rho", "0")
    assert ok.returncode == 0
    assert ok.stdout.splitlines()[0] == "n_star=461"
    assert run("threshold", "--bogus").returncode == 2
    # the same module in this process exits with main's code
    monkeypatch.setattr(sys, "argv", ["ccpnet", "threshold", "--ce", "bis-2010h1"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("ccpnet", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines()[0] == "n_star=461"


def test_report_rerenders_tables(capsys, tmp_path):
    run_cli(capsys, *_scen_args(tmp_path, "orig"))
    code, out, _ = run_cli(
        capsys,
        "report",
        "--dump", str(tmp_path / "orig" / "report.csv"),
        "--out", str(tmp_path / "rerender"),
    )
    assert code == 0
    a = (tmp_path / "orig" / "ratios_expected_exposure.csv").read_text()
    b = (tmp_path / "rerender" / "ratios_expected_exposure.csv").read_text()
    assert a == b


def test_scenarios_header_records_run_inputs(capsys, tmp_path):
    """The header names every run input of the market, load_report reads
    them back, and ``report`` re-renders the dump to the same bytes."""
    argv = _scen_args(
        tmp_path, "run", "--rho", "0.1", "--beta", "credit=0.02", "--w", "swaps=0.8",
        "--marginal", "credit=t3",
    )
    assert run_cli(capsys, *argv)[0] == 0
    dump = tmp_path / "run" / "report.csv"
    head = [line for line in dump.read_text().splitlines() if line.startswith("#")]
    assert head == [
        "# ccpnet risk report", "# seed = 5", "# paths = 1000", "# level = 0.99",
        "# notionals = occ-2009q1", "# mirror_dealers = True", "# rho = 0.1",
        *(f"# beta.{c} = 0.0039" for c in ("forwards", "options", "swaps")),
        "# beta.credit = 0.02",
        *(f"# marginal.{c} = gaussian" for c in ("forwards", "options", "swaps")),
        "# marginal.credit = t3",
        "# scenario.irs_ccp.w.swaps = 0.8", "# scenario.cds_ccp.w.credit = 0.85",
        "# scenario.two_ccps.w.swaps = 0.8", "# scenario.two_ccps.w.credit = 0.85",
        "# scenario.joint_ccp.w.swaps = 0.8", "# scenario.joint_ccp.w.credit = 0.85",
        "# base_scenario = no_ccp",
        "# assumption = mirrored dealers: each dealer paired with an identically sized "
        "European twin (one-to-one interpretation)",
    ]
    report = dataio.load_report(str(dump))
    assert report.inputs["rho"] == 0.1 and report.inputs["beta.credit"] == 0.02
    assert report.inputs["marginal.credit"] == "t3"
    assert report.inputs["scenario.joint_ccp.w.swaps"] == 0.8
    assert report.inputs["mirror_dealers"] is True
    code, _, _ = run_cli(capsys, "report", "--dump", str(dump), "--out", str(tmp_path / "again"))
    assert code == 0
    # every file but the histograms, which a dump does not hold
    assert len(os.listdir(tmp_path / "again")) == 5
    for name in os.listdir(tmp_path / "again"):
        assert (tmp_path / "again" / name).read_bytes() == (
            tmp_path / "run" / name
        ).read_bytes(), name


def test_report_loads_dump_without_run_inputs(capsys, tmp_path):
    """A 0.2.0 dump records no run inputs but seed, paths and level. It
    loads with none, and re-renders with the same header."""
    dump = tmp_path / "report.csv"
    dump.write_text(_DUMP)
    report = dataio.load_report(str(dump))
    assert report.inputs == {} and (report.seed, report.n_paths) == (5, 1000)
    code, _, _ = run_cli(capsys, "report", "--dump", str(dump), "--out", str(tmp_path / "out"))
    assert code == 0
    # header lines end in \n, the csv module ends each row in \r\n
    again = (tmp_path / "out" / "report.csv").read_bytes().replace(b"\r\n", b"\n")
    assert again == _DUMP.encode()


def test_report_keeps_dealer_named_like_a_comment(capsys, tmp_path):
    """Only the lines before the dump's column header are its header: a
    dealer row that starts with '#' is data."""
    table = tmp_path / "hash.csv"
    table.write_text(
        "dealer,forwards,options,swaps,credit\n"
        "#1 Bank,900,800,5000,700\nAlpha,100,50,2000,300\nBeta,200,80,1500,100\n"
    )
    code, out, _ = run_cli(capsys, *_scen_args(tmp_path, "orig", "--notionals", str(table)))
    assert code == 0
    dump = parse_kv(out)["file_dump"][0]
    assert "#1 Bank" in dataio.load_report(dump).dealer_names
    code, out, _ = run_cli(capsys, "report", "--dump", dump, "--out", str(tmp_path / "again"))
    assert code == 0
    for name in os.listdir(tmp_path / "again"):
        assert (tmp_path / "again" / name).read_bytes() == (
            tmp_path / "orig" / name
        ).read_bytes(), name


# per reader, an input file's text and the command that reads it as in.csv
_READER_RUNS = {
    "ce": (
        "class,exposure\ncommodity,457\nequity,706\nfx,2524\nrates,17533\n"
        "credit,1666\nother,1788\n",
        ["threshold", "--ce", "in.csv", "--cleared", "credit"],
    ),
    "notionals": (
        "dealer,forwards,options,swaps,credit\nAlpha,100,50,2000,300\nBeta,200,80,1500,100\n",
        ["scenarios", "--paths", "1000", "--notionals", "in.csv", "--out", "out"],
    ),
    "config": ("paths = 1000\nseed = 6\n", ["scenarios", "--config", "in.csv", "--out", "out"]),
    "dump": (None, ["report", "--dump", "in.csv", "--out", "out"]),
}


@pytest.mark.parametrize("reader", sorted(_READER_RUNS))
def test_inputs_read_the_same_after_a_byte_order_mark(capsys, tmp_path, monkeypatch, reader):
    """Spreadsheets save "CSV UTF-8" with a byte-order mark first. Every
    reader skips it: a command gives the same output and files for an input
    with the mark as for one without."""
    text, argv = _READER_RUNS[reader]
    runs = []
    for bom in ("", "\ufeff"):
        run_dir = tmp_path / ("with_bom" if bom else "without_bom")
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        Path("in.csv").write_text(bom + (text or _DUMP), encoding="utf-8")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        files = {p.name: p.read_bytes() for p in Path().glob("out/*")}
        assert bool(files) == (argv[0] != "threshold")
        runs.append((out, err, files))
    assert runs[0] == runs[1]


def test_report_missing_dump_exits(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "report", "--dump", str(tmp_path / "none.csv"), "--out", str(tmp_path)
    )
    assert code == 2  # a missing input file is a configuration error
    assert "config error: report dump not found" in err


_DUMP = """\
# ccpnet risk report
# seed = 5
# paths = 1000
# level = 0.99
# base_scenario = no_ccp
dealer,scenario,measure,value,ratio_to_base,std_error
A,no_ccp,ee,2.5,1.0,0.1
A,no_ccp,var99,4.0,1.0,
A,no_ccp,es99,5.0,1.0,
A,no_ccp,es99_exceedances,10,,
__total__,no_ccp,total_ee,2.5,1.0,
__max__,no_ccp,mean_max,2.5,1.0,
"""


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("# paths = 1000\n", "", "missing '# paths = ...' header"),
        ("# paths = 1000", "# paths = many", "{dump}:3: bad paths value"),
        ("A,no_ccp,ee,2.5,1.0,0.1", "A,no_ccp,ee", "{dump}:7: expected 6 fields, got 3"),
        ("A,no_ccp,ee,2.5,", "A,no_ccp,ee,lots,", "{dump}:7: non-numeric value"),
        ("mean_max,2.5", "mean_max,", "{dump}:12: non-numeric value"),
        ("= no_ccp", "= nope", "{dump}:5: base_scenario 'nope' names no scenario"),
        ("A,no_ccp,ee", "Soci\xe9t\xe9,no_ccp,ee", "report dump is not"),
        (
            "A,no_ccp,var99,4.0,1.0,\n", "",
            "{dump}: no var99 row for 'A' in scenario 'no_ccp'",
        ),
        (
            "__total__", "A,no_ccp,ee,3.0,1.0,0.1\n__total__",
            "{dump}:11: repeated ee row for 'A' in scenario 'no_ccp'",
        ),
        ("__total__", "A,no_ccp,vol,1.0,,\n__total__", "{dump}:11: unknown measure 'vol'"),
        (_DUMP[_DUMP.index("dealer,scenario"):], "", "{dump}: empty report dump"),
        (_DUMP[_DUMP.index("A,"):_DUMP.index("__total__")], "", "{dump}: no dealer rows"),
        ("# level = 0.99", "# level = nan", "{dump}:4: risk-measure level must lie in (0, 1)"),
        ("# seed = 5\n", "# seed = 2\n# seed = 7\n", "{dump}:3: repeated '# seed' header"),
        (
            "# base_scenario = no_ccp\n",
            "# base_scenario = no_ccp\n# base_scenario = no_ccp\n",
            "{dump}:6: repeated '# base_scenario' header",
        ),
        ("A,no_ccp,ee,2.5,", "A,no_ccp,ee,nan,", "{dump}:7: value 'nan' is not finite and >= 0"),
        ("1.0,0.1\n", "1.0,-0.1\n", "{dump}:7: value '-0.1' is not finite and >= 0"),
        ("_exceedances,10,", "_exceedances,-5,", "{dump}:10: value '-5' is not in [0, 1000]"),
        ("_exceedances,10,", "_exceedances,1001,", "{dump}:10: value '1001' is not in [0, 1000]"),
        (
            "A,no_ccp,var99,4.0,1.0,", "A,no_ccp,var99,4.0,banana,",
            "{dump}:8: ratio_to_base 'banana' does not match the dump's values, which give '1.0'",
        ),
        ("total_ee,2.5", "total_ee,lots", "{dump}:11: value 'lots' does not match"),
        ("var99,4.0,1.0,\n", "var99,4.0,1.0,oops\n", "{dump}:8: std_error 'oops' does not match"),
        ("_exceedances,10,,", "_exceedances,10,zzz,", "{dump}:10: ratio_to_base 'zzz' does not"),
        ("es99,5.0", "es99,1.0", "{dump}:9: ES 1.0 is below VaR 4.0"),
        ("# level = 0.99\n", "# level = 0.99\n# rho = 1.5\n", "{dump}:5: rho must lie in [0, 1)"),
        (
            "# level = 0.99\n", "# level = 0.99\n# beta.swaps = 0.01\n# beta.swaps = 0.01\n",
            "{dump}:6: repeated '# beta.swaps' header",
        ),
        (
            "# level = 0.99\n", "# level = 0.99\n# scenario.super_ccp.w.swaps = 0.5\n",
            "{dump}:5: unknown scenario id 'super_ccp'",
        ),
    ],
    ids=[
        "no_paths", "bad_paths", "short_row", "bad_value", "empty_value", "bad_base",
        "undecodable", "missing_cell", "duplicate_row", "unknown_measure", "header_only",
        "totals_only", "bad_level",
        "repeated_seed", "repeated_base", "nan_value", "negative_se", "negative_count",
        "count_above_paths", "bad_ratio", "bad_total", "derived_se", "count_ratio",
        "es_below_var", "bad_rho", "repeated_input", "unknown_scenario_id",
    ],
)
def test_report_malformed_dump_exits_2(capsys, tmp_path, old, new, message):
    dump = tmp_path / "report.csv"
    dump.write_text(_DUMP)
    argv = ("report", "--dump", str(dump), "--out", str(tmp_path / "out"))
    assert run_cli(capsys, *argv)[0] == 0  # the unbroken dump loads
    assert _DUMP.count(old) == 1
    # Latin-1 bytes: the undecodable case's name is no UTF-8 text
    dump.write_bytes(_DUMP.replace(old, new).encode("latin-1"))
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert message.format(dump=dump) in err and str(dump) in err
