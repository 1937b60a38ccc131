import json
import math
import shlex
from pathlib import Path

import pytest

from hscyl import MinimizeOptions, UsageError, load_grid
from hscyl.cli import _SUBCOMMANDS, main, parse_args, run


def _summary(outdir) -> dict:
    records = json.loads((Path(outdir) / "summary.json").read_text())
    return {rec["key"]: rec["value"] for rec in records}


def test_parse_args_basic():
    config = parse_args(["constant", "--n", "3", "--k", "2"])
    assert config.subcommand == "constant"
    assert config.parameters["n"] == 3
    assert config.parameters["k"] == 2
    assert config.parameters["tol"] == 1e-10


def test_parse_args_config_file_with_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\nk = 2\nstep = 0.5\n# a comment\n")
    config = parse_args(["minimize", "--config", str(cfg), "--step", "0.01"])
    assert config.parameters["n"] == 3
    assert config.parameters["step"] == 0.01  # flag overrides the file


def test_minimize_defaults_are_the_library_defaults():
    params = parse_args(["minimize"]).parameters
    opts = MinimizeOptions()
    assert (params["step"], params["max-iters"], params["tol"], params["init"],
            params["init-scale"]) == (opts.step, opts.max_iters, opts.tol,
                                      opts.init, opts.init_scale)


def test_parse_args_usage_errors(tmp_path):
    with pytest.raises(UsageError):
        parse_args([])
    with pytest.raises(UsageError):
        parse_args(["frobnicate"])
    with pytest.raises(UsageError):
        parse_args(["constant", "--n", "two", "--k", "2"])
    with pytest.raises(UsageError):
        parse_args(["constant", "--n", "3", "--k", "2", "--bogus", "1"])
    with pytest.raises(UsageError):
        parse_args(["constant", "--n", "3"])  # missing required --k
    with pytest.raises(UsageError):
        parse_args(["constant", "--n"])  # missing value
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("unknown-key = 5\n")
    with pytest.raises(UsageError):
        parse_args(["constant", "--config", str(cfg), "--n", "3", "--k", "2"])


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples = [shlex.split(line)[1:] for line in section.splitlines()
                if line.startswith("hscyl ") and "SUBCOMMAND" not in line]
    for argv in examples:
        parse_args(argv)
    assert {argv[0] for argv in examples} == set(_SUBCOMMANDS)


@pytest.mark.parametrize("args, table", [
    (["plot", "--input", "missing.csv", "--output", "x.svg"], None),
    (["plot", "--input", "bad.csv", "--output", "x.svg"], "x,y\n1,2\n3,abc\n"),
    (["decay-fit", "--samples", "bad.csv"], "radius,value\n1,2\n3,abc\n"),
    (["decay-fit", "--grid", "missing.csv"], None),
    (["plot", "--input", "bad.csv", "--output", "x.svg"], "x,y\n"),
    (["decay-fit", "--samples", "bad.csv"], "radius,value\n1,2,3\n"),
    (["decay-fit", "--grid", "bad.csv"], "\u00e9\n"),
], ids=["plot-missing", "plot-non-numeric", "samples-non-numeric", "grid-missing",
        "plot-no-rows", "samples-row-wider-than-header", "grid-not-ascii"])
def test_unreadable_input_table_is_usage_error(tmp_path, monkeypatch, capsys, args, table):
    monkeypatch.chdir(tmp_path)
    if table is not None:
        Path("bad.csv").write_text(table, encoding="utf-8")
    assert main(args + ["--output-dir", "out"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_exit_codes(tmp_path, capsys):
    assert main(["constant", "--n", "two"]) == 1
    assert main(["exponents", "--n", "2", "--k", "2",
                 "--output-dir", str(tmp_path / "a")]) == 2
    assert main(["minimize", "--n-rho", "32", "--n-r", "32", "--rho-max", "30",
                 "--r-max", "30", "--max-iters", "1",
                 "--output-dir", str(tmp_path / "b")]) == 3
    err = capsys.readouterr().err
    assert "usage error" in err
    assert "domain error" in err
    assert "convergence error" in err


def test_constant_outputs(tmp_path):
    out = tmp_path / "run"
    config = parse_args(["constant", "--n", "3", "--k", "2",
                         "--output-dir", str(out)])
    assert run(config) == 0
    summary = _summary(out)
    assert summary["K"] == pytest.approx(1.2208399114663184, rel=1e-9)
    assert summary["printed_discrepancy"] > 0.01
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "constant"
    assert manifest["parameters"]["n"] == 3
    assert (out / "constant.csv").exists()


def test_exponents_subcommand(tmp_path):
    out = tmp_path / "expo"
    assert main(["exponents", "--n", "3", "--k", "2", "--p", "2", "--s", "1",
                 "--gamma", "1.0", "--q", "5.0", "--output-dir", str(out)]) == 0
    summary = _summary(out)
    assert summary["p_star_s"] == 4.0
    assert summary["sigma"] == 0.125
    assert summary["mass_window_low"] == 4.0
    assert summary["mass_window_inside"] is True


def test_quadrature_subcommand(tmp_path):
    out = tmp_path / "quad"
    assert main(["quadrature", "--identity", "beta-full", "--n", "3", "--k", "2",
                 "--m", "2", "--s", "1", "--output-dir", str(out)]) == 0
    summary = _summary(out)
    assert summary["closed_form"] == pytest.approx(math.pi**2, rel=1e-12)
    assert summary["relative_error"] < 1e-8
    rows = (out / "comparison.csv").read_text().splitlines()
    assert rows[0] == ("identity,closed_form,quadrature,relative_error,"
                       "error_estimate,evaluations")
    assert len(rows) == 2


def test_verify_extremal_subcommand(tmp_path):
    out = tmp_path / "vx"
    assert main(["verify-extremal", "--n", "3", "--k", "2", "--levels", "3",
                 "--nodes", "24", "--output-dir", str(out)]) == 0
    summary = _summary(out)
    assert summary["residual_ratios_ok"] is True
    assert summary["normalization_ok"] is True
    rows = (out / "residuals.csv").read_text().splitlines()
    assert rows[0] == "level,nodes,h,max_residual,ratio"
    assert len(rows) == 5  # header + four levels


def test_quadrature_newtonian_subcommand(tmp_path):
    out = tmp_path / "newt"
    assert main(["quadrature", "--identity", "newtonian-ball", "--n", "3",
                 "--k", "2", "--s", "0", "--x-norm", "0.6", "--y-norm", "0.8",
                 "--output-dir", str(out)]) == 0
    summary = _summary(out)
    assert summary["relative_error"] < 1e-6


def test_verify_prop4_subcommand(tmp_path):
    out = tmp_path / "prop4"
    assert main(["verify-prop4", "--a", "1", "--b", "1", "--alpha", "1",
                 "--beta", "1", "--output-dir", str(out)]) == 0
    summary = _summary(out)
    assert summary["pass"] is True
    assert summary["residual_quadratic_max"] <= 1e-6
    assert summary["residual_solution_max"] <= 1e-6


def test_minimize_decay_fit_and_plot_pipeline(tmp_path):
    out = tmp_path / "mini"
    rc = main(["minimize", "--n-rho", "64", "--n-r", "64", "--rho-max", "60",
               "--r-max", "60", "--init", "analytic-extremal",
               "--init-scale", "0.5", "--output-dir", str(out)])
    assert rc == 0
    summary = _summary(out)
    assert summary["E_min"] == pytest.approx(math.pi / math.sqrt(2.0), rel=0.05)
    assert 0.0 < summary["stationarity"] <= math.sqrt(1e-10)

    # grid dump round-trips bit-exactly
    dumped = load_grid(out / "minimizer.csv")
    from hscyl.cylgrid import dump_grid

    dump_grid(dumped, out / "minimizer2.csv")
    assert (out / "minimizer.csv").read_bytes() == (out / "minimizer2.csv").read_bytes()

    out2 = tmp_path / "fit"
    rc = main(["decay-fit", "--grid", str(out / "minimizer.csv"),
               "--direction", "rho-axis", "--min-radius", "2",
               "--max-radius", "20", "--n", "3", "--p", "2",
               "--mode", "solution-two-sided", "--tol", "0.15",
               "--output-dir", str(out2)])
    assert rc == 0
    fit = _summary(out2)
    assert abs(fit["exponent"] - 1.0) <= 0.15

    out3 = tmp_path / "plot"
    rc = main(["plot", "--input", str(out / "history.csv"),
               "--output", str(out3 / "history.svg"), "--log-y", "true",
               "--x-col", "iteration", "--y-col", "energy",
               "--output-dir", str(out3)])
    assert rc == 0
    svg = (out3 / "history.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_minimize_determinism(tmp_path):
    args = ["minimize", "--n-rho", "32", "--n-r", "32", "--rho-max", "30",
            "--r-max", "30", "--tol", "1e-8", "--init", "positive-bump"]
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(args + ["--output-dir", str(tmp_path / "r1")]) == 0
        assert main(args + ["--output-dir", str(tmp_path / "r2")]) == 0
    for name in ("summary.json", "history.csv", "minimizer.csv", "manifest.json"):
        a = (tmp_path / "r1" / name).read_bytes()
        b = (tmp_path / "r2" / name).read_bytes()
        assert a == b or name == "manifest.json"  # manifest differs in path only


def test_plot_grid_dump(tmp_path, const32, extremal32):
    from hscyl import build_grid
    from hscyl.cylgrid import dump_grid

    grid = build_grid(3, 2, 30.0, 30.0, 24, 24, grading=1.0).sampled(extremal32)
    dump_grid(grid, tmp_path / "g.csv")
    rc = main(["plot", "--input", str(tmp_path / "g.csv"),
               "--output", str(tmp_path / "g.svg"), "--log-x", "true",
               "--log-y", "true", "--output-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "g.svg").exists()
