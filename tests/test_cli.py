import json
import math
import shlex
from pathlib import Path
from xml.etree import ElementTree

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
    assert set(config.parameters) == {"n", "k"}


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


def test_boolean_flags():
    argv = ["plot", "--input", "t.csv", "--output", "t.svg"]
    assert parse_args(argv + ["--log-y", "no"]).parameters["log-y"] is False
    assert parse_args(argv + ["--log-y", "on"]).parameters["log-y"] is True
    with pytest.raises(UsageError, match="expected a boolean"):
        parse_args(argv + ["--log-y", "maybe"])


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


@pytest.mark.parametrize("argv, config", [
    (["constant", "--config", "missing.cfg"], None),
    (["constant", "--config", "run.cfg"], "n = 3\nk\n"),
    (["constant", "n", "3", "--k", "2"], None),
    (["plot", "--input", "table.csv", "--output", "x.svg", "--y-col", "nope"], None),
], ids=["config-missing", "config-line-without-equals", "token-not-a-flag",
        "plot-unknown-column"])
def test_malformed_command_lines_exit_1(tmp_path, monkeypatch, capsys, argv, config):
    monkeypatch.chdir(tmp_path)
    Path("table.csv").write_text("x,y\n1,2\n3,4\n")
    if config is not None:
        Path("run.cfg").write_text(config)
    assert main(argv + ["--output-dir", "out"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not Path("out", "manifest.json").exists()


def test_constant_takes_no_tol(tmp_path, capsys):
    # the constant is a closed form: there is no quadrature for a tol to steer
    with pytest.raises(UsageError, match="unknown key 'tol'"):
        parse_args(["constant", "--n", "3", "--k", "2", "--tol", "1e-8"])
    cfg = tmp_path / "constant.cfg"
    cfg.write_text("n = 3\nk = 2\ntol = 1e-8\n")
    assert main(["constant", "--config", str(cfg),
                 "--output-dir", str(tmp_path / "out")]) == 1
    assert "unknown key 'tol'" in capsys.readouterr().err


def _readme_commands() -> list:
    """The argv of each example line of the README's command-line section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [shlex.split(line)[1:] for line in section.splitlines()
            if line.startswith("hscyl ") and "SUBCOMMAND" not in line]


def test_readme_command_lines_parse():
    examples = _readme_commands()
    for argv in examples:
        parse_args(argv)
    assert {argv[0] for argv in examples} == set(_SUBCOMMANDS)


def test_readme_command_block_chains():
    # run top to bottom, each line reads only what an earlier line wrote
    written = []
    for argv in _readme_commands():
        config = parse_args(argv)
        for key in ("grid", "input"):
            path = config.parameters.get(key)
            if path is not None:
                assert any(out in Path(path).parents for out in written), (argv, path)
        if "--output-dir" in argv:
            written.append(config.output_dir)


#: a 1-D grid dump whose last row, past the first chunk the text layer
#: decodes, holds a non-ASCII character: it fails inside load_grid's loadtxt
_LATE_NON_ASCII = ("# hscyl-grid n=3 k=3 grading=1 axis_ghost=1\nrho,r,value\n"
                   + "".join(f"{i},0,1\n" for i in range(1, 2000)) + "2000,0,\u00e9\n")


@pytest.mark.parametrize("args, table", [
    (["plot", "--input", "missing.csv", "--output", "x.svg"], None),
    (["plot", "--input", "bad.csv", "--output", "x.svg"], "x,y\n1,2\n3,abc\n"),
    (["decay-fit", "--samples", "bad.csv"], "radius,value\n1,2\n3,abc\n"),
    (["decay-fit", "--grid", "missing.csv"], None),
    (["plot", "--input", "bad.csv", "--output", "x.svg"], "x,y\n"),
    (["decay-fit", "--samples", "bad.csv"], "radius,value\n1,2,3\n"),
    (["decay-fit", "--grid", "bad.csv"], "\u00e9\n"),
    (["decay-fit", "--grid", "bad.csv"], _LATE_NON_ASCII),
], ids=["plot-missing", "plot-non-numeric", "samples-non-numeric", "grid-missing",
        "plot-no-rows", "samples-row-wider-than-header", "grid-not-ascii",
        "grid-row-not-ascii"])
def test_unreadable_input_table_is_usage_error(tmp_path, monkeypatch, capsys, args, table):
    monkeypatch.chdir(tmp_path)
    if table is not None:
        Path("bad.csv").write_text(table, encoding="utf-8")
    assert main(args + ["--output-dir", "out"]) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["decay-fit"],
    ["quadrature", "--identity", "bogus"],
], ids=["decay-fit-without-input", "quadrature-unknown-identity"])
def test_rejected_parameters_leave_no_manifest(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert main(args + ["--output-dir", str(out)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_exit_codes(tmp_path, capsys):
    assert main(["constant", "--n", "two"]) == 1
    assert main(["exponents", "--n", "2", "--k", "2",
                 "--output-dir", str(tmp_path / "a")]) == 2
    assert main(["minimize", "--n-rho", "32", "--n-r", "32", "--rho-max", "30",
                 "--r-max", "30", "--max-iters", "1",
                 "--output-dir", str(tmp_path / "b")]) == 3
    assert main(["minimize", "--tol", "inf", "--output-dir", str(tmp_path / "c")]) == 2
    assert main(["minimize", "--init", "positive-bump", "--init-scale", "0.6",
                 "--output-dir", str(tmp_path / "f")]) == 2
    assert main(["minimize", "--k", "2", "--rho-max", "inf",
                 "--output-dir", str(tmp_path / "d")]) == 2
    samples = tmp_path / "nan-radius.csv"
    samples.write_text("radius,value\n1,1\nnan,0.5\n4,0.25\n8,0.125\n16,0.0625\n")
    assert main(["decay-fit", "--samples", str(samples),
                 "--output-dir", str(tmp_path / "e")]) == 2
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

    out = tmp_path / "radial"
    assert main(["quadrature", "--identity", "beta-radial", "--k", "2", "--a", "2",
                 "--s", "1", "--output-dir", str(out)]) == 0
    summary = _summary(out)
    assert summary["closed_form"] == pytest.approx(math.pi**2 / 2.0, rel=1e-12)
    assert summary["relative_error"] <= 1e-8
    assert summary["evaluations"] > 0


def test_verify_extremal_subcommand(tmp_path):
    # k = 3 = n windows the 1-D residual on rho alone
    for k in (2, 3):
        out = tmp_path / f"vx{k}"
        assert main(["verify-extremal", "--n", "3", "--k", str(k), "--levels", "3",
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
    assert summary["relative_error"] <= 1e-10

    # the ball integral has a closed form at s = 0 only
    out = tmp_path / "newt-s"
    assert main(["quadrature", "--identity", "newtonian-ball", "--n", "3", "--k", "2",
                 "--s", "0.5", "--x-norm", "0.6", "--y-norm", "0.8",
                 "--output-dir", str(out)]) == 0
    summary = _summary(out)
    assert math.isnan(summary["closed_form"]) and math.isnan(summary["relative_error"])
    assert summary["quadrature"] > 0.0
    row = (out / "comparison.csv").read_text().splitlines()[1].split(",")
    assert row[1] == row[3] == "nan"


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
    assert summary["rejected_steps"] == 0
    assert 1 <= summary["extrapolated_steps"] <= summary["iterations"]

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


def test_plot_title_and_constant_series(tmp_path):
    table = tmp_path / "flat.csv"
    table.write_text("step,value\n1,0.3\n2,0.3\n3,0.3\n")
    ns = {"svg": "http://www.w3.org/2000/svg"}
    for log_y in ("false", "true"):
        svg = tmp_path / f"flat-{log_y}.svg"
        assert main(["plot", "--input", str(table), "--output", str(svg), "--title", "flat",
                     "--log-y", log_y, "--output-dir", str(tmp_path)]) == 0
        root = ElementTree.parse(svg).getroot()
        assert "flat" in [text.text for text in root.iterfind("svg:text", ns)]
        # the constant is widened evenly around itself (by 0.5, or half a
        # decade on a log axis): the line runs level through the middle of
        # the frame, which spans y = 34 to 430
        points = root.find("svg:polyline", ns).get("points").split()
        assert {pair.split(",")[1] for pair in points} == {"232.00"}


@pytest.mark.parametrize("ys", [(2, 5, 8), (2.23, 3.0, 3.76), (0.5, 20, 300)])
def test_log_axis_without_a_power_of_ten_gets_ticks(tmp_path, ys):
    # a log y range holding no power of ten is labelled by linear steps
    # inside it, as the README's energy history (2.23 to 3.76) needs; one
    # holding two or more is labelled at those powers alone
    table = tmp_path / "decade.csv"
    table.write_text("step,value\n" + "".join(f"{i},{y}\n" for i, y in enumerate(ys)))
    svg = tmp_path / "decade.svg"
    assert main(["plot", "--input", str(table), "--output", str(svg), "--log-y", "true",
                 "--output-dir", str(tmp_path)]) == 0
    ns = {"svg": "http://www.w3.org/2000/svg"}
    y_labels = [text for text in ElementTree.parse(svg).getroot().iterfind("svg:text", ns)
                if text.get("text-anchor") == "end"]
    assert len(y_labels) >= 2
    if max(ys) > 100:
        assert [label.text for label in y_labels] == ["1", "10", "100"]
    for label in y_labels:
        assert min(ys) <= float(label.text) <= max(ys)
        assert 34.0 <= float(label.get("y")) - 4.0 <= 430.0
