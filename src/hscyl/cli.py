"""Command-line orchestration.

Each subcommand is one entry of ``_SUBCOMMANDS``: its runner and its
parameter schema.  Flags take the form ``--key value``; ``--config FILE``
points at a plain key=value file whose entries the command-line flags
override.  Unknown keys are rejected, and so is a key set away from its
default that the run never reads (``beta-full`` has no ``--a``), after
the run and before its manifest.  Every completed run writes
``manifest.json`` echoing the fully resolved configuration (that file
alone reproduces the run), a ``summary.json`` of
(key, value, units, oracle-provenance) records, and one or more
comma-separated tables.  Numbers are printed with 17 significant digits
so that dumps round-trip bit-exactly.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 convergence
failure.  Verification subcommands always exit 0 when the computation
itself succeeds; their pass/fail verdicts live in the summary.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, asymptotics, closed_forms, cylgrid, minimizer, quadrature
from . import exponents as expo
from .errors import ConvergenceError, DomainError, UsageError
from .specfn import sphere_measure
from .svgplot import render_line_plot

__all__ = ["RunConfig", "parse_args", "run", "main"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


_REQUIRED = object()  # schema default of a parameter that has none


@dataclass
class RunConfig:
    subcommand: str
    parameters: dict = field(default_factory=dict)
    output_dir: Path = Path(".")


def _convert(key: str, raw: str, typ):
    try:
        if typ is bool:
            return _parse_bool(raw)
        return typ(raw)
    except UsageError:
        raise
    except (TypeError, ValueError):
        raise UsageError(f"malformed value for --{key}: {raw!r} is not a {typ.__name__}")


def _config_pairs(path: str) -> list:
    """(key, value, origin) triples of a key=value file; '#' starts a comment."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    pairs = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        pairs.append((key, value, f"{path}:{lineno}"))
    return pairs


def parse_args(argv) -> RunConfig:
    """Parse [subcommand, --key, value, ...] into a validated RunConfig.

    The ``--config`` file's pairs come first and the flags after them, so a
    flag overrides the file; one loop checks the keys of both."""
    if not argv:
        raise UsageError("usage: hscyl SUBCOMMAND [--key value]... ; subcommands: "
                         + ", ".join(sorted(_SUBCOMMANDS)))
    sub = argv[0]
    if sub not in _SUBCOMMANDS:
        raise UsageError(f"unknown subcommand {sub!r}; expected one of "
                         + ", ".join(sorted(_SUBCOMMANDS)))
    schema = _SUBCOMMANDS[sub].schema

    pairs, config_path = [], None
    for i in range(1, len(argv), 2):
        token = argv[i]
        if not token.startswith("--"):
            raise UsageError(f"expected a --flag, got {token!r}")
        if i + 1 == len(argv):
            raise UsageError(f"flag {token} is missing its value")
        if token == "--config":
            config_path = argv[i + 1]
        else:
            pairs.append((token[2:], argv[i + 1], "command line"))
    if config_path is not None:
        pairs = _config_pairs(config_path) + pairs

    raw, output_dir = {}, "."
    for key, value, origin in pairs:
        if key == "output-dir":
            output_dir = value
        elif key in schema:
            raw[key] = value
        else:
            raise UsageError(f"{origin}: unknown key {key!r} for {sub}")
    params = {}
    for key, (typ, default) in schema.items():
        if key in raw:
            params[key] = _convert(key, raw[key], typ)
        elif default is _REQUIRED:
            raise UsageError(f"subcommand {sub} requires --{key}")
        else:
            params[key] = default
    return RunConfig(subcommand=sub, parameters=params, output_dir=Path(output_dir))


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_row(path: Path, records, lead=()) -> None:
    """A one-row table: the (column, value) pairs of ``lead``, then the
    key and value of each summary record."""
    pairs = list(lead) + [(key, value) for key, value, _, _ in records]
    _write_csv(path, [key for key, _ in pairs], [[value for _, value in pairs]])


def _write_json(path: Path, payload, sort_keys: bool) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _run_exponents(p: dict, out: Path) -> list:
    ctx = expo.ExponentContext(n=p["n"], k=p["k"], p=p["p"], s=p["s"])
    ok = expo.admissible(ctx)
    records = [("admissible", ok, "", "window predicate")]
    if ok:
        rep = expo.aux_exponents(ctx)
        for key in ("p_star_s", "p_prime", "r", "r_prime", "sigma", "p_sigma", "decay_bound"):
            value = getattr(rep, key)
            # JSON has no infinity: r' = inf (at s = p) is recorded as "inf"
            records.append((key, "inf" if math.isinf(value) else value, "",
                            "exponent algebra"))
        _write_row(out / "exponents.csv", records[1:],
                   lead=[("n", ctx.n), ("k", ctx.k), ("p", ctx.p), ("s", ctx.s)])
    if p["gamma"] is not None:
        low, high = expo.galaxy_mass_window(p["gamma"])
        records += [("mass_window_low", low, "", "exponent algebra"),
                    ("mass_window_high", high, "", "exponent algebra")]
        if p["q"] is not None:
            records.append(("mass_window_inside",
                            expo.galaxy_mass_inside(p["q"], p["gamma"]), "",
                            "window predicate"))
    return records


def _run_quadrature(p: dict, out: Path) -> list:
    identity = p["identity"]
    tol = p["tol"]
    if identity == "beta-full":
        closed = closed_forms.beta_integral_full(p["n"], p["k"], p["m"], p["s"])
        quad = quadrature.integrate_cylindrical(
            lambda rho, r: (1.0 + rho**2 + r**2) ** (-p["m"]),
            p["n"], p["k"], p["s"], tol=tol)
        oracle = "adaptive cylindrical quadrature"
    elif identity == "beta-radial":
        closed = closed_forms.beta_integral_radial(p["k"], p["a"], p["s"])
        quad = quadrature.integrate_radial(
            lambda rho: (1.0 + rho**2) ** (-p["a"]), p["k"], p["s"], tol=tol)
        oracle = "adaptive radial quadrature"
    elif identity == "newtonian-ball":
        n, k = p["n"], p["k"]
        z = np.zeros(n)
        z[0] = p["x-norm"]
        if k < n:  # R^k has no y factor when k = n
            z[k] = p["y-norm"]
        quad = quadrature.singular_newtonian_integral(z, n, k, p["s"], tol=tol)
        if p["s"] == 0.0:
            znorm = float(np.linalg.norm(z))
            closed = sphere_measure(n) * (0.5 * znorm) ** 2 / 2.0
        else:
            closed = float("nan")
        oracle = "nested shifted-spherical quadrature"
    else:
        raise UsageError(f"unknown identity {identity!r}; expected beta-full, "
                         f"beta-radial or newtonian-ball")
    rel = abs(quad.value - closed) / abs(closed) if math.isfinite(closed) else float("nan")
    records = [
        ("identity", identity, "", ""),
        ("closed_form", closed, "", "Beta-function composition"),
        ("quadrature", quad.value, "", oracle),
        ("relative_error", rel, "", "cross-check"),
        ("error_estimate", quad.error_estimate, "", oracle),
        ("evaluations", quad.evaluations, "", "integrand evaluations"),
        ("passes", quad.passes, "", "adaptive passes"),
    ]
    _write_row(out / "comparison.csv", records)
    return records


def _run_constant(p: dict, out: Path) -> list:
    const = closed_forms.sharp_constant_K(p["n"], p["k"])
    records = [
        ("K", const.K, "", "Beta composition of the normalization integral"),
        ("K_printed", const.K_printed, "", "literal published display"),
        ("printed_discrepancy", const.printed_discrepancy, "", "cross-check"),
        ("Lambda", const.Lambda, "", "K^(2(n-1)/(n-2))"),
        ("mu", const.mu, "", "4 Lambda / (n-2)^2"),
        ("attained_ratio", const.attained_ratio, "", "Lambda^(-1/2)"),
    ]
    _write_row(out / "constant.csv", records, lead=[("n", const.n), ("k", const.k)])
    return records


def _run_verify_extremal(p: dict, out: Path) -> list:
    n, k, lam, box = p["n"], p["k"], p["lam"], p["box"]
    const = closed_forms.sharp_constant_K(n, k)
    params = closed_forms.ExtremalParams(n=n, k=k, lam=lam)
    profile = closed_forms.extremal_profile(params, const)

    rows = []
    prev = None
    for level in range(p["levels"] + 1):
        nodes = p["nodes"] * 2**level
        grid = cylgrid.build_grid(n, k, box, box, nodes, nodes, grading=1.0)
        res = cylgrid.el_residual(grid.sampled(profile), const.Lambda, 1.0)
        lo, hi = box / 8.0, 0.75 * box
        window = res.values[(grid.rho_nodes >= lo) & (grid.rho_nodes <= hi)]
        if k < n:  # a k = n residual is 1-D: the window is on rho alone
            window = window[:, (grid.r_nodes >= lo) & (grid.r_nodes <= hi)]
        worst = float(np.abs(window).max())
        rows.append([level, nodes, box / nodes, worst,
                     prev / worst if prev else float("nan")])
        prev = worst
    ratios = [row[4] for row in rows[1:]]
    ratios_ok = all(3.5 <= q <= 4.5 for q in ratios)

    q = expo.hs_conjugate(2.0, 1.0, n)
    norm = quadrature.integrate_cylindrical(
        lambda rho, r: profile(rho, r) ** q, n, k, s=1.0, tol=p["tol"])
    norm_defect = abs(norm.value - 1.0)

    _write_csv(out / "residuals.csv",
               ["level", "nodes", "h", "max_residual", "ratio"], rows)
    return [
        ("residual_ratios_ok", ratios_ok, "", "refinement study, factor 4 +- 0.5"),
        ("finest_max_residual", rows[-1][3], "", "windowed max-norm"),
        ("normalization_defect", norm_defect, "", "cylindrical quadrature of the "
                                                  "constraint integral"),
        ("normalization_ok", bool(norm_defect <= 1e-6), "", "target 1e-6"),
    ]


def _run_verify_prop4(p: dict, out: Path) -> list:
    params = closed_forms.ShiftedQuadraticParams(a=p["a"], b=p["b"], lam=p["lam"],
                                      alpha=p["alpha"], beta=p["beta"])
    n, k = params.n, params.a + 1
    grid = cylgrid.window_grid(n, k, p["lo"], p["hi"], p["lo"], p["hi"],
                               p["nodes"], p["nodes"])

    lam2 = params.lam**2
    phi = grid.sampled(lambda rho, r: lam2 * ((rho + params.alpha) ** 2
                                              + (r + params.beta) ** 2))
    res_41 = cylgrid.shifted_quadratic_residual(phi, params)
    v = grid.sampled(closed_forms.shifted_power_profile(params))
    lap = cylgrid.cyl_laplacian(v)
    source = ((params.p_coef / grid.rho_nodes)[:, None]
              + (params.q_coef / grid.r_nodes)[None, :])
    res_42 = lap.values + v.values ** (n / (n - 2.0)) * source

    trim = slice(1, -1)
    max_41 = float(np.abs(res_41.values[trim, trim]).max())
    max_42 = float(np.abs(res_42[trim, trim]).max())
    _write_csv(out / "residuals.csv",
               ["a", "b", "lam", "alpha", "beta", "p_coef", "q_coef",
                "residual_quadratic", "residual_solution"],
               [[params.a, params.b, params.lam, params.alpha, params.beta,
                 params.p_coef, params.q_coef, max_41, max_42]])
    return [
        ("p_coef", params.p_coef, "", "alpha (n-2) lam^2 a"),
        ("q_coef", params.q_coef, "", "beta (n-2) lam^2 b"),
        ("residual_quadratic_max", max_41, "", "stencil residual, interior"),
        ("residual_solution_max", max_42, "", "stencil residual, interior"),
        ("pass", bool(max_41 <= 1e-6 and max_42 <= 1e-6), "", "target 1e-6"),
    ]


def _run_minimize(p: dict, out: Path) -> list:
    spec = cylgrid.GridSpec(rho_max=p["rho-max"], r_max=p["r-max"],
                            n_rho=p["n-rho"], n_r=p["n-r"], grading=p["grading"])
    opts = minimizer.MinimizeOptions(step=p["step"], tol=p["tol"], init=p["init"],
                                     init_scale=p["init-scale"])
    result = minimizer.minimize_rayleigh(p["n"], p["k"], p["s"], spec, opts)
    _write_csv(out / "history.csv",
               ["iteration", "energy", "constraint_defect"], result.history)
    cylgrid.dump_grid(result.grid, out / "minimizer.csv")
    return [
        ("E_min", result.E_min, "", "normalized gradient flow"),
        ("K_est", result.K_est, "", "E_min^(-1/2)"),
        ("iterations", result.iterations, "", ""),
        ("rejected_steps", result.rejected_steps, "", "step halvings"),
        ("extrapolated_steps", result.extrapolated_steps, "", "accepted mixed states"),
        ("core_scale", result.core_scale, "", "half-peak radius"),
        ("stationarity", result.stationarity, "", "||d||_M / E_min, stop at sqrt(tol)"),
    ]


def _run_decay_fit(p: dict, out: Path) -> list:
    if (p["grid"] is None) == (p["samples"] is None):
        raise UsageError("decay-fit needs exactly one of --grid or --samples")
    if p["grid"] is not None:
        grid = cylgrid.load_grid(p["grid"])
        samples = asymptotics.sample_ray(grid, p["direction"],
                                         min_radius=p["min-radius"],
                                         max_radius=p["max-radius"])
    else:
        _, data = _read_table(p["samples"])
        samples = asymptotics.RaySamples(p["direction"], data[:, 0], data[:, 1])
    fit = asymptotics.fit_decay(samples)
    records = [
        ("exponent", fit.exponent, "", "log-log least squares"),
        ("amplitude", fit.amplitude, "", "log-log least squares"),
        ("r_squared", fit.r_squared, "", "goodness of fit"),
    ]
    if p["n"] is not None:
        verdict = asymptotics.check_decay_bounds(fit, p["n"], p["p"], p["mode"],
                                                 p["tol"])
        records += [
            ("mode", verdict.mode, "", ""),
            ("bound", verdict.bound, "", "theoretical rate"),
            ("pass", verdict.passed, "", f"tolerance {verdict.tol}"),
        ]
    _write_row(out / "decay_fit.csv", records[:3], lead=[("direction", samples.direction)])
    return records


def _read_table(path: str):
    """Header and rows of a comma-separated table; blank and '#' lines are
    skipped.  UsageError unless the file reads as a header of two or more
    columns over at least one numeric row of the same width."""
    try:
        lines = [ln for ln in Path(path).read_text(encoding="ascii").splitlines()
                 if ln.strip() and not ln.startswith("#")]
        header = lines[0].split(",") if lines else []
        data = np.loadtxt(lines[1:], delimiter=",", ndmin=2) if lines[1:] else None
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read table {path}: {exc}") from None
    if len(header) < 2 or data is None or data.shape[1] != len(header):
        raise UsageError(f"{path}: need a header of two or more columns and at "
                         "least one row of the same width")
    return header, data


def _run_plot(p: dict, out: Path) -> list:
    header, data = _read_table(p["input"])
    if header == ["rho", "r", "value"]:
        # grid dump: plot the profile along the first r row
        r_min = data[:, 1].min()
        rows = data[data[:, 1] == r_min]
        x, y, label = rows[:, 0], rows[:, 2], "value(rho)"
        xlabel, ylabel = "rho", "value"
    else:
        x_col = p["x-col"] or header[0]
        y_col = p["y-col"] or header[1]
        try:
            xi, yi = header.index(x_col), header.index(y_col)
        except ValueError:
            raise UsageError(f"columns {x_col!r}/{y_col!r} not in {header}")
        x, y, label = data[:, xi], data[:, yi], y_col
        xlabel, ylabel = x_col, y_col
    render_line_plot(x, y, p["output"], label=label, log_x=p["log-x"], log_y=p["log-y"],
                     title=p["title"], xlabel=xlabel, ylabel=ylabel)
    return [("plot", str(p["output"]), "", "")]


class _Subcommand(NamedTuple):
    runner: Callable[[dict, Path], list]  # (params, output dir) -> summary records
    schema: dict  # key -> (type, default)


_SUBCOMMANDS = {
    "exponents": _Subcommand(_run_exponents, {
        "n": (int, _REQUIRED), "k": (int, _REQUIRED),
        "p": (float, 2.0), "s": (float, 1.0),
        "gamma": (float, None), "q": (float, None),
    }),
    "quadrature": _Subcommand(_run_quadrature, {
        "identity": (str, _REQUIRED),
        "n": (int, 3), "k": (int, 2), "m": (float, 2.0),
        "s": (float, 1.0), "a": (float, 2.0),
        "x-norm": (float, 1.0), "y-norm": (float, 0.0),
        "tol": (float, quadrature.DEFAULT_TOL),
    }),
    "constant": _Subcommand(_run_constant, {
        "n": (int, _REQUIRED), "k": (int, _REQUIRED),
    }),
    "verify-extremal": _Subcommand(_run_verify_extremal, {
        "n": (int, 3), "k": (int, 2), "lam": (float, 1.0),
        "levels": (int, 3), "nodes": (int, 24), "box": (float, 4.0),
        "tol": (float, quadrature.DEFAULT_TOL),
    }),
    "verify-prop4": _Subcommand(_run_verify_prop4, {
        "a": (int, 1), "b": (int, 1), "lam": (float, 1.0),
        "alpha": (float, 1.0), "beta": (float, 1.0),
        "nodes": (int, 1024), "lo": (float, 1.0), "hi": (float, 2.0),
    }),
    "minimize": _Subcommand(_run_minimize, {
        "n": (int, 3), "k": (int, 2), "s": (float, 1.0),
        "rho-max": (float, 120.0), "r-max": (float, 120.0),
        "n-rho": (int, 256), "n-r": (int, 256),
        "grading": (float, cylgrid.GridSpec.grading),
        "step": (float, minimizer.MinimizeOptions.step),
        "tol": (float, minimizer.MinimizeOptions.tol),
        "init": (str, minimizer.MinimizeOptions.init),
        "init-scale": (float, minimizer.MinimizeOptions.init_scale),
    }),
    "decay-fit": _Subcommand(_run_decay_fit, {
        "grid": (str, None), "samples": (str, None),
        "direction": (str, "rho-axis"),
        "min-radius": (float, 0.0), "max-radius": (float, None),
        "n": (int, None), "p": (float, 2.0),
        "mode": (str, "solution-two-sided"),
        "tol": (float, asymptotics.DEFAULT_BOUND_TOL),
    }),
    "plot": _Subcommand(_run_plot, {
        "input": (str, _REQUIRED), "output": (str, _REQUIRED),
        "log-x": (bool, False), "log-y": (bool, False),
        "title": (str, ""), "x-col": (str, None), "y-col": (str, None),
    }),
}


class _Reads(dict):
    """A run's parameters, recording the keys the runner reads."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def run(config: RunConfig) -> int:
    """Run a parsed configuration: the subcommand's tables, then
    manifest.json, summary.json and one printed line per record.  Returns
    the exit status.

    UsageError, with no manifest written, for every key set away from its
    default that the run never read: the run would have ignored it."""
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    sub = _SUBCOMMANDS[config.subcommand]
    params = _Reads(config.parameters)
    records = sub.runner(params, out)
    unread = [f"--{key}" for key, (_, default) in sub.schema.items()
              if key not in params.read and config.parameters[key] != default]
    if unread:
        raise UsageError(f"{config.subcommand} never reads {', '.join(unread)} with "
                         "these parameters")
    _write_json(out / "manifest.json", {
        "tool": "hscyl", "version": __version__, "subcommand": config.subcommand,
        "parameters": config.parameters, "output_dir": str(out),
    }, sort_keys=True)
    _write_json(out / "summary.json", [
        {"key": key, "value": value, "units": units, "oracle": oracle}
        for key, value, units, oracle in records
    ], sort_keys=False)
    for key, value, _, _ in records:
        print(f"{key} = {_fmt(value) if isinstance(value, (int, float)) else value}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(parse_args(argv))
    except (UsageError, OSError, UnicodeDecodeError) as exc:  # an unreadable input path
        print(f"hscyl: usage error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, DomainError) as exc:
        # parse_args succeeded, so argv[0] names a subcommand
        kind, code = ("convergence", 3) if isinstance(exc, ConvergenceError) else ("domain", 2)
        print(f"hscyl {argv[0]}: {kind} error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
