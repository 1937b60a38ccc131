"""The four benchmark workloads: seeded inputs, one round of checks each.

A workload is built once from its seed (``make``) and then run in rounds
(``round``); every round repeats the same calls on the same inputs, so
the per-round wall time is the sample the end-to-end metrics take their
median over.  Every numerical answer is held to the acceptance suite's
gate, unchanged.  A raised ``HscylError`` is a failed check, not a crash.

All calls into the library go through an ``Api`` object, which is the
plain module namespace in an untraced run and span-wrapped functions in
a traced one, so both runs execute the same code.
"""

from __future__ import annotations

import contextlib
import math
import os
import tempfile
import time
import warnings

import numpy as np

import hscyl
from hscyl.cylgrid import CylGrid

from spans import Tracer, patched_rayleigh

PI = math.pi

# acceptance-suite tolerances, unchanged
BETA_REL = 1e-8                 # criterion 1
HAND_REL = 1e-12                # criterion 1, (3,2,2,1) = pi^2
K_EST_REL = 0.02                # criterion 2
HALVING = (3.5, 4.5)            # criterion 3
RESIDUAL_MAX = 1e-6             # criterion 4
ANALYTIC_EXPONENT_TOL = 0.05    # criterion 5
FLOW_EXPONENT_TOL = 0.1         # criterion 5
SUP_SPREAD_MAX = 2.0            # criterion 5
ISOMETRY_REL = 1e-6             # criterion 6
HOMOGENEITY_REL = 5e-5          # tests/test_quadrature.py::test_newtonian_homogeneity
LAMBDA_REL = 1e-12              # SharpConstant's own Lambda = K^(2(n-1)/(n-2))

_QUAD = ("integrate_cylindrical", "integrate_radial", "singular_newtonian_integral")
_RESIDUAL = ("el_residual", "shifted_quadratic_residual", "cyl_laplacian")
_PLAIN = ("beta_integral_full", "sharp_constant_K", "kelvin_transform",
          "build_grid", "window_grid", "sample_ray", "fit_decay",
          "check_decay_bounds", "local_sup_ratio")


class Api:
    """The library calls the workloads make, traced when a tracer is given."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        wrap = tracer.wrap if tracer else (lambda fn, counts=None: fn)
        for name in _QUAD:
            setattr(self, name, wrap(getattr(hscyl, name),
                                     lambda res, args: {"evaluations": res.evaluations}))
        for name in _RESIDUAL:
            setattr(self, name, wrap(getattr(hscyl, name),
                                     lambda res, args: {"nodes": res.values.size}))
        for name in _PLAIN:
            setattr(self, name, wrap(getattr(hscyl, name)))
        self.sampled = wrap(CylGrid.sampled)
        self.dump_grid = wrap(hscyl.dump_grid,
                              lambda res, args: {"bytes": os.path.getsize(args[1])})
        self.load_grid = wrap(hscyl.load_grid,
                              lambda res, args: {"bytes": os.path.getsize(args[0])})
        self.minimize_rayleigh = wrap(
            hscyl.minimize_rayleigh,
            lambda res, args: {"iterations": res.iterations,
                               "accepted": len(res.history) - 1})
        profile_factories = ("extremal_profile", "shifted_power_profile")
        for name in profile_factories:
            factory = getattr(hscyl, name)
            if tracer:
                setattr(self, name, (lambda f: lambda *a: wrap(f(*a)))(factory))
            else:
                setattr(self, name, factory)

    def section(self, name):
        return self.tracer.section(name) if self.tracer else contextlib.nullcontext()

    def flows(self):
        """Trace the DiscreteRayleigh methods while the flows run."""
        if self.tracer:
            return patched_rayleigh(self.tracer, hscyl.DiscreteRayleigh)
        return contextlib.nullcontext()


# per-layer facts a round measures besides its spans; a workload that
# runs no such flow or fit reports 0
FACT_DEFAULTS = {
    "quadrature.worst_rel_err": 0.0,
    "asymptotics.flow_exponent_err": 0.0,
    "minimizer.warnings": 0,
    "minimizer.E_rel_excess.n64": 0.0,
    "minimizer.E_rel_excess.n128": 0.0,
    "minimizer.E_rel_excess.n256": 0.0,
}


class Checks:
    """Gate outcomes of one round with the (wall, cpu) seconds of each,
    plus the values that must repeat bit-exactly in every round and the
    per-layer facts it measured."""

    def __init__(self):
        self.outcomes = []
        self.times = {}
        self.values = {}
        self.facts = dict(FACT_DEFAULTS)

    def gate(self, name, thunk):
        """Run ``thunk() -> (passed, detail)``; a library error fails the gate."""
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            passed, detail = thunk()
        except hscyl.HscylError as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        self.times[name] = (time.perf_counter() - wall, time.process_time() - cpu)
        self.outcomes.append((name, bool(passed), detail))


def _rel(a, b):
    return abs(a - b) / abs(b)


def _energy_non_increasing(result):
    energies = [row[1] for row in result.history]
    return all(b <= a for a, b in zip(energies, energies[1:]))


# ---------------------------------------------------------------------------
# quad-oracles: Beta identities, Newtonian homogeneity, sharp constants and
# a scalar-only integrand against adaptive quadrature
# ---------------------------------------------------------------------------

def _quad_make(rng, small):
    strata = 2 if small else 6
    points = []
    for s in (0.5, 1.0):
        # the polar angle from the y axis sets the cost of a call (up to 10x
        # more once |x| < 0.45 |z|), so it sits at the middle of each of
        # `strata` equal bands; the seed draws what leaves the evaluation
        # count unchanged: the azimuth of x, the side of y and |z|
        for i in range(strata):
            theta = (i + 0.5) * 0.5 * PI / strata
            phi = rng.uniform(0.0, 2.0 * PI)
            side = rng.choice((-1.0, 1.0))
            norm = rng.uniform(0.5, 2.0)
            z = norm * np.array([math.sin(theta) * math.cos(phi),
                                 math.sin(theta) * math.sin(phi),
                                 side * math.cos(theta)])
            points.append((s, z))
    dims = (3,) if small else (3, 4, 5)
    constants = [(3, 2), (3, 3)] if small else [
        (3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 2), (5, 3), (5, 4), (5, 5)]
    return {"newtonian_points": points, "beta_dims": dims,
            "constants": constants}


def _quad_round(api, inp, const32, checks):
    worst = 0.0
    with api.section("beta_matrix"):
        for n in inp["beta_dims"]:
            for k in range(2, n):
                for s in (0.0, 0.5, 1.0):
                    for m in (2.0, 3.0):
                        if not (m > 0.5 * (n - s) and s < k):
                            continue

                        def beta_check(n=n, k=k, s=s, m=m):
                            nonlocal worst
                            closed = api.beta_integral_full(n, k, m, s)
                            quad = api.integrate_cylindrical(
                                lambda rho, r: (1.0 + rho**2 + r**2) ** -m,
                                n, k, s, tol=1e-9)
                            err = _rel(quad.value, closed)
                            worst = max(worst, err)
                            checks.values[f"beta({n},{k},{s},{m})"] = quad.value
                            return err <= BETA_REL, f"rel err {err:.2e}"

                        checks.gate(f"beta n={n} k={k} s={s} m={m}", beta_check)
        checks.gate("beta (3,2,2,1) = pi^2", lambda: (
            _rel(api.beta_integral_full(3, 2, 2.0, 1.0), PI**2) <= HAND_REL, ""))
    checks.facts["quadrature.worst_rel_err"] = worst

    with api.section("newtonian"):
        for idx, (s, z) in enumerate(inp["newtonian_points"]):
            def homogeneity(s=s, z=z, idx=idx):
                base = api.singular_newtonian_integral(z, 3, 2, s)
                scaled = api.singular_newtonian_integral(2.0 * z, 3, 2, s)
                ratio = scaled.value / (2.0 ** (2.0 - s) * base.value)
                checks.values[f"newtonian[{idx}]"] = (base.value, scaled.value)
                return abs(ratio - 1.0) <= HOMOGENEITY_REL, f"ratio - 1 = {ratio - 1:.2e}"

            checks.gate(f"newtonian I(2z) = 2^(2-s) I(z), s={s}, #{idx}", homogeneity)

    with api.section("sharp_constants"):
        for n, k in inp["constants"]:
            def constant(n=n, k=k):
                c = api.sharp_constant_K(n, k)
                lam = c.K ** (2.0 * (n - 1) / (n - 2))
                checks.values[f"K({n},{k})"] = c.K
                return (_rel(lam, c.Lambda) <= LAMBDA_REL
                        and math.isfinite(c.printed_discrepancy)), f"K = {c.K:.12g}"

            checks.gate(f"sharp constant ({n},{k})", constant)

    with api.section("annulus_isometry"):
        checks.gate("annulus energy isometry (scalar integrand)",
                    lambda: _annulus_isometry(api, checks))


def _annulus_isometry(api, checks):
    """Criterion 6: the Kelvin transform preserves the Dirichlet energy of
    an annulus profile; the transformed integrand is scalar-only, so the
    quadrature takes its per-point path."""
    def u_rad(rho):
        inside = (rho >= 0.5) & (rho <= 1.0)
        return np.where(inside, np.sin(PI * (2 * rho - 1)) ** 2, 0.0)

    def du_rad(rho):
        inside = (rho >= 0.5) & (rho <= 1.0)
        return np.where(inside, 2 * PI * np.sin(2 * PI * (2 * rho - 1)), 0.0)

    e_u = api.integrate_radial(lambda rho: du_rad(rho) ** 2, 3, 0.0,
                               tol=1e-10, upper=1.0)
    ku = api.kelvin_transform(lambda z: float(u_rad(np.linalg.norm(z))), 3)
    h = 1e-5

    def dku_sq(rho):
        if rho < 1.0 + 2 * h or rho > 2.0 - 2 * h:
            return 0.0
        plus = ku(np.array([rho + h, 0.0, 0.0]))
        minus = ku(np.array([rho - h, 0.0, 0.0]))
        return ((plus - minus) / (2 * h)) ** 2

    e_ku = api.integrate_radial(dku_sq, 3, 0.0, tol=1e-9, upper=2.0)
    checks.values["isometry"] = (e_u.value, e_ku.value)
    err = _rel(e_ku.value, e_u.value)
    return err <= ISOMETRY_REL, f"rel err {err:.2e}"


# ---------------------------------------------------------------------------
# residual-grids: FD residuals of explicit solutions on fine grids, the
# sup/mean estimate and the analytic decay fit
# ---------------------------------------------------------------------------

def _residual_make(rng, small):
    extra = []
    for _ in range(1 if small else 2):
        # inside the envelope of criterion 4's fixed cases
        extra.append(hscyl.ShiftedQuadraticParams(
            a=int(rng.integers(1, 3)), b=int(rng.integers(1, 3)),
            lam=float(rng.uniform(1.0, 2.0)),
            alpha=float(rng.uniform(0.0, 1.0)), beta=float(rng.uniform(0.0, 1.0))))
    cases = [
        hscyl.ShiftedQuadraticParams(a=1, b=1, lam=1.0, alpha=1.0, beta=1.0),
        hscyl.ShiftedQuadraticParams(a=2, b=1, lam=2.0, alpha=1.0, beta=0.0),
        hscyl.ShiftedQuadraticParams(a=1, b=1, lam=1.0, alpha=0.0, beta=0.0),
    ]
    return {"window_cases": cases + extra,
            "window_nodes": 512 if small else 1024,
            "ladder_nodes": (24, 48, 96) if small else (24, 48, 96, 192),
            "sup_nodes": 320 if small else 640}


def _residual_round(api, inp, const32, checks):
    extremal = api.extremal_profile(hscyl.ExtremalParams(n=3, k=2, lam=1.0), const32)

    with api.section("el_ladder"):
        def ladder():
            worsts = []
            for nodes in inp["ladder_nodes"]:
                grid = api.build_grid(3, 2, 4.0, 4.0, nodes, nodes, grading=1.0)
                res = api.el_residual(api.sampled(grid, extremal), const32.Lambda, 1.0)
                rho_win = (grid.rho_nodes >= 0.5) & (grid.rho_nodes <= 3.0)
                r_win = (grid.r_nodes >= 0.5) & (grid.r_nodes <= 3.0)
                worsts.append(float(np.abs(res.values[np.ix_(rho_win, r_win)]).max()))
            ratios = [a / b for a, b in zip(worsts, worsts[1:])]
            checks.values["el_ladder"] = tuple(worsts)
            return (all(HALVING[0] <= q <= HALVING[1] for q in ratios),
                    "halving ratios " + ", ".join(f"{q:.2f}" for q in ratios))

        checks.gate("EL residual halving ratios 4 +- 0.5", ladder)

    with api.section("window_residuals"):
        nodes = inp["window_nodes"]
        for idx, params in enumerate(inp["window_cases"]):
            def window(params=params, idx=idx):
                n, k = params.n, params.a + 1
                grid = api.window_grid(n, k, 1.0, 2.0, 1.0, 2.0, nodes, nodes)
                lam2 = params.lam**2
                phi = api.sampled(grid, lambda rho, r: lam2 * ((rho + params.alpha) ** 2
                                                              + (r + params.beta) ** 2))
                res_q = api.shifted_quadratic_residual(phi, params)
                v = api.sampled(grid, api.shifted_power_profile(params))
                source = ((params.p_coef / grid.rho_nodes)[:, None]
                          + (params.q_coef / grid.r_nodes)[None, :])
                res_s = (api.cyl_laplacian(v).values
                         + v.values ** (n / (n - 2.0)) * source)
                trim = slice(1, -1)
                worst = max(float(np.abs(res_q.values[trim, trim]).max()),
                            float(np.abs(res_s[trim, trim]).max()))
                checks.values[f"window[{idx}]"] = worst
                return worst <= RESIDUAL_MAX, f"max residual {worst:.1e}"

            checks.gate(f"window residual #{idx} {params}", window)

    with api.section("decay"):
        def analytic_fit():
            radii = np.geomspace(1e2, 1e4, 40)
            fit = api.fit_decay(hscyl.RaySamples("r-axis", radii, extremal(0.0, radii)))
            checks.values["analytic_exponent"] = fit.exponent
            return (abs(fit.exponent - 1.0) <= ANALYTIC_EXPONENT_TOL,
                    f"exponent {fit.exponent:.4f}")

        checks.gate("analytic extremal decay exponent n-2", analytic_fit)

        def sup_ratio():
            nodes = inp["sup_nodes"]
            grid = api.sampled(api.build_grid(3, 2, 48.0, 48.0, nodes, nodes,
                                              grading=1.0), extremal)
            ratios = [api.local_sup_ratio(grid, t, 4.0) for t in (4.0, 8.0, 16.0, 32.0)]
            spread = max(ratios) / min(ratios)
            checks.values["sup_ratios"] = tuple(ratios)
            return spread <= SUP_SPREAD_MAX, f"spread {spread:.3f}x"

        checks.gate("sup/mean ratio spread over dyadic centres", sup_ratio)


# ---------------------------------------------------------------------------
# flow-long and flow-ladder: the constrained gradient flow
# ---------------------------------------------------------------------------

def _decay_window(rng):
    """Seeded rho-axis fit window around criterion 5's [2, 20], wide
    enough that the nodes of the coarsest (64^2) grid inside it still span
    the factor 8 a fit needs."""
    return float(rng.uniform(1.5, 2.0)), float(rng.uniform(24.0, 28.0))


def _flow(api, checks, label, n, k, s, spec, opts, Lambda=None, attained=None):
    """One flow with its gates; returns the result, or None if it raised.

    ``attained`` gates K_est (criterion 2's 2%), ``Lambda`` gates E_min
    from above (the refinement ladder's claim)."""
    result = None

    def run():
        nonlocal result
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = api.minimize_rayleigh(n, k, s, spec, opts)
        checks.facts["minimizer.warnings"] += len(caught)
        checks.values[f"{label}.E_min"] = result.E_min
        checks.values[f"{label}.iterations"] = result.iterations
        return _energy_non_increasing(result), f"E_min {result.E_min:.10f}"

    checks.gate(f"{label}: flow converges, energy non-increasing", run)
    if result is not None and attained is not None:
        err = _rel(result.K_est, attained)
        checks.gate(f"{label}: K_est within 2% of Lambda^(-1/2)",
                    lambda: (err <= K_EST_REL, f"{err:.3%}"))
    if result is not None and Lambda is not None:
        checks.gate(f"{label}: E_min above Lambda",
                    lambda: (result.E_min > Lambda, f"excess {result.E_min / Lambda - 1:.3e}"))
    return result


def _decay_of(api, checks, label, grid, n, window, gate):
    def fit():
        samples = api.sample_ray(grid, "rho-axis", min_radius=window[0],
                                 max_radius=window[1])
        fitted = api.fit_decay(samples)
        checks.values[f"{label}.exponent"] = fitted.exponent
        if not gate:
            return True, f"exponent {fitted.exponent:.4f}"
        checks.facts["asymptotics.flow_exponent_err"] = abs(fitted.exponent - (n - 2))
        verdict = api.check_decay_bounds(fitted, n, 2.0, "solution-two-sided",
                                         tol=FLOW_EXPONENT_TOL)
        return verdict.passed, f"exponent {fitted.exponent:.4f}"

    checks.gate(f"{label}: rho-axis decay fit"
                + (" within 0.1 of n-2" if gate else ""), fit)


def _flow_long_make(rng, small):
    nodes = 48 if small else 128
    return {"spec": hscyl.GridSpec(rho_max=120.0, r_max=120.0, n_rho=nodes,
                                   n_r=nodes, grading=1.5),
            "decay_window": _decay_window(rng)}


def _flow_long_round(api, inp, const32, checks):
    opts = hscyl.MinimizeOptions(init="analytic-extremal", init_scale=0.6, tol=1e-10)
    with api.section("flow"), api.flows():
        result = _flow(api, checks, "flow(3,2,1)", 3, 2, 1.0, inp["spec"], opts,
                       const32.Lambda, const32.attained_ratio)
    if result is None:
        return
    nodes = inp["spec"].n_rho
    checks.facts[f"minimizer.E_rel_excess.n{nodes}"] = result.E_min / const32.Lambda - 1.0
    with api.section("decay"):
        _decay_of(api, checks, "flow(3,2,1)", result.grid, 3, inp["decay_window"],
                  gate=True)


def _flow_ladder_make(rng, small):
    levels = (16, 24, 32) if small else (64, 128, 256)
    spec = lambda nodes: hscyl.GridSpec(rho_max=120.0, r_max=120.0, n_rho=nodes,
                                        n_r=nodes, grading=1.5)
    one_d = 256 if small else 2048
    others = [
        ("flow(4,2,1)", 4, 2, 1.0, spec(48 if small else 128), "analytic-extremal"),
        ("flow(3,2,0.5)", 3, 2, 0.5, spec(32 if small else 96), "positive-bump"),
        ("flow(3,3,1)", 3, 3, 1.0, spec(one_d), "analytic-extremal"),
        ("flow(4,4,1)", 4, 4, 1.0, spec(one_d), "analytic-extremal"),
    ]
    return {"levels": levels, "ladder": [spec(n) for n in levels],
            "others": others, "decay_window": _decay_window(rng)}


def _flow_ladder_round(api, inp, const32, checks, out_dir):
    energies = []
    results = []
    with api.section("ladder"), api.flows():
        for nodes, spec in zip(inp["levels"], inp["ladder"]):
            opts = hscyl.MinimizeOptions(init="analytic-extremal", init_scale=0.6,
                                         step=1e4, tol=1e-10)
            res = _flow(api, checks, f"ladder n{nodes}", 3, 2, 1.0, spec, opts,
                        const32.Lambda, const32.attained_ratio)
            if res is not None:
                energies.append(res.E_min)
                checks.facts[f"minimizer.E_rel_excess.n{nodes}"] = (
                    res.E_min / const32.Lambda - 1.0)
            results.append((f"ladder n{nodes}", 3, res))
        checks.gate("ladder: E_min strictly decreasing and above Lambda", lambda: (
            len(energies) == len(inp["levels"])
            and all(b < a for a, b in zip(energies, energies[1:]))
            and energies[-1] > const32.Lambda,
            ", ".join(f"{e:.8f}" for e in energies)))
    with api.section("others"), api.flows():
        for label, n, k, s, spec, init in inp["others"]:
            opts = hscyl.MinimizeOptions(init=init, step=1e4, tol=1e-10)
            # K_est is gated where the 2-D flow resolves the core; the k = n
            # flows on this grading collapse it (the library's RuntimeWarning,
            # counted in minimizer.warnings) and s = 0.5 has no closed form
            attained = None
            if s == 1.0 and k < n:
                attained = api.sharp_constant_K(n, k).attained_ratio
            res = _flow(api, checks, label, n, k, s, spec, opts, attained=attained)
            results.append((label, n, res))
    with api.section("dump_load_decay"):
        for label, n, res in results:
            if res is None:
                continue
            loaded = _round_trip(api, checks, label, res.grid, out_dir)
            if loaded is not None:
                _decay_of(api, checks, label, loaded, n, inp["decay_window"],
                          gate=label == f"ladder n{inp['levels'][-1]}")


def _round_trip(api, checks, label, grid, out_dir):
    loaded = None

    def trip():
        nonlocal loaded
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            path = os.path.join(tmp, "grid.csv")
            api.dump_grid(grid, path)
            loaded = api.load_grid(path)
        same = (np.array_equal(loaded.values, grid.values)
                and np.array_equal(loaded.rho_nodes, grid.rho_nodes)
                and np.array_equal(loaded.r_nodes, grid.r_nodes)
                and (loaded.n, loaded.k, loaded.grading, loaded.axis_ghost)
                == (grid.n, grid.k, grid.grading, grid.axis_ghost))
        return same, "bit-exact" if same else "reload differs"

    checks.gate(f"{label}: load_grid(dump_grid(g)) bit-exact", trip)
    return loaded


WORKLOADS = {
    "quad-oracles": (_quad_make, _quad_round),
    "residual-grids": (_residual_make, _residual_round),
    "flow-long": (_flow_long_make, _flow_long_round),
    "flow-ladder": (_flow_ladder_make, _flow_ladder_round),
}


def make(name, seed, small):
    """Seeded inputs of workload ``name`` plus the reference constant."""
    rng = np.random.default_rng(seed)
    inputs = WORKLOADS[name][0](rng, small)
    return inputs, hscyl.sharp_constant_K(3, 2)


def run_round(name, api, inputs, const32, out_dir) -> Checks:
    checks = Checks()
    fn = WORKLOADS[name][1]
    if name == "flow-ladder":
        fn(api, inputs, const32, checks, out_dir)
    else:
        fn(api, inputs, const32, checks)
    return checks


def describe(inputs):
    """JSON-ready copy of the generated inputs, for the run record."""
    def plain(x):
        if isinstance(x, np.ndarray):
            return x.tolist()
        if isinstance(x, (list, tuple)):
            return [plain(v) for v in x]
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        if isinstance(x, (float, int, str)) or x is None:
            return x
        return repr(x)
    return plain(inputs)
