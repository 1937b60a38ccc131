"""Imports: every imported name is used, the closed forms share no code with
their numerical oracles, and scipy loads only where it is used.

The unused-import check is an ``ast`` scan of the package and the tests;
neither pyflakes nor ruff is a dependency.  ``src/hscyl/__init__.py`` is
exempt: its imports are the package's re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hscyl"
FILES = [path for path in sorted(PACKAGE.glob("*.py"))
         if path.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_scan_flags_an_unused_import():
    assert _unused_imports("import os\nimport numpy as np\nnp.zeros(1)\n") == ["line 1: os"]
    assert _unused_imports("from a.b import c as d, e\nimport x.y\nx.y.f(e)\n") == ["line 1: d"]


def test_no_unused_imports():
    unused = {str(path.relative_to(ROOT)): names for path in FILES
              if (names := _unused_imports(path.read_text(encoding="utf-8")))}
    assert not unused, f"unused imports: {unused}"


def _package_imports(module: str) -> set[str]:
    """The hscyl modules that ``module`` imports by relative import."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return {name for name in found if (PACKAGE / f"{name}.py").is_file()}


def _reachable(module: str) -> set[str]:
    """Every hscyl module that importing ``module`` imports."""
    seen, todo = set(), [module]
    while todo:
        for name in _package_imports(todo.pop()) - seen:
            seen.add(name)
            todo.append(name)
    return seen


# the numerical routes that check the closed forms; specfn, exponents and
# errors are leaves both sides may share, and cli and __init__ join the two
ORACLES = ("quadrature", "cylgrid", "minimizer", "asymptotics")


def test_closed_forms_share_no_code_with_the_oracles():
    assert not _reachable("closed_forms") & set(ORACLES)
    for oracle in ORACLES:
        assert "closed_forms" not in _reachable(oracle), oracle
    assert {"closed_forms", "quadrature"} <= _package_imports("cli")


def _run_fresh(child: str, cwd: Path) -> None:
    """Run ``child`` in a fresh interpreter: this one has long since
    imported scipy."""
    done = subprocess.run([sys.executable, "-c", child], cwd=cwd, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_closed_form_subcommands_never_load_scipy(tmp_path):
    # the finite-difference residuals of verify-prop4 and verify-extremal
    # are numpy stencils; scipy.linalg belongs to the flow's solver alone
    _run_fresh(f"""
import sys
import hscyl
from hscyl import cli
for argv in (["constant", "--n", "3", "--k", "2"],
             ["exponents", "--n", "3", "--k", "2", "--p", "2", "--s", "1"],
             ["verify-prop4", "--nodes", "64"],
             ["verify-extremal"]):
    assert cli.main(argv + ["--output-dir", {str(tmp_path)!r} + "/" + argv[0]]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
""", tmp_path)


def test_minimize_never_loads_scipy_sparse(tmp_path):
    # the k = n flow's step is a DST from scipy.fft; the k < n solver needs
    # scipy.linalg; the flow's operators are per-axis arrays, never sparse
    _run_fresh(f"""
import sys
import hscyl
from hscyl import cli

def loaded(prefix):
    return sorted(m for m in sys.modules if m == prefix or m.startswith(prefix + "."))

assert not loaded("scipy"), loaded("scipy")
for n, k in ((3, 3), (3, 2)):
    argv = ["minimize", "--n", str(n), "--k", str(k), "--n-rho", "24", "--rho-max", "30",
            "--init", "analytic-extremal"]
    if k < n:  # the k = n flow's t axis has no r keys to read
        argv += ["--n-r", "24", "--r-max", "30"]
    assert cli.main(argv + ["--output-dir", {str(tmp_path)!r} + f"/{{n}}{{k}}"]) == 0
    if k == n:
        assert "scipy.fft" in sys.modules
        assert not loaded("scipy.linalg"), loaded("scipy.linalg")
assert "scipy.linalg" in sys.modules
assert not loaded("scipy.sparse"), loaded("scipy.sparse")
""", tmp_path)


def test_package_lists_only_the_error_classes():
    # __init__ republishes each module's __all__; errors.py keeps none, so
    # its classes are the one list of names there
    from hscyl import errors

    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    listed = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names} - {"*"}
    assert listed == {name for name, obj in vars(errors).items()
                      if isinstance(obj, type) and issubclass(obj, errors.HscylError)}
