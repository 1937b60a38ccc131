"""Every imported name is used: an ``ast`` scan of the package and the tests.

Neither pyflakes nor ruff is a dependency, so this is the check for
unused imports.  ``src/hscyl/__init__.py`` is exempt: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = [path for path in sorted((ROOT / "src" / "hscyl").glob("*.py"))
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
