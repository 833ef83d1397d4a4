"""Source hygiene: every imported name in src/, tests/ and demos/ is read."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names each import statement binds, with the line that binds them."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _read(tree: ast.Module) -> set[str]:
    """Names the module reads, counting the re-exports listed in __all__."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return names


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    return [f"{name} (line {line})" for name, line in sorted(_imported(tree).items()) if name not in read]


def test_unused_imports_detected(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import os\nimport json as js\nfrom typing import Any, List\n"
        "__all__ = ['Any']\n"
        "def f(x):\n    import copy\n    del copy\n    return js.dumps(x)\n"
    )
    assert unused_imports(module) == ["List (line 3)", "copy (line 6)", "os (line 1)"]


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): names
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        if (names := unused_imports(path))
    }
    assert found == {}
