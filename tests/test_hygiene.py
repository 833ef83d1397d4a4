"""Source hygiene: in src/, tests/ and demos/ every imported name is read,
no function binds a local only to delete it, and every function, class and
method defined in src/ is referenced from src/, tests/, demos/ or perfbench/.
src/ uses no numpy name that the declared floor, numpy 1.24, lacks."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos")
REFERENCING = SCANNED + ("perfbench",)
# names numpy 2.0 added; pyproject.toml declares numpy>=1.24
NUMPY2_ONLY = {
    "vecdot", "linalg.vecdot", "concat", "unstack", "permute_dims", "pow", "astype",
    "matrix_transpose", "cumulative_sum",
}


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


def deleted_only_locals(path: Path) -> list[str]:
    """Locals a function assigns and then only deletes, never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            uses: dict[str, set] = {}
            bound_at: dict[str, int] = {}
            for node in ast.walk(fn):
                if isinstance(node, ast.Name):
                    uses.setdefault(node.id, set()).add(type(node.ctx))
                    if isinstance(node.ctx, ast.Store):
                        bound_at.setdefault(node.id, node.lineno)
            found += [
                f"{fn.name}: {name} (line {bound_at[name]})"
                for name, ctx in sorted(uses.items())
                if ctx == {ast.Store, ast.Del}
            ]
    return found


def numpy2_only_names(path: Path) -> list[str]:
    """Uses of a ``NUMPY2_ONLY`` name, through a ``numpy`` import alias
    (``np.vecdot``, ``np.linalg.vecdot``) or imported from numpy."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "numpy"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            prefix = node.module.removeprefix("numpy").lstrip(".")
            dotted = [f"{prefix}.{alias.name}".lstrip(".") for alias in node.names]
        elif isinstance(node, ast.Attribute):
            parts, base = [], node
            while isinstance(base, ast.Attribute):
                parts.insert(0, base.attr)
                base = base.value
            dotted = [".".join(parts)] if isinstance(base, ast.Name) and base.id in aliases else []
        else:
            continue
        found += [f"numpy.{name} (line {node.lineno})" for name in dotted if name in NUMPY2_ONLY]
    return found


def definitions(path: Path) -> list[tuple[str, str]]:
    """(qualified name, name) of each module-level function and class and of
    each method of a module-level class; dunder methods are left out."""
    tree = ast.parse(path.read_text(), filename=str(path))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in tree.body:
        if isinstance(node, kinds):
            found.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, kinds) and not re.fullmatch(r"__\w+__", item.name)
                ]
    return found


def references(path: Path) -> set[str]:
    """Names a module reads, attributes it accesses, names it imports, and
    the parts of every string constant that is a dotted name (as in
    ``"training.Trainer.run"``), since a string can name a function."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                names |= set(node.value.split("."))
    return names


def unreferenced_definitions(defining: list[Path], referencing: list[Path]) -> list[str]:
    """Definitions in ``defining`` whose name nothing in ``referencing`` uses.

    The match is by name only, so a definition hides behind any other of the
    same name: ``Adam.state_dict`` once went unflagged because
    ``ObsNormalizer.state_dict`` is called.
    """
    used = set().union(*(references(path) for path in referencing))
    return [
        f"{path.relative_to(path.parents[1])}: {qualified}"
        for path in defining
        for qualified, name in definitions(path)
        if name not in used
    ]


def test_unused_imports_detected(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import os\nimport json as js\nfrom typing import Any, List\n"
        "__all__ = ['Any']\n"
        "def f(x):\n    import copy\n    del copy\n    return js.dumps(x)\n"
    )
    assert unused_imports(module) == ["List (line 3)", "copy (line 6)", "os (line 1)"]


def test_deleted_only_locals_detected(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "def f(x):\n    lay = x.layout\n    y = x + 1\n    z = 2\n    del lay, z\n"
        "    w = y\n    del w\n    return y + z\n"
        "def g():\n    import copy\n    del copy\n"
    )
    assert deleted_only_locals(module) == ["f: lay (line 2)", "f: w (line 6)"]


def test_numpy2_only_names_detected(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import numpy as np\nimport numpy\nfrom numpy import concat, stack\n"
        "from numpy.linalg import vecdot, norm\n"
        "def f(x):\n    y = x.astype(float) + np.linalg.norm(x)\n"
        "    return np.vecdot(x, x), numpy.linalg.vecdot(x, y), np.pow(x, 2), np.sum(x)\n"
    )
    assert numpy2_only_names(module) == [
        "numpy.concat (line 3)", "numpy.linalg.vecdot (line 4)", "numpy.vecdot (line 7)",
        "numpy.linalg.vecdot (line 7)", "numpy.pow (line 7)",
    ]


def test_unreferenced_definitions_detected(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "bench").mkdir()
    module = tmp_path / "pkg" / "sample.py"
    module.write_text(
        "def used(): pass\ndef unused(): pass\ndef named(): pass\n"
        "class K:\n    def __init__(self): pass\n    def go(self): pass\n"
        "    def idle(self): pass\n    @property\n    def size(self): return 1\n"
        "def g():\n    used()\n    return K().go, 'not a name: unused'\n"
    )
    caller = tmp_path / "bench" / "tracer.py"
    caller.write_text("from pkg.sample import K\nTRACED = [('sample', 'named'), 'K.size']\n")
    assert unreferenced_definitions([module], [module, caller]) == [
        "pkg/sample.py: unused", "pkg/sample.py: K.idle", "pkg/sample.py: g",
    ]


def test_no_unreferenced_definitions():
    referencing = [path for top in REFERENCING for path in sorted((ROOT / top).rglob("*.py"))]
    assert unreferenced_definitions(sorted((ROOT / "src").rglob("*.py")), referencing) == []


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): names
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        if (names := unused_imports(path))
    }
    assert found == {}


def test_no_deleted_only_locals():
    found = {
        str(path.relative_to(ROOT)): names
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        if (names := deleted_only_locals(path))
    }
    assert found == {}


def test_src_keeps_to_the_declared_numpy_floor():
    assert "numpy>=1.24" in (ROOT / "pyproject.toml").read_text()
    found = {
        str(path.relative_to(ROOT)): names
        for path in sorted((ROOT / "src").rglob("*.py"))
        if (names := numpy2_only_names(path))
    }
    assert found == {}
