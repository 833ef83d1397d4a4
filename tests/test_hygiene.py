"""Source hygiene: in src/, tests/ and demos/ every imported name is read,
and no function binds a local only to delete it. Every function, class and
method defined in src/ is referenced from src/ itself (the package
``__all__`` counts), so no wrapper lives on for tests, demos or perfbench
alone; ``ALLOWED_UNREFERENCED`` names the one exception. src/ uses no numpy
name that the declared floor, numpy 1.24, lacks, and only
``training.rollout`` calls ``env.step`` and ``env.reset``, so there is one
episode loop. No src class spells out again the fields of another src
class it does not inherit from, so a record schema is declared once.
src/ imports no thread or process module and registers no fork hook, so
the engine runs on one thread and BLAS is its only parallelism. No src
statement writes into a ``.grad`` array in place, so a gradient array one
node hands on is never changed under another node that holds it. src/
imports no pickle module and passes no ``allow_pickle`` to a ``load``, so
``np.load`` keeps its default and a checkpoint can hold no pickled
object."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos")
# the README documents graph.from_json as the topology round-trip
ALLOWED_UNREFERENCED = frozenset({"from_json"})
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


CONCURRENCY_MODULES = ("threading", "concurrent.futures", "multiprocessing")


def concurrency_uses(path: Path) -> list[str]:
    """Imports of a ``CONCURRENCY_MODULES`` module or of anything in it, and
    calls of ``register_at_fork``, each with its line."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            dotted = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "register_at_fork":
                found.append(f"register_at_fork call (line {node.lineno})")
            continue
        else:
            continue
        found += [
            f"{module} import (line {node.lineno})" for module in CONCURRENCY_MODULES
            if any(name == module or name.startswith(module + ".") for name in dotted)
        ]
    return found


def _is_grad(node: ast.expr) -> bool:
    """Whether an expression is a ``.grad`` attribute or an item of one."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "grad"


def grad_writes(path: Path) -> list[str]:
    """Statements that write into a ``.grad`` array in place, each with its
    line: an augmented assignment to it or to an item of it, an assignment
    to an item of it, or a call that passes it as ``out=``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign):
            targets, kind = [node.target], "augmented assignment"
        elif isinstance(node, ast.Assign):
            targets, kind = [t for t in node.targets if isinstance(t, ast.Subscript)], "item assignment"
        elif isinstance(node, ast.Call):
            targets, kind = [kw.value for kw in node.keywords if kw.arg == "out"], "out= argument"
        else:
            continue
        found += [f"{kind} (line {node.lineno})" for t in targets if _is_grad(t)]
    return found


def pickle_uses(path: Path) -> list[str]:
    """Imports of ``pickle`` or of anything in it, and ``load`` calls (as
    ``np.load`` or a bare ``load``) that pass ``allow_pickle``, each with
    its line."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            dotted = [node.module]
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "load" and any(kw.arg == "allow_pickle" for kw in node.keywords):
                found.append(f"load with allow_pickle (line {node.lineno})")
            continue
        else:
            continue
        if any(name == "pickle" or name.startswith("pickle.") for name in dotted):
            found.append(f"pickle import (line {node.lineno})")
    return found


EPISODE_LOOP_CALLS = {"step", "reset"}


def episode_loop_calls(path: Path) -> list[tuple[str, str, int]]:
    """(enclosing function, name, line) of each call of ``env.step`` or
    ``env.reset``: through a name imported from the env module (or defined
    in it) or as an attribute of the env module bound to a name. A nested
    function counts as its enclosing module-level function or method;
    module-level code as ``<module>``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    # the local name of each env function, and the names the env module is bound to
    names = {name: name for name in EPISODE_LOOP_CALLS} if path.name == "env.py" else {}
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "env":
            names |= {alias.asname or alias.name: alias.name for alias in node.names if alias.name in EPISODE_LOOP_CALLS}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules |= {
                alias.asname or alias.name for alias in node.names
                if alias.name.split(".")[-1] == "env" and (alias.asname or "." not in alias.name)
            }

    def calls(scope, owner):
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in names:
                yield owner, names[func.id], node.lineno
            elif (isinstance(func, ast.Attribute) and func.attr in EPISODE_LOOP_CALLS
                  and isinstance(func.value, ast.Name) and func.value.id in modules):
                yield owner, func.attr, node.lineno

    found = []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            found += calls(node, node.name)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                found += calls(item, f"{node.name}.{item.name}" if isinstance(item, functions) else node.name)
        else:
            found += calls(node, "<module>")
    return sorted(found, key=lambda call: call[2])


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


def unreferenced_definitions(
    defining: list[Path], referencing: list[Path], allowed: frozenset[str] = frozenset()
) -> list[str]:
    """Definitions in ``defining`` whose name nothing in ``referencing`` uses,
    leaving out the ``allowed`` names.

    The match is by name only, so a definition hides behind any other of the
    same name: ``Adam.state_dict`` once went unflagged because
    ``ObsNormalizer.state_dict`` is called.
    """
    used = set().union(*(references(path) for path in referencing)) | allowed
    return [
        f"{path.relative_to(path.parents[1])}: {qualified}"
        for path in defining
        for qualified, name in definitions(path)
        if name not in used
    ]


def respelled_classes(paths: list[Path]) -> list[str]:
    """``"A respells B"`` for each class A that annotates every field of
    another class B of two or more fields without having B among its bases.
    A field is a name annotated in the class body; the match is by name."""
    classes: dict[str, tuple[set[str], set[str]]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                fields = {
                    item.target.id for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                }
                bases = {base.id if isinstance(base, ast.Name) else getattr(base, "attr", "") for base in node.bases}
                classes[node.name] = (fields, bases)
    return [
        f"{name} respells {other}"
        for name, (fields, bases) in sorted(classes.items())
        for other, (theirs, _) in sorted(classes.items())
        if other != name and len(theirs) >= 2 and theirs <= fields and other not in bases
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


def test_episode_loop_calls_detected(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from coopgraph.env import reset, step as env_step\nfrom coopgraph import env\n"
        "import coopgraph.env as E\n"
        "def a(optimizer):\n    env_step(1)\n    optimizer.step()\n"
        "def b():\n    def inner():\n        env.reset(2)\n    return E.step(3), reset\n"
        "class K:\n    def go(self):\n        self.step()\n        step()\n"
        "state = reset(0)\n"
    )
    assert episode_loop_calls(module) == [("a", "step", 5), ("b", "reset", 9), ("b", "step", 10), ("<module>", "reset", 15)]


def test_concurrency_uses_detected(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import os, threading\nfrom concurrent import futures\n"
        "from concurrent.futures import ThreadPoolExecutor\nimport multiprocessing.pool as mp\n"
        "import concurrent\nimport threadpoolctl\nfrom os import register_at_fork\n"
        "def f():\n    os.register_at_fork(after_in_child=f)\n    register_at_fork(before=f)\n"
        "    return os.fork\n"
    )
    assert concurrency_uses(module) == [
        "threading import (line 1)", "concurrent.futures import (line 2)",
        "concurrent.futures import (line 3)", "multiprocessing import (line 4)",
        "register_at_fork call (line 9)", "register_at_fork call (line 10)",
    ]


def test_grad_writes_detected(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import numpy as np\n"
        "def f(p, g, acc):\n    p.grad += g\n    p.grad[0] = 1.0\n    p.grad[0][1] *= 2.0\n"
        "    np.multiply(p.grad, 2.0, out=p.grad)\n"
        "    p.grad = p.grad + g\n    acc += p.grad\n    acc[0] = p.grad[0]\n"
        "    np.add(p.grad, g, out=acc)\n    p.data -= g\n"
    )
    assert grad_writes(module) == [
        "augmented assignment (line 3)", "item assignment (line 4)",
        "augmented assignment (line 5)", "out= argument (line 6)",
    ]


def test_pickle_uses_detected(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import json, pickle\nimport numpy as np\nfrom pickle import loads\n"
        "import pickletools\nfrom numpy import load\n"
        "def f(p, f):\n    a = np.load(p, allow_pickle=True)\n    b = load(p, allow_pickle=False)\n"
        "    np.save(p, a, allow_pickle=False)\n    return a, b, np.load(p), json.load(f), loads, pickletools\n"
    )
    assert pickle_uses(module) == [
        "pickle import (line 1)", "pickle import (line 3)",
        "load with allow_pickle (line 7)", "load with allow_pickle (line 8)",
    ]


def test_respelled_classes_detected(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import mod\n"
        "class Node:\n    obs: int\n    reps: int\n    def f(self): pass\n"
        "class Copy:\n    obs: int\n    reps: int\n    more: int\n"
        "class Child(Node):\n    more: int\n"
        "class Redeclared(mod.Node):\n    obs: int\n    reps: int\n    extra: int\n"
        "class Part:\n    obs: int\n    x = 1\n    reps = 2\n"
    )
    # Part has one field, so nothing respells it; its plain assignments are no fields
    assert respelled_classes([module]) == ["Copy respells Node"]


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
    # named only from outside the package: flagged, unless allowed
    assert unreferenced_definitions([module], [module]) == [
        "pkg/sample.py: unused", "pkg/sample.py: named", "pkg/sample.py: K.idle",
        "pkg/sample.py: K.size", "pkg/sample.py: g",
    ]
    assert unreferenced_definitions([module], [module], frozenset({"named", "size"})) == [
        "pkg/sample.py: unused", "pkg/sample.py: K.idle", "pkg/sample.py: g",
    ]


def test_no_unreferenced_definitions():
    src = sorted((ROOT / "src").rglob("*.py"))
    assert unreferenced_definitions(src, src, ALLOWED_UNREFERENCED) == []


def test_no_class_respells_another():
    assert respelled_classes(sorted((ROOT / "src").rglob("*.py"))) == []


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


def test_src_writes_no_gradient_in_place():
    found = {
        str(path.relative_to(ROOT)): writes
        for path in sorted((ROOT / "src").rglob("*.py"))
        if (writes := grad_writes(path))
    }
    assert found == {}


def test_src_starts_no_thread_or_process():
    found = {
        str(path.relative_to(ROOT)): uses
        for path in sorted((ROOT / "src").rglob("*.py"))
        if (uses := concurrency_uses(path))
    }
    assert found == {}


def test_src_loads_no_pickle():
    found = {
        str(path.relative_to(ROOT)): uses
        for path in sorted((ROOT / "src").rglob("*.py"))
        if (uses := pickle_uses(path))
    }
    assert found == {}


def test_only_rollout_steps_and_resets_episodes():
    found = {
        (str(path.relative_to(ROOT)), function, name)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for function, name, _ in episode_loop_calls(path)
    }
    assert found == {
        ("src/coopgraph/training.py", "rollout", "reset"),
        ("src/coopgraph/training.py", "rollout", "step"),
    }
