import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _names(tree):
    """Every identifier a tree names: variables, attributes and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name.split(".")[0]
            yield node.name


def test_no_dead_private_definitions():
    # a private (underscore, non-dunder) function, method or class that
    # nothing else in src/ names is dead code, and so is any module-level
    # function or class of rootiso, public or not; names inside its own body
    # (recursion) do not count.  The package re-exports nothing of rootiso,
    # so an export cannot keep a root finder alive
    trees = {p: ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))}
    assert any(p.parent.name == "betatiling" for p in trees)
    init = trees[SRC / "betatiling" / "__init__.py"]
    assert "rootiso" not in set(_names(init)) | {
        (n.module or "").split(".")[-1] for n in ast.walk(init) if isinstance(n, ast.ImportFrom)}
    named = {}
    for tree in trees.values():
        for name in _names(tree):
            named[name] = named.get(name, 0) + 1
    dead = []
    for path, tree in trees.items():
        if path.parent.name != "betatiling":
            continue
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and (_private(node.name) or path.name == "rootiso.py" and node in tree.body)):
                own = sum(1 for name in _names(node) if name == node.name)
                if named.get(node.name, 0) - own == 0:
                    dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert not dead, dead


def test_package_imports_only_the_standard_library_and_numpy():
    # every module the package imports, at any depth, is standard library,
    # numpy or the package itself
    outside = []
    for path in sorted((SRC / "betatiling").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module.split(".")[0]]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {top}" for top in tops
                        if top not in sys.stdlib_module_names | {"numpy", "betatiling"}]
    assert not outside, outside


def test_import_leaves_mpmath_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", "import sys, betatiling; "
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))"],
                         capture_output=True, text=True, env=env, check=True).stdout
    assert out.strip() == "[]"


def test_sofic_forms_no_numerators_from_qbetas():
    # the automaton and the difference machine read every interval family off
    # its end table; sofic names none of the QBeta/numerator converters
    names = set(_names(ast.parse((SRC / "betatiling" / "sofic.py").read_text())))
    assert not names & {"_nums", "_from_num", "_num_frame", "_frame"}
