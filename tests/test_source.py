import ast
import pathlib

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
    # nothing else in src/ names is dead code; names inside its own body
    # (recursion) do not count
    trees = {p: ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))}
    assert any(p.parent.name == "betatiling" for p in trees)
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
                    and _private(node.name)):
                own = sum(1 for name in _names(node) if name == node.name)
                if named.get(node.name, 0) - own == 0:
                    dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert not dead, dead
