"""Every public function and method has a caller in the package or the
benchmarks, so no public API exists only for tests."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
# documented public API with no caller inside the repository
ALLOWED = {"autodiff.check_gradient"}


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _references(node) -> collections.Counter:
    """Counts of ("name", id) for each loaded ``ast.Name`` and ("attr", attr)
    for each loaded ``ast.Attribute`` under ``node``."""
    return collections.Counter(
        ("name", n.id) if isinstance(n, ast.Name) else ("attr", n.attr)
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def _public_definitions(tree):
    """(qualified name, def node) of each public module-level function and
    public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def test_every_public_function_and_method_has_a_caller():
    trees = list(_trees("src/ebmlab", "benchmarks"))
    refs = sum((_references(tree) for _, tree in trees), collections.Counter())
    unused = []
    for path, tree in trees:
        if "src" not in path.relative_to(ROOT).parts:
            continue
        for qualname, node in _public_definitions(tree):
            if node.name.startswith("_") or f"{path.stem}.{qualname}" in ALLOWED:
                continue
            # a method is reached as an attribute, a function also by its
            # bare name; references inside the definition itself do not count
            keys = [("attr", node.name)] + ([] if "." in qualname else [("name", node.name)])
            own = _references(node)
            if sum(refs[k] - own[k] for k in keys) <= 0:
                unused.append(f"{path.stem}.{qualname}")
    assert unused == []
