"""Every public function, method and dataclass field has a reader in the
package or the benchmarks, so no public API exists only for tests."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = "ebmlab"
# documented public API with no caller inside the repository
ALLOWED: set[str] = set()
# dataclass fields read only by tests
ALLOWED_FIELDS: set[str] = set()
# the engine module and the package's graph builders: the training loop
# takes (loss value, flat gradient) from ``objectives`` and builds no graph
ENGINE_NAMES = {"autodiff", "ad", "param_nodes", "mlp_forward", "energy", "_param_grads",
                "cd_loss", "ce_loss"}


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


def _parsed():
    """(path, tree) of every module in the package and the benchmarks, and
    the references counted over all of them."""
    trees = list(_trees("src/ebmlab", "benchmarks"))
    return trees, sum((_references(tree) for _, tree in trees), collections.Counter())


def _imported_module(node: ast.ImportFrom):
    """The ebmlab module ``node`` imports from: its name, "" for the package
    itself, or None outside ebmlab."""
    if node.level:
        return node.module or ""
    if node.module == PACKAGE or (node.module or "").startswith(PACKAGE + "."):
        return node.module[len(PACKAGE) + 1:]
    return None


def _bindings(tree):
    """Local names bound to ebmlab modules (``from . import autodiff as
    ad``), and local names bound to a name imported from one (``from .models
    import energy``), as name -> module and name -> (module, name)."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(PACKAGE + ".") and alias.asname:
                    modules[alias.asname] = alias.name[len(PACKAGE) + 1:]
        elif isinstance(node, ast.ImportFrom) and _imported_module(node) is not None:
            module = _imported_module(node)
            for alias in node.names:
                local = alias.asname or alias.name
                if module:
                    names[local] = (module, alias.name)
                else:
                    modules[local] = alias.name
    return modules, names


def _module_references(path, tree) -> collections.Counter:
    """Counts of (module, name) for each load of a name through its own
    module: ``alias.name`` on a module alias, a name imported from the
    module, or a bare name inside the module's own file."""
    modules, names = _bindings(tree)
    own = path.stem if "src" in path.relative_to(ROOT).parts else None
    counts = collections.Counter()
    for n in ast.walk(tree):
        if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                and isinstance(n.value, ast.Name) and n.value.id in modules):
            counts[(modules[n.value.id], n.attr)] += 1
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            if n.id in names:
                counts[names[n.id]] += 1
            elif own is not None:
                counts[(own, n.id)] += 1
    return counts


def test_every_public_function_and_method_has_a_caller():
    trees, refs = _parsed()
    # a module-level function is reached only through a name bound to its
    # own module: ``np.sqrt`` is no caller of ``autodiff.sqrt``
    module_refs = sum((_module_references(path, tree) for path, tree in trees),
                      collections.Counter())
    unused = []
    for path, tree in trees:
        if "src" not in path.relative_to(ROOT).parts:
            continue
        for qualname, node in _public_definitions(tree):
            if node.name.startswith("_") or f"{path.stem}.{qualname}" in ALLOWED:
                continue
            # a method is reached as an attribute; references inside the
            # definition itself do not count
            own = _references(node)
            if "." in qualname:
                callers = refs[("attr", node.name)] - own[("attr", node.name)]
            else:
                callers = module_refs[(path.stem, node.name)] - own[("name", node.name)]
            if callers <= 0:
                unused.append(f"{path.stem}.{qualname}")
    assert unused == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def _public_fields(tree):
    """(qualified name, field name) of each public field of a module-level
    ``@dataclass``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for item in node.body:
                if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and not item.target.id.startswith("_")):
                    yield f"{node.name}.{item.target.id}", item.target.id


def _field_reads(tree) -> collections.Counter:
    """Counts of each attribute name loaded under ``tree`` other than as the
    callee of a call: ``bundle.mean`` reads a field, ``x.mean()`` calls a
    method and reads none."""
    called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    return collections.Counter(
        n.attr for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and id(n) not in called
    )


def test_every_public_dataclass_field_is_read():
    # a field is read as an attribute (``result.history``); keyword
    # construction, ``asdict`` and a same-named method call do not count
    trees, _ = _parsed()
    reads = sum((_field_reads(tree) for _, tree in trees), collections.Counter())
    unread = []
    for path, tree in trees:
        if "src" not in path.relative_to(ROOT).parts:
            continue
        for qualname, name in _public_fields(tree):
            if reads[name] == 0 and f"{path.stem}.{qualname}" not in ALLOWED_FIELDS:
                unread.append(f"{path.stem}.{qualname}")
    assert unread == []


def test_the_training_loop_loads_no_engine_name():
    tree = ast.parse((ROOT / "src/ebmlab/training.py").read_text(encoding="utf-8"))
    modules, names = _bindings(tree)
    loaded = {name for kind, name in _references(tree) if kind == "name"}
    assert sorted((modules.keys() | names.keys() | loaded) & ENGINE_NAMES) == []
