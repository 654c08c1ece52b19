"""Every function the package exports earns its place: another library
function calls it, an acceptance criterion calls it, or README's "Library
entry points" section names it with the paper statement it checks.  A call
counts for the function its module's imports resolve it to, so a homonym in
another module keeps nothing alive.  Every private function or method is
referenced somewhere in the package outside its own body, README's
library tour runs, and every name the benchmark's tracer wraps exists."""
import ast
import importlib
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "abelianj"


def _package_sources():
    """{module: source} for every module of the package, "__init__" itself
    among them."""
    return {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}


def _bindings(tree, modules):
    """{local name: (module, name)} for a function or class imported from
    the package, and {local name: (module, None)} for a package module,
    from `from . import m`, `from .m import f as g` and their absolute
    forms `from abelianj(.m) import ...`."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            base = node.module or ""
        elif node.module == "abelianj" or (node.module or "").startswith("abelianj."):
            base = node.module[len("abelianj."):]
        else:
            continue
        for alias in node.names:
            if not base and alias.name in modules:
                out[alias.asname or alias.name] = (alias.name, None)
            else:
                out[alias.asname or alias.name] = (base or "__init__", alias.name)
    return out


class _Package:
    """The package's definitions and imports, each call resolved to the
    module that defines its callee: a name is read through the caller's
    imports, and through each module that re-exports it, to its def."""

    def __init__(self, sources):
        self.trees = {m: ast.parse(src) for m, src in sources.items()}
        self.bindings = {m: _bindings(t, sources) for m, t in self.trees.items()}
        self.defs = {(m, node.name): node for m, t in self.trees.items() for node in t.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))}

    def canonical(self, key):
        mod, name = key
        while (mod, name) not in self.defs and name in self.bindings.get(mod, {}):
            mod, name = self.bindings[mod][name]
        return mod, name

    def callee(self, module, bindings, call):
        """(defining module, name) of the function a call reaches, or None."""
        func = call.func
        if isinstance(func, ast.Name):
            if (module, func.id) in self.defs:
                return module, func.id
            bound = bindings.get(func.id)
            return self.canonical(bound) if bound and bound[1] else None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            bound = bindings.get(func.value.id)
            if bound and bound[1] is None:
                return self.canonical((bound[0], func.attr))
        return None

    def called_by_library(self):
        """The functions called inside a package function other than themselves."""
        called = set()
        for m, tree in self.trees.items():
            for fn in ast.walk(tree):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    called |= {self.callee(m, self.bindings[m], c) for c in ast.walk(fn)
                               if isinstance(c, ast.Call)} - {(m, fn.name)}
        return called

    def called_in(self, source):
        tree = ast.parse(source)
        bindings = _bindings(tree, self.trees)
        return {self.callee(None, bindings, c) for c in ast.walk(tree) if isinstance(c, ast.Call)}

    def exported_functions(self):
        """{exported name: its (defining module, name)} for the functions."""
        out = {}
        for name, key in self.bindings["__init__"].items():
            key = self.canonical(key)
            if isinstance(self.defs.get(key), ast.FunctionDef):
                out[name] = key
        return out


def _readme_entry_points():
    """The names in the first column of the section's table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library entry points\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(\w+)` \|", section, re.M))


def _unreached(sources):
    """The exported functions that no library function or acceptance
    criterion calls and that README's entry-point table does not name."""
    pkg = _Package(sources)
    exports = pkg.exported_functions()
    reached = (pkg.called_by_library()
               | pkg.called_in((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
               | {exports[n] for n in _readme_entry_points() if n in exports})
    return sorted(n for n, key in exports.items() if key not in reached)


def test_every_exported_function_is_reached_or_documented():
    assert _unreached(_package_sources()) == []


def test_a_homonym_does_not_keep_an_export_alive():
    """An exported Fraction lie.bilinear_table that nothing calls is caught,
    though calls to linalg.bilinear_table, its homonym, remain: every bare
    call in lie is sent to linalg's."""
    sources = _package_sources()
    sources["lie"] = re.sub(r"(?<![\w.])bilinear_table\(", "linalg.bilinear_table(",
                            sources["lie"]) + (
        "\n\ndef bilinear_table(tensor, a, b, pairs):\n"
        "    table = linalg.bilinear_table(tensor.split(), a.split(), b.split(), pairs)\n"
        "    return {ij: _dense(w, tensor.dim) for ij, w in table.items()}\n")
    sources["__init__"] = sources["__init__"].replace(
        "from .lie import (", "from .lie import (\n    bilinear_table,")
    assert _unreached(sources) == ["bilinear_table"]


def test_readme_library_tour_runs(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = text.split("\n## Library tour\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(tour, "README.md", "exec"), {})
    assert capsys.readouterr().out == "12\n"


def test_entry_points_name_exported_functions():
    assert _readme_entry_points() <= set(_Package(_package_sources()).exported_functions())


def _references(tree):
    """How often each name is read in tree, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_private_helper_is_referenced():
    refs, own, private = Counter(), Counter(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        refs += _references(tree)
        for fn in ast.walk(tree):
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and fn.name.startswith("_") and not fn.name.startswith("__")):
                private.append((path.name, fn.name))
                own[fn.name] += _references(fn)[fn.name]
    assert [(f, n) for f, n in private if refs[n] <= own[n]] == []


def test_only_linalg_references_the_bilinear_kernel():
    """A tensor meets a vector outside linalg only through bilinear,
    left_map and bilinear_table, never through linalg._bilinear itself,
    read, called or imported."""
    users = []
    for module, src in sorted(_package_sources().items()):
        tree = ast.parse(src)
        imported = Counter(a.name for node in ast.walk(tree)
                           if isinstance(node, ast.ImportFrom) for a in node.names)
        if module != "linalg" and (_references(tree) + imported)["_bilinear"]:
            users.append(module)
    assert users == []


def test_only_linalg_reads_the_fraction_views():
    """Outside linalg, a matrix's entries and a subspace's basis are read off
    their splits, never off the Fraction views Matrix.rows and
    Subspace.basis, which are rebuilt on each read."""
    readers = sorted(
        (module, node.lineno) for module, src in _package_sources().items() if module != "linalg"
        for node in ast.walk(ast.parse(src))
        if isinstance(node, ast.Attribute) and node.attr in ("rows", "basis"))
    assert readers == []


def _module_constant(path, name):
    """The literal value bound to name at the top level of the file at path,
    read without importing it."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def test_every_traced_layer_name_resolves():
    """The benchmark's tracer wraps each name of bench/tracing.py's LAYERS
    by getattr on its module ("Class.method" through the class __dict__,
    with its _DUNDER aliases), with no fallback: a deleted or renamed name
    would make a traced run raise."""
    tracing = ROOT / "bench" / "tracing.py"
    layers, dunder = _module_constant(tracing, "LAYERS"), _module_constant(tracing, "_DUNDER")
    missing = []
    for layer, names in layers.items():
        mod = importlib.import_module("abelianj." + layer)
        for name in names:
            owner, attr = mod, name
            if "." in name:
                cls, meth = name.split(".")
                owner, attr = vars(mod).get(cls), dunder.get(meth, meth)
            if owner is None or not callable(vars(owner).get(attr)):
                missing.append("%s.%s" % (layer, name))
    assert missing == []
