"""Every function the package exports earns its place: another library
function calls it, an acceptance criterion calls it, or README's "Library
entry points" section names it with the paper statement it checks.  Every
private function or method is referenced somewhere in the package outside
its own body."""
import ast
import inspect
import pathlib
import re
from collections import Counter

import abelianj

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "abelianj"


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _exported_functions():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    names = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
             for a in node.names]
    return sorted(n for n in names if inspect.isfunction(getattr(abelianj, n)))


def _called_by_library():
    """Names called inside a src/abelianj function other than themselves."""
    called = set()
    for path in PACKAGE.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called |= {_callee(c) for c in ast.walk(fn) if isinstance(c, ast.Call)} - {fn.name}
    return called


def _called_by_acceptance():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    return {_callee(c) for c in ast.walk(tree) if isinstance(c, ast.Call)}


def _readme_entry_points():
    """The names in the first column of the section's table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library entry points\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(\w+)` \|", section, re.M))


def test_every_exported_function_is_reached_or_documented():
    reached = _called_by_library() | _called_by_acceptance() | _readme_entry_points()
    assert [n for n in _exported_functions() if n not in reached] == []


def test_entry_points_name_exported_functions():
    assert _readme_entry_points() <= set(_exported_functions())


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
