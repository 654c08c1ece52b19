import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _modules():
    for path in sorted((SRC / "abelianj").glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_no_assert_in_the_package():
    # python -O strips assert statements; certificates go through certify
    found = [(name, node.lineno) for name, tree in _modules() for node in ast.walk(tree)
             if isinstance(node, ast.Assert)
             or (isinstance(node, ast.Name) and node.id == "AssertionError")]
    assert found == []


def test_certify_is_the_only_raise_of_a_certificate():
    trees = dict(_modules())
    raises = [node for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and "CertificateError" in ast.unparse(node)]
    certify = next(node for node in trees["linalg.py"].body
                   if isinstance(node, ast.FunctionDef) and node.name == "certify")
    assert len(raises) == 1 and raises[0] in list(ast.walk(certify))


def test_certificate_runs_under_python_optimize(fixtures_dir):
    script = (
        "import sys\n"
        "from abelianj import hermitian, serialize\n"
        "from abelianj.linalg import CertificateError\n"
        "hermitian._is_metric = lambda conn, metric: False\n"
        "t = serialize.load_instance(sys.argv[1]).triple()\n"
        "try:\n"
        "    hermitian.levi_civita(t.algebra, t.metric)\n"
        "except CertificateError as exc:\n"
        "    print(exc)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script, str(fixtures_dir / "aff_c_j1.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "Levi-Civita solution is not metric"
