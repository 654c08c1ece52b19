import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from abelianj import cli, lab, serialize
from abelianj.cli import main
from abelianj.complex_structures import ComplexStructure, is_abelian_cs
from abelianj.constructions import double_product, standard_complex_structure
from abelianj.hermitian import InnerProduct, first_canonical_pairing
from abelianj.lie import LieAlgebra, pushforward


def fx(fixtures_dir, name):
    return str(fixtures_dir / name)


def test_check_human_output(fixtures_dir, capsys):
    code = main(["check", fx(fixtures_dir, "aff_c_j1.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "jacobi: ok" in out
    assert "unimodular: no" in out
    assert "integrable: yes  abelian: yes" in out
    assert "kahler: no" in out
    assert "curvature norm^2: 6" in out
    assert "curvature norm^2: 12" in out


def test_check_json_output(fixtures_dir, capsys):
    code = main(["check", "--json", fx(fixtures_dir, "aff_c_j1.json")])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["dim"] == 4
    assert data["series"] == {"solvable": True, "nilpotent": False, "2step": True}
    assert data["J"]["abelian"] and data["J"]["integrable"]
    assert all(data["J"]["report"].values())
    assert data["metric"]["kahler"] is False
    assert data["connections"]["first_canonical"]["curvature_norm_sq"] == "6"
    assert data["connections"]["levi_civita"]["flags"]["is_metric"] is True


def test_check_text_output_is_pinned(fixtures_dir, capsys):
    """The exit code and text stdout of check on every instance fixture, and
    of one run that repeats a --require name, which prints once per use."""
    runs = [[str(path)] for path in sorted(fixtures_dir.glob("*.json"))
            if "products" not in json.loads(path.read_text(encoding="utf-8"))]
    runs.append([fx(fixtures_dir, "aff_c_j1.json"), "--require", "kahler",
                 "--require", "kahler", "--require", "solvable"])
    h = hashlib.sha256()
    for argv in runs:
        code = main(["check"] + argv)
        h.update(b"%d\n" % code + capsys.readouterr().out.encode())
    assert len(runs) == 7
    assert h.hexdigest()[:12] == "eef81e3684dc"


def test_check_json_renders_no_text(fixtures_dir, capsys, monkeypatch):
    path = fx(fixtures_dir, "kahler_two_blocks.json")
    assert main(["check", "--json", path]) == 0
    expected = capsys.readouterr().out

    def no_text(*args):
        raise AssertionError("the text report was rendered in --json mode")

    monkeypatch.setattr(cli, "_check_lines", no_text)
    assert main(["check", "--json", path]) == 0
    assert capsys.readouterr().out == expected


def test_check_first_canonical_matches_pairing(fixtures_dir, capsys):
    checked = 0
    for path in sorted(fixtures_dir.glob("*.json")):
        if "products" in json.loads(path.read_text(encoding="utf-8")):
            continue
        inst = serialize.load_instance(str(path))
        if (inst.j is None or inst.metric is None
                or not is_abelian_cs(inst.algebra, inst.j)):
            continue
        assert main(["check", "--json", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        pairing = first_canonical_pairing(inst.triple())
        assert data["connections"]["first_canonical"]["tensor"] == [
            [[str(c) for c in v] for v in row]
            for row in pairing.gamma]
        checked += 1
    assert checked == 6


@pytest.mark.parametrize("dim, prefix", [(8, "3eb8c93b8ee2"), (12, "fb9f357f81af")])
def test_dense_disguised_check_is_pinned(tmp_path, capsys, dim, prefix):
    """check --json on a diagonal-pair double product pushed forward by a
    random unimodular matrix, with a random Hermitian metric: every tensor
    is dense, the regime the fixture digest does not reach."""
    m = dim // 2
    rng = random.Random(m)
    dp = double_product(*lab.random_pair(rng, m, "diagonal-pair"))
    p = lab.random_unimodular(rng, 2 * m)
    j = ComplexStructure((p @ dp.j.matrix) @ p.inverse())
    path = tmp_path / "dense.json"
    serialize.save_instance(path, pushforward(dp.algebra, p), j,
                            lab.random_hermitian_metric(rng, j))
    assert main(["check", str(path), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == prefix


def test_check_at_the_largest_accepted_dim_is_pinned(tmp_path, capsys):
    """check --json at dim MAX_DIM on a diagonal-pair double product with a
    diagonal J-compatible metric (the sparse recipe of bench/workloads.py,
    seed 7): a cheap proxy for the largest accepted instance, about 1 s."""
    half = serialize.MAX_DIM // 2
    rng = random.Random("check-7-%d" % half)
    dp = double_product(*lab.random_pair(rng, half, "diagonal-pair"))
    diag = [rng.randint(1, 4) for _ in range(half)]
    path = tmp_path / "sparse.json"
    serialize.save_instance(path, dp.algebra, dp.j, InnerProduct.diagonal(diag + diag))
    assert main(["check", str(path), "--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["dim"] == 64
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == "7f15d1229ed8"


def test_check_require_pass_and_fail(fixtures_dir, capsys):
    assert main(["check", fx(fixtures_dir, "aff_c_j1.json"),
                 "--require", "solvable", "--require", "2step"]) == 0
    assert main(["check", fx(fixtures_dir, "aff_c_j1.json"),
                 "--require", "kahler"]) == 1
    out = capsys.readouterr().out
    assert "require kahler: FAIL" in out
    assert main(["check", fx(fixtures_dir, "kahler_two_blocks.json"),
                 "--require", "kahler", "--require", "abelian-j"]) == 0
    assert main(["check", fx(fixtures_dir, "nilpotent_step3.json"),
                 "--require", "nilpotent"]) == 0
    assert main(["check", fx(fixtures_dir, "aff_c_j1.json"),
                 "--require", "nilpotent"]) == 1


def test_check_require_does_not_leak_between_calls(fixtures_dir, capsys):
    # the parser is built once per process; the --require default stays empty
    path = fx(fixtures_dir, "aff_c_j1.json")
    assert main(["check", "--json", path, "--require", "kahler"]) == 1
    assert json.loads(capsys.readouterr().out)["required"] == {"kahler": False}
    assert main(["check", "--json", path]) == 0
    assert json.loads(capsys.readouterr().out)["required"] == {}


def test_check_bracket_free_instance(tmp_path, capsys):
    path = tmp_path / "flat16.json"
    serialize.save_instance(str(path), LieAlgebra.abelian(16),
                            standard_complex_structure(8), InnerProduct.identity(16))
    assert main(["check", "--json", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["center_dim"], data["commutator_dim"]) == (16, 0)
    assert all(data["series"].values()) and data["unimodular"]
    assert data["J"]["integrable"] and data["J"]["abelian"]
    assert all(data["J"]["report"].values()) and len(data["J"]["report"]) == 5
    assert data["metric"] == {"hermitian": True, "kahler": True}
    zero = [[["0"] * 16] * 16] * 16
    for conn in data["connections"].values():
        assert conn["tensor"] == zero
        assert conn["curvature_norm_sq"] == "0"
        assert all(conn["flags"].values()) and len(conn["flags"]) == 3
    assert set(data["connections"]) == {"levi_civita", "first_canonical"}


def test_check_missing_parts(tmp_path, capsys):
    bare = tmp_path / "bare.json"
    serialize.save_instance(str(bare), LieAlgebra(2, {(0, 1): {1: 1}}))
    assert main(["check", str(bare)]) == 0
    assert main(["check", str(bare), "--complex"]) == 2
    assert main(["check", str(bare), "--metric"]) == 2
    assert main(["check", str(bare), "--require", "abelian-j"]) == 2
    capsys.readouterr()


def test_check_bad_files(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["check", str(missing)]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{", encoding="utf-8")
    assert main(["check", str(garbled)]) == 2
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"dim": 2, "brackets": [], "basis": ["\xe9", "f"]}')
    assert main(["check", str(not_utf8)]) == 2
    assert main(["report", str(not_utf8)]) == 2
    jacobi = tmp_path / "jacobi.json"
    jacobi.write_text(json.dumps({
        "dim": 3, "basis": ["e1", "e2", "e3"],
        "brackets": [{"pair": [0, 1], "value": {"0": "1"}},
                     {"pair": [0, 2], "value": {"1": "1"}},
                     {"pair": [1, 2], "value": {"0": "1"}}]}), encoding="utf-8")
    assert main(["check", str(jacobi)]) == 1
    err = capsys.readouterr().err
    assert "validation failed" in err


def test_check_refuses_oversized_dim(tmp_path, capsys):
    # a dense dim^3 tensor for this dim would not fit in memory: the file is
    # refused before anything is allocated
    for dim in (10**9, serialize.MAX_DIM + 1):
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"dim": dim, "brackets": []}), encoding="utf-8")
        assert main(["check", str(huge)]) == 2
        assert "above the limit of %d" % serialize.MAX_DIM in capsys.readouterr().err


def test_check_refuses_a_huge_decimal_exponent_fast(tmp_path, capsys):
    # Fraction("1e100000000") would compute 10**100000000 before any check
    path = tmp_path / "exponent.json"
    path.write_text('{"dim": 2, "brackets": [{"pair": [0, 1], "value": {"1": "1e100000000"}}]}',
                    encoding="utf-8")
    start = time.perf_counter()
    assert main(["check", str(path)]) == 2
    assert time.perf_counter() - start < 1
    assert "decimal exponent above 4300" in capsys.readouterr().err


def test_a_5000_digit_integer_literal_is_bad_input(tmp_path, capsys):
    # json.loads refuses it with a plain ValueError, not a JSONDecodeError
    path = tmp_path / "digits.json"
    path.write_text('{"dim": %s, "brackets": []}' % ("1" * 5000), encoding="utf-8")
    for command in ("check", "report"):
        start = time.perf_counter()
        assert main([command, str(path)]) == 2
        assert time.perf_counter() - start < 1
        assert "input error" in capsys.readouterr().err


def test_check_prints_norms_above_the_int_string_limit(fixtures_dir, tmp_path, capsys):
    """aff_c_j1 with every bracket times 10^2200: its curvature norms are
    those of aff_c_j1, 12 and 6, times 10^8800, past Python's 4300-digit
    limit on int-to-decimal conversion.  They print exactly, and the limit
    is left as it was."""
    data = json.loads(pathlib.Path(fx(fixtures_dir, "aff_c_j1.json")).read_text(encoding="utf-8"))
    for item in data["brackets"]:
        item["value"] = {k: v + "e2200" for k, v in item["value"].items()}
    path = tmp_path / "e2200.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    norms = ["12" + "0" * 8800, "6" + "0" * 8800]
    assert main(["check", str(path), "--json"]) == 0
    conns = json.loads(capsys.readouterr().out)["connections"]
    assert [conns[k]["curvature_norm_sq"] for k in ("levi_civita", "first_canonical")] == norms
    assert main(["check", str(path)]) == 0
    assert ["    curvature norm^2: " + norm for norm in norms] == [
        line for line in capsys.readouterr().out.splitlines() if "norm^2" in line]
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@pytest.mark.parametrize("dim, digits", [(24, 12), (12, 40)])
def test_check_fails_fast_on_mixed_denominators(tmp_path, capsys, dim, digits):
    """A non-Jacobi instance whose brackets each carry their own
    denominator: the lcm of them all has thousands of bits, so the Jacobi
    scan contracts triple by triple and stops at the first one, (0, 1, 2),
    with the message of a plain Fraction residual."""
    rng = random.Random(dim)
    c = {}
    for t, (i, j) in enumerate((i, j) for i in range(dim) for j in range(i + 1, dim)):
        den = 10 ** (digits - 1) + 210 * t + 1      # prime to every numerator 1..9
        c[i, j] = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), den) for _ in range(dim)]
        c[j, i] = [-x for x in c[i, j]]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"dim": dim, "brackets": [
        {"pair": [i, j], "value": {str(k): str(x) for k, x in enumerate(v)}}
        for (i, j), v in c.items() if i < j]}), encoding="utf-8")

    def bracket(a, v):      # [e_a, v]
        return [sum((v[q] * c[a, q][k] for q in range(dim) if q != a), Fraction(0))
                for k in range(dim)]

    residual = [x + y - z for x, y, z in zip(bracket(0, c[1, 2]), bracket(2, c[0, 1]),
                                             bracket(1, c[0, 2]))]
    assert any(residual)
    start = time.perf_counter()
    assert main(["check", str(path)]) == 1
    assert time.perf_counter() - start < 0.25
    assert capsys.readouterr().err == (
        "validation failed: Jacobi identity fails on basis triple (0, 1, 2) (residual %s)\n"
        % [str(x) for x in residual])


def test_construct_aff_round_trip(fixtures_dir, tmp_path, capsys):
    out_path = tmp_path / "aff.json"
    code = main(["construct", "aff",
                 "--algebra", fx(fixtures_dir, "prod_complex.json"),
                 "-o", str(out_path)])
    assert code == 0
    inst = serialize.load_instance(str(out_path))
    assert inst.algebra == LieAlgebra(4, {(0, 2): {2: 1}, (0, 3): {3: 1},
                                          (1, 2): {3: 1}, (1, 3): {2: -1}})
    assert inst.j == standard_complex_structure(2)
    assert inst.metric is None
    # canonical emission: a load/emit round trip is byte-identical
    text = out_path.read_text(encoding="utf-8")
    again = serialize.emit(serialize.instance_to_dict(inst.algebra, inst.j))
    assert again == text
    # the double product against the zero product is the same construction
    code = main(["construct", "double-product",
                 "--dot", fx(fixtures_dir, "prod_complex.json"),
                 "--star", fx(fixtures_dir, "prod_zero2.json")])
    assert code == 0
    assert capsys.readouterr().out == text


def test_construct_refuses_results_load_would_refuse(tmp_path, capsys):
    # each result would have a 'dim' above MAX_DIM: exit 2 before building
    half = serialize.MAX_DIM // 2 + 1
    algebra = tmp_path / "a.json"
    algebra.write_text(json.dumps({"dim": half, "products": []}), encoding="utf-8")
    out_path = tmp_path / "aff.json"
    assert main(["construct", "aff", "--algebra", str(algebra), "-o", str(out_path)]) == 2
    assert not out_path.exists()
    assert main(["construct", "double-product", "--dot", str(algebra),
                 "--star", str(algebra), "-o", str(out_path)]) == 2
    assert not out_path.exists()
    # 2n + 2 = 66; the acting map itself is a valid 64 x 64 identity
    n = serialize.MAX_DIM // 2
    t_path = tmp_path / "t.json"
    t_path.write_text(json.dumps(
        {"matrix": [["1" if r == c else "0" for c in range(2 * n)] for r in range(2 * n)]}),
        encoding="utf-8")
    assert main(["construct", "semidirect", "--n", str(n), "--t", str(t_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("above the limit of %d" % serialize.MAX_DIM) == 3
    # a matrix file with more rows than MAX_DIM is refused as input
    big = tmp_path / "big.json"
    rows = serialize.MAX_DIM + 1
    big.write_text(json.dumps({"matrix": [["0"] * rows] * rows}), encoding="utf-8")
    assert main(["construct", "semidirect", "--n", "1", "--t", str(big)]) == 2
    assert "above the limit of %d" % serialize.MAX_DIM in capsys.readouterr().err


def test_construct_incompatible_pair(fixtures_dir, capsys):
    code = main(["construct", "double-product",
                 "--dot", fx(fixtures_dir, "prod_dual_numbers.json"),
                 "--star", fx(fixtures_dir, "prod_split_pair.json")])
    assert code == 1
    capsys.readouterr()


def test_construct_semidirect(tmp_path, capsys):
    t_path = tmp_path / "t.json"
    t_path.write_text(json.dumps({"matrix": [["1", "0"], ["0", "1"]]}),
                      encoding="utf-8")
    code = main(["construct", "semidirect", "--n", "1", "--t", str(t_path)])
    out = capsys.readouterr().out
    assert code == 0
    inst = serialize.instance_from_dict(json.loads(out))
    assert inst.algebra.dim == 4 and inst.j is not None

    bad_t = tmp_path / "bad.json"
    bad_t.write_text(json.dumps({"matrix": [["1", "0"], ["0", "2"]]}),
                     encoding="utf-8")
    assert main(["construct", "semidirect", "--n", "1", "--t", str(bad_t)]) == 1
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps({"rows": []}), encoding="utf-8")
    assert main(["construct", "semidirect", "--n", "1", "--t", str(shape)]) == 2
    assert main(["construct", "semidirect", "--n", "0", "--t", str(t_path)]) == 2
    capsys.readouterr()


def test_decompose_kahler_success(fixtures_dir, tmp_path, capsys):
    rep_path = tmp_path / "dec.json"
    code = main(["decompose-kahler",
                 "--instance", fx(fixtures_dir, "kahler_two_blocks_scaled.json"),
                 "--report", str(rep_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "n = 2" in out and "(s = 1)" in out
    assert "r^2 = 4, c = 1/4" in out
    data = json.loads(rep_path.read_text(encoding="utf-8"))
    assert data["n"] == 2 and data["s"] == 1
    assert [f["norm_sq"] for f in data["factors"]] == ["4", "1"]
    assert [f["curvature"] for f in data["factors"]] == ["1/4", "1"]
    # the embedded model is itself a loadable instance
    model = serialize.instance_from_dict(data["model"])
    assert model.algebra.dim == 6


def test_decompose_kahler_failures(fixtures_dir, tmp_path, capsys):
    assert main(["decompose-kahler",
                 "--instance", fx(fixtures_dir, "aff_c_j1.json")]) == 1
    capsys.readouterr()

    sqrt2 = tmp_path / "sqrt2.json"
    g = LieAlgebra(4, {(0, 2): {2: 1}, (0, 3): {3: 1},
                       (1, 2): {3: 1}, (1, 3): {2: 2}})
    serialize.save_instance(str(sqrt2), g, standard_complex_structure(2),
                            InnerProduct.diagonal([1, 2, 1, 2]))
    assert main(["decompose-kahler", "--instance", str(sqrt2)]) == 1
    err = capsys.readouterr().err
    assert "irrational spectrum" in err
    assert "--float-fallback" not in err
    with pytest.raises(SystemExit) as exc:
        main(["decompose-kahler", "--instance", str(sqrt2), "--float-fallback"])
    assert exc.value.code == 2
    capsys.readouterr()

    no_metric = tmp_path / "nometric.json"
    serialize.save_instance(str(no_metric), LieAlgebra.abelian(2))
    assert main(["decompose-kahler", "--instance", str(no_metric)]) == 2
    capsys.readouterr()


def test_fuzz_and_report(tmp_path, capsys):
    rep_path = tmp_path / "trials.json"
    code = main(["fuzz", "--seed", "5", "--trials", "10",
                 "--report", str(rep_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "seed 5, 10 trials" in out
    assert "counterexamples: 0" in out
    data = json.loads(rep_path.read_text(encoding="utf-8"))
    assert data["trials"] == 10 and data["counterexamples"] == []

    assert main(["report", str(rep_path)]) == 0
    assert "seed 5" in capsys.readouterr().out

    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"seed": 1}), encoding="utf-8")
    assert main(["report", str(bogus)]) == 2
    assert main(["report", str(tmp_path / "missing.json")]) == 2
    assert main(["fuzz", "--seed", "1", "--trials", "0"]) == 2
    capsys.readouterr()


def test_report_refuses_malformed_counts(tmp_path, capsys):
    """A theorem entry that is not {"pass": int, "fail": int}, or
    counterexamples that are not a list, is an input error (exit 2), not a
    traceback; an empty theorem table prints no rows."""
    base = {"seed": 1, "trials": 0, "theorems": {}, "counterexamples": []}
    path = tmp_path / "report.json"
    for bad in ({"theorems": {"a": 5}}, {"theorems": {"a": {"pass": 1}}},
                {"counterexamples": 5}):
        path.write_text(json.dumps(dict(base, **bad)), encoding="utf-8")
        assert main(["report", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("input error: ")
    path.write_text(json.dumps(base), encoding="utf-8")
    assert main(["report", str(path)]) == 0
    assert capsys.readouterr().out == "seed 1, 0 trials\ncounterexamples: 0\n"


def test_fuzz_refuses_max_dim_below_two(capsys):
    """A bound below the smallest trial dim is an input error, as is a
    trial count below 1; it is not clamped to dim 2."""
    for bound in ("1", "0", "-5"):
        assert main(["fuzz", "--seed", "1", "--trials", "1", "--max-dim", bound]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--max-dim" in err
    assert main(["fuzz", "--seed", "1", "--trials", "1", "--max-dim", "2"]) == 0
    assert "seed 1, 1 trials" in capsys.readouterr().out


def test_argparse_contract():
    with pytest.raises(SystemExit) as exc:
        main(["fuzz"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# Runs both commands in one fresh process; each must reach the idempotent
# splitter, and neither may import sympy.
_NO_SYMPY_SCRIPT = """\
import json, sys
from abelianj import cli, lab
calls = []
split = lab.primitive_idempotents
lab.primitive_idempotents = lambda a: calls.append(a) or split(a)
codes = [cli.main(["decompose-kahler", "--instance", sys.argv[1]])]
reached = [len(calls)]
codes.append(cli.main(["fuzz", "--seed", "359", "--trials", "5"]))
reached.append(len(calls) - reached[0])
print(json.dumps([codes, reached, "sympy" in sys.modules]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_decompose_and_fuzz_do_not_import_sympy(fixtures_dir, flags):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, *flags, "-c", _NO_SYMPY_SCRIPT, fx(fixtures_dir, "kahler_two_blocks.json")],
        env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    codes, reached, imported = json.loads(out.stdout.strip().splitlines()[-1])
    assert codes == [0, 0] and all(reached)
    assert imported is False
