import json
import random
from fractions import Fraction
from math import gcd

import pytest

from abelianj import cli, hermitian, lab, linalg, serialize
from abelianj.cli import main
from abelianj.assoc import CommAssocAlgebra
from abelianj.lie import LieAlgebra
from abelianj.linalg import Matrix, rat, vec
from abelianj.serialize import (
    InputError, ValidationFailure, algebra_from_dict, algebra_to_dict, emit,
    instance_from_dict, instance_to_dict, load_algebra, load_instance,
    load_matrix, matrix_from_file_dict, parse_scalar,
)


def minimal_instance(**overrides):
    data = {
        "dim": 2,
        "basis": ["e1", "e2"],
        "brackets": [{"pair": [0, 1], "value": {"1": "1"}}],
    }
    data.update(overrides)
    return data


def test_parse_scalar_accepts_ints_and_fractions():
    assert parse_scalar(3) == rat(3)
    assert parse_scalar("-7/2") == rat(-7, 2)
    assert parse_scalar("0") == 0


def test_parse_scalar_rejections():
    for bad in (True, False, 1.5, "1/0", "seven", None, [1]):
        with pytest.raises(InputError):
            parse_scalar(bad)
    # decimal strings are exact rationals, not floats, so they parse
    assert parse_scalar("0.5") == rat(1, 2)


# loaded exactly as rat reads them: plain 'p' and 'p/q' by int(), every
# other syntax through rat itself
ACCEPTED = [
    ("3", Fraction(3)), ("-7/2", Fraction(-7, 2)), ("+5", Fraction(5)),
    (" 3 ", Fraction(3)), ("4/6", Fraction(2, 3)), ("-0", Fraction(0)),
    ("00/10", Fraction(0)), ("0.5", Fraction(1, 2)), ("1e3", Fraction(1000)),
    ("1_000", Fraction(1000)), ("\u0663", Fraction(3)),
]
REJECTED = ["3 / 4", "1/-2", "1/0", "1.5/2", "abc", "", "1e4301",
            pytest.param("7" * 5000, id="5000-digit-integer")]


def _bracket_value(s):
    """The scalar s loaded as the bracket [e1, e2] = s e2."""
    g = instance_from_dict(minimal_instance(
        brackets=[{"pair": [0, 1], "value": {"1": s}}])).algebra
    return g.c[0][1][1]


@pytest.mark.parametrize("text, value", ACCEPTED)
def test_scalar_reader_loads_what_rat_reads(text, value):
    assert rat(text) == value
    assert parse_scalar(text) == value and type(parse_scalar(text)) is Fraction
    assert _bracket_value(text) == value
    # == on a Matrix compares canonical splits
    assert matrix_from_file_dict({"matrix": [[text]]}) == Matrix([[value]])


@pytest.mark.parametrize("text", REJECTED)
def test_scalar_reader_refuses_what_rat_refuses(text):
    with pytest.raises((ValueError, ZeroDivisionError)) as refused:
        rat(text)
    message = "bad rational %r (%s)" % (text, refused.value)
    for load in (parse_scalar, _bracket_value,
                 lambda s: matrix_from_file_dict({"matrix": [[s]]})):
        with pytest.raises(InputError) as caught:
            load(text)
        assert str(caught.value) == message


def test_load_builds_no_fraction(fixtures_dir, monkeypatch):
    # scalars go straight into canonical splits, and every validation at
    # load (Jacobi, J^2 = -I, positive definite, J-compatible) reads splits
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
    inst = load_instance(str(fixtures_dir / "kahler_two_blocks.json"))
    assert inst.triple() is not None
    assert built == []


def test_write_builds_no_fraction(fixtures_dir, monkeypatch):
    # every scalar string is written straight off a split's numerators and
    # denominator, or off the ratio of a Fraction the API already holds
    inst = load_instance(str(fixtures_dir / "kahler_two_blocks_scaled.json"))
    t = inst.triple()
    lc = hermitian.levi_civita(t.algebra, t.metric)
    dec = lab.kahler_decompose(t)
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
    text = emit(instance_to_dict(inst.algebra, inst.j, inst.metric))
    tensor = cli._connection_json(lc)
    report = emit(cli._decomposition_dict(dec))
    assert built == []
    monkeypatch.undo()
    assert text == (fixtures_dir / "kahler_two_blocks_scaled.json").read_text(encoding="utf-8")
    assert tensor == [[[str(x) for x in v] for v in row] for row in lc.gamma]
    assert json.loads(report)["change_of_basis"] == [
        [str(x) for x in row] for row in dec.change_of_basis.rows]


def test_round_trip_is_byte_identical(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        data = json.loads(text)
        if "products" in data:
            again = emit(algebra_to_dict(algebra_from_dict(data)))
        else:
            inst = instance_from_dict(data)
            again = emit(instance_to_dict(inst.algebra, inst.j, inst.metric))
        assert again == text, path.name


def test_header_validation():
    with pytest.raises(InputError):
        instance_from_dict([1, 2])
    with pytest.raises(InputError):
        instance_from_dict(minimal_instance(extra=1))
    with pytest.raises(InputError):
        instance_from_dict({"basis": [], "brackets": []})
    with pytest.raises(InputError):
        instance_from_dict(minimal_instance(dim=True))
    with pytest.raises(InputError):
        instance_from_dict(minimal_instance(dim=-1))
    with pytest.raises(InputError):
        instance_from_dict(minimal_instance(basis=["x", "x"]))
    with pytest.raises(InputError):
        instance_from_dict(minimal_instance(basis=["x"]))


def test_bracket_entry_validation():
    cases = [
        [{"pair": [0, 1]}],
        [{"pair": [0], "value": {}}],
        [{"pair": [1, 0], "value": {}}],
        [{"pair": [0, 2], "value": {}}],
        [{"pair": [0, True], "value": {}}],
        [{"pair": [0, 1], "value": {"1": "1"}},
         {"pair": [0, 1], "value": {"1": "2"}}],
        [{"pair": [0, 1], "value": {"two": "1"}}],
        [{"pair": [0, 1], "value": {"5": "1"}}],
        [{"pair": [0, 1], "value": "1"}],
    ]
    for brackets in cases:
        with pytest.raises(InputError):
            instance_from_dict(minimal_instance(brackets=brackets))


def test_jacobi_failure_is_validation():
    data = minimal_instance(
        dim=3, basis=["e1", "e2", "e3"],
        brackets=[{"pair": [0, 1], "value": {"0": "1"}},
                  {"pair": [0, 2], "value": {"1": "1"}},
                  {"pair": [1, 2], "value": {"0": "1"}}])
    with pytest.raises(ValidationFailure) as exc:
        instance_from_dict(data)
    assert "Jacobi" in str(exc.value)


def test_j_failure_channels():
    # well-formed matrix that is not a complex structure: validation failure
    data = minimal_instance(J=[["1", "0"], ["0", "1"]])
    with pytest.raises(ValidationFailure):
        instance_from_dict(data)
    # malformed J array: input error
    with pytest.raises(InputError):
        instance_from_dict(minimal_instance(J=[["0", "-1"]]))
    with pytest.raises(InputError):
        instance_from_dict(minimal_instance(J=[["0", "x"], ["1", "0"]]))


def test_metric_failure_channels():
    good_j = [["0", "-1"], ["1", "0"]]
    data = {"dim": 2, "basis": ["e1", "e2"], "brackets": [],
            "J": good_j, "metric": [["1", "2"], ["2", "1"]]}
    with pytest.raises(ValidationFailure):
        instance_from_dict(data)
    data["metric"] = [["1", "0"], ["0"]]
    with pytest.raises(InputError):
        instance_from_dict(data)
    # SPD but not J-compatible
    data2 = {"dim": 4, "basis": ["e1", "e2", "e3", "e4"], "brackets": [],
             "J": [["0", "0", "-1", "0"], ["0", "0", "0", "-1"],
                   ["1", "0", "0", "0"], ["0", "1", "0", "0"]],
             "metric": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                        ["0", "0", "2", "0"], ["0", "0", "0", "2"]]}
    with pytest.raises(ValidationFailure) as exc:
        instance_from_dict(data2)
    assert "compatible" in str(exc.value)


def test_instance_triple_requires_both_parts():
    inst = instance_from_dict(minimal_instance())
    assert inst.j is None and inst.metric is None
    with pytest.raises(InputError):
        inst.triple()
    with_j = instance_from_dict(minimal_instance(
        dim=2, brackets=[], J=[["0", "-1"], ["1", "0"]]))
    with pytest.raises(InputError):
        with_j.triple()


def test_instance_checks_j_compatibility_once(monkeypatch):
    calls = []
    real = hermitian.is_hermitian
    monkeypatch.setattr(hermitian, "is_hermitian", lambda *a: calls.append(a) or real(*a))
    inst = instance_from_dict(minimal_instance(
        dim=2, brackets=[], J=[["0", "-1"], ["1", "0"]], metric=[["2", "0"], ["0", "2"]]))
    t = inst.triple()
    assert inst.triple() is t and len(calls) == 1
    assert (t.algebra, t.j, t.metric) == (inst.algebra, inst.j, inst.metric)
    with pytest.raises(ValidationFailure) as exc:
        instance_from_dict(minimal_instance(
            dim=2, brackets=[], J=[["0", "-1"], ["1", "0"]], metric=[["1", "0"], ["0", "2"]]))
    assert str(exc.value) == "'metric' is not compatible with 'J'"


def test_algebra_round_trip_and_failure():
    a = CommAssocAlgebra(2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {0: -1}})
    data = algebra_to_dict(a)
    assert algebra_from_dict(data) == a
    bad = {"dim": 2, "basis": ["x", "y"],
           "products": [{"pair": [0, 0], "value": {"1": "1"}},
                        {"pair": [1, 1], "value": {"0": "1"}}]}
    with pytest.raises(ValidationFailure):
        algebra_from_dict(bad)
    with pytest.raises(InputError):
        algebra_from_dict({"dim": 2, "products": [], "brackets": []})


def test_products_allow_diagonal_pairs():
    data = {"dim": 1, "basis": ["t"],
            "products": [{"pair": [0, 0], "value": {"0": "1"}}]}
    assert algebra_from_dict(data).m[0][0] == vec((1,))


def test_matrix_file_parsing(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": [["1", "1/2"], ["0", "1"]]}),
                    encoding="utf-8")
    m = load_matrix(str(path))
    assert m.rows[0][1] == rat(1, 2)
    with pytest.raises(InputError):
        matrix_from_file_dict({"rows": []})
    with pytest.raises(InputError):
        matrix_from_file_dict({"matrix": [["1", "2"]]})
    # too many rows is refused before the shape or any entry is read
    with pytest.raises(InputError, match="above the limit"):
        matrix_from_file_dict({"matrix": [[0.5]] * (serialize.MAX_DIM + 1)})


def test_load_errors(tmp_path):
    with pytest.raises(InputError):
        load_instance(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(InputError):
        load_algebra(str(bad))


def test_save_and_reload(tmp_path):
    g = LieAlgebra(2, {(0, 1): {1: rat(1, 3)}})
    path = tmp_path / "inst.json"
    serialize.save_instance(str(path), g)
    inst = load_instance(str(path))
    assert inst.algebra == g
    assert "1/3" in path.read_text(encoding="utf-8")


def test_scalars_past_the_int_string_limit_print_exactly():
    """Python refuses str() of an int of more than 4300 digits by default;
    the one writer splits the digits instead, for every length around the
    splits, and plain str() answers below the limit.  A Matrix repr and a
    written instance go through it."""
    for k in (10, 4299, 4300, 4301, 9000, 20000):
        v = 37 * 10 ** k + 10 ** (k // 2) + 9
        digits = "37" + "0" * (k - k // 2 - 1) + "1" + "0" * (k // 2 - 1) + "9"
        assert linalg._decimal(v) == digits and linalg._decimal(-v) == "-" + digits
        assert linalg._scalar_str(-v, 1024) == "-%s/1024" % digits
        assert linalg._scalar_str(-v * 1024, 1024 * 1024) == "-%s/1024" % digits
        assert linalg._scalar_str(v, 1) == digits
        assert linalg._split_strs((1024, [(0, -v), (2, 3 * 1024)]), 4) == [
            "-%s/1024" % digits, "0", "3", "0"]
    big = 10 ** 5000 + 1
    m = Matrix._of_split([(1, [(0, big)]), (3, [(1, -1)])], 2)
    assert repr(m) == "Matrix([['1%s1', '0'], ['0', '-1/3']])" % ("0" * 4999)
    g = LieAlgebra._of_split(2, {(0, 1): (7, [(1, big)])}, None)
    assert instance_to_dict(g)["brackets"][0]["value"] == {"1": "1%s1/7" % ("0" * 4999)}


def test_scalar_str_writes_what_str_of_a_fraction_writes():
    """Over signed numerators, zero, and denominators sharing factors with
    the numerator, the writer agrees with str(Fraction(a, d))."""
    rng = random.Random(20240823)
    seen = set()
    for _ in range(2000):
        d = rng.randint(1, 10 ** 6) * rng.choice((1, 6, 1024, 3 ** 40))
        a = rng.randint(-10 ** 40, 10 ** 40) * rng.choice((0, 1, d, rng.randint(1, d)))
        seen |= {"zero" if a == 0 else "negative" if a < 0 else "positive",
                 "shared" if gcd(a, d) > 1 else "coprime"}
        assert linalg._scalar_str(a, d) == str(Fraction(a, d))
        assert linalg._scalar_str(*Fraction(a, d).as_integer_ratio()) == str(Fraction(a, d))
    assert seen == {"zero", "negative", "positive", "shared", "coprime"}


def _json_reference(data):
    return json.dumps(data, indent=2) + "\n"


def test_emit_writes_what_json_dumps_writes(fixtures_dir, tmp_path, monkeypatch, capsys):
    """emit is byte-identical to json.dumps(indent=2) plus a newline on every
    bundled fixture, the dicts check --json and decompose-kahler emit, a
    fuzz report and a synthetic dict of every value kind it writes."""
    emitted = []
    real_emit = serialize.emit

    def recording(data):
        emitted.append(data)
        return real_emit(data)

    monkeypatch.setattr(serialize, "emit", recording)
    for path in sorted(fixtures_dir.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        assert real_emit(data) == _json_reference(data), path.name
        if "products" not in data:
            assert main(["check", "--json", str(path)]) == 0
    for name in ("kahler_two_blocks.json", "kahler_two_blocks_scaled.json"):
        assert main(["decompose-kahler", "--instance", str(fixtures_dir / name),
                     "--report", str(tmp_path / "dec.json")]) == 0
    capsys.readouterr()
    assert len(emitted) == 8
    emitted.append(lab.report_to_dict(lab.theorem_suite(20240823, 10)))
    emitted.append({
        "text": "caf\u00e9 \u2603 \U0001f600 \x00\x1f\x7f \"quoted\" back\\slash\n\t",
        "\u00e9\n\"": ["", "\\", "\u2028"],
        "empty": [[], {}, [[]], [{}], {"a": []}, {"b": {}}],
        "tuple": (1, ("x", None), ()),
        "flags": [True, False, None, 0, -1],
        "big": -10 ** 30 - 7,
        "mixed": ["a", 1, "b", [2, "c"], {"d": "e"}],
        "strings": ["1/2", "0", "-3"],
    })
    for data in emitted:
        assert real_emit(data) == _json_reference(data)


def test_emit_refuses_floats_and_non_str_keys():
    for bad in ({"x": 0.5}, {"x": ["a", 1.0]}, {1: "a"}, {"x": {None: 1}},
                {"x": [{2.5: "a"}]}, {"x": Fraction(1, 2)}):
        with pytest.raises(TypeError):
            emit(bad)
