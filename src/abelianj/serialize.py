"""JSON instance files with exact rational scalars.

Two failure channels, kept strictly apart for the CLI exit-code contract:
InputError for malformed files or values (exit 2), ValidationFailure for
well-formed data whose object fails a mathematical validator such as the
Jacobi identity or positive definiteness (exit 1).

Loading refuses a 'dim' above MAX_DIM, and a matrix file with more than
MAX_DIM rows, with an InputError before any tensor is allocated or any
scalar parsed: tensors are dense dim^3, so an oversized file would
otherwise exhaust memory and time instead of failing.

Emission is canonical: fixed key order, brackets sorted by index pair,
sparse values in ascending index order, two-space indent, trailing newline.
Re-emitting a parsed canonical file is byte-identical.  A plain 'p/q'
scalar is read by int(), any other by linalg's reader rat; every scalar is
written from its numerator and denominator by linalg's one writer
_scalar_str, so neither a load of plain scalars nor a write builds a
Fraction.  emit writes the text of json.dumps(data, indent=2) directly,
as json's indented encoder runs in pure Python: one recursive writer
appends to a list, strings go through json's C ASCII escaper, a list of
strings (a row of scalars) is one join, and the indent of each depth is
built once.  It writes str keys only, and refuses floats.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .assoc import CommAssocAlgebra, check_axioms
from .complex_structures import ComplexStructure
from .hermitian import HermitianTriple, InnerProduct, NotPositiveDefiniteError
from .lie import LieAlgebra, PreconditionError, check_jacobi
from .linalg import Matrix, _scalar_str, rat


class InputError(ValueError):
    """Malformed file or value."""


class ValidationFailure(ValueError):
    """Well-formed data that fails a mathematical validator."""


# largest 'dim' a file may declare
MAX_DIM = 64

INSTANCE_KEYS = {"dim", "basis", "brackets", "J", "metric"}
ALGEBRA_KEYS = {"dim", "basis", "products"}
# a plain 'p' or 'p/q', q > 0, in ASCII digits: the scalars _scalar reads by int()
_PLAIN = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?\Z")


def _scalar(value):
    """(numerator, denominator > 0) in lowest terms of a JSON scalar.  A plain
    one is read by int(); any other, or a plain one with more digits than
    int() reads, goes through rat, for the same value or the same error."""
    if isinstance(value, str) and _PLAIN.match(value):
        num, _, den = value.partition("/")
        try:
            p, q = int(num), int(den or 1)
            g = gcd(p, q)
            return p // g, q // g
        except ValueError:      # more digits than int() reads: rat reports it
            pass
    if isinstance(value, bool):
        raise InputError("scalar must be a rational string or integer")
    if isinstance(value, int):
        return value, 1
    if not isinstance(value, str):
        raise InputError("scalar must be a rational string like '2/3', got %r" % (value,))
    try:
        x = rat(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError("bad rational %r (%s)" % (value, exc))
    return x.numerator, x.denominator


def parse_scalar(value):
    return Fraction(*_scalar(value))


def _split(entries):
    """The canonical split of ascending (index, (p, q)), p / q in lowest terms."""
    nz = [(k, p, q) for k, (p, q) in entries if p]
    d = lcm(*[q for _, _, q in nz])
    return d, [(k, p * (d // q)) for k, p, q in nz]


def _matrix_from_json(data, n, what) -> Matrix:
    if (not isinstance(data, list) or len(data) != n
            or any(not isinstance(row, list) or len(row) != n for row in data)):
        raise InputError("%s must be a %d x %d array" % (what, n, n))
    values = [[_scalar(e) for e in row] for row in data]
    return Matrix._of_split([_split(enumerate(col)) for col in zip(*values)], n)


def _sparse_pairs(data, n, key, symmetric):
    """Common reader for 'brackets' (i < j) and 'products' (i <= j), to splits."""
    items = data.get(key, [])
    if not isinstance(items, list):
        raise InputError("'%s' must be a list" % key)
    out = {}
    for item in items:
        if not isinstance(item, dict) or set(item) != {"pair", "value"}:
            raise InputError("each %s entry needs exactly 'pair' and 'value'" % key)
        pair = item["pair"]
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)):
            raise InputError("'pair' must be two indices")
        i, j = pair
        lo_ok = i <= j if symmetric else i < j
        if not (0 <= i < n and 0 <= j < n and lo_ok):
            raise InputError("bad index pair [%r, %r] for dim %d" % (i, j, n))
        if (i, j) in out:
            raise InputError("duplicate pair [%d, %d]" % (i, j))
        value = item["value"]
        if not isinstance(value, dict):
            raise InputError("'value' must map index strings to scalars")
        parsed = {}
        for k, s in value.items():
            try:
                idx = int(k)
            except (TypeError, ValueError):
                raise InputError("bad component index %r" % (k,))
            if not 0 <= idx < n or idx in parsed:
                raise InputError("bad or duplicate component index %r" % (k,))
            parsed[idx] = _scalar(s)
        out[(i, j)] = _split(sorted(parsed.items()))
    return out


def _sparse_to_json(split, symmetric):
    """The 'brackets' or 'products' list of a table of splits."""
    n = len(split)
    items = []
    for i in range(n):
        start = i if symmetric else i + 1
        for j in range(start, n):
            d, nz = split[i][j]
            if nz:
                items.append({
                    "pair": [i, j],
                    "value": {str(k): _scalar_str(a, d) for k, a in nz},
                })
    return items


def _read_header(data, allowed):
    if not isinstance(data, dict):
        raise InputError("instance must be a JSON object")
    unknown = set(data) - allowed
    if unknown:
        raise InputError("unknown keys: %s" % ", ".join(sorted(unknown)))
    if "dim" not in data or isinstance(data["dim"], bool) or not isinstance(data["dim"], int):
        raise InputError("'dim' must be a nonnegative integer")
    n = data["dim"]
    if n < 0:
        raise InputError("'dim' must be a nonnegative integer")
    if n > MAX_DIM:
        raise InputError("'dim' %d is above the limit of %d" % (n, MAX_DIM))
    names = data.get("basis")
    if names is not None:
        if (not isinstance(names, list) or len(names) != n
                or not all(isinstance(s, str) for s in names)
                or len(set(names)) != n):
            raise InputError("'basis' must list %d distinct names" % n)
        names = tuple(names)
    return n, names


class Instance:
    """An algebra with an optional J and metric.  Given both, their
    HermitianTriple is built here, so J-compatibility is checked once."""

    __slots__ = ("algebra", "j", "metric", "_triple")

    def __init__(self, algebra: LieAlgebra, j: Optional[ComplexStructure],
                 metric: Optional[InnerProduct]):
        self.algebra, self.j, self.metric, self._triple = algebra, j, metric, None
        if j is not None and metric is not None:
            try:
                self._triple = HermitianTriple(algebra, j, metric)
            except PreconditionError:
                raise ValidationFailure("'metric' is not compatible with 'J'") from None

    def triple(self) -> HermitianTriple:
        if self.j is None:
            raise InputError("instance has no 'J' entry")
        if self.metric is None:
            raise InputError("instance has no 'metric' entry")
        return self._triple


def instance_from_dict(data) -> Instance:
    n, names = _read_header(data, INSTANCE_KEYS)
    brackets = _sparse_pairs(data, n, "brackets", symmetric=False)
    g = LieAlgebra._of_split(n, brackets, names)
    wit = check_jacobi(g)
    if wit is not None:
        raise ValidationFailure(
            "Jacobi identity fails on basis triple %s (residual %s)"
            % (wit.triple, [_scalar_str(*x.as_integer_ratio()) for x in wit.residual]))
    j = None
    if data.get("J") is not None:
        jm = _matrix_from_json(data["J"], n, "'J'")
        try:
            j = ComplexStructure(jm)
        except ValueError as exc:
            raise ValidationFailure("'J' is not a complex structure: %s" % exc)
    metric = None
    if data.get("metric") is not None:
        try:
            metric = InnerProduct(_matrix_from_json(data["metric"], n, "'metric'"))
        except NotPositiveDefiniteError as exc:
            raise ValidationFailure("'metric': %s" % exc)
    return Instance(g, j, metric)


def instance_to_dict(g, j=None, metric=None) -> dict:
    out = {"dim": g.dim, "basis": list(g.basis_names)}
    out["brackets"] = _sparse_to_json(g.split(), symmetric=False)
    if j is not None:
        out["J"] = j.matrix._row_strs()
    if metric is not None:
        out["metric"] = metric.gram._row_strs()
    return out


def algebra_from_dict(data) -> CommAssocAlgebra:
    n, names = _read_header(data, ALGEBRA_KEYS)
    products = _sparse_pairs(data, n, "products", symmetric=True)
    a = CommAssocAlgebra._of_split(n, products, names)
    wit = check_axioms(a)
    if wit is not None:
        raise ValidationFailure(
            "product fails %s on indices %s" % (wit.kind, (wit.indices,)))
    return a


def algebra_to_dict(a: CommAssocAlgebra) -> dict:
    return {
        "dim": a.dim,
        "basis": list(a.basis_names),
        "products": _sparse_to_json(a.split(), symmetric=True),
    }


def matrix_from_file_dict(data, what="matrix") -> Matrix:
    if not isinstance(data, dict) or "matrix" not in data:
        raise InputError("%s file must be an object with a 'matrix' key" % what)
    rows = data["matrix"]
    if isinstance(rows, list) and len(rows) > MAX_DIM:
        raise InputError("'matrix' has %d rows, above the limit of %d" % (len(rows), MAX_DIM))
    if (not isinstance(rows, list) or not rows
            or any(not isinstance(r, list) or len(r) != len(rows) for r in rows)):
        raise InputError("'matrix' must be a square array")
    return _matrix_from_json(rows, len(rows), "'matrix'")


_quote = json.encoder.encode_basestring_ascii
_newlines = ["\n"]      # _newlines[k]: a newline and the indent of depth k


def _newline(depth):
    while len(_newlines) <= depth:
        _newlines.append(_newlines[-1] + "  ")
    return _newlines[depth]


def _write(x, out, depth):
    """Append the JSON text of x at this depth to out, as json.dumps with
    indent=2 writes it."""
    if isinstance(x, str):
        out.append(_quote(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = _newline(depth + 1)
        try:        # a list of strings, as of a connection slice: one join
            out.append("[" + inner + ("," + inner).join(map(_quote, x))
                       + _newline(depth) + "]")
            return
        except TypeError:
            pass
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _write(v, out, depth + 1)
            sep = "," + inner
        out.append(_newline(depth) + "]")
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = _newline(depth + 1)
        sep = "{" + inner
        for k, v in x.items():
            if not isinstance(k, str):
                raise TypeError("keys must be str, not %s" % type(k).__name__)
            out.append(sep + _quote(k) + ": ")
            _write(v, out, depth + 1)
            sep = "," + inner
        out.append(_newline(depth) + "}")
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(x).__name__)


def emit(data: dict) -> str:
    """The canonical text of data: json.dumps(data, indent=2) and a newline,
    for str keys and str, int, bool, None, list, tuple and dict values."""
    out = []
    _write(data, out, 0)
    out.append("\n")
    return "".join(out)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    try:
        return json.loads(text)
    except ValueError as exc:   # JSONDecodeError, or an int literal too long to convert
        raise InputError("malformed JSON in %s: %s" % (path, exc))


def load_instance(path) -> Instance:
    return instance_from_dict(_load_json(path))


def load_algebra(path) -> CommAssocAlgebra:
    return algebra_from_dict(_load_json(path))


def load_matrix(path) -> Matrix:
    return matrix_from_file_dict(_load_json(path))


def save_instance(path, g, j=None, metric=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit(instance_to_dict(g, j, metric)))
