"""The contraction kernel and the fraction-free elimination against plain
references: bilinear products, the structure layer (bracket spans, center,
the abelian report's subspace flags against centralizers, series, Jacobi,
unimodularity, the ad-twist and Nijenhuis tensor), the Hermitian layer
(curvature, Koszul, torsion, flag residuals, complex projection, also on
operators with one or two nonzero columns) and the nilradical against dense
Fraction formulas; the tensors contracted once per unordered pair
(pushforward, the cyclic sums of is_kahler and cyclic_metric_identity)
against every ordered pair; the minimal polynomial against one solve per
degree; elimination results and the idempotent splitter's factors over Q
against sympy; matrices, connections and algebras stored as canonical
splits against their twins built from Fractions; the J-split of a J-stable
space, read off one elimination, against the greedy loop that eliminates
once per added vector."""
import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import gcd
from types import SimpleNamespace

import pytest
import sympy

from abelianj.assoc import (
    CommAssocAlgebra, IrrationalSpectrumError, check_axioms, check_compatibility,
    nilradical, primitive_idempotents,
)
from abelianj import assoc, complex_structures, hermitian, lab, lie, linalg, serialize
from abelianj.cli import main
from abelianj.complex_structures import abelian_cs_report, is_abelian_cs, is_integrable
from abelianj.constructions import _greedy_j_half, double_product, standard_complex_structure
from abelianj.hermitian import (
    Connection, HermitianTriple, InnerProduct, NotPositiveDefiniteError,
    complex_projection, curvature, curvature_norm_sq, first_canonical,
    first_canonical_pairing, is_flat, levi_civita, torsion,
)
from abelianj.lab import FAMILIES, random_instance, random_kahler_instance
from abelianj.lie import (
    LieAlgebra, bilinear_table, bracket_span, center, check_jacobi,
    commutator_ideal, derived_and_central_series, is_unimodular,
)
from abelianj.linalg import (
    CertificateError, Matrix, SingularMatrix, Subspace, basis_vec,
)


def _scalar(rng):
    """Zero half the time; otherwise signed, with denominators up to 10**12."""
    if rng.random() < 0.5:
        return Fraction(0)
    return Fraction(rng.randint(-10**6, 10**6), rng.choice((1, 3, rng.randint(1, 10**12))))


def _vector(rng, n):
    return tuple(_scalar(rng) for _ in range(n))


def _normalised(entries):
    return all(type(x) is Fraction and x.denominator > 0
               and gcd(x.numerator, x.denominator) == 1 for x in entries)


def _ref_bilinear(tensor, x, y):
    """sum_ij x_i y_j T[i][j], the terms with x_i = 0 or y_j = 0 left out."""
    n = len(tensor)
    pairs = [(i, j, x[i] * y[j]) for i in range(n) if x[i] for j in range(n) if y[j]]
    return tuple(sum((c * tensor[i][j][k] for i, j, c in pairs), Fraction(0)) for k in range(n))


def _random_operands(rng, n):
    brackets = {(i, j): _vector(rng, n) for i in range(n) for j in range(i + 1, n)
                if rng.random() < 0.7}
    products = {(i, j): _vector(rng, n) for i in range(n) for j in range(i, n)
                if rng.random() < 0.7}
    gamma = [[_vector(rng, n) for _ in range(n)] for _ in range(n)]
    return LieAlgebra(n, brackets), CommAssocAlgebra(n, products), Connection(gamma)


def _ref_jacobi(g):
    n, c = g.dim, g.c
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                ei, ej, ek = (basis_vec(n, t) for t in (i, j, k))
                resid = tuple(a + b - d for a, b, d in zip(
                    _ref_bilinear(c, ei, c[j][k]), _ref_bilinear(c, ek, c[i][j]),
                    _ref_bilinear(c, ej, c[i][k])))
                if any(resid):
                    return (i, j, k), resid
    return None


def test_bilinear_products_match_fraction_reference():
    rng = random.Random(20240823)
    for _ in range(60):
        n = rng.randint(1, 5)
        g, a, conn = _random_operands(rng, n)
        x, y = _vector(rng, n), _vector(rng, n)
        mat_a = Matrix([_vector(rng, n) for _ in range(n)])
        mat_b = Matrix([_vector(rng, n) for _ in range(n)])
        outputs = []
        for obj, tensor, product in ((g, g.c, g.bracket), (a, a.m, a.multiply),
                                     (conn, conn.gamma, conn.apply)):
            assert product(x, y) == _ref_bilinear(tensor, x, y)
            outputs.append(product(x, y))
        op = a.left_mult(x)
        assert op == Matrix(
            [_ref_bilinear(a.m, x, basis_vec(n, j)) for j in range(n)]).transpose()
        outputs.extend(op.rows)
        expected = tuple(tuple(_ref_bilinear(g.c, mat_a.column(i), mat_b.column(j))
                               for j in range(n)) for i in range(n))
        # exactly the pairs asked for
        for pairs in (list(combinations(range(n), 2)),
                      list(combinations_with_replacement(range(n), 2)),
                      [(i, j) for i in range(n) for j in range(n)]):
            table = {ij: linalg._dense(w, n) for ij, w in bilinear_table(
                g.split(), mat_a.split(), mat_b.split(), pairs).items()}
            assert list(table) == pairs
            assert all(table[i, j] == expected[i][j] for i, j in pairs)
            outputs.extend(table.values())
        # random tensors mostly fail Jacobi: the first witness and its residual
        witness = check_jacobi(g)
        assert (witness and tuple(witness)) == _ref_jacobi(g)
        if witness:
            outputs.append(witness.residual)
        for entries in outputs:
            assert _normalised(entries)


def _ref_associativity(a):
    n, m = a.dim, a.m
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = _ref_bilinear(m, m[i][j], basis_vec(n, k))
                rhs = _ref_bilinear(m, basis_vec(n, i), m[j][k])
                if lhs != rhs:
                    return "associativity", (i, j, k), tuple(p - q for p, q in zip(lhs, rhs))
    return None


def _ref_compatibility(dot, star):
    n, dm, sm = dot.dim, dot.m, star.m
    for i in range(n):
        ei = basis_vec(n, i)
        for j in range(n):
            ej = basis_vec(n, j)
            for k in range(n):
                for identity, (p, q) in enumerate(((dm, sm), (sm, dm)), 1):
                    lhs = _ref_bilinear(q, ei, p[j][k])
                    rhs = _ref_bilinear(q, ej, _ref_bilinear(p, ei, basis_vec(n, k)))
                    if lhs != rhs:
                        return identity, (i, j, k), tuple(x - y for x, y in zip(lhs, rhs))
    return None


def _scaled_models(rng, n):
    """Associative commutative products on Q^n: a few models times random
    rationals (scaling keeps associativity), padded with zero directions."""
    models = [{(0, 0): {0: 1}, (0, 1): {1: 1}},               # dual numbers
              {(0, 0): {0: 1}, (1, 1): {1: 1}},               # split pair
              {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {0: -1}},  # complex plane
              {(1, 1): {0: 1}}]                               # square-zero
    out = []
    for model in models:
        c = _scalar(rng) or Fraction(1)
        out.append(CommAssocAlgebra(n, {pair: {k: c * v for k, v in value.items()}
                                        for pair, value in model.items()}))
    return out


def test_axiom_and_compatibility_witnesses_match_reference():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(1, 4)
        products = {(i, j): _vector(rng, n) for i in range(n) for j in range(i, n)
                    if rng.random() < 0.5}
        a = CommAssocAlgebra(n, products)
        witness = check_axioms(a)
        assert (witness and tuple(witness)) == _ref_associativity(a)
    witnesses = 0
    for _ in range(10):
        n = rng.randint(2, 4)
        pool = _scaled_models(rng, n)
        for dot in pool:
            for star in pool:
                witness = check_compatibility(dot, star)
                assert (witness and tuple(witness)) == _ref_compatibility(dot, star)
                witnesses += witness is not None
    assert witnesses


# ---- the packed zero tests on inputs that pass many zero residuals ----

def _table(obj):
    """{pair: dense vector} of a LieAlgebra's brackets i < j or a
    CommAssocAlgebra's products i <= j."""
    tensor, lo = (obj.c, 1) if isinstance(obj, LieAlgebra) else (obj.m, 0)
    return {(i, j): list(tensor[i][j]) for i in range(obj.dim) for j in range(i + lo, obj.dim)}


def _perturbed(obj, pair):
    """obj with 1/7 added to entry 0 of its bracket or product at pair."""
    table = _table(obj)
    table[pair][0] += Fraction(1, 7)
    return type(obj)(obj.dim, table)


def _direct_sum(head, tail):
    """head (+) tail: the tail's basis vectors follow the head's, and every
    mixed bracket or product is zero."""
    n, dim = head.dim, head.dim + tail.dim
    table = {pair: v + [Fraction(0)] * tail.dim for pair, v in _table(head).items()}
    table.update({(i + n, j + n): [Fraction(0)] * n + v for (i, j), v in _table(tail).items()})
    return type(head)(dim, table)


def _disguised_recipe(dim):
    """The dense input of ROADMAP item 1: a diagonal-pair double product
    pushed forward by a random unimodular matrix; also the pair, each
    product conjugated by one more unimodular matrix."""
    m = dim // 2
    rng = random.Random(m)
    dot, star = lab.random_pair(rng, m, "diagonal-pair")
    g = lie.pushforward(double_product(dot, star).algebra, lab.random_unimodular(rng, dim))
    q = lab.random_unimodular(rng, m)
    return g, lie.pushforward(dot, q), lie.pushforward(star, q)


# not Lie: [f0, [f1, f2]] = f2; not associative: (f0 f0) f1 - f0 (f0 f1) = f1
_NON_LIE = LieAlgebra(3, {(0, 1): {2: 1}, (1, 2): {1: 1}})
_NON_ASSOCIATIVE = CommAssocAlgebra(2, {(0, 0): {1: 1}, (1, 1): {1: 1}})
# each associative, the pair not compatible
_INCOMPATIBLE = (CommAssocAlgebra(2, {(0, 0): {0: 1}, (1, 1): {1: 1}}),
                 CommAssocAlgebra(2, {(1, 1): {0: 1}}))


def test_packed_zero_tests_match_reference_on_disguised_inputs(monkeypatch):
    """Valid dense inputs, then each with one late bracket or product
    perturbed, or with a small broken factor after it: the scan passes many
    zero residuals, packed, before its first witness.  Only the witness is
    contracted."""
    calls = _count_contractions(monkeypatch)

    def witness_of(check, ref, *args):
        calls.clear()
        witness = check(*args)
        assert (witness and tuple(witness)) == ref(*args)
        assert calls == ([] if witness is None else ["contract_splits", "_combine"])
        return witness

    kahler = [random_kahler_instance(seed, 10).triple.algebra for seed in (0, 1)]
    for g in [_disguised_recipe(dim)[0] for dim in (8, 12, 16)] + kahler:
        n = g.dim
        assert witness_of(check_jacobi, _ref_jacobi, g) is None
        assert witness_of(check_jacobi, _ref_jacobi, _perturbed(g, (n - 2, n - 1)))
        if n <= 12:
            # the broken factor comes last: every triple before its own passes
            tail = witness_of(check_jacobi, _ref_jacobi, _direct_sum(g, _NON_LIE))
            assert tail.triple == (n, n + 1, n + 2)
    for m in (4, 6):
        _, dot, star = _disguised_recipe(2 * m)
        for a in (dot, star, lab._random_block_algebra(random.Random(m), m)):
            assert witness_of(check_axioms, _ref_associativity, a) is None
            assert witness_of(check_axioms, _ref_associativity, _perturbed(a, (m - 1, m - 1)))
        tail = witness_of(check_axioms, _ref_associativity, _direct_sum(dot, _NON_ASSOCIATIVE))
        assert tail.indices == (m, m, m + 1)
        assert witness_of(check_compatibility, _ref_compatibility, dot, star) is None
        pair = [_direct_sum(x, y) for x, y in zip((dot, star), _INCOMPATIBLE)]
        assert witness_of(check_compatibility, _ref_compatibility, *pair).indices[0] == m


def test_packed_zero_test_is_exact_at_the_slot_bound():
    """Residuals whose adjacent slots have opposite signs at the largest
    magnitude the slot width W is proven for, |slot| <= parts * n * M^2 for
    M the largest numerator: (2M^2, -2M^2) with parts * n = 2, and
    (2^(W - 2), -1) with parts * n = 3 and M = 2^40, which packs to zero at
    any slot width below W - 1; then a Jacobi residual of a 3-dim tensor
    whose parts sum to (-4M^2, 4M^2)."""
    one_part = lambda s, i, j, k: [(1, s[0][0], s[1])]
    big = 10 ** 40 + 1
    row = [(1, [(0, big), (1, -big)])] * 2
    table = [[(1, [(0, big), (1, big)]), (1, [(0, big)])], row]
    assert linalg._first_nonzero_residual([table], [one_part], [(0, 0, 0)], 2) == \
        ((0, 0, 0), 0, (1, [(0, 2 * big * big), (1, -2 * big * big)]))
    cancelling = lambda s, i, j, k: [(1, s[0][0], s[1]), (-1, s[0][0], s[1])]
    assert linalg._first_nonzero_residual([table], [cancelling], [(0, 0, 0)], 2) is None
    m = 2 ** 40
    empty = (1, [])
    table = [[(1, [(0, m), (1, m), (2, 1)]), empty, empty],
             [(1, [(0, m)]), (1, [(0, m)]), (1, [(1, -1)])], [empty] * 3]
    w = (3 * m * m).bit_length() + 1
    assert 2 * m * m == 2 ** (w - 2)
    assert linalg._first_nonzero_residual([table], [one_part], [(0, 0, 0)], 3) == \
        ((0, 0, 0), 0, (1, [(0, 2 * m * m), (1, -1)]))
    m = Fraction(big, 3)
    g = LieAlgebra(3, {(0, 1): (m, m, m), (0, 2): (m, -m, m), (1, 2): (m, -m, -m)})
    witness = check_jacobi(g)
    assert tuple(witness) == _ref_jacobi(g)
    assert witness.residual == (-4 * m * m, 4 * m * m, 0)


def _ref_nilradical(a):
    """Kernel of the trace form tr(l_{x.y}), each l_x a dense Fraction matrix,
    from sympy."""
    n, m = a.dim, a.m

    def trace_l(x):
        return sum((_ref_bilinear(m, x, basis_vec(n, q))[q] for q in range(n)), Fraction(0))

    form = sympy.Matrix(n, n, [sympy.Rational(t.numerator, t.denominator)
                               for t in (trace_l(m[i][j]) for i in range(n) for j in range(n))])
    return _ref_span(n, [tuple(_frac(c) for c in v) for v in form.nullspace()])


def test_nilradical_matches_trace_form_reference():
    rng = random.Random(31)
    radicals = 0
    for _ in range(16):
        a = lab._random_block_algebra(rng, rng.randint(1, 6))
        rep = nilradical(a)
        assert rep.nilradical.basis == _ref_nilradical(a)
        assert rep.is_semisimple == (rep.nilradical.dim == 0)
        radicals += rep.nilradical.dim > 0
    assert 0 < radicals < 16


def _sympy(mat):
    return sympy.Matrix(mat.nrows, mat.ncols,
                        [sympy.Rational(e.numerator, e.denominator) for row in mat.rows
                         for e in row])


def _frac(value):
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


def _random_matrix(rng, m, n):
    rows = [list(_vector(rng, n)) for _ in range(m)]
    if m > 1 and rng.random() < 0.4:
        # a rank-deficient matrix: one row a combination of two others
        i, j, k = (rng.randrange(m) for _ in range(3))
        c1, c2 = _scalar(rng), _scalar(rng)
        rows[k] = [c1 * a + c2 * b for a, b in zip(rows[i], rows[j])]
    if rng.random() < 0.2:
        rows[rng.randrange(m)] = [Fraction(0)] * n
    return Matrix(rows)


def _rref(mat):
    """(rows, pivots) of the reduced row echelon form: linalg._echelon of the
    nonzero scaled rows, as every elimination of a Matrix reads them."""
    rows, pivots = linalg._echelon([r for _, r in mat._scaled_rows() if any(r)], mat.ncols)
    return tuple(linalg._dense(s, mat.ncols) for s in rows), tuple(pivots)


def _rank(mat):
    """The dimension of the column span."""
    return Subspace._spanned(mat.nrows, mat.split()).dim


def _check_against_sympy(mat, rng):
    ref = _sympy(mat)
    ref_rref, ref_pivots = ref.rref()
    rref, pivots = _rref(mat)
    assert pivots == tuple(ref_pivots)
    assert rref == tuple(tuple(_frac(ref_rref[r, c]) for c in range(mat.ncols))
                         for r in range(len(ref_pivots)))
    assert _rank(mat) == ref.rank()
    assert mat.kernel() == [tuple(_frac(e) for e in v) for v in ref.nullspace()]
    b = tuple(_scalar(rng) for _ in range(mat.nrows))
    x = mat.solve(b)
    aug = ref.row_join(sympy.Matrix(mat.nrows, 1, [sympy.Rational(e.numerator, e.denominator)
                                                   for e in b]))
    aug_rref, aug_pivots = aug.rref()
    if mat.ncols in aug_pivots:
        assert x is None
    else:
        expected = [Fraction(0)] * mat.ncols
        for r, p in enumerate(aug_pivots):
            expected[p] = _frac(aug_rref[r, mat.ncols])
        assert x == tuple(expected)
        assert mat.apply(x) == b
    if mat.is_square():
        det = _frac(ref.det())
        assert mat.det() == det
        if det:
            inv = mat.inverse()
            assert inv.rows == tuple(tuple(_frac(e) for e in ref.inv().row(r))
                                     for r in range(mat.nrows))
        else:
            with pytest.raises(SingularMatrix):
                mat.inverse()
    for row in rref + tuple(mat.kernel()) + ((x,) if x else ()):
        assert _normalised(row)


def test_elimination_matches_sympy():
    rng = random.Random(20240823)
    for _ in range(120):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.4:
            n = m
        _check_against_sympy(_random_matrix(rng, m, n), rng)


def test_elimination_edge_cases():
    rng = random.Random(7)
    cases = [
        Matrix([[0, 0, 0], [0, 0, 0]]),                  # all zero
        Matrix([[0, 1], [1, 0]]),                        # one row swap: det -1
        Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]]),       # one swap of rows 1 and 3
        Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),       # two swaps: det +1
        Matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]]),       # rank 2 with a swap
        Matrix([[0, 2, 4], [0, 1, 2]]),                  # first column empty
        Matrix([[Fraction(1, 3), Fraction(-2, 7), 5]]),  # 1 x 3
        Matrix([[1], [Fraction(-4, 9)], [0]]),           # 3 x 1
        Matrix([[Fraction(-5, 12)]]),                    # 1 x 1
        Matrix([[0]]),                                   # singular 1 x 1
    ]
    for mat in cases:
        _check_against_sympy(mat, rng)
    assert Matrix([[0, 1], [1, 0]]).det() == -1
    assert Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]).det() == 1
    assert Matrix([[Fraction(-5, 12)]]).inverse().rows == ((Fraction(-12, 5),),)
    # no columns, and no rows
    empty_cols = Matrix([(), ()])
    assert (empty_cols.nrows, empty_cols.ncols) == (2, 0)
    assert _rref(empty_cols) == ((), ()) and _rank(empty_cols) == 0
    assert empty_cols.kernel() == []
    assert empty_cols.solve((0, 0)) == () and empty_cols.solve((1, 0)) is None
    no_rows = Matrix.zeros(0, 3)
    assert _rank(no_rows) == 0 and no_rows.kernel() == [basis_vec(3, i) for i in range(3)]
    assert Matrix([]).det() == 1


def test_inner_product_minors_match_sympy():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        base = Matrix([_vector(rng, n) for _ in range(n)])
        gram = base.transpose() @ base
        if rng.random() < 0.5:
            # perturb one diagonal entry, often breaking definiteness
            k = rng.randrange(n)
            rows = [list(r) for r in gram.rows]
            rows[k][k] -= abs(_scalar(rng)) * 3
            gram = Matrix(rows)
        minors = [_frac(_sympy(gram)[:k, :k].det()) for k in range(1, n + 1)]
        bad = next((k for k, d in enumerate(minors, 1) if d <= 0), None)
        if bad is None:
            assert InnerProduct(gram).gram == gram
        else:
            with pytest.raises(NotPositiveDefiniteError,
                               match="leading principal minor %d is not positive" % bad):
                InnerProduct(gram)


# ---- the Hermitian layer against its dense Fraction formulas ----

def _mm(a, b):
    return [[sum((a[r][t] * b[t][c] for t in range(len(b))), Fraction(0))
             for c in range(len(b[0]))] for r in range(len(a))]


def _rows(m):
    return [list(r) for r in m.rows]


def _op(conn, i):
    """Rows of the operator D_i, whose column k is gamma[i][k]."""
    n, gamma = conn.dim, conn.gamma
    return [[gamma[i][k][r] for k in range(n)] for r in range(n)]


def _ref_curvature(g, conn):
    """R(e_i, e_j) = D_i D_j - D_j D_i - sum_p c_ij^p D_p for i < j, filled
    in antisymmetrically."""
    n, c = g.dim, g.c
    ops = [_op(conn, i) for i in range(n)]
    zero = tuple((Fraction(0),) * n for _ in range(n))
    grid = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            ab, ba = _mm(ops[i], ops[j]), _mm(ops[j], ops[i])
            cs = [(p, x) for p, x in enumerate(c[i][j]) if x]
            r = tuple(tuple(ab[a][k] - ba[a][k] - sum((x * ops[p][a][k] for p, x in cs),
                                                      Fraction(0))
                            for k in range(n)) for a in range(n))
            grid[i][j], grid[j][i] = r, tuple(tuple(-x for x in row) for row in r)
    return grid


def _solve(ginv, rhs):
    return tuple(_mm(ginv, [[x] for x in rhs])[r][0] for r in range(len(rhs)))


def _gram_times(metric, v):
    gram = metric.gram.rows
    return [sum((gram[k][t] * v[t] for t in range(len(v))), Fraction(0))
            for k in range(len(v))]


def _ref_levi_civita(g, metric):
    """Koszul right-hand sides solved one (i, j) at a time."""
    n, c = g.dim, g.c
    gc = [[_gram_times(metric, c[i][j]) for j in range(n)] for i in range(n)]
    ginv = _rows(metric.gram.inverse())
    half = Fraction(1, 2)
    return tuple(tuple(_solve(ginv, [
        half * (gc[i][j][k] - gc[j][k][i] + gc[k][i][j]) for k in range(n)])
        for j in range(n)) for i in range(n))


def _ref_pairing(g, jm, metric):
    """The expanded pairing right-hand sides solved one (i, j) at a time."""
    n, c = g.dim, g.c
    jmat = _rows(jm)
    gc = [[_gram_times(metric, c[i][j]) for j in range(n)] for i in range(n)]
    jg = _mm([list(r) for r in zip(*jmat)], _rows(metric.gram))   # J^T G
    jcol = [[jmat[r][c] for r in range(n)] for c in range(n)]      # J e_c
    tj = [[_ref_bilinear(c, basis_vec(n, i), jcol[q]) for q in range(n)] for i in range(n)]
    jt = [[_ref_bilinear(c, jcol[i], basis_vec(n, q)) for q in range(n)] for i in range(n)]
    gtj = [[[sum((jg[k][t] * tj[i][q][t] for t in range(n)), Fraction(0))
             for k in range(n)] for q in range(n)] for i in range(n)]
    gjt = [[[sum((jg[k][t] * jt[i][q][t] for t in range(n)), Fraction(0))
             for k in range(n)] for q in range(n)] for i in range(n)]
    ginv = _rows(metric.gram.inverse())
    quarter = Fraction(1, 4)
    return tuple(tuple(_solve(ginv, [
        quarter * (gc[i][q][k] + gc[k][i][q] + gtj[i][q][k] + gjt[k][i][q]
                   - 2 * gc[q][k][i]) for k in range(n)])
        for q in range(n)) for i in range(n))


def _ref_torsion(g, conn):
    n, gamma, c = g.dim, conn.gamma, g.c
    return tuple(tuple(tuple(gamma[i][j][k] - gamma[j][i][k] - c[i][j][k]
                             for k in range(n)) for j in range(n)) for i in range(n))


def _ref_is_metric(conn, metric):
    gm = _rows(metric.gram)
    for i in range(conn.dim):
        op = _op(conn, i)
        a, b = _mm([list(r) for r in zip(*op)], gm), _mm(gm, op)
        if any(x + y for ra, rb in zip(a, b) for x, y in zip(ra, rb)):
            return False
    return True


def _ref_is_complex(conn, jm):
    jr = _rows(jm)
    return all(_mm(_op(conn, i), jr) == _mm(jr, _op(conn, i)) for i in range(conn.dim))


def _ref_torsion_type_11(g, jm, conn):
    """T(J e_a, J e_b) == T(e_a, e_b) for every a, b, expanding J e_a over
    the basis in the dense torsion."""
    n, t, jr = g.dim, _ref_torsion(g, conn), _rows(jm)
    return all(tuple(sum((jr[p][a] * jr[q][b] * t[p][q][k]
                          for p in range(n) for q in range(n)), Fraction(0))
                     for k in range(n)) == t[a][b]
               for a in range(n) for b in range(n))


def _ref_projection(conn, jm):
    """Column k of (D_i - J D_i J) / 2."""
    jr = _rows(jm)
    n = conn.dim
    out = []
    for i in range(n):
        op = _op(conn, i)
        jdj = _mm(_mm(jr, op), jr)
        out.append(tuple(tuple(Fraction(1, 2) * (op[r][k] - jdj[r][k]) for r in range(n))
                         for k in range(n)))
    return tuple(out)


def _random_connection(rng, n):
    """Random slices with half-zero entries; about a third of the directions
    are zero operators."""
    z = (Fraction(0),) * n
    return Connection([[z] * n if rng.random() < 0.35 else [_vector(rng, n) for _ in range(n)]
                       for _ in range(n)])


def _hermitian_cases():
    """(algebra, J, metric) triples: every family with and without disguise,
    Kahler samples, a bracket-free instance and Heisenberg-type brackets."""
    rng = random.Random(315)
    triples = [random_instance(rng.randrange(2 ** 32), 1 + rng.randrange(3), family,
                               disguise=disguise)
               for family in FAMILIES for disguise in (False, True) for _ in range(2)]
    triples += [random_kahler_instance(rng.randrange(2 ** 32), 8).triple for _ in range(3)]
    j4 = standard_complex_structure(2)
    triples.append(HermitianTriple(LieAlgebra.abelian(4), j4, InnerProduct.diagonal([2, 3, 2, 3])))
    # [e1, e2] = e3 and [e1, e4] = e2 / 3: J is not abelian here, the
    # references do not need it to be
    heis = LieAlgebra(4, {(0, 1): {2: 1}, (0, 3): {1: Fraction(1, 3)}})
    triples.append(HermitianTriple(heis, j4, InnerProduct.identity(4)))
    return triples


def _matches_reference(g, j, metric, conn):
    """Assert curvature, is_flat, the curvature norm, torsion and
    complex_projection of conn equal their references, and so do the metric
    test and the complex test, which check reads as "the projection fixes
    conn"; return the two flags."""
    grid = curvature(g, conn)
    ref = _ref_curvature(g, conn)
    assert [[cell.rows for cell in row] for row in grid] == [list(row) for row in ref]
    assert is_flat(g, conn) == all(not any(map(any, cell)) for row in ref for cell in row)
    assert curvature_norm_sq(g, conn) == sum(
        (x * x for row in grid for cell in row for r in cell.rows for x in r), Fraction(0))
    assert torsion(g, conn) == _ref_torsion(g, conn)
    flags = (hermitian._is_metric(conn, metric), complex_projection(j, conn) == conn)
    assert flags == (_ref_is_metric(conn, metric), _ref_is_complex(conn, j.matrix))
    assert complex_projection(j, conn).gamma == _ref_projection(conn, j.matrix)
    for block in (cell for row in grid for cell in row):
        for r in block.rows:
            assert _normalised(r)
    return flags


def test_hermitian_layer_matches_fraction_reference():
    rng = random.Random(8)
    flags_seen, types_seen = set(), set()
    for t in _hermitian_cases():
        g, jm, metric = t.algebra, t.j.matrix, t.metric
        n = g.dim
        lc = levi_civita(g, metric)
        assert lc.gamma == _ref_levi_civita(g, metric)
        fc = first_canonical(t)
        assert fc.gamma == _ref_projection(lc, jm)
        # connection_flags takes the metric and complex flags of the first
        # canonical connection as proved; the dense references agree, and
        # its one computed flag is the dense torsion-type test
        assert _ref_is_metric(fc, metric) and _ref_is_complex(fc, jm)
        flags = hermitian.connection_flags(t, fc)
        assert flags == (True, True, _ref_torsion_type_11(g, jm, fc))
        types_seen.add(flags.torsion_type_11)
        if hermitian.is_abelian_cs(g, t.j):
            assert first_canonical_pairing(t).gamma == _ref_pairing(g, jm, metric)
        conns = [lc, fc, _random_connection(rng, n), Connection.zero(n)]
        # zero operators along e_1 and e_2, whose bracket need not be zero
        some = _random_connection(rng, n)
        conns.append(Connection([[(Fraction(0),) * n] * n if i < 2 else some.gamma[i]
                                 for i in range(n)]))
        for conn in conns:
            flags_seen.add(_matches_reference(g, t.j, metric, conn))
    # both outcomes of both flags occur, and of the torsion type
    assert {f[0] for f in flags_seen} == {f[1] for f in flags_seen} == {True, False}
    assert types_seen == {True, False}


def _sparse_recipe(half, seed=7):
    """The sparse check input of bench/workloads.py: a diagonal-pair double
    product, its J and a diagonal J-compatible metric."""
    rng = random.Random("check-%d-%d" % (seed, half))
    dp = double_product(*lab.random_pair(rng, half, "diagonal-pair"))
    diag = [rng.randint(1, 4) for _ in range(half)]
    return dp.algebra, dp.j, InnerProduct.diagonal(diag + diag)


def _sparse_connection(rng, n):
    """Operators with one or two nonzero columns; about a third of the
    directions are zero."""
    gamma = [[(Fraction(0),) * n] * n for _ in range(n)]
    for row in gamma:
        if rng.random() < 0.65:
            for k in rng.sample(range(n), rng.choice((1, 2))):
                while not any(row[k]):
                    row[k] = _vector(rng, n)
    return Connection(gamma)


def _bumped(conn, bumps):
    """conn with x added to entry a of D_i e_k for each (i, k, a, x)."""
    gamma = [[list(v) for v in row] for row in conn.gamma]
    for i, k, a, x in bumps:
        gamma[i][k][a] += x
    return Connection(gamma)


def test_metric_adjoint_test_matches_the_dense_identity():
    """_is_adjoint(G, A, sign) is (G A)^T == sign G A for a symmetric G, on
    A = G^-1 S with S skew or symmetric, on that A with one entry moved,
    and on random and zero A."""
    rng = random.Random(28)
    for n in (1, 2, 3, 5):
        for _ in range(10):
            b = Matrix([_vector(rng, n) for _ in range(n)])
            gram = b + b.transpose()
            try:
                ginv = gram.inverse()
            except SingularMatrix:
                continue
            for sign in (1, -1):
                s = b + b.transpose().scale(sign)
                good = ginv @ s
                moved = good + Matrix([[int(r == c == n - 1) for c in range(n)]
                                       for r in range(n)])
                for a in (good, moved, Matrix([_vector(rng, n) for _ in range(n)]),
                          Matrix.zeros(n, n)):
                    ga = gram @ a
                    assert hermitian._is_adjoint(gram, a.split(), sign) == \
                        (ga.transpose() == ga.scale(sign))


def test_hermitian_layer_on_sparse_operators_matches_reference():
    """Operators with one or two nonzero columns.  On the sparse recipe,
    whose J permutes the basis up to sign and whose metric is diagonal: the
    first canonical connection (metric and complex), one-entry bumps of it
    (neither), their J-averages (complex only) and a skew two-entry bump
    (metric only).  There and on the Hermitian cases, whose J and metric
    are dense when disguised: random sparse connections."""
    rng = random.Random(26)
    flags_seen = set()
    for half in (2, 3, 4):
        g, j, metric = _sparse_recipe(half)
        n, gram = g.dim, metric.gram.rows
        fc = complex_projection(j, levi_civita(g, metric))
        assert all(len(hermitian._support(row)) in (0, 2) for row in fc.split())
        conns = [fc]
        for _ in range(2):
            i, k, a = (rng.randrange(n) for _ in range(3))
            bump = _bumped(fc, [(i, k, a, Fraction(rng.randint(1, 9), rng.randint(1, 9)))])
            conns += [bump, complex_projection(j, bump)]
        # x (e_a e_k^T / g_aa - e_k e_a^T / g_kk) is skew for a diagonal G
        i, (k, a) = rng.randrange(n), rng.sample(range(n), 2)
        conns.append(_bumped(fc, [(i, k, a, 1 / gram[a][a]), (i, a, k, -1 / gram[k][k])]))
        for conn in conns + [_sparse_connection(rng, n) for _ in range(2)]:
            flags_seen.add(_matches_reference(g, j, metric, conn))
    assert flags_seen == {(True, True), (True, False), (False, True), (False, False)}
    for t in _hermitian_cases():
        _matches_reference(t.algebra, t.j, t.metric, _sparse_connection(rng, t.algebra.dim))


def test_heisenberg_pair_with_zero_operators_is_curved():
    # D_1 = D_2 = 0 but [e_1, e_2] = e_3 and D_3 != 0, so R(e_1, e_2) = -D_3
    g = LieAlgebra(3, {(0, 1): {2: 1}})
    z = (Fraction(0),) * 3
    d3 = [(Fraction(1), Fraction(0), Fraction(0)), z, (Fraction(0), Fraction(2, 3), Fraction(0))]
    conn = Connection([[z] * 3, [z] * 3, d3])
    grid = curvature(g, conn)
    assert grid[0][1].rows == tuple(tuple(-x for x in r) for r in Matrix(d3).transpose().rows)
    assert not is_flat(g, conn)


def _count_contractions(monkeypatch):
    """Names of the contract_splits and _combine calls made from now on,
    through linalg or any layer that imported them."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for mod in (linalg, lie, complex_structures, hermitian):
        for name in ("contract_splits", "_combine"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
    return calls


def test_zero_operators_cost_no_contraction(monkeypatch):
    calls = _count_contractions(monkeypatch)
    g = LieAlgebra.abelian(12)
    zero = Connection.zero(12)
    grid = curvature(g, zero)
    assert is_flat(g, zero)
    # the Koszul solve and the torsion skip their all-zero entries too
    assert levi_civita(g, InnerProduct.identity(12)) == zero
    assert hermitian.is_torsion_free(g, zero)
    assert calls == []
    assert all(cell.is_zero() for row in grid for cell in row)
    # the counter does see the contractions of a curved pair
    aff = LieAlgebra(2, {(0, 1): {1: 1}})
    assert not is_flat(aff, levi_civita(aff, InnerProduct.identity(2)))
    assert "contract_splits" in calls


def test_sparse_check_contracts_only_nonzero_slices(monkeypatch, tmp_path, capsys):
    """On the sparse recipe at dim 24, where 38 of the 576 slices of each
    connection are nonzero, the projection makes at most two contractions
    per nonzero slice, and the flags of the first canonical connection
    only those of its torsion test, none per slice; one _combine call ends
    every contraction.  Its check --json output is pinned."""
    g, j, metric = _sparse_recipe(12)
    t = HermitianTriple(g, j, metric)
    lc = levi_civita(g, metric)
    calls = _count_contractions(monkeypatch)
    fc = complex_projection(j, lc)
    assert calls.count("_combine") <= 2 * sum(len(hermitian._support(r)) for r in lc.split())
    calls.clear()
    assert hermitian.connection_flags(t, fc) == (True, True, True)
    # the torsion test makes one contraction per pair i < j it reads a
    # nonzero slice or bracket for
    cs, gs = fc.split(), g.split()
    pairs = sum(1 for i, k in combinations(range(g.dim), 2)
                if cs[i][k][1] or cs[k][i][1] or gs[i][k][1])
    assert "contract_splits" not in calls
    assert calls.count("_combine") <= pairs
    monkeypatch.undo()
    path = tmp_path / "sparse.json"
    serialize.save_instance(path, g, j, metric)
    assert main(["check", str(path), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == "ea2e1d800059"


def test_check_makes_one_curvature_pass_per_distinct_connection(monkeypatch, fixtures_dir,
                                                               tmp_path, capsys):
    """Where J is parallel the first canonical connection is Levi-Civita's
    and check --json reports it from the same entry: one curvature pass on
    a Kahler fixture and on the sparse recipe at dim 8, two on aff_c_j1,
    where the two connections differ."""
    passes = []
    pairs = hermitian._curvature_pairs
    monkeypatch.setattr(hermitian, "_curvature_pairs",
                        lambda g, conn: passes.append(conn) or pairs(g, conn))
    sparse = tmp_path / "sparse-8.json"
    serialize.save_instance(sparse, *_sparse_recipe(4))
    for path, count in ((fixtures_dir / "kahler_two_blocks.json", 1), (sparse, 1),
                        (fixtures_dir / "aff_c_j1.json", 2)):
        passes.clear()
        assert main(["check", str(path), "--json"]) == 0
        conns = json.loads(capsys.readouterr().out)["connections"]
        assert len(passes) == count
        assert (conns["first_canonical"] == conns["levi_civita"]) is (count == 1)
        assert conns["first_canonical"]["flags"] == dict.fromkeys(
            ("is_metric", "is_complex", "torsion_type_11"), True)


def test_levi_civita_contracts_once_per_bracket_and_slice(monkeypatch):
    """On the sparse recipe at dim 24, the Levi-Civita construction makes one
    _combine call per nonzero bracket pair (w_ab = G c_ab) and one per
    nonzero slice (the G^-1 solve), and no Matrix product; the calls of its
    torsion-free and metric certificates are counted apart."""
    g, j, metric = _sparse_recipe(12)
    calls = _count_contractions(monkeypatch)
    matmuls = []
    matmul = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__",
                        lambda a, b: matmuls.append(1) or matmul(a, b))
    certificates = []

    def counted_apart(fn):
        def wrapper(*args):
            before = len(calls)
            ok = fn(*args)
            certificates.append((fn.__name__, calls[before:]))
            del calls[before:]
            return ok
        return wrapper

    for name in ("is_torsion_free", "_is_metric"):
        monkeypatch.setattr(hermitian, name, counted_apart(getattr(hermitian, name)))
    lc = levi_civita(g, metric)
    gs, cs = g.split(), lc.split()
    brackets = sum(1 for a, b in combinations(range(g.dim), 2) if gs[a][b][1])
    slices = sum(len(hermitian._support(row)) for row in cs)
    assert [name for name, _ in certificates] == ["is_torsion_free", "_is_metric"]
    assert all(c == "_combine" for _, cc in certificates for c in cc)
    assert set(calls) == {"_combine"}
    assert len(calls) <= brackets + slices
    assert matmuls == []
    monkeypatch.undo()
    for half in (2, 3, 4):
        g, _, metric = _sparse_recipe(half)
        assert levi_civita(g, metric).gamma == _ref_levi_civita(g, metric)


def test_zero_brackets_cost_no_contraction(monkeypatch):
    calls = _count_contractions(monkeypatch)

    def structure(g, j):
        whole = Subspace.whole(g.dim)
        lc = levi_civita(g, InnerProduct.identity(g.dim))
        calls.clear()
        return (check_jacobi(g), bracket_span(g, whole, whole), center(g),
                commutator_ideal(g), abelian_cs_report(g, j).all_hold,
                curvature_norm_sq(g, lc), curvature_norm_sq(g, Connection.zero(g.dim)))

    g, j = LieAlgebra.abelian(12), standard_complex_structure(6)
    assert structure(g, j) == (None, Subspace.zero(12), Subspace.whole(12),
                               Subspace.zero(12), True, 0, 0)
    assert calls == []
    # h3 + R with [e1, e3] = e2, on which the standard J is abelian
    assert structure(LieAlgebra(4, {(0, 2): {1: 1}}), standard_complex_structure(2))[4]
    assert "contract_splits" in calls and "_combine" in calls


# ---- the structure layer against its dense Fraction formulas ----

def _ref_span(n, vectors):
    """Reduced echelon basis of the span, from sympy."""
    rows = [v for v in vectors if any(v)]
    if not rows:
        return ()
    ref, pivots = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in v]
                                for v in rows]).rref()
    return tuple(tuple(_frac(ref[r, c]) for c in range(n)) for r in range(len(pivots)))


def _ref_bracket_span(g, u, v):
    c = g.c
    return _ref_span(g.dim, [_ref_bilinear(c, a, b) for a in u for b in v])


def _ref_center(g):
    """Joint kernel of the rows x -> [x, e_j]_k, from sympy."""
    n, c = g.dim, g.c
    rows = [[c[i][j][k] for i in range(n)] for j in range(n) for k in range(n)]
    kernel = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                           for r in rows]).nullspace()
    return _ref_span(n, [tuple(_frac(x) for x in v) for v in kernel])


def _ref_center_of(g, basis):
    """{sum_a x_a u_a : sum_a x_a [u_a, u_b] = 0 for every b}, from sympy."""
    n, m = g.dim, len(basis)
    c = g.c
    table = [[_ref_bilinear(c, a, b) for b in basis] for a in basis]
    rows = [[table[a][b][k] for a in range(m)] for b in range(m) for k in range(n)]
    kernel = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                           for r in rows]).nullspace()
    return _ref_span(n, [tuple(sum((_frac(c) * u[k] for c, u in zip(v, basis)), Fraction(0))
                               for k in range(n)) for v in kernel])


def _ref_series(g, first):
    """[whole, ...] with next = span [first(previous), previous], stopping
    when a term repeats or reaches zero."""
    n = g.dim
    out = [tuple(basis_vec(n, i) for i in range(n))]
    while True:
        nxt = _ref_bracket_span(g, first(out[-1]), out[-1])
        if nxt == out[-1]:
            return out
        out.append(nxt)
        if not nxt:
            return out


def _ref_ad(g, x):
    """Rows of the matrix y -> [x, y]."""
    n, c = g.dim, g.c
    cols = [_ref_bilinear(c, x, basis_vec(n, k)) for k in range(n)]
    return [[cols[k][r] for k in range(n)] for r in range(n)]


def _ref_unimodular(g):
    """tr ad_{e_i} = 0 for every i, from the dense ad matrices."""
    n = g.dim
    return all(sum(ad[r][r] for r in range(n)) == 0
               for ad in (_ref_ad(g, basis_vec(n, i)) for i in range(n)))


def _ref_ad_twist(g, jm):
    """ad_{Je_i} = -ad_{e_i} J for every i."""
    n, jr = g.dim, _rows(jm)
    return all(_ref_ad(g, jm.column(i)) ==
               [[-x for x in row] for row in _mm(_ref_ad(g, basis_vec(n, i)), jr)]
               for i in range(n))


def _ref_nijenhuis(g, jm, i, k):
    """[Je_i, Je_k] - J[Je_i, e_k] - J[e_i, Je_k] - [e_i, e_k]."""
    n, jr = g.dim, _rows(jm)
    ei, ek, ji, jk = basis_vec(n, i), basis_vec(n, k), jm.column(i), jm.column(k)
    c = g.c
    twist = [a + b for a, b in zip(_ref_bilinear(c, ji, ek), _ref_bilinear(c, ei, jk))]
    jt = _mm(jr, [[x] for x in twist])
    return tuple(a - b[0] - d for a, b, d in zip(_ref_bilinear(c, ji, jk), jt, c[i][k]))


def _assert_subspace_flags_match_reference(g, j, report):
    """The report's two bracket-table flags read as containments in sympy's
    centralizers: Jg' is abelian when it is its own center, and g' ∩ Jg' is
    central in g' + Jg' when it lies in the center of g' + Jg'."""
    def within(u, v):
        return Subspace(g.dim, _ref_center_of(g, v.basis)).contains(u)

    gp = commutator_ideal(g)
    jgp = gp.image(j.matrix)
    assert report.j_commutator_abelian_subalgebra == within(jgp, jgp)
    assert report.intersection_central == within(gp.intersect(jgp), gp.sum(jgp))


def test_structure_layer_matches_fraction_reference():
    cases = [(t.algebra, t.j) for t in _hermitian_cases()]
    # not Jacobi: the triples before (1, 2, 3) are zero or read zero brackets
    cases.append((LieAlgebra(6, {(2, 3): {4: 1}, (1, 4): {5: Fraction(2, 3)}}),
                  standard_complex_structure(3)))
    twists, unimodular = set(), set()
    for g, j in cases:
        n, jm = g.dim, j.matrix
        whole = Subspace.whole(n)
        witness = check_jacobi(g)
        assert (witness and tuple(witness)) == _ref_jacobi(g)
        if witness:
            assert witness.triple == (1, 2, 3)
            continue
        assert bracket_span(g, whole, whole).basis == _ref_bracket_span(g, whole.basis, whole.basis)
        gp = commutator_ideal(g)
        # g', the center and the series are kept: a second call reads them
        assert commutator_ideal(g) is gp and center(g) is center(g)
        assert gp.basis == _ref_span(n, [g.c[i][k] for i in range(n) for k in range(n)])
        assert bracket_span(g, gp, gp).basis == _ref_bracket_span(g, gp.basis, gp.basis)
        assert bracket_span(g, whole, gp).basis == _ref_bracket_span(g, whole.basis, gp.basis)
        assert center(g).basis == _ref_center(g)
        unimodular.add(is_unimodular(g))
        assert is_unimodular(g) == _ref_unimodular(g)
        series = derived_and_central_series(g)
        assert series is derived_and_central_series(g)
        # both series start from the kept g' (g' != g for these algebras)
        assert series.derived[1] is gp and series.lower_central[1] is gp
        assert [s.basis for s in series.derived] == _ref_series(g, lambda prev: prev)
        assert [s.basis for s in series.lower_central] == \
            _ref_series(g, lambda prev: whole.basis)
        gs, js = g.split(), jm.split()
        for i in range(n):
            for k in range(n):
                d, nz = complex_structures._twist(gs, js, i, k)
                twist = tuple(a + b for a, b in zip(_ref_bilinear(g.c, jm.column(i), basis_vec(n, k)),
                                                    _ref_bilinear(g.c, basis_vec(n, i), jm.column(k))))
                assert [(t, Fraction(a, d)) for t, a in nz] == \
                    [(t, x) for t, x in enumerate(twist) if x]
                twists.add(any(twist))
        table = {ik: linalg._dense(w, n)
                 for ik, w in complex_structures._nijenhuis_table(g, j)}
        assert table == {(i, k): _ref_nijenhuis(g, jm, i, k)
                         for i in range(n) for k in range(i + 1, n)}
        assert all(_normalised(v) for v in table.values())
        assert is_integrable(g, j) == all(not any(v) for v in table.values())
        if is_abelian_cs(g, j):
            report = abelian_cs_report(g, j)
            assert report.ad_twist == _ref_ad_twist(g, jm) is True
            _assert_subspace_flags_match_reference(g, j, report)
    # zero and nonzero twists, unimodular and not unimodular algebras all occur
    assert twists == {True, False}
    assert unimodular == {True, False}


def test_series_and_center_edge_cases_match_reference():
    # sl(2, Q) is perfect, g' = g, and the algebra of dim 0 has g' = g = 0:
    # both series stop at the whole algebra
    sl2 = LieAlgebra(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
    for g in (sl2, LieAlgebra.abelian(0)):
        whole = Subspace.whole(g.dim)
        assert commutator_ideal(g) == whole
        assert center(g).basis == _ref_center(g)
        series = derived_and_central_series(g)
        assert series.derived == series.lower_central == (whole,)
        assert [s.basis for s in series.derived] == _ref_series(g, lambda prev: prev)
        assert [s.basis for s in series.lower_central] == \
            _ref_series(g, lambda prev: whole.basis)
    assert not derived_and_central_series(sl2).is_solvable
    assert derived_and_central_series(LieAlgebra.abelian(0)).is_nilpotent


def test_centralizers_by_successive_kernels_match_reference(monkeypatch):
    # steps: the column count of each system the centralizer kernel solves
    steps = []
    monkeypatch.setattr(lie, "_kernel", lambda rows, ncols: steps.append(ncols)
                        or linalg._kernel(rows, ncols))
    most, dims = 0, []
    for seed in range(40):
        t = random_kahler_instance(seed, 12).triple
        g, n = t.algebra, t.algebra.dim
        if n < 8 or dims.count(n) == 2:
            continue
        dims.append(n)
        steps.clear()
        assert center(g).basis == _ref_center(g)
        most = max(most, len(steps))
        _assert_subspace_flags_match_reference(g, t.j, abelian_cs_report(g, t.j))
    assert sorted(dims) == [8, 8, 10, 10, 12, 12]
    # the disguised brackets fill every column, yet the kernel settles in
    # a few steps and every later column is a zero test
    assert most >= 2
    # sl(2, Q): the kernel is empty after two of the three bracket columns
    sl2 = LieAlgebra(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
    steps.clear()
    assert center(sl2).is_zero() and center(sl2).basis == _ref_center(sl2)
    assert steps == [3, 1]


def test_center_costs_few_eliminations(monkeypatch):
    # dim 12 with a center of dim 6: the whole space, two kernel steps and
    # the canonical span, not one elimination per bracket column
    g = random_kahler_instance(0, 12).triple.algebra
    calls, eliminate = [], linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda rows, ncols: calls.append(ncols)
                        or eliminate(rows, ncols))
    assert (g.dim, center(g).dim) == (12, 6)
    assert len(calls) <= 5


# ---- the idempotent splitter against sympy's factorization over Q ----

def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return out


def _monic_factor(rng, kind):
    """Monic factor with 17-bit numerators and 6-bit denominators; the
    quadratics have a nonzero discriminant of the sign their kind names."""
    def big():
        return Fraction(rng.randint(-2 ** 16, 2 ** 16), rng.randint(1, 2 ** 6))
    if kind == "linear":
        return [big(), Fraction(1)]
    if kind == "cubic":
        return [big(), big(), big(), Fraction(1)]
    s, gap = big(), abs(big()) + 1
    disc = -gap if kind == "imaginary" else gap
    return [(s * s - disc) / 4, -s, Fraction(1)]


def _random_split_product(rng, max_degree):
    """Product of random linear, imaginary-quadratic, real-quadratic and
    cubic monic factors, of degree at most max_degree."""
    p, kinds = [Fraction(1)], []
    while True:
        kind = rng.choice(("linear", "imaginary", "real", "cubic"))
        if len(p) - 1 + {"linear": 1, "cubic": 3}.get(kind, 2) > max_degree:
            return p, kinds
        p = _poly_mul(p, _monic_factor(rng, kind))
        kinds.append(kind)
        if rng.random() < 0.15:
            return p, kinds


def _sympy_factors(p):
    """Monic irreducible factors over Q, ascending coefficients, from sympy."""
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)],
                      sympy.Symbol("t"), domain="QQ")
    out = []
    for fac, mult in poly.factor_list()[1]:
        assert mult == 1                # the products are squarefree
        out.append([_frac(c) for c in reversed(fac.monic().all_coeffs())])
    return out


def _quotient_algebra(p):
    """Q[t] / (p) in the basis 1, t, ..., t^(d-1)."""
    d = len(p) - 1
    powers, cur = [], [Fraction(1)] + [Fraction(0)] * (d - 1)
    for _ in range(2 * d - 1):
        powers.append(cur)
        cur = [c - cur[-1] * q for c, q in zip([Fraction(0)] + cur[:-1], p)]
    return CommAssocAlgebra(d, {(i, k): tuple(powers[i + k])
                                for i in range(d) for k in range(i, d)})


def test_rational_roots_match_sympy():
    rng = random.Random(1983)
    kinds, bits, split_seen = set(), 0, False
    for case in range(40):
        p, drawn = _random_split_product(rng, 12 if case % 2 else 5)
        kinds.update(drawn)
        bits = max(bits, max(c.numerator.bit_length() + c.denominator.bit_length() for c in p))
        ref = _sympy_factors(p)
        # the roots of sympy's monic linear factors t - r, and the degree of the rest
        assert sorted(assoc._rational_roots(p)) == sorted(-f[0] for f in ref if len(f) == 2)
        rest = sum(len(f) - 1 for f in ref if len(f) > 2)
        # the verdict of primitive_idempotents on Q[t]/(p) = prod Q[t]/(f)
        if len(p) - 1 <= 5:
            if rest:
                with pytest.raises(IrrationalSpectrumError, match="degree %d has" % rest):
                    primitive_idempotents(_quotient_algebra(p))
            else:
                assert len(primitive_idempotents(_quotient_algebra(p))) == len(p) - 1
                split_seen = True
    assert kinds == {"linear", "imaginary", "real", "cubic"} and bits > 200 and split_seen


# ---- alternating tensors contracted once per unordered pair ----

def test_pushforward_matches_all_ordered_pairs():
    """P [P^-1 e_i, P^-1 e_j] on every ordered pair, the pairs j <= i
    included, which pushforward fills by antisymmetry."""
    rng = random.Random(1311)
    for dim_a in range(1, 7):
        family = FAMILIES[dim_a % 3]
        g = random_instance(rng.randrange(2 ** 32), dim_a, family, disguise=True).algebra
        n = g.dim
        p = lab.random_unimodular(rng, n)
        pinv = _rows(p.inverse())
        cols = [tuple(r[i] for r in pinv) for i in range(n)]
        h = lie.pushforward(g, p)
        gc, hc, prows = g.c, h.c, p.rows
        for i in range(n):
            for j in range(n):
                raw = _ref_bilinear(gc, cols[i], cols[j])
                assert hc[i][j] == tuple(sum((prows[r][q] * raw[q] for q in range(n)),
                                             Fraction(0)) for r in range(n))
        assert h.basis_names == g.basis_names and any(map(any, h.c)) == any(map(any, g.c))


def _ref_cyclic_sums_vanish(form_rows, g):
    """The cyclic sums of w[i][j][k] = (F c_ij)_k on the triples i < j < k,
    the form applied to every ordered slice."""
    n, c = g.dim, g.c
    w = [[tuple(sum((form_rows[k][q] * c[i][j][q] for q in range(n)), Fraction(0))
                for k in range(n)) for j in range(n)] for i in range(n)]
    return all(w[i][j][k] + w[j][k][i] + w[k][i][j] == 0
               for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n))


def _ref_twisted_cyclic_identity(gram, jm, g):
    """g([e_i, Je_j], e_k) + g([e_j, Je_k], e_i) + g([e_k, Je_i], e_j) == 0
    on every ordered triple, with w[i][j][k] = g([e_i, Je_j], e_k)."""
    n, c = g.dim, g.c
    jcol = [tuple(row[q] for row in jm) for q in range(n)]
    w = [[tuple(sum((gram[k][q] * b[q] for q in range(n)), Fraction(0)) for k in range(n))
          for b in (_ref_bilinear(c, basis_vec(n, i), jcol[j]) for j in range(n))]
         for i in range(n)]
    return all(w[i][j][k] + w[j][k][i] + w[k][i][j] == 0
               for i in range(n) for j in range(n) for k in range(n))


def test_cyclic_sums_match_all_ordered_slices():
    rng = random.Random(2011)
    triples = [random_kahler_instance(rng.randrange(2 ** 32), 12).triple for _ in range(4)]
    triples += [random_instance(rng.randrange(2 ** 32), 1 + rng.randrange(4), family,
                                disguise=disguise)
                for family in FAMILIES for disguise in (False, True)]
    seen, twisted = set(), set()
    for t in triples:
        gram, jm = _rows(t.metric.gram), _rows(t.j.matrix)
        kahler = hermitian.is_kahler(t)
        assert kahler == _ref_cyclic_sums_vanish(_mm(gram, jm), t.algebra)
        assert hermitian.cyclic_metric_identity(t) == _ref_cyclic_sums_vanish(gram, t.algebra)
        seen.add(kahler)
        holds = hermitian.twisted_cyclic_identity(t)
        assert holds == _ref_twisted_cyclic_identity(gram, jm, t.algebra)
        twisted.add(holds)
    assert seen == {True, False}
    assert twisted == {True, False}


def _ref_minimal_polynomial(mat):
    """The first degree k at which M^k lies in the span of I, ..., M^(k-1),
    one solve per degree."""
    n = mat.nrows
    powers = [Matrix.identity(n)]
    for _ in range(n):
        powers.append(powers[-1] @ mat)
        flat = [sum(m.rows, ()) for m in powers]
        sol = Matrix(flat[:-1]).transpose().solve(tuple(-x for x in flat[-1]))
        if sol is not None:
            return list(sol) + [Fraction(1)]
    raise AssertionError("no minimal polynomial")


def test_minimal_polynomial_matches_one_solve_per_degree():
    rng = random.Random(1968)
    cases = [Matrix.zeros(3, 3), Matrix.identity(4), Matrix([[5]])]
    for _ in range(12):
        n = rng.randint(2, 6)
        q = lab.random_unimodular(rng, n)
        qinv = q.inverse()
        # derogatory: repeated diagonal eigenvalues; nilpotent: strictly
        # upper triangular; generic: random entries; each conjugated by q
        diag = Matrix([[Fraction(rng.choice((-2, 1, 3))) if r == c else 0 for c in range(n)]
                       for r in range(n)])
        nil = Matrix([[_scalar(rng) if c > r else 0 for c in range(n)] for r in range(n)])
        dense = Matrix([_vector(rng, n) for _ in range(n)])
        cases += [(q @ m) @ qinv for m in (diag, nil, dense)]
    p, _ = _random_split_product(random.Random(5), 6)
    a = _quotient_algebra(p)
    cases.append(a.left_mult((1,) * a.dim))      # x_1, the first draw of the splitter
    degrees = set()
    for mat in cases:
        mp = assoc.minimal_polynomial(mat)
        assert mp == _ref_minimal_polynomial(mat) and _normalised(mp)
        degrees.add((len(mp) - 1, mat.nrows))
    # minimal polynomials below the full degree, and of the full degree, occur
    assert any(d < n for d, n in degrees) and any(d == n > 1 for d, n in degrees)
    assert assoc.minimal_polynomial(Matrix.zeros(3, 3)) == [0, 1]
    assert assoc.minimal_polynomial(Matrix.identity(4)) == [-1, 1]


# ---- split-first storage against Fraction-built twins ----

def _canonical(split):
    """(d, [(index, numerator)]) with d > 0, ascending indices, nonzero
    numerators and gcd(d, numerators) = 1: the one split of its vector."""
    d, nz = split
    return (d > 0 and all(a for _, a in nz) and gcd(d, *[a for _, a in nz]) == 1
            and all(k < t for (k, _), (t, _) in zip(nz, nz[1:])))


def _same_stored_form(obj, twin, splits):
    """obj and twin are equal both ways, hash alike, and every split of obj
    is canonical."""
    assert obj == twin and twin == obj and hash(obj) == hash(twin)
    assert all(map(_canonical, splits))


def test_every_exact_type_is_stored_as_its_canonical_splits():
    """Matrix, LieAlgebra, CommAssocAlgebra, Connection and Subspace built
    from Fractions, from sparse dicts and from parsed files equal their twins
    built as splits by a contraction or an elimination; the Fraction views
    are normalised and rebuild an equal object."""
    from abelianj import serialize
    rng = random.Random(1601)
    for _ in range(12):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = _rows(_random_matrix(rng, m, n))
        twin = Matrix.identity(m) @ Matrix(rows)
        for mat in (Matrix(rows), Matrix(list(zip(*rows))).transpose()):
            _same_stored_form(mat, twin, mat.split())
            assert mat.rows == tuple(map(tuple, rows)) and all(map(_normalised, mat.rows))
            assert Matrix(mat.rows) == Matrix(mat.columns()).transpose() == mat
        square = _rows(_random_matrix(rng, m, m))
        parsed = serialize.matrix_from_file_dict({"matrix": [[str(x) for x in r] for r in square]})
        _same_stored_form(parsed, Matrix.identity(m) @ Matrix(square), parsed.split())
    for t in _hermitian_cases()[::3]:
        g, n = t.algebra, t.algebra.dim
        c = g.c
        dense = LieAlgebra(n, {(i, j): c[i][j] for i, j in combinations(range(n), 2)})
        sparse = LieAlgebra(n, {(i, j): {k: str(x) for k, x in enumerate(c[i][j]) if x}
                                for i, j in combinations(range(n), 2)})
        parsed = serialize.instance_from_dict(serialize.instance_to_dict(g, t.j, t.metric))
        for h in (dense, sparse, parsed.algebra):
            _same_stored_form(h, lie.pushforward(g, Matrix.identity(n)),
                              [s for row in h.split() for s in row])
            assert h.c == c and all(_normalised(v) for row in h.c for v in row)
        _same_stored_form(parsed.j.matrix, t.j.matrix, parsed.j.matrix.split())
        lc = levi_civita(g, t.metric)
        conn = Connection(lc.gamma)
        _same_stored_form(conn, lc, [s for row in conn.split() for s in row])
        assert conn.gamma == lc.gamma and all(_normalised(v) for row in conn.gamma for v in row)
        # one span, three spanning sets (the brackets, the echelon basis, and
        # combinations u_a + 3 c_a u_(a+1) plus a zero vector): identical splits
        gp = commutator_ideal(g)
        basis = gp.basis
        scales = [_scalar(rng) or 1 for _ in basis]
        mixed = basis if len(basis) < 2 else [
            tuple(x + 3 * c_a * y for x, y in zip(u, v))
            for u, v, c_a in zip(basis, basis[1:] + basis[:1], scales)]
        for span in (Subspace(n, basis), Subspace(n, list(mixed) + [(0,) * n])):
            assert span.split() == gp.split() and span.pivots == gp.pivots
            _same_stored_form(span, gp, span.split())
        assert all(map(_normalised, gp.basis))
    for _ in range(6):
        a = lab._random_block_algebra(rng, rng.randint(1, 5))
        n, prods = a.dim, a.m
        dense = CommAssocAlgebra(n, {(i, j): prods[i][j]
                                     for i, j in combinations_with_replacement(range(n), 2)})
        sparse = CommAssocAlgebra(n, {(i, j): {k: x for k, x in enumerate(prods[i][j]) if x}
                                      for i, j in combinations_with_replacement(range(n), 2)})
        parsed = serialize.algebra_from_dict(serialize.algebra_to_dict(a))
        for b in (dense, sparse, parsed):
            _same_stored_form(b, lie.pushforward(a, Matrix.identity(n)),
                              [s for row in b.split() for s in row])
            assert b.m == prods and all(_normalised(v) for row in b.m for v in row)


def _ref_transpose(rows):
    return [list(r) for r in zip(*rows)]


def test_split_born_matrices_equal_their_row_born_twins():
    """Products, sums, multiples, negations and transposes are born as
    column splits: equal, with equal hashes, to the matrix built from the
    Fraction reference; eliminations read their splits; rows are built on
    read and match the reference."""
    rng = random.Random(1501)
    for _ in range(40):
        m, k, n = (rng.randint(1, 4) for _ in range(3))
        a, a2, b = _random_matrix(rng, m, k), _random_matrix(rng, m, k), _random_matrix(rng, k, n)
        c = _scalar(rng)
        ra, ra2, rb = _rows(a), _rows(a2), _rows(b)
        ab = _mm(ra, rb)
        cases = [
            (a @ b, ab), ((a @ b).transpose(), _ref_transpose(ab)),
            (a + a2, [[x + y for x, y in zip(r, s)] for r, s in zip(ra, ra2)]),
            (a - a2, [[x - y for x, y in zip(r, s)] for r, s in zip(ra, ra2)]),
            (-(a @ b), [[-x for x in r] for r in ab]),
            (a.scale(c), [[c * x for x in r] for r in ra]),
        ]
        for born, ref in cases:
            twin = Matrix(ref)
            assert all(map(_canonical, born.split()))
            assert born == twin and twin == born and hash(born) == hash(twin)
            assert _rank(born) == _rank(twin) and born.kernel() == twin.kernel()
            if born.is_square():
                assert born.det() == twin.det()
            assert born.is_zero() == twin.is_zero() == (not any(map(any, ref)))
            assert born.column(0) == tuple(r[0] for r in ref)
            assert born.rows == tuple(map(tuple, ref)) and all(map(_normalised, born.rows))
        assert (a @ b) != Matrix(ab).scale(2) or not any(map(any, ab))


def test_inverse_of_negative_determinant_has_canonical_splits():
    """Bareiss leaves den * A^-1 with den the signed last pivot; the inverse
    is read off with a positive denominator.  A disguise by such a matrix
    keeps J^2 = -I, and a second inverse is the kept one."""
    rng = random.Random(1502)
    seen = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        a = Matrix([_vector(rng, n) for _ in range(n)])
        det = a.det()
        if det >= 0:
            continue
        seen += 1
        inv = a.inverse()
        assert inv is a.inverse()
        assert all(_canonical(s) and s[0] > 0 for s in inv.split())
        assert _mm(_rows(a), _rows(inv)) == _rows(Matrix.identity(n))
        assert _sympy(inv) == _sympy(a).inv()
    assert seen > 10
    # no row swap: the last Bareiss pivot, den, is the determinant -3
    flip = Matrix([[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -3]])
    assert flip.det() == -3
    assert flip.inverse().split() == [(1, [(0, 1)]), (1, [(0, -2), (1, 1)]), (1, [(2, 1)]),
                                      (3, [(3, -1)])]
    j = standard_complex_structure(2).matrix
    disguised = complex_structures.ComplexStructure((flip @ j) @ flip.inverse())
    assert (disguised.matrix @ disguised.matrix) == -Matrix.identity(4)


def test_pushforward_equals_a_fraction_built_algebra():
    """The split-born pushforward equals, with the same hash, the algebra
    built from the Fraction reference P [P^-1 e_i, P^-1 e_j] on i < j."""
    rng = random.Random(1503)
    for dim_a in range(1, 6):
        g = random_instance(rng.randrange(2 ** 32), dim_a, FAMILIES[dim_a % 3],
                            disguise=True).algebra
        n = g.dim
        p = lab.random_unimodular(rng, n).scale(Fraction(rng.choice((1, -2)), 3))
        pinv = _sympy(p).inv()
        cols = [[_frac(pinv[r, i]) for r in range(n)] for i in range(n)]
        gc, prows = g.c, p.rows
        ref = LieAlgebra(n, {(i, j): [sum((prows[r][q] * w[q] for q in range(n)), Fraction(0))
                                      for r in range(n)]
                             for i, j in combinations(range(n), 2)
                             for w in [_ref_bilinear(gc, cols[i], cols[j])]})
        h = lie.pushforward(g, p)
        assert all(_canonical(s) for row in h.split() for s in row)
        assert h == ref and ref == h and hash(h) == hash(ref)
        assert h.c == ref.c and all(_normalised(v) for row in h.c for v in row)
        assert h != LieAlgebra.abelian(n) or ref == LieAlgebra.abelian(n)


def test_split_born_connections_compare_by_their_splits():
    """levi_civita and complex_projection are born as splits: is_zero and ==
    read the splits and agree with the gamma-built twin and the reference."""
    flat = levi_civita(LieAlgebra.abelian(4), InnerProduct.diagonal([1, 2, 1, 2]))
    assert flat.is_zero()
    assert flat == Connection.zero(4) == Connection([[[0] * 4] * 4] * 4)
    assert hash(flat) == hash(Connection([[[0] * 4] * 4] * 4))
    for t in _hermitian_cases()[::2]:
        g, j, metric = t.algebra, t.j, t.metric
        lc = levi_civita(g, metric)
        proj = complex_projection(j, lc)
        for conn, ref in ((lc, _ref_levi_civita(g, metric)),
                          (proj, _ref_projection(Connection(_ref_levi_civita(g, metric)),
                                                 j.matrix))):
            twin = Connection(ref)
            assert all(_canonical(s) for row in conn.split() for s in row)
            assert conn == twin and twin == conn and hash(conn) == hash(twin)
            assert conn.is_zero() == twin.is_zero() == (not any(any(v) for row in ref for v in row))
            assert conn.gamma == ref
        assert (lc == Connection.zero(g.dim)) == lc.is_zero()
    curved = levi_civita(LieAlgebra(2, {(0, 1): {1: 1}}), InnerProduct.identity(2))
    assert not curved.is_zero() and curved != Connection.zero(2)


def _ref_greedy_j_half(j, space):
    """The greedy loop: the echelon vectors w of space outside the running
    span, which grows by w and Jw and is eliminated again after each one added."""
    running, added = Subspace.zero(space.ambient), []
    for w in space.split():
        if running._coords(w) is None:
            added.append(w)
            running = Subspace._spanned(space.ambient,
                                        running.split() + [w, j.matrix._apply_split(w)])
    assert running == space
    return added


def _chosen(space, part):
    """The echelon vectors of space that lie in part: for a part spanned by
    some of them, exactly those, as the echelon basis is independent."""
    return [w for w in space.split() if part._coords(w) is not None]


def test_j_split_picks_the_greedy_vectors():
    """J-stable spans of x, Jx over random x, for the standard J and the
    disguised J of random_instance."""
    rng = random.Random(4153)
    for trial in range(60):
        m = 1 + trial % 4
        if trial % 2:
            j = random_instance(rng.randrange(2 ** 32), m, FAMILIES[trial % 3],
                                disguise=True).j
        else:
            j = standard_complex_structure(m)
        n, jm = 2 * m, j.matrix
        xs = [_vector(rng, n) for _ in range(1 + rng.randrange(m))]
        space = Subspace(n, xs + [jm.apply(x) for x in xs])
        half = _greedy_j_half(j, space)
        assert _chosen(space, half) == _ref_greedy_j_half(j, space)
        assert half.sum(half.image(jm)) == space and 2 * half.dim == space.dim


def test_basis_extension_refusals():
    j, whole = standard_complex_structure(1), Subspace.whole(2)
    with pytest.raises(CertificateError, match="space to split is not J-stable"):
        _greedy_j_half(j, Subspace(2, [basis_vec(2, 0)]))
    with pytest.raises(CertificateError, match="J-split extension step failed"):
        _greedy_j_half(SimpleNamespace(matrix=Matrix.zeros(2, 2)), whole)
