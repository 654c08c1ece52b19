import random
from fractions import Fraction
from math import gcd

import pytest

from abelianj.linalg import (
    DimensionMismatch, Matrix, SingularMatrix, Subspace, _trace, basis_vec, lin_comb,
    rat, vec, vec_dot, vec_scale,
)


# Elementwise sum and difference; an entry passes through where the other
# operand's entry is zero, so sparse operands cost no Fraction arithmetic.

def _same_length(u, v):
    if len(u) != len(v):
        raise DimensionMismatch("vector lengths %d and %d differ" % (len(u), len(v)))


def vec_add(u, v):
    _same_length(u, v)
    return tuple(a if not b else b if not a else a + b for a, b in zip(u, v))


def vec_sub(u, v):
    _same_length(u, v)
    return tuple(a if not b else -b if not a else a - b for a, b in zip(u, v))


def test_rat_parsing():
    assert rat(3, 6) == rat(1, 2)
    assert rat("2/4") == rat(1, 2)
    assert rat("-7/3") == -rat(7, 3)
    assert str(rat(4, 2)) == "2"
    assert str(rat(-3, 9)) == "-1/3"
    assert rat() == 0


def test_rat_rejects_floats_and_zero_denominators():
    for args in ((0.5,), (0.1, 3), (1, 0.5)):
        with pytest.raises(TypeError):
            rat(*args)
    with pytest.raises(ZeroDivisionError):
        rat("1/0")
    # Fraction computes 10**exponent, so a long exponent is refused first
    assert rat("1e4300") == 10 ** 4300 and rat("1E-4300") == rat(1, 10 ** 4300)
    for text in ("1e4301", "2.5E-4301", "1e100000000", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="decimal exponent above 4300"):
            rat(text)
    with pytest.raises(ZeroDivisionError):
        rat(1, 0)


def _scalar(rng, ints=False):
    """Zero half the time; otherwise signed, with denominators up to 10**12
    (a plain int instead of a Fraction half the time when ints is set)."""
    if rng.random() < 0.5:
        return 0 if ints else Fraction(0)
    num = rng.randint(-10**6, 10**6)
    if ints and rng.random() < 0.5:
        return num
    return Fraction(num, rng.choice((1, 4, rng.randint(1, 10**12))))


def _matrix(rng, m, n):
    rows = [[_scalar(rng) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        rows[rng.randrange(m)] = [Fraction(0)] * n
    if rng.random() < 0.5:
        zero_col = rng.randrange(n)
        for row in rows:
            row[zero_col] = Fraction(0)
    return Matrix(rows)


def _normalised(entries):
    return all(type(x) is Fraction and x.denominator > 0
               and gcd(x.numerator, x.denominator) == 1 for x in entries)


def test_products_match_fraction_reference():
    rng = random.Random(20240823)
    for _ in range(150):
        m, k, n = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b = _matrix(rng, m, k), _matrix(rng, k, n)
        u = [_scalar(rng, ints=True) for _ in range(k)]
        w = [_scalar(rng, ints=True) for _ in range(k)]
        coeffs = [_scalar(rng, ints=True) for _ in range(m)]

        prod = a @ b
        assert (prod.nrows, prod.ncols) == (m, n)
        assert prod.rows == tuple(
            tuple(sum((x * y for x, y in zip(row, col)), Fraction(0))
                  for col in zip(*b.rows)) for row in a.rows)
        image = a.apply(u)
        assert image == tuple(sum((x * y for x, y in zip(row, u)), Fraction(0))
                              for row in a.rows)
        dot = vec_dot(u, w)
        assert dot == sum((x * y for x, y in zip(u, w)), Fraction(0))
        comb = lin_comb(coeffs, a.rows, k)
        assert comb == tuple(
            sum((c * row[t] for c, row in zip(coeffs, a.rows)), Fraction(0))
            for t in range(k))
        for entries in prod.rows + (image, (dot,), comb):
            assert _normalised(entries)


def test_products_edge_cases():
    x = Fraction(7, 3)
    assert rat(x) is x
    one_by_one = Matrix([[Fraction(3, 2)]]) @ Matrix([[Fraction(-2, 9)]])
    assert one_by_one.rows == ((Fraction(-1, 3),),)
    # 1/4 * 3 + 1/4 * 3 = 6/4 comes out as 3/2
    six_fourths = vec_dot((Fraction(1, 4), Fraction(1, 4)), (3, 3))
    assert (six_fourths.numerator, six_fourths.denominator) == (3, 2)
    half = Matrix([[Fraction(1, 4), Fraction(1, 4)]]).apply((-1, -1))
    assert (half[0].numerator, half[0].denominator) == (-1, 2)
    # all-zero coefficients, all-zero rows and non-square shapes give exact zeros
    zeros = lin_comb((0, Fraction(0)), ((1, 2, 3), (Fraction(1, 5), 0, 7)), 3)
    assert zeros == (0, 0, 0) and _normalised(zeros)
    z = Matrix.zeros(2, 3) @ Matrix([[1], [2], [3]])
    assert z.rows == ((0,), (0,)) and _normalised(z.rows[0] + z.rows[1])
    assert vec_dot((), ()) == 0 and type(vec_dot((), ())) is Fraction


def test_matrix_basics():
    m = Matrix([[1, 2], [3, 4]])
    assert m.det() == -2
    assert _trace(m.split()) == (5, 1)
    # the diagonal numerators are summed over the lcm of their denominators
    for rows, tr in (([["1/2", 1], [7, "1/3"]], (5, 6)),
                     ([["1/2", 1], [1, "-1/2"]], (0, 2)), ([[0, 1], [1, 0]], (0, 1))):
        assert _trace(Matrix(rows).split()) == tr
    assert Subspace._spanned(2, m.split()).dim == 2
    assert m.transpose().rows[0] == (rat(1), rat(3))
    assert (m @ m.inverse()) == Matrix.identity(2)
    assert m.apply((1, 0)) == (rat(1), rat(3))
    assert m.column(1) == (rat(2), rat(4))


def test_matrix_singular():
    with pytest.raises(SingularMatrix):
        Matrix([[1, 2], [2, 4]]).inverse()
    assert Matrix([[1, 2], [2, 4]]).det() == 0


def test_matrix_solve_and_kernel():
    m = Matrix([[2, 0], [0, 3]])
    assert m.solve((4, 9)) == (rat(2), rat(3))
    ker = Matrix([[1, 2]]).kernel()
    assert len(ker) == 1
    # kernel vectors are exact solutions
    assert Matrix([[1, 2]]).apply(ker[0]) == (rat(0),)


def test_matrix_shape_checks():
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        Matrix([[1]]) @ Matrix([[1, 2], [3, 4]])


def test_shape_mismatch_raises():
    square, wide = Matrix([[1, 2], [3, 4]]), Matrix([[1, 2, 3]])
    for op in (lambda: square + wide, lambda: square - wide,
               lambda: wide + square, lambda: square - Matrix([[1, 2]])):
        with pytest.raises(DimensionMismatch):
            op()
    for fn in (vec_add, vec_sub, vec_dot, lambda m, b: Matrix([m]).transpose().solve(b)):
        with pytest.raises(DimensionMismatch):
            fn((1, 2), (1, 2, 3))
        with pytest.raises(DimensionMismatch):
            fn((1, 2, 3), (1, 2))


def test_zero_row_matrices_keep_their_columns():
    assert (Matrix.zeros(0, 3).nrows, Matrix.zeros(0, 3).ncols) == (0, 3)
    # a zero row is dropped before elimination, and the columns stay
    assert Matrix([[0, 0]]).kernel() == [basis_vec(2, 0), basis_vec(2, 1)]
    assert Matrix([[1, 2]]).kernel() == [vec((-2, 1))]
    flat = Matrix.zeros(0, 3).transpose()
    assert (flat.nrows, flat.ncols) == (3, 0) and flat.transpose().ncols == 3
    assert (Matrix.zeros(2, 0) @ Matrix.zeros(0, 3)) == Matrix.zeros(2, 3)
    assert (Matrix.zeros(0, 2) @ Matrix.zeros(2, 3)).ncols == 3


def test_elementwise_ops_match_reference_and_skip_zeros():
    rng = random.Random(3)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a, b = _matrix(rng, m, n), _matrix(rng, m, n)
        c = _scalar(rng)
        assert (a + b).rows == tuple(tuple(x + y for x, y in zip(r, s))
                                     for r, s in zip(a.rows, b.rows))
        assert (a - b).rows == tuple(tuple(x - y for x, y in zip(r, s))
                                     for r, s in zip(a.rows, b.rows))
        assert (-a).rows == tuple(tuple(-x for x in r) for r in a.rows)
        assert a.scale(c).rows == tuple(tuple(c * x for x in r) for r in a.rows)
        for out in (a + b, a - b, -a, a.scale(c)):
            assert all(_normalised(r) for r in out.rows)
        u, w = a.rows[0], b.rows[0]
        assert vec_add(u, w) == tuple(x + y for x, y in zip(u, w))
        assert vec_sub(u, w) == tuple(x - y for x, y in zip(u, w))
        assert vec_scale(c, u) == tuple(c * x for x in u)
    # where one operand is zero the other entry is passed through as it is
    u, zero = (Fraction(2, 3), Fraction(0)), (Fraction(0), Fraction(0))
    assert all(x is y for x, y in zip(vec_add(u, zero), u))
    assert vec_add(zero, u)[0] is u[0]
    assert all(x is y for x, y in zip(vec_sub(u, zero), u))
    assert vec_sub(zero, u) == (Fraction(-2, 3), 0)
    assert vec_scale(Fraction(5), zero) == zero and _normalised(vec_scale(5, (0, 0)))


def test_inverse_roundtrip_random():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 6)
        m = Matrix([[rat(rng.randint(-5, 5), rng.randint(1, 3))
                     for _ in range(n)] for _ in range(n)])
        if m.det() == 0:
            continue
        assert (m @ m.inverse()) == Matrix.identity(n)
        assert (m.inverse() @ m) == Matrix.identity(n)


def test_subspace_canonical_basis():
    s = Subspace(3, [(2, 0, 0), (1, 1, 0)])
    # reduced echelon: leading ones at the pivots
    assert s.basis == (vec((1, 0, 0)), vec((0, 1, 0)))
    assert s.dim == 2
    assert Subspace(3, [(1, 1, 0), (2, 0, 0)]) == s


def test_subspace_membership_and_coordinates():
    s = Subspace(3, [(1, 0, 1), (0, 1, 0)])
    assert s.coordinates((0, 0, 1)) is None
    coords = s.coordinates((2, 3, 2))
    assert coords is not None
    rebuilt = vec_add(vec_scale(coords[0], s.basis[0]),
                      vec_scale(coords[1], s.basis[1]))
    assert rebuilt == vec((2, 3, 2))
    assert s.coordinates((0, 0, 1)) is None


def test_subspace_lattice_dimension_formula():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = Subspace(n, [tuple(rat(rng.randint(-2, 2)) for _ in range(n))
                         for _ in range(rng.randint(0, n))])
        b = Subspace(n, [tuple(rat(rng.randint(-2, 2)) for _ in range(n))
                         for _ in range(rng.randint(0, n))])
        total = a.sum(b)
        meet = a.intersect(b)
        assert total.dim + meet.dim == a.dim + b.dim
        assert total.contains(a) and total.contains(b)
        assert a.contains(meet) and b.contains(meet)


def test_whole_is_the_identity_echelon_form(monkeypatch):
    from abelianj import linalg
    refs = [Subspace._spanned(n, Matrix.identity(n).split()) for n in range(13)]
    # whole is built as its own echelon form, with no elimination
    monkeypatch.setattr(linalg, "_eliminate", lambda rows, ncols: pytest.fail("eliminated"))
    for n, ref in enumerate(refs):
        whole = Subspace.whole(n)
        assert whole == ref and whole.pivots == ref.pivots == tuple(range(n))
        assert hash(whole) == hash(ref)
    assert Subspace.whole(0).is_zero()


def test_orthogonal_complement():
    from abelianj.hermitian import InnerProduct
    metric = InnerProduct.diagonal([1, 2, 3])
    s = Subspace(3, [(1, 0, 0)])
    perp = s.orthogonal_complement(metric)
    assert perp == Subspace(3, [(0, 1, 0), (0, 0, 1)])
    assert s.sum(perp) == Subspace.whole(3)
    # the orthogonal complement inside the whole space is itself
    assert Subspace.whole(3).intersect(s.orthogonal_complement(metric)) == perp
    # a metric of another dimension is refused, not read as one of Q^n
    for sub, other in ((Subspace(2, [(1, 0)]), InnerProduct.identity(3)),
                       (s, InnerProduct.identity(2)), (Subspace.zero(2), metric)):
        with pytest.raises(DimensionMismatch):
            sub.orthogonal_complement(other)


def test_image():
    j = Matrix([[0, -1], [1, 0]])
    s = Subspace(2, [(1, 0)])
    assert s.image(j) == Subspace(2, [(0, 1)])
    assert basis_vec(2, 1) == (rat(0), rat(1))
