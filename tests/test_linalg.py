import random

import pytest

from abelianj.linalg import (
    DimensionMismatch, Matrix, SingularMatrix, Subspace, basis_vec, rat,
    vec, vec_add, vec_scale,
)


def test_rat_parsing():
    assert rat(3, 6) == rat(1, 2)
    assert rat("2/4") == rat(1, 2)
    assert rat("-7/3") == -rat(7, 3)
    assert str(rat(4, 2)) == "2"
    assert str(rat(-3, 9)) == "-1/3"
    assert rat() == 0


def test_rat_rejects_floats_and_zero_denominators():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(ZeroDivisionError):
        rat("1/0")
    with pytest.raises(ZeroDivisionError):
        rat(1, 0)


def test_matrix_basics():
    m = Matrix([[1, 2], [3, 4]])
    assert m.det() == -2
    assert m.trace() == 5
    assert m.rank() == 2
    assert m.transpose().rows[0] == (rat(1), rat(3))
    assert (m @ m.inverse()) == Matrix.identity(2)
    assert m.apply((1, 0)) == (rat(1), rat(3))
    assert Matrix.from_columns([(1, 3), (2, 4)]) == m
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
    assert s.contains_vector((2, 3, 2))
    assert not s.contains_vector((0, 0, 1))
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


def test_complement_in_is_direct():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 6)
        inner = Subspace(n, [tuple(rat(rng.randint(-2, 2)) for _ in range(n))])
        comp = inner.complement_in(Subspace.whole(n))
        assert inner.sum(comp) == Subspace.whole(n)
        assert inner.intersect(comp).is_zero()


def test_orthogonal_complement():
    from abelianj.hermitian import InnerProduct
    metric = InnerProduct.diagonal([1, 2, 3])
    s = Subspace(3, [(1, 0, 0)])
    perp = s.orthogonal_complement(metric)
    assert perp == Subspace(3, [(0, 1, 0), (0, 0, 1)])
    assert s.sum(perp) == Subspace.whole(3)
    # complement through a metric is the orthogonal one
    assert s.complement_in(Subspace.whole(3), metric=metric) == perp


def test_image():
    j = Matrix([[0, -1], [1, 0]])
    s = Subspace(2, [(1, 0)])
    assert s.image(j) == Subspace(2, [(0, 1)])
    assert basis_vec(2, 1) == (rat(0), rat(1))
