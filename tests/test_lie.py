import random
from itertools import product

import pytest

from abelianj.lie import (
    LieAlgebra, bilinear_table, bracket_span, center, check_jacobi, commutator_ideal,
    derived_and_central_series, is_isomorphism,
    is_unimodular, pushforward,
)
from abelianj.constructions import standard_complex_structure
from abelianj.hermitian import Connection, torsion
from abelianj.linalg import DimensionMismatch, Matrix, Subspace, _dense, _nonzeros, rat, vec


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def aff_line():
    # [u, x] = x on two generators
    return LieAlgebra(2, {(0, 1): {1: 1}}, basis_names=("u", "x"))


def heisenberg():
    return LieAlgebra(3, {(0, 1): {2: 1}})


def aff_complex():
    return LieAlgebra(4, {(0, 2): {2: 1}, (0, 3): {3: 1},
                          (1, 2): {3: 1}, (1, 3): {2: -1}})


def test_bracket_antisymmetry_and_lookup():
    g = aff_line()
    assert g.bracket((1, 0), (0, 1)) == vec((0, 1))
    assert g.bracket((0, 1), (1, 0)) == vec((0, -1))
    assert g.c[1][0] == vec((0, -1))


def test_constructor_rejects_bad_pairs():
    with pytest.raises(DimensionMismatch):
        LieAlgebra(2, {(1, 0): {0: 1}})
    with pytest.raises(DimensionMismatch):
        LieAlgebra(2, {(0, 0): {0: 1}})


def test_jacobi_holds_on_fixtures():
    for g in (aff_line(), heisenberg(), aff_complex(), LieAlgebra.abelian(5)):
        assert check_jacobi(g) is None


def test_jacobi_witness():
    # [e1,e2]=e1, [e1,e3]=e2, [e2,e3]=e1 breaks the cyclic identity
    g = LieAlgebra(3, {(0, 1): {0: 1}, (0, 2): {1: 1}, (1, 2): {0: 1}})
    wit = check_jacobi(g)
    assert wit is not None
    assert wit.triple == (0, 1, 2)
    assert wit.residual == vec((0, -1, 0))


def test_center_and_commutator():
    g = heisenberg()
    assert center(g) == Subspace(3, [(0, 0, 1)])
    assert commutator_ideal(g) == Subspace(3, [(0, 0, 1)])
    assert center(aff_complex()).is_zero()
    assert commutator_ideal(aff_complex()) == Subspace(4, [(0, 0, 1, 0), (0, 0, 0, 1)])


def test_series_flags():
    s = derived_and_central_series(aff_line())
    assert s.is_solvable and s.is_2step_solvable and not s.is_nilpotent
    s = derived_and_central_series(heisenberg())
    assert s.is_nilpotent and s.nilpotency_class == 2
    s = derived_and_central_series(LieAlgebra.abelian(3))
    assert s.is_nilpotent and s.nilpotency_class <= 1


def test_unimodular():
    assert not is_unimodular(aff_line())
    assert not is_unimodular(aff_complex())
    assert is_unimodular(heisenberg())
    assert is_unimodular(LieAlgebra.abelian(4))


def _table(split, a, b, pairs):
    """bilinear_table over the columns of a and b, as Fractions."""
    return {ij: _dense(w, len(split))
            for ij, w in bilinear_table(split, a.split(), b.split(), pairs).items()}


def test_bracket_span_and_bilinear_table():
    g = aff_complex()
    whole = Subspace.whole(4)
    assert bracket_span(g, whole, whole) == commutator_ideal(g)
    pairs = list(product(range(4), repeat=2))
    tab = _table(g.split(), Matrix.identity(4), Matrix.identity(4), pairs)
    assert all(vec(tab[i, j]) == g.c[i][j] for i in range(4) for j in range(4))

    # general A, B that commute neither with each other nor with J
    a = Matrix([[1, 2, 0, -1], [0, 1, 3, 0], [2, 0, 0, 1], [-1, 1, 1, 2]])
    b = Matrix([[0, 1, 0, 0], [rat(1, 2), 0, -2, 1], [1, 1, 1, 0], [0, 3, 0, -1]])
    jm = standard_complex_structure(2).matrix
    assert a @ b != b @ a and a @ jm != jm @ a and b @ jm != jm @ b
    tab = _table(g.split(), a, b, pairs)
    for i in range(4):
        for j in range(4):
            assert tab[i, j] == g.bracket(a.column(i), b.column(j))

    # any rank-3 tensor: the torsion of a nonzero connection, transported
    conn = Connection([[[rat(i - j + k, 1 + k) for k in range(4)]
                        for j in range(4)] for i in range(4)])
    tor = torsion(g, conn)
    assert tor != g.c
    tab = _table([[_nonzeros(v) for v in row] for row in tor], a, b, pairs)
    for i in range(4):
        for j in range(4):
            x, y = a.column(i), b.column(j)
            by_hand = vec_sub(vec_sub(conn.apply(x, y), conn.apply(y, x)),
                              g.bracket(x, y))
            assert tab[i, j] == by_hand


def test_pushforward_identity_and_inverse():
    g = aff_complex()
    assert pushforward(g, Matrix.identity(4)) == g
    rng = random.Random(7)
    for _ in range(20):
        rows = [[rat(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        p = Matrix(rows)
        if p.det() == 0:
            continue
        moved = pushforward(g, p)
        assert check_jacobi(moved) is None
        assert pushforward(moved, p.inverse()) == g


def test_homomorphism_and_isomorphism():
    g = aff_line()
    # x -> 2x, u -> u rescales the root vector: still a homomorphism
    phi = Matrix([[1, 0], [0, 2]])
    assert is_isomorphism(phi, g, g)
    # the swap is invertible but does not respect the bracket
    bad = Matrix([[0, 1], [1, 0]])
    assert not is_isomorphism(bad, g, g)
    # a singular map and a map that is not square are not isomorphisms
    assert not is_isomorphism(Matrix([[1, 0], [0, 0]]), g, g)
    assert not is_isomorphism(Matrix([[1, 0, 0], [0, 1, 0]]), g, g)


def test_abelian_constructor():
    g = LieAlgebra.abelian(3)
    assert all(g.bracket(x, y) == vec((0, 0, 0))
               for x in (vec((1, 0, 0)),) for y in (vec((0, 1, 0)),))
    assert commutator_ideal(g).is_zero()
