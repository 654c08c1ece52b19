import random

import pytest

from abelianj.complex_structures import ComplexStructure, is_abelian_cs, is_integrable
from abelianj.constructions import standard_complex_structure
from abelianj.hermitian import (
    Connection, HermitianTriple, InnerProduct,
    NotPositiveDefiniteError, complex_projection,
    connection_flags, curvature, curvature_norm_sq, cyclic_metric_identity,
    d_omega, first_canonical, first_canonical_pairing,
    is_flat, is_hermitian, is_kahler, is_torsion_free, kahler_form,
    kahler_form_matrix, levi_civita, sectional_curvature, torsion,
    twisted_cyclic_identity,
)
from abelianj.lab import FAMILIES, random_instance, random_kahler_instance
from abelianj.lie import LieAlgebra, PreconditionError
from abelianj.linalg import DimensionMismatch, Matrix, rat, vec
from abelianj import serialize


def aff_line():
    return LieAlgebra(2, {(0, 1): {1: 1}})


def load_triple(fixtures_dir, name):
    return serialize.load_instance(str(fixtures_dir / name)).triple()


def test_inner_product_validation():
    with pytest.raises(DimensionMismatch):
        InnerProduct(Matrix([[1, 0]]))
    with pytest.raises(NotPositiveDefiniteError):
        InnerProduct(Matrix([[1, 1], [0, 1]]))
    with pytest.raises(NotPositiveDefiniteError):
        InnerProduct(Matrix([[1, 2], [2, 1]]))
    with pytest.raises(NotPositiveDefiniteError):
        InnerProduct(Matrix([[0, 0], [0, 1]]))
    ip = InnerProduct.diagonal([1, 2])
    assert ip.eval(vec((1, 1)), vec((1, 1))) == 3
    assert InnerProduct.identity(3).gram == Matrix.identity(3)


def test_is_hermitian_and_triple_guard():
    g = LieAlgebra.abelian(4)
    j = standard_complex_structure(2)
    assert is_hermitian(g, j, InnerProduct.identity(4))
    # J swaps the two planes, so mismatched scales break compatibility
    bad = InnerProduct.diagonal([1, 1, 2, 2])
    assert not is_hermitian(g, j, bad)
    with pytest.raises(PreconditionError):
        HermitianTriple(g, j, bad)
    with pytest.raises(DimensionMismatch):
        is_hermitian(LieAlgebra.abelian(2), j, InnerProduct.identity(4))


def test_levi_civita_on_affine_line():
    g = aff_line()
    conn = levi_civita(g, InnerProduct.identity(2))
    assert conn.apply(vec((1, 0)), vec((1, 0))) == vec((0, 0))
    assert conn.apply(vec((1, 0)), vec((0, 1))) == vec((0, 0))
    assert conn.apply(vec((0, 1)), vec((1, 0))) == vec((0, -1))
    assert conn.apply(vec((0, 1)), vec((0, 1))) == vec((1, 0))
    # a short argument is not padded with zeros, a long one is not cut
    for x, y in (((0,), (0, 1)), ((0, 1), (0, 1, 0))):
        with pytest.raises(DimensionMismatch):
            conn.apply(vec(x), vec(y))
    assert is_torsion_free(g, conn)
    # scaling the metric leaves the Levi-Civita coefficients unchanged
    assert levi_civita(g, InnerProduct.diagonal([4, 4])) == conn


def test_affine_line_curvature_and_sectional():
    g = aff_line()
    grid = curvature(g, levi_civita(g, InnerProduct.identity(2)))
    assert grid[0][1] == Matrix([[0, -1], [1, 0]])
    # R(x, u) u = -x for unit-norm directions
    assert grid[1][0].apply(vec((1, 0))) == vec((0, -1))
    assert sectional_curvature(g, InnerProduct.identity(2),
                               vec((1, 0)), vec((0, 1))) == -1
    assert sectional_curvature(g, InnerProduct.diagonal([4, 4]),
                               vec((1, 0)), vec((0, 1))) == rat(-1, 4)
    with pytest.raises(PreconditionError):
        sectional_curvature(g, InnerProduct.identity(2),
                            vec((1, 0)), vec((2, 0)))


def test_kahler_form_and_d_omega(fixtures_dir):
    t = load_triple(fixtures_dir, "aff_c_j1.json")
    wm = kahler_form_matrix(t)
    assert wm.transpose() == -wm
    assert kahler_form(t, vec((1, 0, 0, 0)), vec((0, 1, 0, 0))) == -1
    assert kahler_form(t, vec((1, 0, 0, 0)), vec((1, 0, 0, 0))) == 0
    assert d_omega(t, vec((1, 0, 0, 0)), vec((0, 0, 1, 0)), vec((0, 0, 0, 1))) == -2
    assert not is_kahler(t)
    assert not cyclic_metric_identity(t)


def test_kahler_blocks_fixture(fixtures_dir):
    t = load_triple(fixtures_dir, "kahler_two_blocks.json")
    assert is_kahler(t)
    assert cyclic_metric_identity(t)
    n = t.algebra.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                assert d_omega(t, vec([1 if c == i else 0 for c in range(n)]),
                               vec([1 if c == j else 0 for c in range(n)]),
                               vec([1 if c == k else 0 for c in range(n)])) == 0


def test_cyclic_identity_needs_abelian_structure():
    heis = LieAlgebra(4, {(0, 1): {2: 1}})
    t = HermitianTriple(heis, standard_complex_structure(2), InnerProduct.identity(4))
    with pytest.raises(PreconditionError):
        cyclic_metric_identity(t)


def test_twisted_cyclic_identity(fixtures_dir):
    assert not twisted_cyclic_identity(load_triple(fixtures_dir, "aff_c_j1.json"))
    assert twisted_cyclic_identity(load_triple(fixtures_dir, "abelian_r4.json"))


def test_first_canonical_flags_and_agreement(fixtures_dir):
    for name in ("aff_c_j1.json", "aff_c_j2.json", "kahler_two_blocks.json",
                 "nilpotent_step3.json"):
        t = load_triple(fixtures_dir, name)
        conn = first_canonical(t)
        flags = connection_flags(t.algebra, t.j, t.metric, conn)
        assert flags.is_metric and flags.is_complex and flags.torsion_type_11
        assert conn == first_canonical_pairing(t)
        # the complex projection of Levi-Civita is the same connection
        lc = levi_civita(t.algebra, t.metric)
        assert complex_projection(t.j, lc) == conn
        # projecting an already complex connection changes nothing
        assert complex_projection(t.j, conn) == conn


def test_first_canonical_pairing_needs_abelian():
    heis = LieAlgebra(4, {(0, 1): {2: 1}})
    t = HermitianTriple(heis, standard_complex_structure(2), InnerProduct.identity(4))
    with pytest.raises(PreconditionError):
        first_canonical_pairing(t)


def test_levi_civita_flags_on_non_kahler(fixtures_dir):
    t = load_triple(fixtures_dir, "aff_c_j1.json")
    lc = levi_civita(t.algebra, t.metric)
    flags = connection_flags(t.algebra, t.j, t.metric, lc)
    assert flags.is_metric
    assert not flags.is_complex
    assert flags.torsion_type_11     # zero torsion is vacuously type (1,1)


def test_curvature_norms(fixtures_dir):
    t = load_triple(fixtures_dir, "aff_c_j1.json")
    assert curvature_norm_sq(t.algebra, levi_civita(t.algebra, t.metric)) == 12
    assert curvature_norm_sq(t.algebra, first_canonical(t)) == 6
    nil = load_triple(fixtures_dir, "nilpotent_step3.json")
    assert curvature_norm_sq(nil.algebra, first_canonical(nil)) == rat(67, 8)
    assert not is_flat(nil.algebra, first_canonical(nil))


def test_zero_connection_torsion_and_type(fixtures_dir):
    t = load_triple(fixtures_dir, "aff_c_j1.json")
    g = t.algebra
    zero = Connection.zero(4)
    tt = torsion(g, zero)
    for i in range(4):
        for j in range(4):
            assert tt[i][j] == tuple(-c for c in g.c[i][j])
    assert is_flat(g, zero)
    flags = connection_flags(g, t.j, t.metric, zero)
    assert flags.is_metric and flags.is_complex and flags.torsion_type_11
    # multiplication by i on the complexified affine line: integrable but
    # not abelian, and the same zero connection loses the (1,1) property
    jc = ComplexStructure(Matrix([[0, -1, 0, 0], [1, 0, 0, 0],
                                  [0, 0, 0, -1], [0, 0, 1, 0]]))
    assert is_integrable(g, jc)
    assert not is_abelian_cs(g, jc)
    flags_c = connection_flags(g, jc, t.metric, zero)
    assert flags_c.is_metric and flags_c.is_complex
    assert not flags_c.torsion_type_11


def test_levi_civita_randomized_uniqueness():
    rng = random.Random(440)
    triples = [random_instance(rng.randrange(2 ** 32), 1 + rng.randrange(3),
                               family, disguise=disguise)
               for family in FAMILIES for disguise in (False, True)
               for _ in range(2)]
    triples += [random_kahler_instance(rng.randrange(2 ** 32), 8).triple
                for _ in range(3)]
    for t in triples:
        lc = levi_civita(t.algebra, t.metric)
        assert is_torsion_free(t.algebra, lc)
        flags = connection_flags(t.algebra, t.j, t.metric, lc)
        assert flags.is_metric
        fc = first_canonical(t)
        fflags = connection_flags(t.algebra, t.j, t.metric, fc)
        assert fflags.is_metric and fflags.is_complex and fflags.torsion_type_11
        # the projection route and the pairing formula give one connection
        assert fc == first_canonical_pairing(t)
