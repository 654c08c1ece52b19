import random

import pytest

from abelianj.assoc import CommAssocAlgebra, nilradical
from abelianj.complex_structures import (
    ComplexStructure, HolomorphicPair, is_abelian_cs, is_holomorphic_iso,
)
from abelianj.constructions import (
    AffModel, IncompatiblePairError, aff_algebra, double_product, equal_products_iso,
    extract_products, recognize_aff, semidirect_r2_family, standard_complex_structure,
    witness_check,
)
from abelianj.lab import random_pair
from abelianj.lie import (
    LieAlgebra, PreconditionError, check_jacobi, commutator_ideal,
    derived_and_central_series,
)
from abelianj.linalg import Matrix, Subspace, vec


def complex_plane():
    return CommAssocAlgebra(2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {0: -1}})


def aff_complex():
    return LieAlgebra(4, {(0, 2): {2: 1}, (0, 3): {3: 1},
                          (1, 2): {3: 1}, (1, 3): {2: -1}})


MODEL_PRODUCTS = (
    CommAssocAlgebra(1, {(0, 0): {0: 1}}),
    complex_plane(),
    CommAssocAlgebra(2, {(0, 0): {0: 1}, (1, 1): {1: 1}}),
    CommAssocAlgebra(2, {(0, 0): {0: 1}, (0, 1): {1: 1}}),
)


def test_double_product_of_complex_line():
    dp = double_product(complex_plane(), CommAssocAlgebra.zero(2))
    assert dp.algebra == aff_complex()
    assert dp.j == standard_complex_structure(2)
    assert dp.u.basis == (vec((1, 0, 0, 0)), vec((0, 1, 0, 0)))
    assert is_abelian_cs(dp.algebra, dp.j)


def test_aff_algebra_shortcut():
    for a in MODEL_PRODUCTS:
        dp = aff_algebra(a)
        assert dp.star == CommAssocAlgebra.zero(a.dim)
        assert check_jacobi(dp.algebra) is None


def test_double_product_rejects_bad_inputs():
    nonassoc = CommAssocAlgebra(2, {(0, 0): {1: 1}, (1, 1): {0: 1}})
    with pytest.raises(PreconditionError):
        double_product(nonassoc, CommAssocAlgebra.zero(2))
    dual = MODEL_PRODUCTS[3]
    split = MODEL_PRODUCTS[2]
    with pytest.raises(IncompatiblePairError) as exc:
        double_product(dual, split)
    assert exc.value.witness.identity in (1, 2)


def test_equal_products_iso_on_models():
    for a in MODEL_PRODUCTS:
        pair = equal_products_iso(a)
        assert is_holomorphic_iso(pair)
        assert pair.source.dim == 2 * a.dim


def test_witness_check_cases():
    g = aff_complex()
    j = standard_complex_structure(2)
    first = Subspace(4, [vec((1, 0, 0, 0)), vec((0, 1, 0, 0))])
    ideal = Subspace(4, [vec((0, 0, 1, 0)), vec((0, 0, 0, 1))])
    assert witness_check(g, j, first)
    assert witness_check(g, j, ideal)
    # J-stable plane meets its own image
    assert not witness_check(g, j, Subspace(4, [vec((1, 0, 0, 0)), vec((0, 0, 1, 0))]))
    assert not witness_check(g, j, Subspace(4, [vec((1, 0, 0, 0))]))
    # complementary to its image, but [e2, e3] = e4 is not zero
    assert not witness_check(g, j, Subspace(4, [vec((0, 1, 0, 0)), vec((0, 0, 1, 0))]))


def test_extract_products_round_trip():
    dp = double_product(complex_plane(), CommAssocAlgebra.zero(2))
    out = extract_products(dp.algebra, dp.j, dp.u)
    assert out.dot == complex_plane()
    assert out.star == CommAssocAlgebra.zero(2)
    assert is_holomorphic_iso(out.iso)


def test_extract_products_requires_witness():
    g = aff_complex()
    j = standard_complex_structure(2)
    with pytest.raises(PreconditionError):
        extract_products(g, j, Subspace(4, [vec((1, 0, 0, 0))]))


def test_recognize_aff_on_affine_complex():
    g = aff_complex()
    j = standard_complex_structure(2)
    out = recognize_aff(g, j)
    assert isinstance(out, AffModel)
    assert out.half == commutator_ideal(g)
    a = out.algebra
    assert a.m[0][0] == vec((-1, 0))
    assert a.m[0][1] == vec((0, -1))
    assert a.m[1][1] == vec((1, 0))
    assert is_holomorphic_iso(out.iso)
    # the recovered product is the complex line under a1 -> -1, a2 -> i
    q = Matrix([[-1, 0], [0, 1]])
    cx = complex_plane()
    for i in range(2):
        for k in range(2):
            lhs = q.apply(a.m[i][k])
            rhs = cx.multiply(q.column(i), q.column(k))
            assert lhs == rhs


def test_recognize_aff_not_applicable():
    with pytest.raises(PreconditionError, match="^algebra is not the direct sum of its "
                                                "commutator and the J-image$"):
        recognize_aff(LieAlgebra.abelian(4), standard_complex_structure(2))
    heis = LieAlgebra(4, {(0, 1): {2: 1}})
    with pytest.raises(PreconditionError, match="^complex structure must be abelian$"):
        recognize_aff(heis, standard_complex_structure(2))


def test_semidirect_family_identity_action():
    g, j = semidirect_r2_family(1, Matrix.identity(2))
    assert g.dim == 4
    assert is_abelian_cs(g, j)
    # f1 -> e2, f2 -> e1, v1 -> e3, v2 -> e4 identifies it with the affine
    # algebra of the complex line under the rotated structure
    target = aff_complex()
    tj = ComplexStructure(Matrix([[0, 1, 0, 0], [-1, 0, 0, 0],
                                  [0, 0, 0, -1], [0, 0, 1, 0]]))
    phi = Matrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert is_holomorphic_iso(HolomorphicPair(g, j, target, tj, phi))


def test_semidirect_family_block_scaling():
    t_map = Matrix([[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]])
    g, j = semidirect_r2_family(2, t_map)
    assert g.dim == 6
    assert check_jacobi(g) is None
    assert is_abelian_cs(g, j)


def test_semidirect_family_rejects_bad_actions():
    with pytest.raises(PreconditionError):
        semidirect_r2_family(1, Matrix([[1, 0], [0, 2]]))     # breaks J-commuting
    with pytest.raises(PreconditionError):
        semidirect_r2_family(1, Matrix([[0, 0], [0, 0]]))     # singular
    with pytest.raises(PreconditionError):
        semidirect_r2_family(2, Matrix.identity(2))           # wrong shape


def test_double_product_nilpotency_matches_inputs():
    rng = random.Random(6021)
    for trial in range(60):
        fam = ("trivial-star", "equal-products", "diagonal-pair")[trial % 3]
        dot, star = random_pair(rng, 1 + rng.randrange(4), fam)
        dp = double_product(dot, star)
        lie_nilpotent = derived_and_central_series(dp.algebra).is_nilpotent
        assert lie_nilpotent == all(nilradical(a).nilradical == Subspace.whole(a.dim)
                                    for a in (dot, star))
