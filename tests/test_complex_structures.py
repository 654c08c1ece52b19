import random

import pytest

from abelianj.complex_structures import (
    ComplexStructure, HolomorphicPair, _nijenhuis_table, abelian_cs_report,
    is_abelian_cs, is_holomorphic_iso, is_integrable, j_stable_commutator,
)
from abelianj.constructions import standard_complex_structure
from abelianj.lab import FAMILIES, random_instance
from abelianj import lie
from abelianj.lie import LieAlgebra, PreconditionError
from abelianj.linalg import DimensionMismatch, Matrix, _dense, is_zero_vec, vec


def aff_complex():
    return LieAlgebra(4, {(0, 2): {2: 1}, (0, 3): {3: 1},
                          (1, 2): {3: 1}, (1, 3): {2: -1}})


def rotated_j():
    # J e1 = -e2, J e2 = e1, J e3 = e4, J e4 = -e3
    return ComplexStructure(Matrix([[0, 1, 0, 0], [-1, 0, 0, 0],
                                    [0, 0, 0, -1], [0, 0, 1, 0]]))


def heis_r():
    # Heisenberg plus a line, keeps the standard J from being integrable
    return LieAlgebra(4, {(0, 1): {2: 1}})


def test_ctor_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        ComplexStructure(Matrix([[0, 1, 0], [-1, 0, 0]]))


def test_ctor_rejects_wrong_square():
    with pytest.raises(ValueError):
        ComplexStructure(Matrix.identity(2))
    with pytest.raises(ValueError):
        ComplexStructure(Matrix([[0, 1], [1, 0]]))


def test_rotation_is_valid_and_applies():
    j = ComplexStructure(Matrix([[0, -1], [1, 0]]))
    assert j.dim == 2
    assert j.apply(vec((1, 0))) == vec((0, 1))
    assert j.apply(vec((0, 1))) == vec((-1, 0))
    assert j == ComplexStructure(Matrix([[0, -1], [1, 0]]))
    assert hash(j) == hash(ComplexStructure(Matrix([[0, -1], [1, 0]])))


def test_nijenhuis_vanishes_on_abelian():
    g = LieAlgebra.abelian(4)
    j = standard_complex_structure(2)
    table = {ik: _dense(w, 4) for ik, w in _nijenhuis_table(g, j)}
    assert len(table) == 6
    for n in table.values():
        assert is_zero_vec(n)


def test_nijenhuis_witness_on_heisenberg():
    g = heis_r()
    j = standard_complex_structure(2)
    n = _dense(dict(_nijenhuis_table(g, j))[(0, 1)], 4)
    assert n == vec((0, 0, -1, 0))
    assert not is_integrable(g, j)
    assert not is_abelian_cs(g, j)


def test_both_standard_structures_abelian_on_affine_complex():
    g = aff_complex()
    for j in (rotated_j(), standard_complex_structure(2)):
        assert is_abelian_cs(g, j)
        assert is_integrable(g, j)


def test_report_five_flags_hold():
    g = aff_complex()
    for j in (rotated_j(), standard_complex_structure(2)):
        rep = abelian_cs_report(g, j)
        assert rep.center_j_stable
        assert rep.ad_twist
        assert rep.commutator_abelian
        assert rep.j_commutator_abelian_subalgebra
        assert rep.intersection_central
        assert rep.all_hold


def test_report_flags_a_nonabelian_commutator(monkeypatch):
    """The commutator flag reads the derived series: with [g', g'] forced
    nonzero on a fresh algebra, it and all_hold are false."""
    g = aff_complex()
    real = lie.bracket_span
    monkeypatch.setattr(lie, "bracket_span", lambda h, u, v: u if (
        u is v and u == lie.commutator_ideal(h)) else real(h, u, v))
    rep = abelian_cs_report(g, standard_complex_structure(2))
    assert not rep.commutator_abelian and not rep.all_hold


def test_report_requires_abelian_structure():
    with pytest.raises(PreconditionError):
        abelian_cs_report(heis_r(), standard_complex_structure(2))


def test_j_stable_commutator_dims():
    g = aff_complex()
    # J1 preserves the commutator plane, J2 rotates it onto the complement
    assert j_stable_commutator(g, rotated_j()).dim == 2
    assert j_stable_commutator(g, standard_complex_structure(2)).dim == 4


def test_holomorphic_iso_identity_and_failures():
    g = aff_complex()
    j1, j2 = rotated_j(), standard_complex_structure(2)
    ident = Matrix.identity(4)
    assert is_holomorphic_iso(HolomorphicPair(g, j1, g, j1, ident))
    # same map fails equivariance between the two structures
    assert not is_holomorphic_iso(HolomorphicPair(g, j1, g, j2, ident))
    zero = Matrix([[0] * 4] * 4)
    assert not is_holomorphic_iso(HolomorphicPair(g, j1, g, j1, zero))
    with pytest.raises(DimensionMismatch):
        is_holomorphic_iso(HolomorphicPair(g, j1, g, j1, Matrix([[1, 0]])))


def test_holomorphic_iso_commuting_map_on_abelian():
    g = LieAlgebra.abelian(2)
    j = ComplexStructure(Matrix([[0, -1], [1, 0]]))
    # a + bJ commutes with J and is invertible when (a, b) != (0, 0)
    m = Matrix([[1, -2], [2, 1]])
    assert is_holomorphic_iso(HolomorphicPair(g, j, g, j, m))


def test_abelian_implies_integrable_randomized():
    rng = random.Random(20240817)
    for trial in range(24):
        dim_a = 1 + rng.randrange(3)
        g, j = random_instance(rng.randrange(2 ** 32), dim_a,
                               FAMILIES[trial % 3], disguise=bool(trial % 2))
        assert is_abelian_cs(g, j)
        assert is_integrable(g, j)
