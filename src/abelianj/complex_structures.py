"""Complex structures on Lie algebras: integrability, the abelian condition,
holomorphic isomorphisms, and the five-way structural report for abelian J.
"""
from __future__ import annotations

from dataclasses import dataclass

from .linalg import DimensionMismatch, Matrix, Subspace, is_zero_vec, vec_add, vec_sub, rat
from .lie import (
    LieAlgebra, PreconditionError, bilinear_table, center, center_of_subalgebra,
    classify_subspace, commutator_ideal, derived_and_central_series,
    is_homomorphism,
)


class ComplexStructure:
    """Endomorphism J with J^2 = -I, validated exactly at construction."""

    __slots__ = ("matrix", "dim")

    def __init__(self, matrix):
        m = matrix if isinstance(matrix, Matrix) else Matrix(matrix)
        if not m.is_square():
            raise DimensionMismatch("J must be square")
        if (m @ m) != Matrix.identity(m.nrows).scale(rat(-1)):
            raise ValueError("J^2 != -I")
        self.matrix = m
        self.dim = m.nrows

    def apply(self, v):
        return self.matrix.apply(v)

    def __eq__(self, other):
        return isinstance(other, ComplexStructure) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return "ComplexStructure(dim=%d)" % self.dim


def nijenhuis(g, j: ComplexStructure, x, y):
    """N(x,y) = [Jx,Jy] - J[Jx,y] - J[x,Jy] - [x,y], evaluated exactly."""
    jx, jy = j.apply(x), j.apply(y)
    out = vec_sub(g.bracket(jx, jy), j.apply(g.bracket(jx, y)))
    out = vec_sub(out, j.apply(g.bracket(x, jy)))
    return vec_sub(out, g.bracket(x, y))


def _nijenhuis_table(g, j):
    jm = j.matrix
    ident = Matrix.identity(g.dim)
    t_jj = bilinear_table(g, jm, jm)
    t_ji = bilinear_table(g, jm, ident)
    t_ij = bilinear_table(g, ident, jm)
    for i in range(g.dim):
        for k in range(i + 1, g.dim):
            n = vec_sub(t_jj[i][k], jm.apply(vec_add(t_ji[i][k], t_ij[i][k])))
            n = vec_sub(n, g.c[i][k])
            yield (i, k), n


def is_integrable(g, j) -> bool:
    return all(is_zero_vec(n) for _, n in _nijenhuis_table(g, j))


def is_abelian_cs(g, j) -> bool:
    """[Jx, Jy] = [x, y] on all basis pairs."""
    return bilinear_table(g, j.matrix, j.matrix) == g.c


def j_stable_commutator(g, j) -> Subspace:
    gp = commutator_ideal(g)
    out = gp.sum(gp.image(j.matrix))
    # both summands are spans of brackets and their J-images, so out is
    # J-stable and an ideal; verified because downstream proofs rely on it
    assert out.image(j.matrix) == out
    assert classify_subspace(g, out).is_ideal
    return out


@dataclass(frozen=True)
class AbelianReport:
    """The five structural consequences of an abelian complex structure."""
    center_j_stable: bool
    ad_twist: bool                      # ad_{Jx} = -ad_x J for basis x
    commutator_abelian_iff_2step: bool
    j_commutator_abelian_subalgebra: bool
    intersection_central: bool          # g' ∩ Jg' central in g' + Jg'

    @property
    def all_hold(self):
        return (self.center_j_stable and self.ad_twist
                and self.commutator_abelian_iff_2step
                and self.j_commutator_abelian_subalgebra
                and self.intersection_central)


def abelian_cs_report(g, j) -> AbelianReport:
    if not is_abelian_cs(g, j):
        raise PreconditionError("complex structure is not abelian")
    z = center(g)
    gp = commutator_ideal(g)
    jgp = gp.image(j.matrix)
    gpj = gp.sum(jgp)

    center_j_stable = z.image(j.matrix) == z

    ad_twist = True
    for i in range(g.dim):
        jei = j.matrix.column(i)
        ei = tuple(rat(1) if k == i else rat(0) for k in range(g.dim))
        if g.ad(jei) != -(g.ad(ei) @ j.matrix):
            ad_twist = False
            break

    series = derived_and_central_series(g)
    gp_abelian = classify_subspace(g, gp).is_abelian_subspace
    iff_holds = gp_abelian == series.is_2step_solvable

    jgp_role = classify_subspace(g, jgp)
    jgp_flag = jgp_role.is_subalgebra and jgp_role.is_abelian_subspace

    inter = gp.intersect(jgp)
    central = center_of_subalgebra(g, gpj)
    intersection_central = central.contains(inter)

    return AbelianReport(center_j_stable, ad_twist, iff_holds, jgp_flag,
                         intersection_central)


@dataclass(frozen=True)
class HolomorphicPair:
    source: LieAlgebra
    source_j: ComplexStructure
    target: LieAlgebra
    target_j: ComplexStructure
    map: Matrix


def is_holomorphic_iso(pair: HolomorphicPair) -> bool:
    """Invertible + Lie homomorphism + J-equivariant, all exact."""
    m = pair.map
    if m.nrows != pair.target.dim or m.ncols != pair.source.dim:
        raise DimensionMismatch("map shape does not match source/target")
    if pair.source.dim != pair.target.dim:
        return False
    try:
        m.inverse()
    except Exception:
        return False
    if (m @ pair.source_j.matrix) != (pair.target_j.matrix @ m):
        return False
    return is_homomorphism(m, pair.source, pair.target)
