"""Complex structures on Lie algebras: integrability, the abelian condition,
holomorphic isomorphisms, and the five-way structural report for abelian J.

The Nijenhuis table, the abelian test and the report's ad-twist
[Je_i, e_k] + [e_i, Je_k] are contractions over the kept splits of the
brackets and of J (linalg._combine), once per pair i < k and over nonzero
bracket slices only; a pair whose brackets are all zero costs none.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import linalg
from .linalg import DimensionMismatch, Matrix, Subspace, _combine_nonzero
from .lie import (
    LieAlgebra, PreconditionError, _kept, bracket_span, center,
    center_of_subalgebra, commutator_ideal, derived_and_central_series,
    is_isomorphism,
)


class ComplexStructure:
    """Endomorphism J with J^2 = -I, validated exactly at construction."""

    __slots__ = ("matrix", "dim")

    def __init__(self, matrix):
        m = matrix if isinstance(matrix, Matrix) else Matrix(matrix)
        if not m.is_square():
            raise DimensionMismatch("J must be square")
        if (m @ m) != -Matrix.identity(m.nrows):
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


def _twist(gs, js, i, k):
    """Canonical split of [Je_i, e_k] + [e_i, Je_k], from the bracket split
    gs and the column split js of J; empty, with no contraction, when every
    bracket slice it reads is zero."""
    (di, ji), (dk, jk) = js[i], js[k]
    terms = [(c * dk, gs[p][k]) for p, c in ji] + [(c * di, gs[i][q]) for q, c in jk]
    return _combine_nonzero(di * dk, terms, len(gs))


def _nijenhuis_table(g, j):
    """Canonical splits of N(e_i, e_k) = [Je_i, Je_k] - [e_i, e_k]
    - J([Je_i, e_k] + [e_i, Je_k]) for i < k, one contraction per pair, none
    for a pair whose brackets are all zero."""
    n, gs, js = g.dim, g.split(), j.matrix.split()
    t_jj = linalg.bilinear_table(gs, js, js, combinations(range(n), 2))
    for (i, k), w in t_jj.items():
        dt, tw = _twist(gs, js, i, k)
        yield (i, k), _combine_nonzero(dt, [(dt, w), (-dt, gs[i][k])]
                                       + [(-c, js[t]) for t, c in tw], n)


def is_integrable(g, j) -> bool:
    return not any(nz for _, (_, nz) in _nijenhuis_table(g, j))


@_kept
def is_abelian_cs(g, j) -> bool:
    """[Jx, Jy] = [x, y] on the basis pairs i < j; both sides are
    alternating, so these decide it.  Decided once per J and kept on g."""
    gs, js = g.split(), j.matrix.split()
    t = linalg.bilinear_table(gs, js, js, combinations(range(g.dim), 2))
    return all(w == gs[i][k] for (i, k), w in t.items())


def j_stable_commutator(g, j) -> Subspace:
    """g' + Jg', unchecked: J-stable as J^2 = -I, an ideal as it contains g'."""
    gp = commutator_ideal(g)
    return gp.sum(gp.image(j.matrix))


@dataclass(frozen=True)
class AbelianReport:
    """The five structural consequences of an abelian complex structure."""
    center_j_stable: bool
    ad_twist: bool                      # ad_{Jx} = -ad_x J for basis x
    commutator_abelian: bool            # [g', g'] = 0 (Petravchuk)
    j_commutator_abelian_subalgebra: bool
    intersection_central: bool          # g' ∩ Jg' central in g' + Jg'

    @property
    def all_hold(self):
        return (self.center_j_stable and self.ad_twist
                and self.commutator_abelian
                and self.j_commutator_abelian_subalgebra
                and self.intersection_central)


def abelian_cs_report(g, j) -> AbelianReport:
    if not is_abelian_cs(g, j):
        raise PreconditionError("complex structure is not abelian")
    z = center(g)
    gp = commutator_ideal(g)
    jgp = gp.image(j.matrix)
    gpj = gp.sum(jgp)

    # the whole algebra is J-stable with no image to compute
    center_j_stable = z.dim == g.dim or z.image(j.matrix) == z

    # ad_{Je_i} e_k + ad_{e_i} J e_k is antisymmetric in (i, k), so the
    # pairs i < k decide it
    gs, js = g.split(), j.matrix.split()
    ad_twist = not any(_twist(gs, js, i, k)[1] for i, k in combinations(range(g.dim), 2))

    # g' is abelian exactly when the derived series reaches zero by [g', g']
    commutator_abelian = derived_and_central_series(g).is_2step_solvable

    # an abelian subspace is a subalgebra: its bracket span is zero
    jgp_flag = bracket_span(g, jgp, jgp).is_zero()

    inter = gp.intersect(jgp)
    central = z if gpj.dim == g.dim else center_of_subalgebra(g, gpj)
    intersection_central = central.contains(inter)

    return AbelianReport(center_j_stable, ad_twist, commutator_abelian, jgp_flag,
                         intersection_central)


@dataclass(frozen=True)
class HolomorphicPair:
    source: LieAlgebra
    source_j: ComplexStructure
    target: LieAlgebra
    target_j: ComplexStructure
    map: Matrix


def is_holomorphic_iso(pair: HolomorphicPair) -> bool:
    """J-equivariant Lie isomorphism, all exact."""
    m = pair.map
    if m.nrows != pair.target.dim or m.ncols != pair.source.dim:
        raise DimensionMismatch("map shape does not match source/target")
    if (m @ pair.source_j.matrix) != (pair.target_j.matrix @ m):
        return False
    return is_isomorphism(m, pair.source, pair.target)
