"""Double products of compatible commutative associative algebra pairs,
affine Lie algebras, and the structure algorithms that recover or refine an
abelian splitting g = u (+) Ju.

Every algorithm here returns verified artifacts: isomorphisms are checked by
is_holomorphic_iso before being handed back, and intermediate claims of the
structure theory are re-certified at run time by linalg.certify.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import lcm
from typing import NamedTuple

from .assoc import (
    CommAssocAlgebra, check_axioms, check_compatibility, square_span,
)
from .complex_structures import (
    ComplexStructure, HolomorphicPair, is_abelian_cs, is_holomorphic_iso,
    j_stable_commutator,
)
from . import linalg
from .lie import (
    LieAlgebra, PreconditionError, bracket_span, center, check_jacobi,
    classify_subspace, commutator_ideal, derived_and_central_series,
)
from .linalg import (
    Matrix, SingularMatrix, Subspace, _dense, _negated, _reduced, certify, rat, vec_scale,
)


class IncompatiblePairError(ValueError):
    def __init__(self, witness):
        super().__init__(
            "products fail mixed associativity (identity %d at %s)"
            % (witness.identity, witness.indices))
        self.witness = witness


class NotApplicableError(ValueError):
    pass


@dataclass(frozen=True)
class DoubleProduct:
    """Lie algebra on two copies of a vector space, built from a compatible
    pair of commutative associative products, with its standard complex
    structure.  `u` is the first copy."""
    algebra: LieAlgebra
    j: ComplexStructure
    dot: CommAssocAlgebra
    star: CommAssocAlgebra
    u: Subspace


def _shifted(split, by):
    d, nz = split
    return d, [(k + by, a) for k, a in nz]


def standard_complex_structure(m) -> ComplexStructure:
    """J on R^{2m} mapping the first half of the basis onto the second:
    J e_c = e_{m+c} and J e_{m+c} = -e_c for c < m."""
    return ComplexStructure(Matrix._of_split(
        [(1, [(m + c, 1)]) for c in range(m)] + [(1, [(c, -1)]) for c in range(m)], 2 * m))


def double_product(dot: CommAssocAlgebra, star: CommAssocAlgebra) -> DoubleProduct:
    """Bracket [(a,a'),(b,b')] = (-(a*b' - b*a'), a.b' - b.a') on A (+) A.

    Requires both products to pass the axioms and the pair to satisfy the
    mixed-associativity compatibility identities; the Jacobi identity and
    the abelian property of the standard J are then theorems, re-asserted.
    """
    wit = check_axioms(dot)
    if wit is not None:
        raise PreconditionError("first product fails %s at %s" % (wit.kind, wit.indices))
    wit = check_axioms(star)
    if wit is not None:
        raise PreconditionError("second product fails %s at %s" % (wit.kind, wit.indices))
    compat = check_compatibility(dot, star)
    if compat is not None:
        raise IncompatiblePairError(compat)
    m = dot.dim
    n = 2 * m
    brackets = {}
    for i in range(m):
        for k in range(m):
            # [e_i, e_{m+k}] = (-(e_i * e_k), e_i . e_k), one split over both halves
            (ds, ns), (dd, nd) = star.split()[i][k], dot.split()[i][k]
            if ns or nd:
                big = lcm(ds, dd)
                brackets[i, m + k] = _reduced(big, [(t, -a * (big // ds)) for t, a in ns]
                                              + [(m + t, a * (big // dd)) for t, a in nd])
    g = LieAlgebra._of_split(n, brackets)
    j = standard_complex_structure(m)
    certify("compatible pair must satisfy Jacobi", check_jacobi(g) is None)
    certify("standard J on a double product must be abelian", is_abelian_cs(g, j))
    u = Subspace._spanned(n, [(1, [(i, 1)]) for i in range(m)])
    return DoubleProduct(g, j, dot, star, u)


def aff_algebra(a: CommAssocAlgebra) -> DoubleProduct:
    """The double product with trivial second product: the affine algebra
    of a commutative associative algebra."""
    return double_product(a, CommAssocAlgebra.zero(a.dim))


def equal_products_iso(a: CommAssocAlgebra) -> HolomorphicPair:
    """(x, y) -> (x + y, -x + y) from the self-paired double product of a
    product onto its affine algebra; always a verified holomorphic iso."""
    src = double_product(a, a)
    tgt = aff_algebra(a)
    m = a.dim
    iso = Matrix._of_split([(1, [(c, 1), (m + c, -1)]) for c in range(m)]
                           + [(1, [(c, 1), (m + c, 1)]) for c in range(m)], 2 * m)
    pair = HolomorphicPair(src.algebra, src.j, tgt.algebra, tgt.j, iso)
    certify("equal-products map must be a holomorphic iso", is_holomorphic_iso(pair))
    return pair


def witness_check(g, j, u: Subspace) -> bool:
    """True iff u and Ju are abelian subalgebras with g = u (+) Ju."""
    ju = u.image(j.matrix)
    if 2 * u.dim != g.dim or u.sum(ju).dim != g.dim:
        return False
    return all(bracket_span(g, half, half).is_zero() for half in (u, ju))


def _half_products(g, j, v: Subspace):
    """{(i, k): split of the coordinates in v of [J v_i, v_k], or None where
    that bracket leaves v} for i <= k: the product x o y = [Jx, y] on v, from
    one bilinear_table."""
    vs = v.split()
    table = linalg.bilinear_table(g.split(), [j.matrix._apply_split(s) for s in vs], vs,
                                  combinations_with_replacement(range(v.dim), 2))
    return {ik: v._coords(w) for ik, w in table.items()}


class ExtractedProducts(NamedTuple):
    dot: CommAssocAlgebra
    star: CommAssocAlgebra
    iso: HolomorphicPair       # double_product(dot, star) -> g


def extract_products(g, j, u: Subspace) -> ExtractedProducts:
    """Recover the compatible product pair of an abelian splitting.

    In the coordinates of [u-basis | J(u-basis)], the bracket [Jx, y] of
    x, y in u has first-half component x*y and second-half component
    -(x.y); both products are read off columnwise and the double product
    they generate is certified isomorphic to g.
    """
    if not is_abelian_cs(g, j):
        raise PreconditionError("complex structure must be abelian")
    if not witness_check(g, j, u):
        raise PreconditionError("need g = u (+) Ju with both halves abelian subalgebras")
    m, us = u.dim, u.split()
    jus = [j.matrix._apply_split(s) for s in us]
    p = Matrix._of_split(us + jus, g.dim)
    pinv = p.inverse()
    table = linalg.bilinear_table(g.split(), jus, us, combinations_with_replacement(range(m), 2))
    coords = {ik: _dense(pinv._apply_split(w), g.dim) for ik, w in table.items()}
    dot = CommAssocAlgebra(m, {ik: vec_scale(rat(-1), w[m:]) for ik, w in coords.items()})
    star = CommAssocAlgebra(m, {ik: w[:m] for ik, w in coords.items()})
    certify("extracted products must satisfy the axioms",
            check_axioms(dot) is None and check_axioms(star) is None)
    certify("extracted products must be compatible",
            check_compatibility(dot, star) is None)
    model = double_product(dot, star)
    pair = HolomorphicPair(model.algebra, model.j, g, j, p)
    certify("extracted model map must be a holomorphic iso", is_holomorphic_iso(pair))
    return ExtractedProducts(dot, star, pair)


class AffModel(NamedTuple):
    algebra: CommAssocAlgebra   # the product x*y = [Jx, y] in half-coordinates
    half: Subspace              # abelian piece v with g = v (+) Jv
    model: DoubleProduct        # affine algebra of `algebra`
    iso: HolomorphicPair        # model.algebra -> g, (x, y) |-> Jx - y


def _aff_model(g, j, v: Subspace) -> AffModel:
    """Build the affine model over the half v; requires [Jv, v] inside v."""
    products = _half_products(g, j, v)
    for (i, k), w in products.items():
        certify("product leaves the abelian half", w is not None,
                "bracket [J v_%d, v_%d] has a J-half component" % (i + 1, k + 1))
    alg = CommAssocAlgebra._of_split(v.dim, products)
    wit = check_axioms(alg)
    certify("recovered product fails the axioms", wit is None, wit and wit.kind)
    model = aff_algebra(alg)
    vs = v.split()
    phi = Matrix._of_split([j.matrix._apply_split(s) for s in vs] + [_negated(s) for s in vs],
                           g.dim)
    pair = HolomorphicPair(model.algebra, model.j, g, j, phi)
    certify("affine model map failed verification", is_holomorphic_iso(pair))
    return AffModel(alg, v, model, pair)


def recognize_aff(g, j) -> AffModel:
    """When g splits as commutator (+) J commutator, exhibit it as the
    affine algebra of (commutator, x*y = [Jx, y]).

    Raises NotApplicableError when the splitting fails (e.g. any abelian g
    of positive dimension).
    """
    if not is_abelian_cs(g, j):
        raise PreconditionError("complex structure must be abelian")
    gp = commutator_ideal(g)
    if 2 * gp.dim != g.dim or j_stable_commutator(g, j).dim != g.dim:
        raise NotApplicableError(
            "algebra is not the direct sum of its commutator and the J-image")
    result = _aff_model(g, j, gp)
    certify("recovered product must have full square span",
            square_span(result.algebra) == Subspace.whole(result.algebra.dim))
    return result


def _greedy_j_half(j, ambient_space: Subspace, seed: Subspace) -> Subspace:
    """Extend seed by echelon vectors w of a J-stable space until the space is
    (seed + added) (+) J(seed + added); returns only the added part.  In one
    elimination over s, Js for s in seed and then w, Jw, the columns before
    w span a J-stable space, which meets span{w, Jw} only in 0 if it misses
    w: so w is added exactly when it is a pivot, and then so is Jw."""
    jm, ws = j.matrix, ambient_space.split()
    pivots = linalg._pivot_columns(
        [c for s in seed.split() + ws for c in (s, jm._apply_split(s))], ambient_space.ambient)
    m = 2 * seed.dim
    certify("seed half meets its J-image", pivots[:m] == list(range(m)))
    added = [p for p in pivots[m:] if p % 2 == 0]
    certify("J-split extension step failed",
            pivots[m:] == [p + t for p in added for t in (0, 1)])
    # the columns span seed + Jseed + the space + its J-image
    certify("space to split is not J-stable", len(pivots) == ambient_space.dim)
    return Subspace._spanned(ambient_space.ambient, [ws[(p - m) // 2] for p in added])


class RefinedWitness(NamedTuple):
    witness: Subspace           # abelian half a with g = a (+) Ja
    noncentral_part: Subspace   # complement of the center inside u + center
    central_part: Subspace      # l with center = l (+) Jl


def _generating_half_role(g, j, u: Subspace):
    """The role of u in g after the preconditions that refine_to_witness and
    aff_from_abelian_ideal share: g solvable, J abelian, u + Ju = g."""
    if not derived_and_central_series(g).is_solvable:
        raise PreconditionError("algebra must be solvable")
    if not is_abelian_cs(g, j):
        raise PreconditionError("complex structure must be abelian")
    if u.sum(u.image(j.matrix)) != Subspace.whole(g.dim):
        raise PreconditionError("u + Ju must be the whole algebra")
    return classify_subspace(g, u)


def refine_to_witness(g, j, u: Subspace) -> RefinedWitness:
    """Shrink a (possibly non-direct) abelian generating half u to a direct
    one: enlarge by the center, split the center against J, and keep one
    sheet.  The result always passes witness_check."""
    role = _generating_half_role(g, j, u)
    if not (role.is_subalgebra and role.is_abelian_subspace):
        raise PreconditionError("u must be an abelian subalgebra")
    z = center(g)
    u1 = u.sum(z)
    certify("enlarged half must meet its J-image exactly in the center",
            u1.intersect(u1.image(j.matrix)) == z)
    h = z.complement_in(u1)
    ell = _greedy_j_half(j, z, Subspace.zero(g.dim))
    witness = Subspace._spanned(g.dim, h.split() + ell.split())
    certify("refined half is not an abelian splitting", witness_check(g, j, witness))
    return RefinedWitness(witness, h, ell)


def aff_from_abelian_ideal(g, j, u: Subspace) -> AffModel:
    """From an abelian ideal u with g = u + Ju (and commutator meeting its
    J-image trivially), build a half v and exhibit g as an affine algebra.

    v is spanned by a complement of commutator + central part inside u, the
    commutator, and one sheet of a J-splitting of the center seeded by the
    central part of the commutator.
    """
    role = _generating_half_role(g, j, u)
    if not (role.is_ideal and role.is_abelian_subspace):
        raise PreconditionError("u must be an abelian ideal")
    gp = commutator_ideal(g)
    if j_stable_commutator(g, j).dim != 2 * gp.dim:
        raise PreconditionError("commutator must meet its J-image trivially")
    certify("commutator must lie inside the abelian ideal", u.contains(gp))
    z = center(g)
    gp_central = gp.intersect(z)
    k = gp.sum(z.intersect(u)).complement_in(u)
    ell = _greedy_j_half(j, z, gp_central)
    v = Subspace._spanned(g.dim, k.split() + gp.split() + ell.split())
    certify("assembled half has wrong dimension", 2 * v.dim == g.dim)
    certify("assembled half is not an abelian splitting", witness_check(g, j, v))
    return _aff_model(g, j, v)


def semidirect_r2_family(n, t_map: Matrix):
    """Two extra directions f1, f2 acting on R^{2n} by T J0 and T, with T
    invertible and commuting with the standard J0; J sends f1 to f2 and is
    standard on the acted space.  Returns (LieAlgebra, ComplexStructure)."""
    if t_map.nrows != 2 * n or t_map.ncols != 2 * n:
        raise PreconditionError("acting map must be %d x %d" % (2 * n, 2 * n))
    j0 = standard_complex_structure(n)
    if (t_map @ j0.matrix) != (j0.matrix @ t_map):
        raise PreconditionError("acting map must commute with the standard J")
    try:
        t_map.inverse()
    except SingularMatrix:
        raise PreconditionError("acting map must be invertible")
    dim = 2 + 2 * n
    tj = t_map @ j0.matrix
    brackets = {}
    for col in range(2 * n):
        for row_idx, action in ((0, tj), (1, t_map)):
            if action.split()[col][1]:
                brackets[row_idx, 2 + col] = _shifted(action.split()[col], 2)
    g = LieAlgebra._of_split(dim, brackets)
    # J e_0 = e_1, J e_1 = -e_0, and J0 on the acted space
    j = ComplexStructure(Matrix._of_split(
        [(1, [(1, 1)]), (1, [(0, -1)])] + [_shifted(s, 2) for s in j0.matrix.split()], dim))
    certify("semidirect family must satisfy Jacobi", check_jacobi(g) is None)
    certify("semidirect family J must be abelian", is_abelian_cs(g, j))
    return g, j
