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
from typing import NamedTuple

from .assoc import (
    CommAssocAlgebra, check_axioms, check_compatibility, square_span,
)
from .complex_structures import (
    ComplexStructure, HolomorphicPair, is_abelian_cs, is_holomorphic_iso,
)
from .lie import (
    LieAlgebra, PreconditionError, bilinear_table, bracket_span, center, check_jacobi,
    classify_subspace, commutator_ideal, derived_and_central_series,
)
from .linalg import (
    Matrix, SingularMatrix, Subspace, basis_vec, certify, is_zero_vec, rat,
    vec_scale,
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


def standard_complex_structure(m) -> ComplexStructure:
    """J on R^{2m} mapping the first half of the basis onto the second."""
    rows = []
    for r in range(m):
        rows.append(tuple(rat(-1) if c == m + r else rat(0) for c in range(2 * m)))
    for r in range(m):
        rows.append(tuple(rat(1) if c == r else rat(0) for c in range(2 * m)))
    return ComplexStructure(Matrix(rows))


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
            value = {}
            for idx, c in enumerate(star.m[i][k]):
                if c != 0:
                    value[idx] = -c
            for idx, c in enumerate(dot.m[i][k]):
                if c != 0:
                    value[m + idx] = c
            if value:
                brackets[(i, m + k)] = value
    g = LieAlgebra(n, brackets)
    j = standard_complex_structure(m)
    certify("compatible pair must satisfy Jacobi", check_jacobi(g) is None)
    certify("standard J on a double product must be abelian", is_abelian_cs(g, j))
    u = Subspace(n, [basis_vec(n, i) for i in range(m)])
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
    rows = []
    for r in range(m):
        rows.append(tuple(rat(1) if c in (r, m + r) else rat(0) for c in range(2 * m)))
    for r in range(m):
        rows.append(tuple(rat(-1) if c == r else (rat(1) if c == m + r else rat(0))
                          for c in range(2 * m)))
    pair = HolomorphicPair(src.algebra, src.j, tgt.algebra, tgt.j, Matrix(rows))
    certify("equal-products map must be a holomorphic iso", is_holomorphic_iso(pair))
    return pair


def witness_check(g, j, u: Subspace) -> bool:
    """True iff u and Ju are abelian subalgebras with g = u (+) Ju."""
    ju = u.image(j.matrix)
    if not u.intersect(ju).is_zero() or u.dim + ju.dim != g.dim:
        return False
    return all(bracket_span(g, half, half).is_zero() for half in (u, ju))


def _half_coordinates(g, j, v: Subspace):
    """(P, {(i, k): coordinates of [J v_i, v_k] in the columns of P}) for
    i <= k, P the basis [v | Jv] of g."""
    jv = [j.apply(b) for b in v.basis]
    p = Matrix.from_columns(list(v.basis) + jv)
    pinv = p.inverse()
    table = bilinear_table(g, Matrix.from_columns(jv), Matrix.from_columns(v.basis),
                           combinations_with_replacement(range(v.dim), 2))
    return p, {ik: pinv.apply(w) for ik, w in table.items()}


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
    m = u.dim
    p, coords = _half_coordinates(g, j, u)
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
    m = v.dim
    coords = _half_coordinates(g, j, v)[1]
    for (i, k), w in coords.items():
        certify("product leaves the abelian half", is_zero_vec(w[m:]),
                "bracket [J v_%d, v_%d] has a J-half component" % (i + 1, k + 1))
    alg = CommAssocAlgebra(m, {ik: w[:m] for ik, w in coords.items()})
    wit = check_axioms(alg)
    certify("recovered product fails the axioms", wit is None, wit and wit.kind)
    model = aff_algebra(alg)
    phi = Matrix.from_columns([j.apply(b) for b in v.basis]
                              + [vec_scale(rat(-1), b) for b in v.basis])
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
    jgp = gp.image(j.matrix)
    if not gp.intersect(jgp).is_zero() or gp.dim + jgp.dim != g.dim:
        raise NotApplicableError(
            "algebra is not the direct sum of its commutator and the J-image")
    result = _aff_model(g, j, gp)
    certify("recovered product must have full square span",
            square_span(result.algebra) == Subspace.whole(result.algebra.dim))
    return result


def _greedy_j_half(j, ambient_space: Subspace, seed: Subspace) -> Subspace:
    """Extend seed by echelon vectors of a J-stable space until the space is
    (seed + added) (+) J(seed + added); returns only the added part."""
    running = seed.sum(seed.image(j.matrix))
    certify("seed half meets its J-image", running.dim == 2 * seed.dim)
    added = []
    for w in ambient_space.basis:
        if not running.contains_vector(w):
            added.append(w)
            nxt = Subspace(running.ambient,
                           list(running.basis) + [w, j.apply(w)])
            certify("J-split extension step failed", nxt.dim == running.dim + 2)
            running = nxt
    certify("space to split is not J-stable", running == ambient_space)
    return Subspace(ambient_space.ambient, added)


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
    witness = Subspace(g.dim, list(h.basis) + list(ell.basis))
    certify("refined half is not an abelian splitting", witness_check(g, j, witness))
    return RefinedWitness(witness, h, ell)


def aff_from_abelian_ideal(g, j, u: Subspace) -> AffModel:
    """From an abelian ideal u with g = u + Ju (and commutator meeting its
    J-image trivially), build a half v and exhibit g as an affine algebra.

    v is assembled from: a complement of commutator + central part inside u,
    a complement of the central part of the commutator inside the
    commutator, and one sheet of a J-splitting of the center seeded by the
    central part of the commutator.
    """
    role = _generating_half_role(g, j, u)
    if not (role.is_ideal and role.is_abelian_subspace):
        raise PreconditionError("u must be an abelian ideal")
    gp = commutator_ideal(g)
    if not gp.intersect(gp.image(j.matrix)).is_zero():
        raise PreconditionError("commutator must meet its J-image trivially")
    certify("commutator must lie inside the abelian ideal", u.contains(gp))
    z = center(g)
    gp_central = gp.intersect(z)
    h = gp_central.complement_in(gp)
    k = gp.sum(z.intersect(u)).complement_in(u)
    ell = _greedy_j_half(j, z, gp_central)
    v = Subspace(g.dim, list(k.basis) + list(h.basis)
                 + list(gp_central.basis) + list(ell.basis))
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
            value = {2 + r: c for r, c in enumerate(action.column(col)) if c != 0}
            if value:
                brackets[(row_idx, 2 + col)] = value
    g = LieAlgebra(dim, brackets)
    rows = [tuple(rat(0) for _ in range(dim)) for _ in range(dim)]
    rows[1] = tuple(rat(1) if c == 0 else rat(0) for c in range(dim))
    rows[0] = tuple(rat(-1) if c == 1 else rat(0) for c in range(dim))
    for r in range(2 * n):
        rows[2 + r] = tuple(
            j0.matrix.rows[r][c - 2] if c >= 2 else rat(0) for c in range(dim))
    j = ComplexStructure(Matrix(rows))
    certify("semidirect family must satisfy Jacobi", check_jacobi(g) is None)
    certify("semidirect family J must be abelian", is_abelian_cs(g, j))
    return g, j
