"""Lie algebras as dense structure-constant tensors over Q.

c[i][j] is the coordinate vector of [e_i, e_j]; only i < j is taken as input
and the rest is filled by negation, so antisymmetry holds by construction.
Jacobi is NOT enforced at construction; check_jacobi reports the first
violating triple, since several callers deliberately build non-Lie tensors.

The structure checks are contractions over the kept bracket split, none
for a zero bracket.  Every bracket table is one linalg.bilinear_table over
the pairs it needs: is_homomorphism and a self-bracket table (_brackets of
u with u) ask only for the pairs i < j of the alternating bracket.
pushforward transports the canonical splits of the brackets i < j and
stores the new algebra as those splits, the pairs j > i negated; its
Fractions c are built only when read.  check_jacobi skips a triple whose
three brackets are zero and commutator_ideal reads only the nonzero
brackets.  center and
center_of_subalgebra are one centralizer kernel (_annihilator);
center_of_subalgebra's one self-bracket table also decides its closure
precondition.  An algebra keeps its derived and lower central series once
computed, as it keeps its split.
"""
from __future__ import annotations

from itertools import combinations, product
from typing import NamedTuple, Optional

from . import linalg
from .linalg import (
    DimensionMismatch, Matrix, SingularMatrix, Subspace, _as_vector, _neg, _nonzeros,
    _splits_key, _tensor_dense, bilinear, contract_splits, is_zero_vec, lin_comb,
    tensor_split, zero_vec,
)


class PreconditionError(ValueError):
    """A documented operation precondition does not hold."""


class JacobiWitness(NamedTuple):
    triple: tuple
    residual: tuple


class LieAlgebra:
    """Stored as the Fractions it was given, or, when pushforward builds it,
    as the canonical splits of its brackets; c is built on first read."""
    __slots__ = ("dim", "_c", "basis_names", "_split", "_series")

    def __init__(self, dim, brackets=None, basis_names=None):
        """brackets: {(i,j): value} for i<j; value is a dense vector or {k: scalar}."""
        self.dim = dim
        self._split = None
        self._series = None
        table = [[zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
        for (i, j), value in (brackets or {}).items():
            if not (0 <= i < j < dim):
                raise DimensionMismatch("bracket pair (%d,%d) must satisfy 0 <= i < j < dim" % (i, j))
            v = _as_vector(value, dim)
            table[i][j] = v
            table[j][i] = _neg(v)
        self._c = tuple(tuple(row) for row in table)
        self.basis_names = tuple(basis_names) if basis_names else tuple(
            "e%d" % (i + 1) for i in range(dim))
        if len(self.basis_names) != dim:
            raise DimensionMismatch("basis_names length != dim")

    @classmethod
    def _of_split(cls, dim, upper, basis_names):
        """Algebra from {(i, j): canonical split of [e_i, e_j]} for i < j, the
        missing pairs zero; the pairs j > i get the negated numerators."""
        split = [[(1, [])] * dim for _ in range(dim)]
        for (i, j), (d, nz) in upper.items():
            split[i][j] = (d, nz)
            split[j][i] = (d, [(k, -a) for k, a in nz])
        g = object.__new__(cls)
        g.dim, g._c, g.basis_names, g._split, g._series = dim, None, basis_names, split, None
        return g

    @classmethod
    def abelian(cls, dim, basis_names=None):
        return cls(dim, {}, basis_names)

    @property
    def c(self):
        if self._c is None:
            self._c = _tensor_dense(self._split)
        return self._c

    def split(self):
        """Split of every bracket c[i][j], computed on first use."""
        if self._split is None:
            self._split = tensor_split(self._c)
        return self._split

    def bracket(self, x, y):
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("bracket arguments must have dimension %d" % self.dim)
        return bilinear(self.split(), x, y)

    def __eq__(self, other):
        return (isinstance(other, LieAlgebra) and self.dim == other.dim
                and self.split() == other.split())

    def __hash__(self):
        return hash(_splits_key(s for row in self.split() for s in row))

    def __repr__(self):
        return "LieAlgebra(dim=%d)" % self.dim


def check_jacobi(g) -> Optional[JacobiWitness]:
    """None on pass, else the first lexicographic violating triple i<j<k.
    A triple whose three brackets are zero has a zero residual and is
    skipped without a contraction."""
    n = g.dim
    s = g.split()
    for i, j, k in combinations(range(n), 3):
        if s[j][k][1] or s[i][j][1] or s[i][k][1]:
            # [e_i, [e_j, e_k]] + [e_k, [e_i, e_j]] - [e_j, [e_i, e_k]]
            resid = contract_splits(
                [(1, s[j][k], s[i]), (1, s[i][j], s[k]), (-1, s[i][k], s[j])], n)
            if not is_zero_vec(resid):
                return JacobiWitness((i, j, k), resid)
    return None


def commutator_ideal(g) -> Subspace:
    s = g.split()
    return Subspace(g.dim, [g.c[i][j] for i, j in combinations(range(g.dim), 2)
                            if s[i][j][1]])


def center(g) -> Subspace:
    """{x : [x, e_j] = 0 for all j}, from the kept bracket slices."""
    s = g.split()
    return _annihilator(g, Subspace.whole(g.dim),
                        {(i, j): g.c[i][j] for i in range(g.dim) for j in range(g.dim)
                         if s[i][j][1]})


def center_of_subalgebra(g, u: Subspace) -> Subspace:
    """The centralizer of u in u, from one self-bracket table: its pairs
    a < b decide the closure precondition, and with [u_b, u_a] = -[u_a, u_b]
    added it is the annihilator's table."""
    table = {ab: w for ab, w in _brackets(g, u, u).items() if not is_zero_vec(w)}
    if not all(u.contains_vector(w) for w in table.values()):
        raise PreconditionError("subspace is not closed under the bracket")
    table.update([((b, a), _neg(w)) for (a, b), w in table.items()])
    return _annihilator(g, u, table)


def _annihilator(g, u: Subspace, table):
    """The one centralizer kernel: {sum_a x_a u_a : sum_a x_a table[a, b] = 0
    for every b}, where table maps (a, b) to a nonzero bracket of the basis
    vector u_a and a missing pair is a zero bracket.  u itself when the
    table is empty."""
    if not table:
        return u
    z = zero_vec(g.dim)
    rows = [r for b in sorted({b for _, b in table})
            for r in zip(*[table.get((a, b), z) for a in range(u.dim)])]
    return Subspace(g.dim, [lin_comb(c, u.basis, g.dim) for c in Matrix(rows).kernel()])


def _brackets(g, u: Subspace, v: Subspace):
    """{(a, b): [u_a, v_b]} over the basis vectors of u and v, one
    bilinear_table over their splits.  For v the same subspace as u the
    table is alternating and only the pairs a < b are asked for."""
    us = [_nonzeros(a) for a in u.basis]
    if v is u:
        return linalg.bilinear_table(g.split(), us, us, combinations(range(len(us)), 2))
    vs = [_nonzeros(b) for b in v.basis]
    return linalg.bilinear_table(g.split(), us, vs, product(range(len(us)), range(len(vs))))


def bracket_span(g, u: Subspace, v: Subspace) -> Subspace:
    """Span of the nonzero brackets [a, b] of the two bases, from _brackets."""
    return Subspace(g.dim, [w for w in _brackets(g, u, v).values() if not is_zero_vec(w)])


class SeriesReport(NamedTuple):
    derived: tuple
    lower_central: tuple
    is_solvable: bool
    is_2step_solvable: bool
    is_nilpotent: bool
    nilpotency_class: Optional[int]


def derived_and_central_series(g) -> SeriesReport:
    """Both series, computed on first use and kept on the algebra."""
    if g._series is None:
        g._series = _series(g)
    return g._series


def _series(g) -> SeriesReport:
    whole = Subspace.whole(g.dim)
    derived = [whole]
    while True:
        nxt = bracket_span(g, derived[-1], derived[-1])
        if nxt == derived[-1]:
            break
        derived.append(nxt)
        if nxt.is_zero():
            break
    lower = [whole]
    while True:
        nxt = bracket_span(g, whole, lower[-1])
        if nxt == lower[-1]:
            break
        lower.append(nxt)
        if nxt.is_zero():
            break
    is_solvable = derived[-1].is_zero()
    is_nilpotent = lower[-1].is_zero()
    # derived[0] is the whole algebra, so index k holds the k-th derived ideal
    is_2step = is_solvable and len(derived) <= 3 and (
        len(derived) < 3 or derived[2].is_zero())
    nilclass = len(lower) - 1 if is_nilpotent else None
    return SeriesReport(tuple(derived), tuple(lower), is_solvable, is_2step,
                        is_nilpotent, nilclass)


def is_unimodular(g) -> bool:
    """tr ad_{e_i} = sum_k c[i][k][k] vanishes for every i."""
    return all(sum(row[k][k] for k in range(g.dim)) == 0 for row in g.c)


class SubspaceRole(NamedTuple):
    is_subalgebra: bool
    is_ideal: bool
    is_abelian_subspace: bool


def classify_subspace(g, u: Subspace) -> SubspaceRole:
    self_brackets = bracket_span(g, u, u)
    full_brackets = bracket_span(g, Subspace.whole(g.dim), u)
    return SubspaceRole(
        is_subalgebra=u.contains(self_brackets),
        is_ideal=u.contains(full_brackets),
        is_abelian_subspace=self_brackets.is_zero(),
    )


def bilinear_table(tensor, a: Matrix, b: Matrix, pairs):
    """{(i, j): tensor(A e_i, B e_j)} for exactly the index pairs asked for
    (linalg.bilinear_table).

    tensor is a LieAlgebra, whose bracket and kept split are used, or any
    rank-3 tensor t with t[p][q] the vector value on (e_p, e_q), such as a
    torsion.
    """
    split = tensor.split() if isinstance(tensor, LieAlgebra) else tensor_split(tensor)
    return linalg.bilinear_table(split, a.split(), b.split(), pairs)


def pushforward(g, p: Matrix) -> LieAlgebra:
    """Transport the bracket by P: new(x,y) = P [P^-1 x, P^-1 y], on the
    pairs i < j; the new bracket is antisymmetric by construction."""
    if not p.is_square() or p.nrows != g.dim:
        raise DimensionMismatch("pushforward needs a square matrix of size dim")
    n, gs, ps, qs = g.dim, g.split(), p.split(), p.inverse().split()
    out = {}
    for i, j in combinations(range(n), 2):
        d, nz = linalg._bilinear(gs, qs[i], qs[j], n, keep_split=True)
        if nz:
            out[i, j] = linalg._combine(d, [(c, ps[t]) for t, c in nz], n, keep_split=True)
    return LieAlgebra._of_split(n, out, g.basis_names)


def is_homomorphism(phi: Matrix, g1, g2) -> bool:
    """phi[x,y] = [phi x, phi y] on the basis pairs i < j."""
    if phi.ncols != g1.dim or phi.nrows != g2.dim:
        raise DimensionMismatch("map shape does not match the two algebras")
    table = bilinear_table(g2, phi, phi, combinations(range(g1.dim), 2))
    return all(phi.apply(g1.c[i][j]) == w for (i, j), w in table.items())


def is_isomorphism(phi: Matrix, g1, g2) -> bool:
    if g1.dim != g2.dim:
        return False
    try:
        phi.inverse()
    except (SingularMatrix, DimensionMismatch):
        return False
    return is_homomorphism(phi, g1, g2)
