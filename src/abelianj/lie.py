"""Lie algebras as dense structure-constant tensors over Q.

c[i][j] is the coordinate vector of [e_i, e_j]; only i < j is taken as input
and the rest is filled by negation, so antisymmetry holds by construction.
Jacobi is NOT enforced at construction; check_jacobi reports the first
violating triple, since several callers deliberately build non-Lie tensors.

An algebra is its canonical bracket splits (see linalg), and c builds
Fractions from them on each read.  The structure checks are contractions
over those splits, none for a zero bracket.  Every bracket table, and the
table of g(P^-1 e_i, P^-1 e_j) that pushforward transports, is one
linalg.bilinear_table over the pairs it needs, kept as splits: a
self-bracket table (_brackets of u with u) asks only for the pairs i < j of
the alternating bracket.  is_isomorphism transports the source by the map
(pushforward), so its cost follows the source's brackets, not the target's.
check_jacobi is one linalg._first_nonzero_residual: a triple whose three
brackets are zero costs nothing, the others are packed zero tests, and only
the witness is contracted.  center and center_of_subalgebra are one
centralizer kernel (_annihilator), by successive kernels: each bracket
column cuts the kept solution basis by one small kernel, or is a zero test;
center_of_subalgebra's one self-bracket table also decides its closure
precondition.  One memo, _kept, decides each fact of an unchanging object
once and keeps it there: g', the center and both series (from the kept g')
of an algebra, the abelian test of each J on it, the axioms and nilradical
of a product algebra, the Kahler test and cyclic identity of a Hermitian
triple.
"""
from __future__ import annotations

from functools import update_wrapper
from itertools import combinations, combinations_with_replacement, product
from math import lcm
from typing import NamedTuple, Optional

from . import linalg
from .linalg import (
    DimensionMismatch, Matrix, SingularMatrix, Subspace, _combine, _combine_nonzero, _dense,
    _kernel, _Tensor, _negated, _tensor_dense, _trace, _value_split, bilinear, bilinear_table,
)


class PreconditionError(ValueError):
    """A documented operation precondition does not hold."""


class JacobiWitness(NamedTuple):
    triple: tuple
    residual: tuple


class _PairTable(_Tensor):
    """A tensor given on the pairs i < j, the pairs j > i filled by
    negation, or on i <= j, filled by symmetry when _symmetric is set; its
    basis vectors are named.  Its facts are kept in _facts (_kept)."""
    __slots__ = ("basis_names", "_facts")
    _symmetric = False

    @classmethod
    def _of_split(cls, dim, upper, basis_names=None):
        """The table from {(i, j): canonical split of t[i][j]} on the given
        pairs, the missing pairs zero."""
        t = object.__new__(cls)
        t._set(dim, upper, basis_names)
        return t

    def _set(self, dim, upper, basis_names):
        self.dim = dim
        self._split = [[(1, [])] * dim for _ in range(dim)]
        for (i, j), s in upper.items():
            self._split[i][j] = s
            self._split[j][i] = s if self._symmetric else _negated(s)
        self.basis_names = (tuple(basis_names) if basis_names
                            else tuple("e%d" % (i + 1) for i in range(dim)))
        if len(self.basis_names) != dim:
            raise DimensionMismatch("basis_names length != dim")
        self._facts = {}


class LieAlgebra(_PairTable):
    """Stored as the canonical splits of its brackets c[i][j]; c builds
    Fractions from them on each read.  g', the center and the series are
    computed once and kept (_kept)."""
    __slots__ = ()

    def __init__(self, dim, brackets=None, basis_names=None):
        """brackets: {(i,j): value} for i<j; value is a dense vector or {k: scalar}."""
        brackets = brackets or {}
        for i, j in brackets:
            if not (0 <= i < j < dim):
                raise DimensionMismatch("bracket pair (%d,%d) must satisfy 0 <= i < j < dim" % (i, j))
        self._set(dim, {ij: _value_split(v, dim) for ij, v in brackets.items()}, basis_names)

    @classmethod
    def abelian(cls, dim, basis_names=None):
        return cls(dim, {}, basis_names)

    @property
    def c(self):
        """The brackets as Fractions, built from the splits on each read."""
        return _tensor_dense(self._split)

    def bracket(self, x, y):
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("bracket arguments must have dimension %d" % self.dim)
        return bilinear(self._split, x, y)


def _kept(build):
    """build(x, *args) as a fact of x, an algebra or a Hermitian triple,
    which never changes: computed on the first call and kept in x._facts
    under (build,) + args."""
    def fact(x, *args):
        key, facts = (build,) + args, x._facts
        if key not in facts:
            facts[key] = build(x, *args)
        return facts[key]
    return update_wrapper(fact, build)


def check_jacobi(g) -> Optional[JacobiWitness]:
    """None on pass, else the first lexicographic violating triple i<j<k,
    from one linalg._first_nonzero_residual over the triples with a nonzero
    bracket among their three: the others have a zero residual and are not
    read."""
    n, s = g.dim, g.split()
    triples = [(i, j, k) for i, j, k in combinations(range(n), 3)
               if s[j][k][1] or s[i][j][1] or s[i][k][1]]
    hit = linalg._first_nonzero_residual([s], [_jacobi_parts], triples, n)
    return hit and JacobiWitness(hit[0], _dense(hit[2], n))


def _jacobi_parts(s, i, j, k):
    # [e_i, [e_j, e_k]] + [e_k, [e_i, e_j]] - [e_j, [e_i, e_k]]
    return [(1, s[j][k], s[i]), (1, s[i][j], s[k]), (-1, s[i][k], s[j])]


@_kept
def commutator_ideal(g) -> Subspace:
    """g' = [g, g], computed once and kept on the algebra."""
    s = g.split()
    return Subspace._spanned(g.dim, [s[i][j] for i, j in combinations(range(g.dim), 2)])


@_kept
def center(g) -> Subspace:
    """{x : [x, e_j] = 0 for all j}, computed once and kept on the algebra."""
    s = g.split()
    return _annihilator(g, Subspace.whole(g.dim),
                        {(i, j): s[i][j] for i in range(g.dim) for j in range(g.dim)
                         if s[i][j][1]})


def center_of_subalgebra(g, u: Subspace) -> Subspace:
    """The centralizer of u in u, from one self-bracket table: its pairs
    a < b decide the closure precondition, and with [u_b, u_a] = -[u_a, u_b]
    added it is the annihilator's table."""
    table = {ab: w for ab, w in _brackets(g, u, u).items() if w[1]}
    if not all(u._coords(w) is not None for w in table.values()):
        raise PreconditionError("subspace is not closed under the bracket")
    table.update([((b, a), _negated(w)) for (a, b), w in table.items()])
    return _annihilator(g, u, table)


def _annihilator(g, u: Subspace, table):
    """The one centralizer kernel: {sum_a x_a u_a : sum_a x_a table[a, b] = 0
    for every b}, where table maps (a, b) to the split of a nonzero bracket
    of the basis vector u_a and a missing pair is a zero bracket.  u itself
    when the table is empty.

    Successive kernels: k, from the identity on u's m coordinates, holds the
    coordinate splits of a basis of the solutions of the b read so far.  For
    each b the images sum_a x_a table[a, b] of k are contracted; unless all
    are zero, k becomes k times the kernel of their rows over one lcm.  No
    kept row is eliminated again; the loop stops when k is empty."""
    if not table:
        return u
    m, n = u.dim, g.dim
    k = [(1, [(a, 1)]) for a in range(m)]
    for b in sorted({b for _, b in table}):
        images = [_combine_nonzero(d, [(c, table.get((a, b), (1, []))) for a, c in nz], n)
                  for d, nz in k]
        big, rows = lcm(*[d for d, _ in images]), {}
        for j, (d, nz) in enumerate(images):
            for t, a in nz:
                rows.setdefault(t, [0] * len(k))[j] = a * (big // d)
        if rows:
            k = [_combine(d, [(c, k[j]) for j, c in nz], m)
                 for d, nz in _kernel(list(rows.values()), len(k))]
            if not k:
                break
    basis = Matrix._of_split(u.split(), n)
    return Subspace._spanned(n, [basis._apply_split(c) for c in k])


def _brackets(g, u: Subspace, v: Subspace):
    """{(a, b): split of [u_a, v_b]} over the basis vectors of u and v, one
    bilinear_table over their splits.  For v the same subspace as u the
    table is alternating and only the pairs a < b are asked for."""
    us = u.split()
    if v is u:
        return bilinear_table(g.split(), us, us, combinations(range(len(us)), 2))
    vs = v.split()
    return bilinear_table(g.split(), us, vs, product(range(len(us)), range(len(vs))))


def bracket_span(g, u: Subspace, v: Subspace) -> Subspace:
    """Span of the brackets [a, b] of the two bases, from _brackets."""
    return Subspace._spanned(g.dim, list(_brackets(g, u, v).values()))


class SeriesReport(NamedTuple):
    derived: tuple
    lower_central: tuple
    is_solvable: bool
    is_2step_solvable: bool
    is_nilpotent: bool
    nilpotency_class: Optional[int]


@_kept
def derived_and_central_series(g) -> SeriesReport:
    """Both series, computed once and kept on the algebra."""
    whole, gp = Subspace.whole(g.dim), commutator_ideal(g)

    def chain(step):
        # whole, g', step(g'), ... until a term repeats or is zero; g' = g
        # (a perfect algebra, or dim 0) ends the chain at once
        out, nxt = [whole], gp
        while nxt != out[-1]:
            out.append(nxt)
            if nxt.is_zero():
                break
            nxt = step(nxt)
        return tuple(out)

    derived = chain(lambda u: bracket_span(g, u, u))
    lower = chain(lambda u: bracket_span(g, whole, u))
    is_solvable = derived[-1].is_zero()
    is_nilpotent = lower[-1].is_zero()
    # derived[0] is the whole algebra, so index k holds the k-th derived ideal
    is_2step = is_solvable and len(derived) <= 3     # the chain ends at zero
    nilclass = len(lower) - 1 if is_nilpotent else None
    return SeriesReport(derived, lower, is_solvable, is_2step, is_nilpotent, nilclass)


def is_unimodular(g) -> bool:
    """tr ad_{e_i} = sum_k c[i][k][k] vanishes for every i; the brackets
    [e_i, e_k] are the columns of ad_{e_i}."""
    return all(_trace(row)[0] == 0 for row in g.split())


def pushforward(g, p: Matrix) -> _PairTable:
    """Transport the table of g (a LieAlgebra or any _PairTable) by P:
    new(x,y) = P g(P^-1 x, P^-1 y), on the pairs i < j, or i <= j when the
    table is symmetric; the rest is filled as the table's type fills it."""
    if not p.is_square() or p.nrows != g.dim:
        raise DimensionMismatch("pushforward needs a square matrix of size dim")
    n, gs, qs = g.dim, g.split(), p.inverse().split()
    pairs = (combinations_with_replacement if g._symmetric else combinations)(range(n), 2)
    out = {ij: p._apply_split(w) for ij, w in bilinear_table(gs, qs, qs, pairs).items() if w[1]}
    return type(g)._of_split(n, out, g.basis_names)


def is_isomorphism(phi: Matrix, g1, g2) -> bool:
    """phi invertible and g1 transported by phi equal to g2: for invertible
    phi this is phi[x, y] = [phi x, phi y], at the cost of g1's brackets."""
    if g1.dim != g2.dim:
        return False
    try:
        phi.inverse()
    except (SingularMatrix, DimensionMismatch):
        return False
    return pushforward(g1, phi) == g2
