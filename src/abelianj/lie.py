"""Lie algebras as dense structure-constant tensors over Q.

c[i][j] is the coordinate vector of [e_i, e_j]; antisymmetry is enforced at
construction (only i < j is taken as input, the rest is reflected).  Jacobi
is NOT enforced at construction; check_jacobi reports the first violating
triple, since several callers deliberately build non-Lie tensors to test it.
"""
from __future__ import annotations

from typing import NamedTuple, Optional

from . import linalg
from .linalg import (
    DimensionMismatch, Matrix, Subspace, _as_vector, basis_vec, bilinear,
    contract, contract_splits, is_zero_vec, left_map, lin_comb, rat,
    tensor_split, vec, vec_scale, vec_sub, zero_vec,
)


class PreconditionError(ValueError):
    """A documented operation precondition does not hold."""


class JacobiWitness(NamedTuple):
    triple: tuple
    residual: tuple


class HomWitness(NamedTuple):
    pair: tuple
    residual: tuple


class LieAlgebra:
    __slots__ = ("dim", "c", "basis_names", "_split")

    def __init__(self, dim, brackets=None, basis_names=None):
        """brackets: {(i,j): value} for i<j; value is a dense vector or {k: scalar}."""
        self.dim = dim
        self._split = None
        table = [[zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
        for (i, j), value in (brackets or {}).items():
            if not (0 <= i < j < dim):
                raise DimensionMismatch("bracket pair (%d,%d) must satisfy 0 <= i < j < dim" % (i, j))
            v = _as_vector(value, dim)
            table[i][j] = v
            table[j][i] = vec_scale(rat(-1), v)
        self.c = tuple(tuple(row) for row in table)
        self.basis_names = tuple(basis_names) if basis_names else tuple(
            "e%d" % (i + 1) for i in range(dim))
        if len(self.basis_names) != dim:
            raise DimensionMismatch("basis_names length != dim")

    @classmethod
    def from_tensor(cls, tensor, basis_names=None):
        """Build from a full c[i][j] table, validating antisymmetry."""
        dim = len(tensor)
        brackets = {}
        for i in range(dim):
            if not is_zero_vec(tensor[i][i]):
                raise DimensionMismatch("[e%d,e%d] != 0" % (i, i))
            for j in range(i + 1, dim):
                if vec(tensor[j][i]) != vec_scale(rat(-1), vec(tensor[i][j])):
                    raise DimensionMismatch("antisymmetry fails at (%d,%d)" % (i, j))
                if not is_zero_vec(tensor[i][j]):
                    brackets[(i, j)] = tensor[i][j]
        return cls(dim, brackets, basis_names)

    @classmethod
    def abelian(cls, dim, basis_names=None):
        return cls(dim, {}, basis_names)

    def split(self):
        """Split of every bracket c[i][j], computed on first use."""
        if self._split is None:
            self._split = tensor_split(self.c)
        return self._split

    def bracket(self, x, y):
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("bracket arguments must have dimension %d" % self.dim)
        return bilinear(self.split(), x, y)

    def bracket_with_basis(self, i, y):
        """[e_i, y] in O(dim^2)."""
        return contract(y, self.split()[i], self.dim)

    def ad(self, x):
        """Matrix of y -> [x, y]."""
        if len(x) != self.dim:
            raise DimensionMismatch("ad argument must have dimension %d" % self.dim)
        return left_map(self.split(), x)

    def __eq__(self, other):
        return isinstance(other, LieAlgebra) and self.dim == other.dim and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __repr__(self):
        return "LieAlgebra(dim=%d)" % self.dim


def check_jacobi(g) -> Optional[JacobiWitness]:
    """None on pass, else the first lexicographic violating triple i<j<k."""
    n = g.dim
    s = g.split()
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                # [e_i, [e_j, e_k]] + [e_k, [e_i, e_j]] - [e_j, [e_i, e_k]]
                resid = contract_splits(
                    [(1, s[j][k], s[i]), (1, s[i][j], s[k]), (-1, s[i][k], s[j])], n)
                if not is_zero_vec(resid):
                    return JacobiWitness((i, j, k), resid)
    return None


def commutator_ideal(g) -> Subspace:
    vecs = [g.c[i][j] for i in range(g.dim) for j in range(i + 1, g.dim)]
    return Subspace(g.dim, vecs)


def center(g) -> Subspace:
    """{x : [x, e_j] = 0 for all j}, as a joint kernel."""
    rows = []
    for j in range(g.dim):
        for k in range(g.dim):
            rows.append(tuple(g.c[i][j][k] for i in range(g.dim)))
    return Subspace(g.dim, Matrix(rows).kernel()) if rows else Subspace.whole(g.dim)


def center_of_subalgebra(g, u: Subspace) -> Subspace:
    if not classify_subspace(g, u).is_subalgebra:
        raise PreconditionError("subspace is not closed under the bracket")
    if u.is_zero():
        return u
    m = len(u.basis)
    rows = []
    tables = [[g.bracket(u.basis[a], u.basis[b]) for b in range(m)] for a in range(m)]
    for b in range(m):
        for k in range(g.dim):
            rows.append(tuple(tables[a][b][k] for a in range(m)))
    coeff_kernel = Matrix(rows).kernel()
    return Subspace(g.dim, [lin_comb(coeffs, u.basis, g.dim) for coeffs in coeff_kernel])


def bracket_span(g, u: Subspace, v: Subspace) -> Subspace:
    vecs = [g.bracket(a, b) for a in u.basis for b in v.basis]
    return Subspace(g.dim, vecs)


def centralizer(g, u: Subspace) -> Subspace:
    """{x : [x, u] = 0 for all u in the subspace}."""
    if u.is_zero():
        return Subspace.whole(g.dim)
    rows = []
    for b in u.basis:
        adb = g.ad(b)
        for k in range(g.dim):
            # [x, b]_k = -[b, x]_k
            rows.append(adb.rows[k])
    return Subspace(g.dim, Matrix(rows).kernel())


class SeriesReport(NamedTuple):
    derived: tuple
    lower_central: tuple
    is_solvable: bool
    is_2step_solvable: bool
    is_nilpotent: bool
    nilpotency_class: Optional[int]


def derived_and_central_series(g) -> SeriesReport:
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
    return all(g.ad(basis_vec(g.dim, i)).trace() == 0 for i in range(g.dim))


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


def bilinear_table(tensor, a: Matrix, b: Matrix):
    """t[i][j] = tensor(A e_i, B e_j) by bilinearity, contracted in O(dim^4).

    tensor is a LieAlgebra, whose bracket and kept split are used, or any
    rank-3 tensor t with t[p][q] the vector value on (e_p, e_q), such as a
    torsion.
    """
    split = tensor.split() if isinstance(tensor, LieAlgebra) else tensor_split(tensor)
    return linalg.bilinear_table(split, a, b)


def pushforward(g, p: Matrix) -> LieAlgebra:
    """Transport the bracket by P: new(x,y) = P [P^-1 x, P^-1 y]."""
    if not p.is_square() or p.nrows != g.dim:
        raise DimensionMismatch("pushforward needs a square matrix of size dim")
    pinv = p.inverse()
    raw = bilinear_table(g, pinv, pinv)
    tensor = [[p.apply(raw[i][j]) for j in range(g.dim)] for i in range(g.dim)]
    return LieAlgebra.from_tensor(tensor, g.basis_names)


def direct_sum(g1, g2) -> LieAlgebra:
    n1, n2 = g1.dim, g2.dim
    brackets = {}
    for i in range(n1):
        for j in range(i + 1, n1):
            v = g1.c[i][j]
            if not is_zero_vec(v):
                brackets[(i, j)] = tuple(v) + zero_vec(n2)
    for i in range(n2):
        for j in range(i + 1, n2):
            v = g2.c[i][j]
            if not is_zero_vec(v):
                brackets[(n1 + i, n1 + j)] = zero_vec(n1) + tuple(v)
    names = tuple(g1.basis_names) + tuple(g2.basis_names)
    if len(set(names)) != len(names):
        names = None
    return LieAlgebra(n1 + n2, brackets, names)


def is_homomorphism(phi: Matrix, g1, g2, witness=False):
    """phi[x,y] = [phi x, phi y] on basis pairs; optionally return a witness."""
    if phi.ncols != g1.dim or phi.nrows != g2.dim:
        raise DimensionMismatch("map shape does not match the two algebras")
    for i in range(g1.dim):
        for j in range(i + 1, g1.dim):
            lhs = phi.apply(g1.c[i][j])
            rhs = g2.bracket(phi.column(i), phi.column(j))
            if lhs != rhs:
                return HomWitness((i, j), vec_sub(lhs, rhs)) if witness else False
    return None if witness else True


def is_isomorphism(phi: Matrix, g1, g2) -> bool:
    if g1.dim != g2.dim:
        return False
    try:
        phi.inverse()
    except Exception:
        return False
    return is_homomorphism(phi, g1, g2)
