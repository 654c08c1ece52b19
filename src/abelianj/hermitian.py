"""Inner products and connections on Lie algebras with complex structures:
Kahler forms, the Levi-Civita connection via the Koszul formula, canonical
complex connections, and torsion/curvature flags.

Every flatness, compatibility, and type check here is an exact zero test on
rational tensors; there are no tolerances anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import NamedTuple

from .complex_structures import ComplexStructure, is_abelian_cs
from .lie import (
    LieAlgebra, PreconditionError, bilinear_table, commutator_ideal,
    derived_and_central_series,
)
from .linalg import (
    DimensionMismatch, Matrix, bilinear, lin_comb, norm_sq, rat, tensor_split,
    vec, vec_dot, vec_sub, is_zero_vec, zero_vec,
)


class NotPositiveDefiniteError(ValueError):
    pass


class InnerProduct:
    """Symmetric Gram matrix, certified positive definite by exact leading
    principal minors."""
    __slots__ = ("gram", "dim")

    def __init__(self, gram):
        if not isinstance(gram, Matrix):
            gram = Matrix(gram)
        if gram.nrows != gram.ncols:
            raise DimensionMismatch("Gram matrix must be square")
        if gram != gram.transpose():
            raise NotPositiveDefiniteError("Gram matrix must be symmetric")
        for k, minor in enumerate(gram.leading_minors(), 1):
            if minor <= 0:
                raise NotPositiveDefiniteError(
                    "leading principal minor %d is not positive" % k)
        self.gram = gram
        self.dim = gram.nrows

    @classmethod
    def identity(cls, n):
        return cls(Matrix.identity(n))

    @classmethod
    def diagonal(cls, entries):
        entries = vec(entries)
        n = len(entries)
        return cls(Matrix([
            tuple(entries[r] if r == c else rat(0) for c in range(n))
            for r in range(n)]))

    def eval(self, x, y):
        return vec_dot(x, self.gram.apply(y))

    def __eq__(self, other):
        return isinstance(other, InnerProduct) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return "InnerProduct(dim=%d)" % self.dim


class Connection:
    """Rank-3 coefficient tensor: gamma[i][j] is the basis vector expansion
    of the derivative of e_j along e_i."""
    __slots__ = ("dim", "gamma", "_split")

    def __init__(self, gamma):
        self.dim = len(gamma)
        self._split = None
        self.gamma = tuple(tuple(vec(v) for v in row) for row in gamma)
        for row in self.gamma:
            if len(row) != self.dim or any(len(v) != self.dim for v in row):
                raise DimensionMismatch("connection tensor must be cubic")

    @classmethod
    def zero(cls, n):
        z = zero_vec(n)
        return cls(tuple(tuple(z for _ in range(n)) for _ in range(n)))

    def operator(self, i):
        """Matrix of y -> derivative of y along e_i."""
        return Matrix.from_columns(self.gamma[i])

    def operators(self):
        return [self.operator(i) for i in range(self.dim)]

    def directional(self, x):
        """Matrix of sum_i x_i D_{e_i}: column k combines the gamma[i][k]."""
        n = self.dim
        return Matrix.from_columns(
            [lin_comb(x, [row[k] for row in self.gamma], n) for k in range(n)])

    def split(self):
        """Split of every slice gamma[i][j], computed on first use."""
        if self._split is None:
            self._split = tensor_split(self.gamma)
        return self._split

    def apply(self, x, y):
        return bilinear(self.split(), x, y)

    def is_zero(self):
        return all(is_zero_vec(v) for row in self.gamma for v in row)

    def __eq__(self, other):
        return isinstance(other, Connection) and self.gamma == other.gamma

    def __hash__(self):
        return hash(self.gamma)

    def __repr__(self):
        return "Connection(dim=%d)" % self.dim


def is_hermitian(g, j: ComplexStructure, metric: InnerProduct) -> bool:
    """Exact matrix identity: J-transport preserves the Gram matrix."""
    if not (g.dim == j.dim == metric.dim):
        raise DimensionMismatch("algebra, J and metric dimensions differ")
    jm = j.matrix
    return (jm.transpose() @ metric.gram) @ jm == metric.gram


@dataclass(frozen=True)
class HermitianTriple:
    algebra: LieAlgebra
    j: ComplexStructure
    metric: InnerProduct

    def __post_init__(self):
        if not is_hermitian(self.algebra, self.j, self.metric):
            raise PreconditionError("metric is not J-compatible")


def kahler_form(t: HermitianTriple, x, y):
    return t.metric.eval(t.j.apply(x), y)


def kahler_form_matrix(t: HermitianTriple) -> Matrix:
    return t.j.matrix.transpose() @ t.metric.gram


def d_omega(t: HermitianTriple, x, y, z):
    g = t.algebra
    return (-kahler_form(t, g.bracket(x, y), z)
            - kahler_form(t, g.bracket(y, z), x)
            - kahler_form(t, g.bracket(z, x), y))


def _cyclic_sums_vanish(table, triples) -> bool:
    """table[i][j][k] + table[j][k][i] + table[k][i][j] == 0 on every triple."""
    return all(table[i][j][k] + table[j][k][i] + table[k][i][j] == 0
               for i, j, k in triples)


def is_kahler(t: HermitianTriple) -> bool:
    g = t.algebra
    n = g.dim
    wt = kahler_form_matrix(t).transpose()
    # wv[i][j][k] = form applied to ([e_i, e_j], e_k)
    wv = [[wt.apply(g.c[i][j]) for j in range(n)] for i in range(n)]
    return _cyclic_sums_vanish(wv, combinations(range(n), 3))


def cyclic_metric_identity(t: HermitianTriple) -> bool:
    """Vanishing of the cyclic sum g([x,y],z) + g([y,z],x) + g([z,x],y).

    For abelian J this is equivalent to the Kahler condition; the
    precondition is enforced so the equivalence is meaningful.
    """
    g = t.algebra
    if not is_abelian_cs(g, t.j):
        raise PreconditionError("identity requires an abelian complex structure")
    n = g.dim
    gm = t.metric.gram
    gc = [[gm.apply(g.c[i][j]) for j in range(n)] for i in range(n)]
    return _cyclic_sums_vanish(gc, combinations(range(n), 3))


def twisted_cyclic_identity(t: HermitianTriple) -> bool:
    """Vanishing of g([x,Jy],z) + g([y,Jz],x) + g([z,Jx],y) on basis triples.

    Cyclic-invariant but not alternating, so all ordered triples are tested.
    """
    g = t.algebra
    n = g.dim
    gm = t.metric.gram
    tj = bilinear_table(g, Matrix.identity(n), t.j.matrix)
    gtj = [[gm.apply(tj[i][j]) for j in range(n)] for i in range(n)]
    return _cyclic_sums_vanish(gtj, product(range(n), repeat=3))


def levi_civita(g, metric=None) -> Connection:
    """Unique torsion-free metric connection, solved from the Koszul
    pairing 2 g(D_x y, z) = g([x,y],z) - g([y,z],x) + g([z,x],y)."""
    if metric is None:
        g, metric = g.algebra, g.metric
    n = g.dim
    gm = metric.gram
    ginv = gm.inverse()
    half = rat(1, 2)
    gc = [[gm.apply(g.c[i][j]) for j in range(n)] for i in range(n)]
    gamma = []
    for i in range(n):
        row = []
        for j in range(n):
            rhs = tuple(half * (gc[i][j][k] - gc[j][k][i] + gc[k][i][j])
                        for k in range(n))
            row.append(ginv.apply(rhs))
        gamma.append(tuple(row))
    conn = Connection(gamma)
    assert is_torsion_free(g, conn)
    assert _is_metric(conn, metric)
    return conn


def torsion(g, conn: Connection):
    n = g.dim
    return tuple(tuple(
        vec_sub(vec_sub(conn.gamma[i][j], conn.gamma[j][i]), g.c[i][j])
        for j in range(n)) for i in range(n))


def is_torsion_free(g, conn: Connection) -> bool:
    t = torsion(g, conn)
    return all(is_zero_vec(t[i][j])
               for i in range(g.dim) for j in range(i + 1, g.dim))


def curvature(g, conn: Connection):
    """Antisymmetric grid of operators r[i][j] = commutator of the two
    directional derivatives minus the derivative along the bracket."""
    n = g.dim
    ops = conn.operators()
    zero = Matrix.zeros(n, n)
    grid = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            r = (ops[i] @ ops[j]) - (ops[j] @ ops[i])
            for p, cp in enumerate(g.c[i][j]):
                if cp != 0:
                    r = r - ops[p].scale(cp)
            grid[i][j] = r
            grid[j][i] = -r
    return tuple(tuple(row) for row in grid)


def is_flat(g, conn: Connection) -> bool:
    grid = curvature(g, conn)
    return all(grid[i][j].is_zero()
               for i in range(g.dim) for j in range(i + 1, g.dim))


def curvature_norm_sq(grid):
    """Sum of squared entries over the whole grid; zero iff flat."""
    return norm_sq([e for row in grid for block in row for brow in block.rows for e in brow])


def apply_curvature(grid, x, y):
    """Operator R(x, y) for arbitrary vectors, from the basis grid."""
    n = len(grid)
    pairs = list(combinations(range(n), 2))
    coefs = [x[i] * y[j] - x[j] * y[i] for i, j in pairs]
    return Matrix.from_columns(
        [lin_comb(coefs, [grid[i][j].column(k) for i, j in pairs], n)
         for k in range(n)])


class ConnectionFlags(NamedTuple):
    is_metric: bool
    is_complex: bool
    torsion_type_11: bool


def _is_metric(conn: Connection, metric: InnerProduct) -> bool:
    gm = metric.gram
    for i in range(conn.dim):
        op = conn.operator(i)
        if not ((op.transpose() @ gm) + (gm @ op)).is_zero():
            return False
    return True


def _is_complex(conn: Connection, j: ComplexStructure) -> bool:
    jm = j.matrix
    return all((conn.operator(i) @ jm) == (jm @ conn.operator(i))
               for i in range(conn.dim))


def _torsion_type_11(g, j: ComplexStructure, conn: Connection) -> bool:
    t = torsion(g, conn)
    return bilinear_table(t, j.matrix, j.matrix) == t


def connection_flags(g, j, metric, conn) -> ConnectionFlags:
    return ConnectionFlags(
        is_metric=_is_metric(conn, metric),
        is_complex=_is_complex(conn, j),
        torsion_type_11=_torsion_type_11(g, j, conn),
    )


def complex_projection(g, j: ComplexStructure, conn: Connection) -> Connection:
    """Average a connection with its J-conjugate along each direction.

    The output commutes with J; when the input is torsion-free and J is
    integrable its torsion is of type (1,1).
    """
    jm = j.matrix
    half = rat(1, 2)
    gamma = []
    for i in range(conn.dim):
        op = conn.operator(i)
        bar = (op - (jm @ op @ jm)).scale(half)
        gamma.append(tuple(bar.column(c) for c in range(conn.dim)))
    return Connection(gamma)


def first_canonical(t: HermitianTriple) -> Connection:
    """Complex projection of the Levi-Civita connection: metric and complex,
    with torsion of type (1,1) when J is integrable.  For abelian J it equals
    first_canonical_pairing(t)."""
    return complex_projection(t.algebra, t.j, levi_civita(t.algebra, t.metric))


def first_canonical_pairing(t: HermitianTriple) -> Connection:
    """The canonical complex metric connection for abelian J, from the
    expanded pairing

        4 g(D_x y, z) = g([x,y],z) + g([z,x],y) + g([x,Jy],Jz)
                        + g([Jz,x],Jy) - 2 g([y,z],x)

    solved exactly against the Gram matrix."""
    g, j, metric = t.algebra, t.j, t.metric
    if not is_abelian_cs(g, j):
        raise PreconditionError("pairing formula requires an abelian complex structure")
    n = g.dim
    gm = metric.gram
    ginv = gm.inverse()
    quarter = rat(1, 4)
    ident = Matrix.identity(n)
    jg = j.matrix.transpose() @ gm          # row k of (jg v): g(v, J e_k)
    gc = [[gm.apply(g.c[i][j2]) for j2 in range(n)] for i in range(n)]
    tj = bilinear_table(g, ident, j.matrix)  # [e_i, J e_j]
    jt = bilinear_table(g, j.matrix, ident)  # [J e_i, e_j]
    gtj = [[jg.apply(tj[i][j2]) for j2 in range(n)] for i in range(n)]
    gjt = [[jg.apply(jt[i][j2]) for j2 in range(n)] for i in range(n)]
    gamma = []
    for i in range(n):
        row = []
        for j2 in range(n):
            rhs = tuple(quarter * (gc[i][j2][k] + gc[k][i][j2]
                                   + gtj[i][j2][k] + gjt[k][i][j2]
                                   - 2 * gc[j2][k][i])
                        for k in range(n))
            row.append(ginv.apply(rhs))
        gamma.append(tuple(row))
    return Connection(gamma)


@dataclass(frozen=True)
class FlatMetricReport:
    commuting_family: bool
    vanishes_on_commutator: bool

    @property
    def all_hold(self):
        return self.commuting_family and self.vanishes_on_commutator


def flat_metric_report(g, metric: InnerProduct, conn: Connection) -> FlatMetricReport:
    """For a flat metric connection on a solvable algebra: the directional
    derivative operators commute and kill the commutator ideal."""
    if not derived_and_central_series(g).is_solvable:
        raise PreconditionError("algebra must be solvable")
    if not _is_metric(conn, metric):
        raise PreconditionError("connection must be metric")
    if not is_flat(g, conn):
        raise PreconditionError("connection must be flat")
    ops = conn.operators()
    commuting = all((ops[i] @ ops[j]) == (ops[j] @ ops[i])
                    for i in range(g.dim) for j in range(i + 1, g.dim))
    vanishes = all(conn.directional(v).is_zero()
                   for v in commutator_ideal(g).basis)
    return FlatMetricReport(commuting, vanishes)


def sectional_curvature(g, metric: InnerProduct, x, y):
    """Riemannian sectional curvature of the plane spanned by x, y."""
    x, y = vec(x), vec(y)
    gxx = metric.eval(x, x)
    gyy = metric.eval(y, y)
    gxy = metric.eval(x, y)
    denom = gxx * gyy - gxy * gxy
    if denom == 0:
        raise PreconditionError("plane vectors must be linearly independent")
    grid = curvature(g, levi_civita(g, metric))
    num = metric.eval(apply_curvature(grid, x, y).apply(y), x)
    return num / denom
