"""Inner products and connections on Lie algebras with complex structures:
Kahler forms, the Levi-Civita connection via the Koszul formula, canonical
complex connections, and torsion/curvature flags.

Every flatness, compatibility, and type check here is an exact zero test on
rational tensors; there are no tolerances anywhere.

Curvature, the Koszul solve, torsion, the metric certificate and the
complex projection are contractions over kept splits
(linalg.contract_splits and linalg._combine), each returning a canonical
split that is tested for zero by its numerators.  The curvature norm and
the cyclic sums are integer sums over one common denominator.  Alternating
tensors are contracted once per unordered pair i < j: torsion, its (1,1)
test through bilinear_table, and the cyclic sums of is_kahler and
cyclic_metric_identity.  The first canonical connection is metric and
complex by proof (connection_flags); only its torsion type is tested.

Curvature, Levi-Civita's metric certificate and the complex projection
follow the nonzero slices, by the sparse-product rule (Gustavson 1978):
each call indexes once the support of every operator D_i, the columns k
with D_i e_k != 0, and contracts a column only where a nonzero can meet a
nonzero (see _curvature_pairs, _is_adjoint and complex_projection).
Levi-Civita lowers the Koszul formula by the metric into one integer
table, filled from G c_ab on the nonzero brackets a < b only
(_lowered_koszul), and solves by G^-1 only the (i, j) at which it is
nonzero; it makes no matrix product.  A torsion entry whose splits are all
zero is skipped without a contraction, and is_flat stops at the first
nonzero curvature column.  A connection is stored as the canonical splits
of its slices and nothing else (see linalg): Connection(gamma) converts
once, levi_civita and complex_projection build the splits directly, and
gamma builds Fractions from them on each read.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from math import lcm
from typing import NamedTuple

from .complex_structures import ComplexStructure, is_abelian_cs
from .lie import LieAlgebra, PreconditionError, _kept
from . import linalg
from .linalg import (
    DimensionMismatch, Matrix, _Tensor, _combine, _combine_nonzero, _entry, _ints, _negated,
    _nonzeros, _tensor_dense, bilinear, certify, contract_splits, lin_comb, vec, vec_dot,
)


class NotPositiveDefiniteError(ValueError):
    pass


class InnerProduct:
    """Symmetric Gram matrix, certified positive definite by exact leading
    principal minors: each has the sign of a pivot of one elimination."""
    __slots__ = ("gram", "dim")

    def __init__(self, gram):
        if not isinstance(gram, Matrix):
            gram = Matrix(gram)
        if gram.nrows != gram.ncols:
            raise DimensionMismatch("Gram matrix must be square")
        if gram != gram.transpose():
            raise NotPositiveDefiniteError("Gram matrix must be symmetric")
        _, (_, _, _, leading) = gram._square_elimination("leading minors")
        for k, minor in enumerate(leading + [0] * (gram.nrows - len(leading)), 1):
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
        return cls(Matrix._of_split([(e.denominator, [(i, e.numerator)] if e else [])
                                     for i, e in enumerate(entries)], len(entries)))

    def eval(self, x, y):
        return vec_dot(x, self.gram.apply(y))

    def __eq__(self, other):
        return isinstance(other, InnerProduct) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return "InnerProduct(dim=%d)" % self.dim


class Connection(_Tensor):
    """Rank-3 coefficient tensor: gamma[i][j] is the basis vector expansion
    of the derivative of e_j along e_i.  Stored as the canonical splits of
    its slices; gamma builds Fractions from them on each read."""
    __slots__ = ()

    def __init__(self, gamma):
        gamma = [[vec(v) for v in row] for row in gamma]
        self.dim = len(gamma)
        if any(len(row) != self.dim or any(len(v) != self.dim for v in row) for row in gamma):
            raise DimensionMismatch("connection tensor must be cubic")
        self._split = [[_nonzeros(v) for v in row] for row in gamma]

    @classmethod
    def _of_split(cls, split):
        """Connection from the canonical splits of its slices; never mutated."""
        conn = object.__new__(cls)
        conn.dim, conn._split = len(split), split
        return conn

    @classmethod
    def zero(cls, n):
        return cls._of_split([[(1, [])] * n for _ in range(n)])

    @property
    def gamma(self):
        """The slices as Fractions, built from the splits on each read."""
        return _tensor_dense(self._split)

    def apply(self, x, y):
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("connection arguments must have dimension %d" % self.dim)
        return bilinear(self._split, x, y)

    def is_zero(self):
        return not any(nz for row in self._split for _, nz in row)


def _is_adjoint(gram: Matrix, cols, sign) -> bool:
    """Whether A* = sign A for the symmetric Gram matrix G, A given by its
    column splits: L = G A must satisfy L^T = sign L, skew for sign -1 and
    symmetric for sign 1.  L has a nonzero column only where A does, one
    contraction each, kept as (den, {index: numerator}); each nonzero
    L[a][k] is tested against L[k][a], so a zero A costs nothing."""
    n, gs = gram.nrows, gram.split()
    lcols = {}
    for k, (d, nz) in enumerate(cols):
        if nz:
            den, col = _combine(d, [(c, gs[q]) for q, c in nz], n)
            lcols[k] = den, dict(col)
    for k, (den, col) in lcols.items():
        for a, x in col.items():
            da, ca = lcols.get(a, (1, {}))
            if x * da != sign * ca.get(k, 0) * den:
                return False
    return True


def is_hermitian(g, j: ComplexStructure, metric: InnerProduct) -> bool:
    """J-transport preserves the Gram matrix: J^T G J = G, which is G J
    skew, as J^-1 = -J and G = G^T hold by construction."""
    if not (g.dim == j.dim == metric.dim):
        raise DimensionMismatch("algebra, J and metric dimensions differ")
    return _is_adjoint(metric.gram, j.matrix.split(), -1)


@dataclass(frozen=True)
class HermitianTriple:
    """An algebra, J and a J-compatible metric; its facts are kept (lie._kept)."""
    algebra: LieAlgebra
    j: ComplexStructure
    metric: InnerProduct
    _facts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


def _cyclic_sums_vanish(w, n, triples) -> bool:
    """w[i, j][k] + w[j, k][i] + w[k, i][j] == 0 on these triples, w mapping
    index pairs to the splits of vectors of Q^n, a missing pair the zero
    vector: one integer sum per triple over the common denominator of w."""
    big = lcm(*[d for d, _ in w.values()])
    v = {ij: _ints([(k, a * (big // d)) for k, a in nz], n) for ij, (d, nz) in w.items()}
    z = [0] * n
    return not any(v.get((i, j), z)[k] + v.get((j, k), z)[i] + v.get((k, i), z)[j]
                   for i, j, k in triples)


def _form_cyclic_sums_vanish(form, g) -> bool:
    """The cyclic sums of w[i, j] = form c_ij on the triples i < j < k.  The
    form is applied once per unordered pair, to the nonzero slices i < j
    only, and w[j, i] is -w[i, j]."""
    s, w = g.split(), {}
    for i, j in combinations(range(g.dim), 2):
        if s[i][j][1]:
            w[i, j] = form._apply_split(s[i][j])
            w[j, i] = _negated(w[i, j])
    return _cyclic_sums_vanish(w, g.dim, combinations(range(g.dim), 3))


@_kept
def is_kahler(t: HermitianTriple) -> bool:
    """The Kahler form is closed: its cyclic sums over brackets vanish."""
    return _form_cyclic_sums_vanish(kahler_form_matrix(t).transpose(), t.algebra)


@_kept
def cyclic_metric_identity(t: HermitianTriple) -> bool:
    """Vanishing of the cyclic sum g([x,y],z) + g([y,z],x) + g([z,x],y).

    For abelian J this is equivalent to the Kahler condition; the
    precondition is enforced so the equivalence is meaningful.
    """
    g = t.algebra
    if not is_abelian_cs(g, t.j):
        raise PreconditionError("identity requires an abelian complex structure")
    return _form_cyclic_sums_vanish(t.metric.gram, g)


def twisted_cyclic_identity(t: HermitianTriple) -> bool:
    """Vanishing of g([x,Jy],z) + g([y,Jz],x) + g([z,Jx],y) on basis triples.

    Cyclic-invariant but not alternating, so all ordered triples are tested,
    with w[i, j] = G [e_i, J e_j] over every ordered pair.
    """
    n, gram = t.algebra.dim, t.metric.gram
    tj = linalg.bilinear_table(t.algebra.split(), Matrix.identity(n).split(),
                               t.j.matrix.split(), product(range(n), repeat=2))
    w = {ij: gram._apply_split(v) for ij, v in tj.items() if v[1]}
    return _cyclic_sums_vanish(w, n, product(range(n), repeat=3))


def _support(splits):
    """The positions of the nonzero splits: for the slices of an operator
    D_i, the columns k with D_i e_k != 0."""
    return {k for k, (_, nz) in enumerate(splits) if nz}


def _lowered_koszul(g, metric):
    """(big, low): the Koszul right-hand sides lowered by the metric, as
    integers over big, keyed by the pairs (i, j) they can be nonzero at,

        low[i, j][k] / big = w_ij[k] - w_jk[i] + w_ki[j],  w_ab = G c_ab.

    w_ab is one contraction per nonzero bracket a < b, put over the lcm big
    of them all; w_ba = -w_ab, so each of its entries makes six signed
    updates of the table."""
    gm, gs = metric.gram, g.split()
    w = {(a, b): gm._apply_split(gs[a][b])
         for a, b in combinations(range(g.dim), 2) if gs[a][b][1]}
    big = lcm(*[d for d, _ in w.values()])
    low = {}
    for (a, b), (d, nz) in w.items():
        f = big // d
        for m, x in nz:
            x *= f
            for i, j, k, s in ((a, b, m, x), (b, a, m, -x), (m, a, b, -x),
                               (m, b, a, x), (b, m, a, x), (a, m, b, -x)):
                row = low.setdefault((i, j), {})
                row[k] = row.get(k, 0) + s
    return big, low


def levi_civita(g, metric: InnerProduct) -> Connection:
    """Unique torsion-free metric connection.  The Koszul pairing
    2 g(D_x y, z) = g([x,y],z) - g([y,z],x) + g([z,x],y) solves to
    D_{e_i} e_j = G^-1 low[i, j] / (2 big) on the table of _lowered_koszul:
    one contraction per (i, j) with a nonzero entry, none elsewhere, and
    no G^-1 for a bracket-free algebra."""
    n = g.dim
    big, low = _lowered_koszul(g, metric)
    split = [[(1, [])] * n for _ in range(n)]
    if low:
        ginv = metric.gram.inverse().split()
        for (i, j), row in low.items():
            terms = [(x, ginv[k]) for k, x in row.items() if x]
            if terms:
                split[i][j] = _combine(2 * big, terms, n)
    conn = Connection._of_split(split)
    certify("Levi-Civita solution has torsion", is_torsion_free(g, conn))
    certify("Levi-Civita solution is not metric", _is_metric(conn, metric))
    return conn


def _torsion(g, conn: Connection):
    """Splits of T(e_i, e_j) = D_{e_i} e_j - D_{e_j} e_i - [e_i, e_j], one
    contraction per pair i < j, none when its three splits are empty;
    T(e_j, e_i) = -T(e_i, e_j) by negation."""
    n, gs, cs = g.dim, g.split(), conn.split()
    t = [[(1, [])] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        v = t[i][j] = _combine_nonzero(1, ((1, cs[i][j]), (-1, cs[j][i]), (-1, gs[i][j])), n)
        t[j][i] = _negated(v)
    return t


def torsion(g, conn: Connection):
    """The torsion tensor as Fractions."""
    return _tensor_dense(_torsion(g, conn))


def is_torsion_free(g, conn: Connection) -> bool:
    return not any(nz for row in _torsion(g, conn) for _, nz in row)


def _curvature_pairs(g, conn: Connection):
    """Yield (i, j, (k, split of R(e_i, e_j) e_k) for the columns k that can
    be nonzero) for i < j, the columns lazily and in ascending k.

    Column k is one contraction of three parts: D_j e_k through D_i, minus
    D_i e_k through D_j, minus the bracket c_ij through the vectors D_p e_k.
    It can be nonzero only for k in supp D_i, supp D_j or supp D_p for a p
    in the support of c_ij, and only those columns are read; a part whose
    operator or coefficients are zero is dropped, and a pair with no such
    column is not yielded: its R(e_i, e_j) is zero."""
    n, gs, cs = g.dim, g.split(), conn.split()
    supp = [_support(row) for row in cs]
    along = [[row[k] for row in cs] for k in range(n)]    # D_p e_k over p

    def column(i, j, k):
        parts = [(s, cs[b][k], cs[a]) for s, a, b in ((1, i, j), (-1, j, i))
                 if supp[a] and k in supp[b]]
        if gs[i][j][1]:
            parts.append((-1, gs[i][j], along[k]))
        return contract_splits(parts, n) if parts else (1, [])

    for i, j in combinations(range(n), 2):
        cols = supp[i] | supp[j]
        if len(cols) < n:
            cols = cols.union(*[supp[p] for p, _ in gs[i][j][1]])
        if cols:
            yield i, j, ((k, column(i, j, k)) for k in sorted(cols))


def curvature(g, conn: Connection):
    """Antisymmetric grid of operators r[i][j] = [D_i, D_j] - D_{[e_i, e_j]},
    each built from the column splits _curvature_pairs yields, its other
    columns zero; the pairs it skips share one zero matrix."""
    n = g.dim
    zero = Matrix.zeros(n, n)
    grid = [[zero] * n for _ in range(n)]
    for i, j, cols in _curvature_pairs(g, conn):
        split = [(1, [])] * n
        for k, col in cols:
            split[k] = col
        r = Matrix._of_split(split, n)
        grid[i][j], grid[j][i] = r, -r
    return tuple(tuple(row) for row in grid)


def is_flat(g, conn: Connection) -> bool:
    """Whether every R(e_i, e_j) vanishes; stops at the first nonzero column."""
    return not any(nz for _, _, cols in _curvature_pairs(g, conn) for _, (_, nz) in cols)


def curvature_norm_sq(g, conn: Connection):
    """Sum of squared entries of every R(e_i, e_j); zero iff flat.  One
    integer sum of squares over the common denominator of the column
    splits of the pairs i < j, doubled, as R(e_j, e_i) = -R(e_i, e_j) and
    R(e_i, e_i) = 0."""
    cols = [c for _, _, cs in _curvature_pairs(g, conn) for _, c in cs if c[1]]
    big = lcm(*[d for d, _ in cols])
    return _entry(2 * sum((a * (big // d)) ** 2 for d, nz in cols for _, a in nz), big * big)


class ConnectionFlags(NamedTuple):
    is_metric: bool
    is_complex: bool
    torsion_type_11: bool


def _is_metric(conn: Connection, metric: InnerProduct) -> bool:
    """Each D_i is skew for the metric (_is_adjoint): Levi-Civita's metric
    certificate."""
    return all(_is_adjoint(metric.gram, row, -1) for row in conn.split())


def _torsion_type_11(g, j: ComplexStructure, conn: Connection) -> bool:
    """T(Jx, Jy) = T(x, y); a zero torsion, as Levi-Civita's, is of type
    (1,1) with no contraction."""
    t = _torsion(g, conn)
    if not any(nz for row in t for _, nz in row):
        return True
    js = j.matrix.split()
    tjj = linalg.bilinear_table(t, js, js, combinations(range(g.dim), 2))
    return all(w == t[a][b] for (a, b), w in tjj.items())


def connection_flags(t: HermitianTriple, nabla1: Connection) -> ConnectionFlags:
    """Flags of nabla1 = (D - JDJ) / 2, the first canonical connection of t,
    D its Levi-Civita connection.  nabla1 is metric and complex by proof: D
    is metric (levi_civita certifies it) and J is orthogonal with J^2 = -I
    (HermitianTriple), so J* = -J, (JDJ)* = (-J)(-D)(-J) = -JDJ and
    J(D - JDJ) = JD + DJ = (D - JDJ)J.  Only the (1,1) type of its torsion
    depends on J being integrable, and only that flag is computed."""
    return ConnectionFlags(True, True, _torsion_type_11(t.algebra, t.j, nabla1))


def complex_projection(j: ComplexStructure, conn: Connection) -> Connection:
    """Average a connection with its J-conjugate along each direction:
    D_i -> (D_i - J D_i J) / 2.

    Column k of the average is one contraction of D_i e_k and the nonzero
    columns of J D_i weighted by J e_k, made only where it can be nonzero:
    where D_i e_k != 0 or J e_k meets supp D_i, read off the row supports of
    J, indexed once.  The other columns, and zero operators, are kept as
    zero.  The output commutes with J; when the input is torsion-free and J
    is integrable its torsion is of type (1,1).
    """
    n, js = conn.dim, j.matrix.split()
    jrows = [set() for _ in range(n)]     # jrows[q]: the k with J[q][k] != 0
    for k, (_, nz) in enumerate(js):
        for q, _ in nz:
            jrows[q].add(k)
    out = []
    for row in conn.split():
        supp = _support(row)
        if not supp:
            out.append(row)
            continue
        cols = sorted(supp.union(*[jrows[q] for q in supp])) if len(supp) < n else range(n)
        jd = [_combine(d, [(c, js[p]) for p, c in nz], n) if nz else (1, []) for d, nz in row]
        avg = [(1, [])] * n
        for k in cols:
            d, nz = js[k]
            avg[k] = _combine(2 * d, [(d, row[k])] + [(-c, jd[q]) for q, c in nz], n)
        out.append(avg)
    return Connection._of_split(out)


def first_canonical(t: HermitianTriple) -> Connection:
    """Complex projection of the Levi-Civita connection: metric and complex,
    with torsion of type (1,1) when J is integrable.  For abelian J it equals
    first_canonical_pairing(t)."""
    return complex_projection(t.j, levi_civita(t.algebra, t.metric))


def first_canonical_pairing(t: HermitianTriple) -> Connection:
    """The canonical complex metric connection for abelian J, from the
    expanded pairing

        4 g(D_x y, z) = g([x,y],z) + g([z,x],y) + g([x,Jy],Jz)
                        + g([Jz,x],Jy) - 2 g([y,z],x).

    As g(u, Jv) = -g(Ju, v), it solves to D_{e_i} e_j = (P_i e_j - ad_j* e_i)
    / 2, where P_i = (K_i - J K_i J) / 2 for K_i = ad_i - ad_i*."""
    g, j = t.algebra, t.j
    if not is_abelian_cs(g, j):
        raise PreconditionError("pairing formula requires an abelian complex structure")
    n, gs, gm = g.dim, g.split(), t.metric.gram
    ginv = gm.inverse()
    # column splits of each metric adjoint ad_q* = G^-1 ad_q^T G (ad_q^T has
    # the brackets [e_q, e_p] as rows); a zero ad_q keeps its empty splits
    adj = [(ginv @ (Matrix._of_split(gs[q], n).transpose() @ gm)).split()
           if any(nz for _, nz in gs[q]) else gs[q] for q in range(n)]
    k = Connection._of_split([[_combine(1, ((1, gs[i][q]), (-1, adj[i][q])), n)
                               for q in range(n)] for i in range(n)])
    p = complex_projection(j, k).split()
    return Connection._of_split([[_combine(2, ((1, p[i][q]), (-1, adj[q][i])), n)
                                  for q in range(n)] for i in range(n)])


def sectional_curvature(g, metric: InnerProduct, x, y):
    """Riemannian sectional curvature of the plane spanned by x, y, from
    R(x, y) y = D_x D_y y - D_y D_x y - D_[x,y] y."""
    x, y = vec(x), vec(y)
    gxx = metric.eval(x, x)
    gyy = metric.eval(y, y)
    gxy = metric.eval(x, y)
    denom = gxx * gyy - gxy * gxy
    if denom == 0:
        raise PreconditionError("plane vectors must be linearly independent")
    d = levi_civita(g, metric).apply
    ryy = lin_comb((1, -1, -1), (d(x, d(y, y)), d(y, d(x, y)), d(g.bracket(x, y), y)),
                   g.dim)
    return metric.eval(ryy, x) / denom
