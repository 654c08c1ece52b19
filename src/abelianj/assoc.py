"""Commutative associative algebras: axioms, compatibility for double
products, nilradical, and primitive idempotent extraction.

The associativity and compatibility identities are decided on basis
triples by linalg._first_nonzero_residual, packed zero tests with only the
first nonzero residual contracted as the witness.

Idempotents come from the first x_t = (1, t, t^2, ...), t = 1, 2, ..., in
a semisimple A of dim n whose L_x has a minimal polynomial m of degree n,
so x generates A.  Some t <= B(n) = n(n-1)^2/2 + 1 does: x_t generates A
when the n distinct characters of A over C differ at it, and each
difference phi(x_t) - psi(x_t) is a nonzero polynomial of degree < n in t,
zero at n - 1 values of t at most.  A splits as Q x ... x Q exactly when
every root of m is rational; a root outside Q is reported as an irrational
spectrum instead of being approximated.  Then each eigenline ker(L_x - r)
is a one-dimensional ideal spanned by some b with b b = lambda b,
lambda != 0, and its idempotent is b / lambda.  The roots need only the
standard library: the roots of m in F_q, for a small prime q at which they
are simple, are lifted q-adically by Newton's method, and each lifted root
gives a candidate v / lc, kept when the integer f(v / lc) lc^d is zero.
"""
from __future__ import annotations

from itertools import combinations_with_replacement, count
from math import isqrt, lcm
from typing import NamedTuple, Optional

from .linalg import (
    DimensionMismatch, Matrix, Subspace, ONE, _combine, _dense, _eliminate, _entry,
    _first_nonzero_residual, _ints, _kernel, _nonzeros, _stacked, _tensor_dense, _trace,
    _value_split, bilinear, bilinear_table, certify, left_map, rat,
)
from .lie import PreconditionError, _PairTable, _kept


class AxiomWitness(NamedTuple):
    kind: str              # "associativity": the table is symmetric by construction
    indices: tuple
    residual: tuple


class CompatibilityWitness(NamedTuple):
    identity: int          # 1: a*(b.c)=b*(a.c)   2: a.(b*c)=b.(a*c)
    indices: tuple
    residual: tuple


class IrrationalSpectrumError(ValueError):
    """A minimal polynomial has a factor with no rational root: some
    multiplication operator has an eigenvalue outside Q, so the algebra is
    not a product of copies of Q."""


class CommAssocAlgebra(_PairTable):
    """Stored as the canonical splits of its products m[i][j]; m builds
    Fractions from them on each read."""
    __slots__ = ()
    _symmetric = True

    def __init__(self, dim, products=None, basis_names=None):
        """products: {(i,j): value} for i<=j; value dense vector or {k: scalar}."""
        products = products or {}
        for i, j in products:
            if not (0 <= i <= j < dim):
                raise DimensionMismatch("product pair (%d,%d) must satisfy 0 <= i <= j < dim" % (i, j))
        self._set(dim, {ij: _value_split(v, dim) for ij, v in products.items()}, basis_names)

    @classmethod
    def zero(cls, dim):
        return cls(dim, {})

    @property
    def m(self):
        """The products as Fractions, built from the splits on each read."""
        return _tensor_dense(self._split)

    def multiply(self, x, y):
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("multiply arguments must have dimension %d" % self.dim)
        return bilinear(self._split, x, y)

    def left_mult(self, x):
        """Matrix of y -> x.y."""
        return left_map(self._split, _nonzeros(x))


@_kept
def check_axioms(a) -> Optional[AxiomWitness]:
    """None if associative on basis triples, else the first witness
    (i, j, k) in lexicographic order.  Commutativity holds by construction:
    the product table is kept symmetric, so the residual at (k, j, i) is
    minus the one at (i, j, k) and zero at i = k, and the triples with
    i < k decide it, in one linalg._first_nonzero_residual.  Decided once
    and kept on the algebra."""
    n = a.dim
    triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(i + 1, n)]
    hit = _first_nonzero_residual([a.split()], [_associator_parts], triples, n)
    return hit and AxiomWitness("associativity", hit[0], _dense(hit[2], n))


def _associator_parts(s, i, j, k):
    # (e_i e_j) e_k - e_i (e_j e_k); s is symmetric, so s[k][q] splits e_q e_k
    return [(1, s[i][j], s[k]), (-1, s[j][k], s[i])]


def check_compatibility(adot, astar) -> Optional[CompatibilityWitness]:
    """The two mixed-product identities a*(b.c) = b*(a.c), a.(b*c) = b.(a*c),
    or the first witness (i, j, k) in lexicographic order, the first
    identity before the second at each.  Both residuals change sign under
    i <-> j and vanish at i = j, so the triples with i < j decide them, in
    one linalg._first_nonzero_residual over both tables."""
    if adot.dim != astar.dim:
        raise PreconditionError("algebras have different dimensions")
    if check_axioms(adot) is not None or check_axioms(astar) is not None:
        raise PreconditionError("compatibility requires both algebras to pass the axioms")
    n = adot.dim
    triples = [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(n)]
    hit = _first_nonzero_residual([adot.split(), astar.split()], _COMPATIBILITY_PARTS,
                                  triples, n)
    return hit and CompatibilityWitness(hit[1] + 1, hit[0], _dense(hit[2], n))


# the parts of the two compatibility residuals, in CompatibilityWitness order
_COMPATIBILITY_PARTS = (
    # e_i * (e_j . e_k) - e_j * (e_i . e_k)
    lambda dot, star, i, j, k: [(1, dot[j][k], star[i]), (-1, dot[i][k], star[j])],
    # e_i . (e_j * e_k) - e_j . (e_i * e_k)
    lambda dot, star, i, j, k: [(1, star[j][k], dot[i]), (-1, star[i][k], dot[j])],
)


def square_span(a) -> Subspace:
    s = a.split()
    return Subspace._spanned(a.dim, [s[i][j] for i in range(a.dim) for j in range(i, a.dim)])


class NilradicalReport(NamedTuple):
    nilradical: Subspace
    is_semisimple: bool


@_kept
def nilradical(a) -> NilradicalReport:
    """Kernel of the trace form b(x,y) = tr(l_{x.y}).

    tr l_{e_i e_j} = sum_k m[i][j][k] t_k with t_k = tr l_{e_k} =
    sum_q m[k][q][q].  For commutative algebras in characteristic zero the
    kernel is the set of nilpotent elements, and one pass is final: b is
    symmetric, so {y : b(rad, y) = 0} contains rad.  Each basis element of
    the result is certified nilpotent exactly; kept on the algebra.
    """
    if check_axioms(a) is not None:
        raise PreconditionError("nilradical requires a commutative associative algebra")
    n, s = a.dim, a.split()
    traces = [_trace(row) for row in s]    # row k is l_{e_k} by columns
    dt = lcm(*[d for _, d in traces])
    t = {k: num * (dt // d) for k, (num, d) in enumerate(traces) if num}
    # b(e_i, e_j) times dt and the lcm of all d_ij: integer rows, same kernel
    big = lcm(*[d for row in s for d, _ in row])
    form = [[(big // d) * sum(x * t.get(k, 0) for k, x in nz) for d, nz in row] for row in s]
    rad = Subspace._spanned(n, _kernel(form, n))
    for v in rad.split():
        lv = left_map(s, v)
        power = lv
        for _ in range(n):
            power = power @ lv
        certify("trace-form kernel contains a non-nilpotent element", power.is_zero())
    return NilradicalReport(rad, rad.is_zero())


# ---- polynomials over Q (ascending coefficients) ----

def minimal_polynomial(mat: Matrix):
    """Monic minimal polynomial, ascending coefficients, from one elimination
    of the flattened powers I, M, ..., M^n, column k the numerators of the
    stacked column splits of M^k over their denominator D_k.  The pivots
    are 0, ..., d-1 for d the degree, and coefficient k < d is
    -rows[k][d] D_k / (den D_d)."""
    n = mat.nrows
    powers = [Matrix.identity(n)]
    for _ in range(n):
        powers.append(powers[-1] @ mat)
    cols = [_stacked(p.split(), n) for p in powers]
    rows = [list(r) for r in zip(*[_ints(nz, n * n) for _, nz in cols]) if any(r)]
    pivots, den, _, _ = _eliminate(rows, n + 1)
    d = len(pivots)
    certify("minimal polynomial must exist by Cayley-Hamilton", d <= n)
    return [_entry(-rows[k][d] * cols[k][0], den * cols[d][0]) for k in range(d)] + [ONE]


def _horner(f, x, mod):
    """f(x) mod mod for the integer polynomial f."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % mod
    return acc


def _padic_roots(p):
    """(f, mod, roots): the roots in Z_q, modulo mod = q^(2^k), of the
    squarefree p scaled to an integer polynomial f with leading coefficient
    lc.  q is the first odd prime not dividing lc at which every root of f in
    F_q is simple, so each lifts uniquely by Newton's method (Loos, SIAM J.
    Comput. 1983).  A rational root r makes lc * r an integer of size at most
    bound < mod / 2 (Cauchy's bound).  Rejected primes divide
    lc * Res(f, f'); once their product passes the Hadamard bound of that
    product, the resultant is 0: a repeated root."""
    den = lcm(*(c.denominator for c in p))
    f = [c.numerator * (den // c.denominator) for c in p]
    df = [i * c for i, c in enumerate(f)][1:]
    d, lc = len(f) - 1, f[-1]
    bound = abs(lc) + max(map(abs, f[:-1]))
    rejected, limit = 1, abs(lc) * d ** d * sum(c * c for c in f) ** d
    for q in (k for k in count(3, 2) if all(k % j for j in range(3, isqrt(k) + 1, 2))):
        roots = [a for a in range(q) if not _horner(f, a, q)]
        if lc % q and all(_horner(df, a, q) for a in roots):
            break
        rejected *= q
        certify("a minimal polynomial of a semisimple element is squarefree",
                rejected <= limit)
    mod = q
    while mod <= 2 * bound:
        mod *= mod
        roots = [(x - _horner(f, x, mod) * pow(_horner(df, x, mod), -1, mod)) % mod
                 for x in roots]
    return f, mod, roots


def _rational_roots(p):
    """The rational roots of the squarefree monic p: each root in Z_q gives
    a candidate v / lc, kept when the integer f(v / lc) lc^d is zero."""
    f, mod, roots = _padic_roots(p)
    lc, d = f[-1], len(f) - 1
    out = []
    for x in roots:
        v = lc * x % mod
        v = v - mod if 2 * v > mod else v      # least absolute value
        if not sum(c * v ** i * lc ** (d - i) for i, c in enumerate(f)):
            out.append(rat(v, lc))
    return out


def _certify_idempotents(a, es):
    """e_i e_i = e_i != 0 and e_i e_k = 0 for i < k, the e_i given by splits."""
    table = bilinear_table(a.split(), es, es, combinations_with_replacement(range(len(es)), 2))
    return all(bool(w[1]) and w == es[i] if i == k else not w[1] for (i, k), w in table.items())


def primitive_idempotents(a) -> tuple:
    """Complete primitive orthogonal idempotents of a semisimple algebra, in
    one pass over one generic element, as the module docstring describes,
    sorted by their coordinates.  Raises IrrationalSpectrumError when a
    factor of the minimal polynomial has no rational root.
    """
    if not nilradical(a).is_semisimple:
        raise PreconditionError("algebra has a nonzero nilradical")
    n = a.dim
    if n == 0:
        return ()
    for t in range(1, n * (n - 1) ** 2 // 2 + 2):
        lx = a.left_mult([t ** i for i in range(n)])
        m = minimal_polynomial(lx)
        roots = _rational_roots(m)
        if len(roots) < len(m) - 1:
            raise IrrationalSpectrumError(
                "irrational spectrum: a factor of degree %d has no rational root"
                % (len(m) - 1 - len(roots)))
        if len(m) - 1 == n:
            break
    certify("some x_t with t <= B(n) generates the algebra", len(m) - 1 == n)
    lines = [(lx - Matrix.identity(n).scale(r))._kernel_splits() for r in roots]
    certify("each eigenline is one-dimensional", all(len(b) == 1 for b in lines))
    bs = [b for (b,) in lines]
    squares = bilinear_table(a.split(), bs, bs, [(i, i) for i in range(n)]).values()
    certify("no eigenline squares to zero", all(w[1] for w in squares))
    # w = b b = lambda b, lambda = w_k / b_k at the first entry of each split
    elements = [_combine(nw[0][1] * db, [(dw * nb[0][1], (db, nb))], n)
                for (db, nb), (dw, nw) in zip(bs, squares)]
    certify("idempotents must be nonzero, idempotent and orthogonal",
            _certify_idempotents(a, elements))
    return tuple(sorted(_dense(e, n) for e in elements))
