"""Commutative associative algebras: axioms, compatibility for double
products, nilradical, and primitive idempotent extraction.

The associativity and compatibility identities are decided on basis
triples by linalg._first_nonzero_residual, packed zero tests with only the
first nonzero residual contracted as the witness.

Idempotents come from one generic element x of a semisimple A: the first
draw whose multiplication operator L_x has a minimal polynomial m of degree
dim A.  Then A = Q[x] = Q[T]/(m) is the product of the fields Q[T]/(f) over
the factors f of m.  The block of f is the kernel of f(L_x), and its
idempotent is the unit's component in it, read off the unit's coordinates
in the stacked block bases; so the idempotents sum to the unit.  A rational
primitive decomposition exists exactly when every factor is linear or an
imaginary quadratic; any other factor is reported as an irrational spectrum
instead of being approximated.  The splitting needs only the standard
library.  The roots are found modulo a small prime q at which they are
simple and lifted p-adically by Newton's method, in Z_q and in its
unramified quadratic extension.  One root in Z_q gives a candidate linear
factor; two roots in Z_q, or a conjugate pair, give a candidate quadratic
factor; each candidate is tested by exact division.
"""
from __future__ import annotations

import random
from itertools import chain, combinations_with_replacement, count
from math import isqrt, lcm
from typing import NamedTuple, Optional

from .linalg import (
    DimensionMismatch, Matrix, Subspace, ONE, ZERO, _combine, _dense, _eliminate, _entry,
    _first_nonzero_residual, _ints, _kernel, _negated, _nonzeros, _stacked, _tensor_dense,
    _trace, _value_split, bilinear, bilinear_table, certify, left_map, rat,
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


class NotSemisimpleError(ValueError):
    pass


class IrrationalSpectrumError(ValueError):
    """The minimal polynomial has an irreducible factor that is not linear or
    an imaginary quadratic; the idempotents have irrational coordinates."""


class GenericityError(ValueError):
    pass


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


def unit(a):
    """The multiplicative unit as a vector, or None: the solution x of
    sum_j x_j e_j e_i = e_i for every i, column j stacking the products
    e_j e_i over i."""
    n = a.dim
    return Matrix._of_split([_stacked(row, n) for row in a.split()], n * n).solve(
        tuple(ONE if k == i else ZERO for i in range(n) for k in range(n)))


class IdempotentSet(NamedTuple):
    idempotents: tuple          # ambient coordinate vectors
    factor_types: tuple         # "R" | "C" per idempotent


# ---- polynomials over Q (ascending coefficients) ----

def _poly_eval_matrix(p, mat):
    n = mat.nrows
    if not p:
        return Matrix.zeros(n, n)
    acc = Matrix.identity(n).scale(p[-1])
    for c in reversed(p[:-1]):
        acc = (acc @ mat) + Matrix.identity(n).scale(c)
    return acc


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


def _divmod(a, b):
    """Quotient and remainder of a by b over Q."""
    r = list(a)
    q = [ZERO] * max(len(a) - len(b) + 1, 0)
    for i in reversed(range(len(q))):
        c = q[i] = r[i + len(b) - 1] / b[-1]
        for k, bk in enumerate(b):
            r[i + k] -= c * bk
    del r[len(b) - 1:]
    while r and not r[-1]:
        r.pop()
    return q, r


# Elements a + b*w of Z/mod[w], w^2 = n, as pairs (a, b).

def _mul(x, y, n, mod):
    return ((x[0] * y[0] + n * x[1] * y[1]) % mod, (x[0] * y[1] + x[1] * y[0]) % mod)


def _eval(f, x, n, mod):
    a = b = 0
    for c in reversed(f):
        a, b = (a * x[0] + n * b * x[1] + c) % mod, (a * x[1] + b * x[0]) % mod
    return a, b


def _newton(f, df, x, n, mod):
    """x - f(x) / f'(x) in Z/mod[w]."""
    d = _eval(df, x, n, mod)
    inv = pow((d[0] * d[0] - n * d[1] * d[1]) % mod, -1, mod)
    step = _mul(_eval(f, x, n, mod), (d[0] * inv, -d[1] * inv), n, mod)
    return ((x[0] - step[0]) % mod, (x[1] - step[1]) % mod)


def _padic_roots(p):
    """(lc, n, mod, roots): the roots, modulo mod = q^(2^k), of the squarefree
    p scaled to an integer polynomial f with leading coefficient lc, in the
    unramified quadratic extension Z_q[w], w^2 = n, of Z_q.  q is the first
    odd prime not dividing lc at which every root of f in F_q[w] is simple,
    so each lifts uniquely by Newton's method (Loos, SIAM J. Comput. 1983).
    A rational root r, or a monic quadratic factor t^2 - s t + m, makes
    lc * r, or lc * s and lc * m, integers of size at most bound^2 < mod / 2.
    Rejected primes divide lc * Res(f, f'); once their product passes the
    Hadamard bound of that product, the resultant is 0: a repeated root."""
    den = lcm(*(c.denominator for c in p))
    f = [c.numerator * (den // c.denominator) for c in p]
    df = [i * c for i, c in enumerate(f)][1:]
    d, lc = len(f) - 1, f[-1]
    bound = abs(lc) + max(map(abs, f[:-1]))
    rejected, limit = 1, abs(lc) * d ** d * sum(c * c for c in f) ** d
    for q in (k for k in count(3, 2) if all(k % j for j in range(3, isqrt(k) + 1, 2))):
        n = next(k for k in range(2, q) if pow(k, (q - 1) // 2, q) == q - 1)
        roots = [(a, 0) for a in range(q) if _eval(f, (a, 0), n, q) == (0, 0)]
        if len(roots) < d:      # else no root is left for F_q[w] outside F_q
            roots += [(a, b) for b in range(1, q) for a in range(q)
                      if _eval(f, (a, b), n, q) == (0, 0)]
        if lc % q and all(_eval(df, x, n, q) != (0, 0) for x in roots):
            break
        rejected *= q
        certify("a minimal polynomial of a semisimple element is squarefree",
                rejected <= limit)
    mod = q
    while mod <= 2 * bound * bound:
        mod *= mod
        roots = [_newton(f, df, x, n, mod) for x in roots]
    return lc, n, mod, roots


def _rational(lc, a, mod):
    """v / lc for the integer v = lc * a (mod mod) of least absolute value."""
    v = lc * a % mod
    return rat(v - mod if 2 * v > mod else v, lc)


def _split_over_q(p):
    """(factors, rest) for the squarefree monic p: its monic linear and
    quadratic factors over Q, and their cofactor.  Each p-adic root in Z_q
    gives a linear candidate.  The two roots of a quadratic factor are both
    in Z_q or conjugate in Z_q[w], so each such pair gives a quadratic
    candidate.  Candidates are tested by division, linear ones first, so a
    product of two linear factors is no longer a divisor when its turn comes."""
    lc, n, mod, lifted = _padic_roots(p)
    in_zq = [x for x in lifted if not x[1]]
    pairs = [(x, (x[0], mod - x[1])) for x in lifted if 0 < 2 * x[1] < mod]
    pairs += [(x, y) for i, x in enumerate(in_zq) for y in in_zq[i + 1:]]
    candidates = chain(
        ([-_rational(lc, a, mod), ONE] for a, _ in in_zq),
        ([_rational(lc, _mul(x, y, n, mod)[0], mod), -_rational(lc, x[0] + y[0], mod), ONE]
         for x, y in pairs))
    factors, rest = [], p
    for g in candidates:
        if len(g) > len(rest):
            break
        quo, rem = _divmod(rest, g)
        if not rem:
            factors.append(g)
            rest = quo
    return factors, rest


def _certify_idempotents(a, es):
    """e_i e_i = e_i != 0 and e_i e_k = 0 for i < k, the e_i given by splits."""
    table = bilinear_table(a.split(), es, es, combinations_with_replacement(range(len(es)), 2))
    return all(bool(w[1]) and w == es[i] if i == k else not w[1] for (i, k), w in table.items())


# candidate generic elements per primitive_idempotents call, and the seed of
# the random ones after the six Vandermonde candidates
_GENERIC_DRAWS = 32
_GENERIC_SEED = 0


def _generic_elements(dim):
    """Vandermonde-style candidates (1, t, t^2, ...) first, then random."""
    rng = random.Random(_GENERIC_SEED)
    for t in range(1, _GENERIC_DRAWS + 1):
        if t <= 6:
            yield tuple(rat(t) ** i for i in range(dim))
        else:
            yield tuple(rat(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim))


def primitive_idempotents(a) -> IdempotentSet:
    """Complete primitive orthogonal idempotents of a semisimple algebra, in
    one pass over one generic element, as the module docstring describes.

    Factor types: "R" for a 1-dim block, "C" for a 2-dim block on which the
    minimal polynomial factor is an imaginary quadratic.  Raises
    IrrationalSpectrumError when any factor is neither.
    """
    if not nilradical(a).is_semisimple:
        raise NotSemisimpleError("algebra has a nonzero nilradical")
    n = a.dim
    if n == 0:
        return IdempotentSet((), ())
    u = unit(a)
    certify("a semisimple algebra must be unital", u is not None)
    for x in _generic_elements(n):
        lx = a.left_mult(x)
        m = minimal_polynomial(lx)
        factors, rest = _split_over_q(m)
        if any(len(f) == 3 and f[1] * f[1] - 4 * f[0] > 0 for f in factors):
            raise IrrationalSpectrumError(
                "irrational spectrum: irreducible factor of degree 2 is not "
                "linear or an imaginary quadratic")
        if len(rest) > 1:
            raise IrrationalSpectrumError(
                "irrational spectrum: a factor of degree %d has no linear or "
                "quadratic factor over Q" % (len(rest) - 1))
        if len(m) - 1 == n:
            break
    else:
        raise GenericityError("no generic element generates the algebra")
    blocks = [_poly_eval_matrix(f, lx)._kernel_splits() for f in factors]
    certify("each block must have its factor's degree",
            all(len(b) == len(f) - 1 for f, b in zip(factors, blocks)))
    basis = Matrix._of_split([s for b in blocks for s in b], n)
    # B c = u for B of full rank: then (c, 1) spans the kernel of [B | -u]
    ker = Matrix._of_split(basis.split() + [_negated(_nonzeros(u))], n)._kernel_splits()
    certify("the blocks must span the algebra", len(ker) == 1 and ker[0][1][-1][0] == n)
    *coords, (_, d) = ker[0][1]
    owner = [i for i, b in enumerate(blocks) for _ in b]
    elements = [_combine(d, [(c, basis.split()[k]) for k, c in coords if owner[k] == i], n)
                for i in range(len(blocks))]
    certify("idempotents must be nonzero, idempotent and orthogonal",
            _certify_idempotents(a, elements))
    types = ["R" if len(f) == 2 else "C" for f in factors]
    elements = [_dense(e, n) for e in elements]
    order = sorted(range(len(elements)), key=lambda i: (types[i], elements[i]))
    return IdempotentSet(tuple(elements[i] for i in order),
                         tuple(types[i] for i in order))
