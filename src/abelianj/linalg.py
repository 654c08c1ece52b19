"""Exact rational linear algebra: scalars, vectors, matrices, subspaces.

Everything downstream computes over Q with zero tolerance.  The one scalar
type is fractions.Fraction, always in lowest terms with a positive
denominator, printing as "p/q".  Products (matrix-matrix, matrix-vector,
dot, linear combination) run through one integer kernel: inside a product
each row, column or vector is a list of Python-int numerators over its
common denominator (the lcm of its entries' denominators), zero entries
of rows and of combined vectors are skipped, and each output entry is
normalised once into a Fraction.  Outside a product every entry is a
normalised Fraction again.  Subspaces are kept in reduced row echelon
form so equality is syntactic.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

ZERO = Fraction(0)
ONE = Fraction(1)


class DimensionMismatch(ValueError):
    pass


class SingularMatrix(ValueError):
    pass


def rat(value=0, den=None):
    """Exact rational from int, 'p/q' string, Fraction, or (num, den).

    A Fraction is already normalised and is returned as it is."""
    if den is None and type(value) is Fraction:
        return value
    if den is not None:
        return Fraction(value) / Fraction(den)
    if isinstance(value, str):
        return Fraction(value.strip())
    if isinstance(value, float):
        raise TypeError("refusing inexact float %r; give an int, a 'p/q' string "
                        "or a Fraction" % value)
    return Fraction(value)


def vec(entries):
    return tuple(rat(e) for e in entries)


def zero_vec(n):
    return (ZERO,) * n


def _as_vector(value, dim):
    """Dense vector from a sequence or a sparse {index: scalar} dict."""
    if isinstance(value, dict):
        out = list(zero_vec(dim))
        for k, s in value.items():
            out[int(k)] = rat(s)
        return tuple(out)
    return vec(value)


def basis_vec(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * a for a in v)


def _over_lcm(v):
    """(d, nums): v as integer numerators over d, the lcm of its denominators."""
    d = lcm(*[x.denominator for x in v])
    return d, [x.numerator * (d // x.denominator) for x in v]


def _nonzeros(v):
    """(d, [(index, numerator)]) for the nonzero entries of v over their lcm d."""
    nz = [(t, x) for t, x in enumerate(v) if x]
    d = lcm(*[x.denominator for _, x in nz])
    return d, [(t, x.numerator * (d // x.denominator)) for t, x in nz]


def _entry(num, den):
    return Fraction(num, den) if num else ZERO


def _products(rows, vectors):
    """[[row . v for v in vectors] for row in rows], exactly.

    The integer kernel behind matmul, apply and vec_dot: each vector is
    split into numerators over its lcm once, each row into its nonzero
    numerators, and every output entry is normalised once.
    """
    splits = [_over_lcm(v) for v in vectors]
    out = []
    for row in rows:
        d, nz = _nonzeros(row)
        out.append(tuple(_entry(sum(a * nums[t] for t, a in nz), d * dv)
                         for dv, nums in splits))
    return out


def vec_dot(u, v):
    return _products([u], [v])[0][0]


def is_zero_vec(v):
    return all(a == 0 for a in v)


def lin_comb(coeffs, vectors, n):
    """sum_q coeffs[q] * vectors[q] in Q^n, skipping zero coefficients and
    zero entries.

    Every term is put over one denominator, dc * big (dc the coefficients'
    lcm, big the lcm of the vectors' own lcms), so the sum runs over Python
    ints."""
    dc, cnums = _over_lcm(coeffs)
    terms = [(c, _nonzeros(v)) for c, v in zip(cnums, vectors) if c]
    big = lcm(*[d for _, (d, _) in terms])
    out = [0] * n
    for c, (d, nz) in terms:
        f = c * (big // d)
        for k, a in nz:
            out[k] += f * a
    den = dc * big
    return tuple(_entry(a, den) for a in out)


def _rref(rows, ncols):
    """Reduced row echelon form with leftmost-nonzero pivoting.

    Returns (nonzero rows as tuples, pivot column indices).  Deterministic:
    the first row at or below the cursor with a nonzero entry is used.
    """
    work = [list(r) for r in rows]
    m = len(work)
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, m) if work[i][c] != 0), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        inv = ONE / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(m):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                row_r = work[r]
                work[i] = [a - f * b for a, b in zip(work[i], row_r)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


class Matrix:
    """Dense exact matrix over Q."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        self.rows = tuple(tuple(rat(e) for e in row) for row in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise DimensionMismatch("ragged rows")

    @classmethod
    def identity(cls, n):
        return cls([basis_vec(n, i) for i in range(n)])

    @classmethod
    def zeros(cls, m, n):
        return cls([zero_vec(n)] * m) if m else cls([])

    @classmethod
    def from_columns(cls, cols):
        return cls(list(zip(*cols))) if cols else cls([])

    def column(self, j):
        return tuple(row[j] for row in self.rows)

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self):
        return Matrix(list(zip(*self.rows))) if self.rows else Matrix([])

    def apply(self, v):
        """Matrix-vector product."""
        if len(v) != self.ncols:
            raise DimensionMismatch("vector length %d, expected %d" % (len(v), self.ncols))
        return tuple(x for (x,) in _products(self.rows, [v]))

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise DimensionMismatch("shape mismatch in matmul")
            # the kernel's entries are normalised Fractions: skip __init__
            m = object.__new__(Matrix)
            m.rows = tuple(_products(self.rows, zip(*other.rows)))
            m.nrows, m.ncols = self.nrows, other.ncols
            return m
        return self.apply(other)

    def __add__(self, other):
        return Matrix([vec_add(a, b) for a, b in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return Matrix([vec_sub(a, b) for a, b in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix([vec_scale(-ONE, r) for r in self.rows])

    def scale(self, c):
        c = rat(c)
        return Matrix([vec_scale(c, r) for r in self.rows])

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def is_zero(self):
        return all(is_zero_vec(r) for r in self.rows)

    def is_square(self):
        return self.nrows == self.ncols

    def trace(self):
        return sum((self.rows[i][i] for i in range(self.nrows)), ZERO)

    def rref(self):
        rows, pivots = _rref(self.rows, self.ncols)
        return Matrix(rows) if rows else Matrix.zeros(0, self.ncols), pivots

    def rank(self):
        return len(_rref(self.rows, self.ncols)[1])

    def det(self):
        if not self.is_square():
            raise DimensionMismatch("determinant of non-square matrix")
        work = [list(r) for r in self.rows]
        n = self.nrows
        d = ONE
        for c in range(n):
            p = next((i for i in range(c, n) if work[i][c] != 0), None)
            if p is None:
                return ZERO
            if p != c:
                work[c], work[p] = work[p], work[c]
                d = -d
            d = d * work[c][c]
            inv = ONE / work[c][c]
            for i in range(c + 1, n):
                if work[i][c] != 0:
                    f = work[i][c] * inv
                    work[i] = [a - f * b for a, b in zip(work[i], work[c])]
        return d

    def inverse(self):
        if not self.is_square():
            raise DimensionMismatch("inverse of non-square matrix")
        n = self.nrows
        aug = [list(self.rows[i]) + list(basis_vec(n, i)) for i in range(n)]
        rows, pivots = _rref(aug, 2 * n)
        if pivots != tuple(range(n)):
            raise SingularMatrix("matrix is singular")
        return Matrix([row[n:] for row in rows])

    def kernel(self):
        """Canonical null-space basis (free variables set to 1, in order)."""
        rows, pivots = _rref(self.rows, self.ncols)
        pivot_set = set(pivots)
        basis = []
        for f in range(self.ncols):
            if f in pivot_set:
                continue
            v = [ZERO] * self.ncols
            v[f] = ONE
            for r, p in enumerate(pivots):
                v[p] = -rows[r][f]
            basis.append(tuple(v))
        return basis

    def solve(self, b):
        """One solution of A x = b, or None if inconsistent."""
        aug = [list(row) + [bi] for row, bi in zip(self.rows, b)]
        rows, pivots = _rref(aug, self.ncols + 1)
        if self.ncols in pivots:
            return None
        x = [ZERO] * self.ncols
        for r, p in enumerate(pivots):
            x[p] = rows[r][self.ncols]
        return tuple(x)

    def __repr__(self):
        return "Matrix(%s)" % [[str(e) for e in row] for row in self.rows]


class Subspace:
    """Subspace of Q^n with canonical reduced-echelon basis.

    Two equal subspaces have identical representations, so == is syntactic.
    """

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient, rows=()):
        self.ambient = ambient
        clean = [vec(r) for r in rows]
        if any(len(r) != ambient for r in clean):
            raise DimensionMismatch("vector does not live in ambient space")
        self.basis, self.pivots = _rref(clean, ambient)

    @classmethod
    def zero(cls, ambient):
        return cls(ambient)

    @classmethod
    def whole(cls, ambient):
        return cls(ambient, [basis_vec(ambient, i) for i in range(ambient)])

    @property
    def dim(self):
        return len(self.basis)

    def is_zero(self):
        return not self.basis

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return "Subspace(dim %d of Q^%d)" % (self.dim, self.ambient)

    def coordinates(self, v):
        """Coefficients of v in the canonical basis, or None if v outside."""
        if len(v) != self.ambient:
            raise DimensionMismatch("ambient mismatch")
        v = vec(v)
        coeffs = tuple(v[p] for p in self.pivots)
        resid = lin_comb((ONE,) + tuple(-c for c in coeffs), (v,) + self.basis,
                         self.ambient)
        return coeffs if is_zero_vec(resid) else None

    def contains_vector(self, v):
        return self.coordinates(v) is not None

    def contains(self, other):
        return all(self.contains_vector(v) for v in other.basis)

    def sum(self, other):
        self._check(other)
        return Subspace(self.ambient, list(self.basis) + list(other.basis))

    def intersect(self, other):
        """Zassenhaus: row reduce [U|U; V|0], read rows with zero left half."""
        self._check(other)
        n = self.ambient
        block = [list(b) + list(b) for b in self.basis]
        block += [list(b) + [ZERO] * n for b in other.basis]
        rows, _ = _rref(block, 2 * n)
        inter = [row[n:] for row in rows if is_zero_vec(row[:n])]
        return Subspace(n, inter)

    def complement_in(self, bigger, metric=None):
        """C with bigger = self (+) C; orthogonal complement when metric given.

        Without a metric the choice is deterministic: greedily extend by the
        echelon basis vectors of `bigger` not already in the running span.
        """
        self._check(bigger)
        if not bigger.contains(self):
            raise DimensionMismatch("complement: first subspace not inside second")
        if metric is None:
            acc = list(self.basis)
            added = []
            current = Subspace(self.ambient, acc)
            for w in bigger.basis:
                if not current.contains_vector(w):
                    added.append(w)
                    acc.append(w)
                    current = Subspace(self.ambient, acc)
            comp = Subspace(self.ambient, added)
        else:
            comp = bigger.intersect(self.orthogonal_complement(metric))
        assert comp.dim + self.dim == bigger.dim and self.intersect(comp).is_zero()
        return comp

    def orthogonal_complement(self, metric):
        gram = metric.gram if hasattr(metric, "gram") else metric
        if self.is_zero():
            return Subspace.whole(self.ambient)
        constraints = Matrix([gram.apply(u) for u in self.basis])
        return Subspace(self.ambient, constraints.kernel())

    def image(self, mat):
        """Span of mat applied to the basis."""
        return Subspace(mat.nrows, [mat.apply(b) for b in self.basis]) if self.basis \
            else Subspace.zero(mat.nrows)

    def _check(self, other):
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimensions differ")
