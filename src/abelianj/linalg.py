"""Exact rational linear algebra: scalars, vectors, matrices, subspaces.

Everything downstream computes over Q with zero tolerance.  The one scalar
type is fractions.Fraction, always in lowest terms with a positive
denominator, printing as "p/q".  This module is the only place that does
arithmetic on integer numerators, chiefly in two routines:

* _combine, the one contraction.  A vector's split is (d, [(index,
  numerator)]): its nonzero entries as Python-int numerators over d, the
  lcm of their denominators.  _combine sums integer multiples of splits
  over one common denominator and either normalises each output entry
  once into a Fraction or reduces the sum to its canonical split.  Matrix
  products and sums, matrix-vector products, linear combinations, Jacobi
  residuals, the structure layer (the ad-twist and Nijenhuis
  residuals) and the Hermitian layer (curvature, the Koszul solve,
  torsion, the metric and complex flag residuals, the complex projection)
  run through it; a dot product or a sum of squares is one integer sum over
  the same splits.  A contraction with only zero splits to read is not
  made (_combine_nonzero).
  A rank-3 tensor T is evaluated on vectors only by _bilinear, one
  contraction of T(x, y) over the nonzero slices it reads.  bilinear (the
  bracket, the commutative product, a connection), left_map and
  bilinear_table call it; bilinear_table computes exactly the pairs
  (i, j) its caller asks for, so an alternating table is contracted once
  per unordered pair i < j and a symmetric one once per i <= j.
* _eliminate, the one elimination: fraction-free Gauss-Jordan (Bareiss
  1968) on integer rows, exact divisions only.  Reduced row echelon form,
  rank, kernel, solve, inverse, det and leading principal minors all read
  its result; a Matrix stored as splits hands it integer rows read off
  its splits, with no Fraction built.

Split-first storage: a vector's canonical split, (d > 0, [(index,
numerator)]) with gcd(d, numerators) = 1, is unique, so equal vectors have
equal splits.  A Matrix, Connection or LieAlgebra that a contraction or an
elimination builds (a matrix product, sum, multiple, transpose or inverse,
levi_civita, complex_projection, pushforward) is stored as the canonical
splits of its columns or slices; its Fractions (rows, gamma, c) are built
only when read.  One built from Fractions computes its splits on first use
instead.  Either way both forms are kept in slots on the object, so they
live and die with it, and == compares splits.  Splits are shared and never
mutated.  A Matrix also keeps its inverse, and a LieAlgebra its derived
and lower central series.  Subspaces are kept in reduced row echelon form
of normalised Fractions, so equality is syntactic.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

ZERO = Fraction(0)
ONE = Fraction(1)


class DimensionMismatch(ValueError):
    pass


class SingularMatrix(ValueError):
    pass


class CertificateError(ValueError):
    """A claim proved about a result failed at run time: on valid input, a bug.
    `step` is a pipeline step number, printed as "step N", or the claim."""

    def __init__(self, step, detail=""):
        head = "step %d" % step if isinstance(step, int) else step
        super().__init__(head + (": " + detail if detail else ""))
        self.step, self.detail = step, detail


def certify(step, ok, detail=""):
    """Raise CertificateError(step, detail) unless ok; python -O keeps it."""
    if not ok:
        raise CertificateError(step, detail)


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


def _same_length(u, v):
    if len(u) != len(v):
        raise DimensionMismatch("vector lengths %d and %d differ" % (len(u), len(v)))


# Elementwise operations pass an entry through where the other operand's
# entry is zero, so sparse operands cost no Fraction arithmetic there.

def vec_add(u, v):
    _same_length(u, v)
    return tuple(a if not b else b if not a else a + b for a, b in zip(u, v))


def vec_sub(u, v):
    _same_length(u, v)
    return tuple(a if not b else -b if not a else a - b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * a if a else ZERO for a in v)


def _neg(v):
    """-v by negation; a zero entry stays the ZERO constant."""
    return tuple(-a if a else ZERO for a in v)


def _over_lcm(v):
    """(d, nums): v as integer numerators over d, the lcm of its denominators."""
    d = lcm(*[x.denominator for x in v])
    return d, [x.numerator * (d // x.denominator) for x in v]


def _nonzeros(v):
    """The split of v: (d, [(index, numerator)]) for its nonzero entries over
    their lcm d."""
    # most zeros are the ZERO constant, which the identity test skips
    # without a call to Fraction.__bool__
    nz = [(t, x) for t, x in enumerate(v) if x is not ZERO and x]
    d = lcm(*[x.denominator for _, x in nz])
    return d, [(t, x.numerator * (d // x.denominator)) for t, x in nz]


def _entry(num, den):
    return Fraction(num, den) if num else ZERO


def _reduced(den, nz):
    """The canonical split of the vector with numerators nz over den: the
    denominator made positive and divided with the numerators by their gcd,
    so two equal vectors have equal splits."""
    g = gcd(den, *[a for _, a in nz])
    if den < 0:
        g = -g
    if g == 1:
        return den, nz
    return den // g, [(k, a // g) for k, a in nz]


def _dense(split, n):
    """The vector in Q^n with this split, as normalised Fractions."""
    d, nz = split
    out = [ZERO] * n
    for k, a in nz:
        out[k] = Fraction(a, d)
    return tuple(out)


def _combine(den, terms, n, keep_split=False):
    """sum of (c / den) * vector over terms (c, split of the vector) in Q^n.

    The one contraction kernel: every term is put over den * big, big the
    lcm of the terms' denominators, and summed over Python ints.  Returns
    the normalised vector, or with keep_split the canonical split of the
    sum, for a result stored as its split or a contraction that continues
    in a second stage.
    """
    big = lcm(*[d for _, (d, _) in terms])
    out = [0] * n
    for c, (d, nz) in terms:
        f = c * (big // d)
        for k, a in nz:
            out[k] += f * a
    den *= big
    if keep_split:
        return _reduced(den, [(k, a) for k, a in enumerate(out) if a])
    return tuple(Fraction(a, den) if a else ZERO for a in out)


def _combine_nonzero(den, terms, n, keep_split=False):
    """_combine over the terms whose split is nonempty, with no call when
    there is none: then the zero vector, or with keep_split the empty split."""
    terms = [t for t in terms if t[1][1]]
    if terms:
        return _combine(den, terms, n, keep_split)
    return (1, []) if keep_split else zero_vec(n)


def vec_dot(u, v):
    _same_length(u, v)
    du, nz = _nonzeros(u)
    dv, nums = _over_lcm(v)
    return _entry(sum(a * nums[t] for t, a in nz), du * dv)


def norm_sq(v):
    """Sum of the squares of the entries of v."""
    d, nz = _nonzeros(v)
    return _entry(sum(a * a for _, a in nz), d * d)


def is_zero_vec(v):
    return not any(a is not ZERO and a for a in v)


def lin_comb(coeffs, vectors, n):
    """sum_q coeffs[q] * vectors[q] in Q^n; only the vectors with a nonzero
    coefficient are split."""
    dc, cs = _nonzeros(coeffs)
    return _combine(dc, [(c, _nonzeros(vectors[q])) for q, c in cs], n)


def tensor_split(tensor):
    """Split of every slice tensor[i][j] of a rank-3 tensor."""
    return [[_nonzeros(v) for v in row] for row in tensor]


def _tensor_dense(split):
    """The rank-3 tensor of Fractions whose slices have these splits."""
    n = len(split)
    return tuple(tuple(_dense(s, n) for s in row) for row in split)


def _splits_key(splits):
    """A hashable form of a sequence of canonical splits, equal exactly when
    the vectors are."""
    return tuple((d, tuple(nz)) for d, nz in splits)


def contract_splits(parts, n):
    """sum over parts (s, coefficient split, vector splits) of
    s * sum_q coefficient_q * (vector q) in Q^n, s an int, normalised once."""
    den = lcm(*[d for _, (d, _), _ in parts])
    return _combine(den, [(s * c * (den // d), splits[q])
                          for s, (d, cs), splits in parts for q, c in cs], n)


def _bilinear(split, x, y, n, keep_split=False):
    """T(x, y) for the tensor T with this split, x and y given by their
    splits: the one bilinear contraction, over the nonzero slices T[p][q]
    it reads, and the zero vector, with no contraction, when it reads none.
    An empty slice is skipped before its coefficient is multiplied.  With
    keep_split the canonical split of T(x, y)."""
    (dx, xs), (dy, ys) = x, y
    terms = [(a * b, s) for p, a in xs for q, b in ys if (s := split[p][q])[1]]
    if terms:
        return _combine(dx * dy, terms, n, keep_split)
    return (1, []) if keep_split else zero_vec(n)


def bilinear(split, x, y):
    """T(x, y) = sum_ij x_i y_j T[i][j] for the tensor T with this split."""
    return _bilinear(split, _nonzeros(x), _nonzeros(y), len(split))


def left_map(split, x):
    """Matrix of y -> T(x, y) for the tensor T with this split."""
    n = len(split)
    xs = _nonzeros(x)
    return Matrix.from_columns([_bilinear(split, xs, (1, [(j, 1)]), n) for j in range(n)])


def bilinear_table(split, xs, ys, pairs):
    """{(i, j): T(x_i, y_j)} for exactly the index pairs asked for, xs and ys
    the splits of the vectors: an alternating T asks for the pairs i < j
    (itertools.combinations), a symmetric one for i <= j
    (combinations_with_replacement)."""
    n = len(split)
    return {(i, j): _bilinear(split, xs[i], ys[j], n) for i, j in pairs}


def _eliminate(rows, ncols):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of integer rows, in
    place.

    Pivoting is leftmost-nonzero: at each column the first row at or below
    the cursor with a nonzero entry is swapped up.  Every other row becomes
    (p * row - e * pivot_row) / prev, with p the pivot, e the row's entry in
    the pivot column and prev the previous pivot; the division is exact and
    every entry stays an integer minor of the input.  On return the first
    len(pivots) rows are den times the reduced row echelon form and the rest
    are zero.

    Returns (pivots, den, sign, leading): den is the last pivot, sign the
    parity of the row swaps, so a nonsingular square input has determinant
    sign * den; leading holds the pivots met before the first swap or
    skipped column, which are the leading principal minors 1, 2, ... of the
    input.
    """
    m = len(rows)
    pivots = []
    leading = []
    prev = 1
    sign = 1
    r = 0
    for c in range(ncols):
        if r == m:
            break
        p = next((i for i in range(r, m) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        elif c == r == len(leading):
            leading.append(rows[r][c])
        prow = rows[r]
        piv = prow[c]
        for i in range(m):
            if i == r:
                continue
            row = rows[i]
            e = row[c]
            if e:
                rows[i] = [(piv * x - e * y) // prev for x, y in zip(row, prow)]
            elif piv != prev:
                rows[i] = [x * piv // prev if x else 0 for x in row]
        pivots.append(c)
        prev = piv
        r += 1
    return pivots, prev, sign, leading


def _int_rows(rows):
    """Each nonzero row as integer numerators over its own lcm: scaling a
    row changes no reduced echelon form, and a zero row adds nothing to it."""
    return [_over_lcm(row)[1] for row in rows if not is_zero_vec(row)]


def _rref(rows, ncols):
    """Reduced row echelon form with leftmost-nonzero pivoting.

    Returns (nonzero rows as tuples, pivot column indices).
    """
    work = _int_rows(rows)
    pivots, den, _, _ = _eliminate(work, ncols)
    return (tuple(tuple(_entry(x, den) for x in row) for row in work[:len(pivots)]),
            tuple(pivots))


def _transposed(split, nrows):
    """Canonical splits of the rows of the matrix with these column splits,
    in integers: each row over the lcm of its columns' denominators, then
    reduced."""
    rows = [[] for _ in range(nrows)]
    for j, (d, nz) in enumerate(split):
        for k, a in nz:
            rows[k].append((j, a, d))
    out = []
    for row in rows:
        big = lcm(*[d for _, _, d in row])
        out.append(_reduced(big, [(j, a * (big // d)) for j, a, d in row]))
    return out


class Matrix:
    """Dense exact matrix over Q, stored as whichever form it was born in:
    rows of Fractions when built from values, else the canonical splits of
    its columns (an identity, zeros, a product, sum, multiple, transpose or
    inverse).  The other form is built on first read and kept, as is the
    inverse once computed; == compares splits."""

    __slots__ = ("_rows", "nrows", "ncols", "_split", "_inverse")

    def __init__(self, rows):
        self._rows = tuple(tuple(rat(e) for e in row) for row in rows)
        self.nrows = len(self._rows)
        self.ncols = len(self._rows[0]) if self._rows else 0
        self._split = self._inverse = None
        if any(len(r) != self.ncols for r in self._rows):
            raise DimensionMismatch("ragged rows")

    @classmethod
    def _of(cls, rows, nrows, ncols):
        """Matrix from rows of normalised Fractions, without re-validation."""
        m = object.__new__(cls)
        m._rows, m.nrows, m.ncols, m._split, m._inverse = tuple(rows), nrows, ncols, None, None
        return m

    @classmethod
    def _of_split(cls, split, nrows):
        """Matrix from the canonical splits of its columns; never mutated."""
        m = object.__new__(cls)
        m._rows, m.nrows, m.ncols, m._split, m._inverse = None, nrows, len(split), split, None
        return m

    @classmethod
    def identity(cls, n):
        return cls._of_split([(1, [(i, 1)]) for i in range(n)], n)

    @classmethod
    def zeros(cls, m, n):
        return cls._of_split([(1, [])] * n, m)

    @classmethod
    def from_columns(cls, cols):
        return cls(list(zip(*cols))) if cols else cls([])

    @property
    def rows(self):
        """The rows as tuples of Fractions, built from the splits on first read."""
        if self._rows is None:
            cols = [_dense(s, self.nrows) for s in self._split]
            self._rows = tuple(zip(*cols)) if cols else ((),) * self.nrows
        return self._rows

    def column(self, j):
        return tuple(row[j] for row in self.rows)

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def split(self):
        """Split of every column, computed on first use."""
        if self._split is None:
            self._split = [_nonzeros(col) for col in self.columns()]
        return self._split

    def transpose(self):
        return Matrix._of_split(_transposed(self.split(), self.nrows), self.ncols)

    def apply(self, v):
        """Matrix-vector product: the columns combined by v."""
        if len(v) != self.ncols:
            raise DimensionMismatch("vector length %d, expected %d" % (len(v), self.ncols))
        return contract_splits([(1, _nonzeros(v), self.split())], self.nrows)

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise DimensionMismatch("shape mismatch in matmul")
            cols = self.split()
            return Matrix._of_split([_combine(d, [(c, cols[t]) for t, c in nz], self.nrows,
                                              keep_split=True)
                                     for d, nz in other.split()], self.nrows)
        return self.apply(other)

    def _same_shape(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("shapes %dx%d and %dx%d differ" % (
                self.nrows, self.ncols, other.nrows, other.ncols))

    def _plus(self, other, sign):
        self._same_shape(other)
        return Matrix._of_split([_combine(1, ((1, a), (sign, b)), self.nrows, keep_split=True)
                                 for a, b in zip(self.split(), other.split())], self.nrows)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return Matrix._of_split([(d, [(k, -a) for k, a in nz]) for d, nz in self.split()],
                                self.nrows)

    def scale(self, c):
        c = rat(c)
        p, q = c.numerator, c.denominator
        return Matrix._of_split([_reduced(d * q, [(k, a * p) for k, a in nz] if p else [])
                                 for d, nz in self.split()], self.nrows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and (self.nrows, self.ncols) == (other.nrows, other.ncols)
                and self.split() == other.split())

    def __hash__(self):
        return hash(_splits_key(self.split()))

    def is_zero(self):
        return not any(nz for _, nz in self.split())

    def is_square(self):
        return self.nrows == self.ncols

    def trace(self):
        return sum((self.rows[i][i] for i in range(self.nrows)), ZERO)

    def rref(self):
        rows, pivots = _rref(self.rows, self.ncols)
        return Matrix._of(rows, len(rows), self.ncols), pivots

    def _scaled_rows(self):
        """(d, nums) for every row: its integer numerators over d, the lcm of
        its denominators; read off the column splits, in integers, when the
        matrix has no Fraction rows."""
        if self._rows is not None:
            return [_over_lcm(row) for row in self._rows]
        out = []
        for d, nz in _transposed(self._split, self.nrows):
            nums = [0] * self.ncols
            for k, a in nz:
                nums[k] = a
            out.append((d, nums))
        return out

    def _nonzero_int_rows(self):
        """The nonzero rows as integer numerators (see _int_rows)."""
        return [nums for _, nums in self._scaled_rows() if any(nums)]

    def rank(self):
        return len(_eliminate(self._nonzero_int_rows(), self.ncols)[0])

    def _square_elimination(self, what):
        """(row lcms, result of _eliminate) for a square matrix."""
        if not self.is_square():
            raise DimensionMismatch("%s of non-square matrix" % what)
        scaled = self._scaled_rows()
        return [d for d, _ in scaled], _eliminate([nums for _, nums in scaled], self.ncols)

    def det(self):
        scales, (pivots, den, sign, _) = self._square_elimination("determinant")
        if len(pivots) < self.nrows:
            return ZERO
        return Fraction(sign * den, prod(scales))

    def leading_minors(self):
        """Leading principal minors of orders 1, 2, ..., exact, from one
        elimination; the list stops after the first minor that is zero."""
        scales, (_, _, _, leading) = self._square_elimination("leading minors")
        out = []
        scale = 1
        for k, minor in enumerate(leading):
            scale *= scales[k]
            out.append(Fraction(minor, scale))
        if len(out) < self.nrows:
            out.append(ZERO)
        return out

    def inverse(self):
        """The inverse, computed on first use and kept: the right half of the
        eliminated [A | I] is den * A^-1, read as canonical column splits."""
        if self._inverse is None:
            if not self.is_square():
                raise DimensionMismatch("inverse of non-square matrix")
            n = self.nrows
            work = [nums + [d if k == i else 0 for k in range(n)]
                    for i, (d, nums) in enumerate(self._scaled_rows())]
            pivots, den, _, _ = _eliminate(work, 2 * n)
            if pivots != list(range(n)):
                raise SingularMatrix("matrix is singular")
            self._inverse = Matrix._of_split(
                [_reduced(den, [(r, row[c]) for r, row in enumerate(work) if row[c]])
                 for c in range(n, 2 * n)], n)
        return self._inverse

    def kernel(self):
        """Canonical null-space basis (free variables set to 1, in order)."""
        work = self._nonzero_int_rows()
        pivots, den, _, _ = _eliminate(work, self.ncols)
        pivot_set = set(pivots)
        basis = []
        for f in range(self.ncols):
            if f in pivot_set:
                continue
            v = [ZERO] * self.ncols
            v[f] = ONE
            for r, p in enumerate(pivots):
                v[p] = _entry(-work[r][f], den)
            basis.append(tuple(v))
        return basis

    def solve(self, b):
        """One solution of A x = b, or None if inconsistent."""
        _same_length(self.rows, b)
        n = self.ncols
        work = _int_rows([row + (bi,) for row, bi in zip(self.rows, vec(b))])
        pivots, den, _, _ = _eliminate(work, n + 1)
        if n in pivots:
            return None
        x = [ZERO] * n
        for r, p in enumerate(pivots):
            x[p] = _entry(work[r][n], den)
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
        """Q^ambient, whose echelon form is the identity: no elimination."""
        s = object.__new__(cls)
        s.ambient = ambient
        s.basis = tuple(basis_vec(ambient, i) for i in range(ambient))
        s.pivots = tuple(range(ambient))
        return s

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

    def complement_in(self, bigger):
        """C with bigger = self (+) C, chosen deterministically: greedily
        extend by the echelon basis vectors of `bigger` not already in the
        running span.
        """
        self._check(bigger)
        if not bigger.contains(self):
            raise DimensionMismatch("complement: first subspace not inside second")
        acc = list(self.basis)
        added = []
        current = Subspace(self.ambient, acc)
        for w in bigger.basis:
            if not current.contains_vector(w):
                added.append(w)
                acc.append(w)
                current = Subspace(self.ambient, acc)
        comp = Subspace(self.ambient, added)
        certify("complement does not split the bigger space",
                comp.dim + self.dim == bigger.dim and self.intersect(comp).is_zero())
        return comp

    def orthogonal_complement(self, metric):
        """Orthogonal complement with respect to an InnerProduct."""
        if self.is_zero():
            return Subspace.whole(self.ambient)
        constraints = Matrix([metric.gram.apply(u) for u in self.basis])
        return Subspace(self.ambient, constraints.kernel())

    def image(self, mat):
        """Span of mat applied to the basis."""
        return Subspace(mat.nrows, [mat.apply(b) for b in self.basis]) if self.basis \
            else Subspace.zero(mat.nrows)

    def _check(self, other):
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimensions differ")
