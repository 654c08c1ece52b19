"""Exact rational linear algebra: scalars, vectors, matrices, subspaces.

Everything downstream computes over Q with zero tolerance.  The one scalar
type is fractions.Fraction, always in lowest terms with a positive
denominator, printing as "p/q".  Most arithmetic on integer numerators
runs through three routines here:

* _combine, the one contraction.  A vector's split is (d, [(index,
  numerator)]): its nonzero entries as Python-int numerators over d, the
  lcm of their denominators.  _combine sums integer multiples of splits
  over one common denominator and returns the canonical split of the sum,
  its one return form: a caller tests it for zero by its numerators and
  builds Fractions only where it hands a vector out.  Matrix products and
  sums, matrix-vector products, linear combinations, the witnesses of the
  basis-triple identities, the structure layer (the ad-twist and Nijenhuis
  residuals) and the Hermitian layer (curvature, the Koszul solve,
  torsion, Levi-Civita's metric certificate, the complex projection)
  run through it; a dot product is one integer sum over the same splits.
  _combine_nonzero is the one zero-skip: a contraction with only zero
  splits to read is not made.
  A rank-3 tensor T is evaluated on vectors only by _bilinear, one
  contraction of T(x, y) over the nonzero slices it reads, which only
  bilinear (the bracket, the commutative product, a connection), left_map
  and bilinear_table call; bilinear_table computes exactly the pairs
  (i, j) its caller asks for, so an alternating table is contracted once
  per unordered pair i < j and a symmetric one once per i <= j.
* _first_nonzero_residual, the packed zero test of a basis-triple identity
  (Jacobi, associativity, the two compatibility identities).  Each slice
  of the tensors is packed once into one Python int over their common
  denominator (Kronecker substitution), at a slot width proven from the
  input, so a residual is zero exactly when one integer sum of about one
  big-int multiply-add per nonzero coefficient is; only the first nonzero
  residual is contracted, by _combine, as the witness.
* _eliminate, the one elimination: fraction-free Gauss-Jordan (Bareiss
  1968) on integer rows, exact divisions only.  Reduced row echelon form,
  kernel, solve, inverse and det all read its result from integer rows
  read off splits, with no Fraction built; so does a basis extension, its
  greedy choice the pivots (_pivot_columns).

One storage rule: every exact object is its canonical splits.  A vector's
canonical split, (d > 0, [(index, numerator)]) with ascending indices and
gcd(d, numerators) = 1, is unique, so == and hash compare splits.  A Matrix
stores those of its columns, a LieAlgebra, CommAssocAlgebra or Connection
those of its slices, a Subspace those of its reduced echelon basis; a
constructor converts its input once, a contraction or an elimination builds
splits directly, and splits are shared and never mutated.  Fractions exist
only at the edges: the views (rows, columns, c, m, gamma, basis), built on
each read and never stored, the vector-valued public calls (apply,
bracket, multiply, lin_comb, coordinates, torsion) and the residuals of
the witnesses.  A rational has one reader, rat, and one writer, _scalar_str:
it writes (numerator, denominator) as str(Fraction) does, also past Python's
limit on the digits of an int, so a write off a split builds no Fraction.
"""
from __future__ import annotations

import re
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


# the largest decimal exponent a scalar string may carry (Python's default
# limit on the digits of an int): Fraction("1e100000000") computes 10**100000000
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?([\d_]*)\s*\Z", re.I)


def rat(value=0, den=None):
    """Exact rational from int, 'p/q' string, Fraction, or (num, den).

    A Fraction is already normalised and is returned as it is; a float is
    refused, and so is a string whose decimal exponent is above _MAX_EXPONENT."""
    if den is None and type(value) is Fraction:
        return value
    if den is not None:
        return rat(value) / rat(den)
    if isinstance(value, str):
        exp = ("e" in value or "E" in value) and _EXPONENT.search(value)
        # five significant digits already exceed the limit: no longer int is built
        if exp and int(exp[1].replace("_", "").lstrip("0")[:5] or 0) > _MAX_EXPONENT:
            raise ValueError("decimal exponent above %d" % _MAX_EXPONENT)
        return Fraction(value.strip())
    if isinstance(value, float):
        raise TypeError("refusing inexact float %r; give an int, a 'p/q' string "
                        "or a Fraction" % value)
    return Fraction(value)


def _decimal(v):
    """str(v) for an int v at any size: str itself below Python's limit on
    int-to-decimal conversion, else the digits of the two halves of |v|
    split at a power of ten.  The limit is never changed."""
    try:
        return str(v)
    except ValueError:
        k = abs(v).bit_length() * 3 // 20            # about half the digits of v
        hi, lo = divmod(abs(v), 10 ** k)
        return ("-" if v < 0 else "") + _decimal(hi) + _decimal(lo).zfill(k)


def _scalar_str(num, den):
    """str(Fraction(num, den)) for ints num and den > 0, at any size, with no
    Fraction built: the one writer of a rational.  A Fraction or an int x is
    written as _scalar_str(*x.as_integer_ratio())."""
    g = gcd(num, den)
    return _decimal(num // g) + ("/" + _decimal(den // g) if den != g else "")


def _split_strs(split, n):
    """The scalar strings of the vector of Q^n with this canonical split:
    "0" for each zero entry, _scalar_str for the others."""
    d, nz = split
    out = ["0"] * n
    for k, a in nz:
        out[k] = _scalar_str(a, d)
    return out


def vec(entries):
    return tuple(rat(e) for e in entries)


def basis_vec(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_scale(c, v):
    return tuple(c * a if a else ZERO for a in v)


def _nonzeros(v):
    """The canonical split of v: (d, [(index, numerator)]) for its nonzero
    entries over their lcm d."""
    # most zeros are the ZERO constant, which the identity test skips
    # without a call to Fraction.__bool__
    nz = [(t, x) for t, x in enumerate(v) if x is not ZERO and x]
    d = lcm(*[x.denominator for _, x in nz])
    return d, [(t, x.numerator * (d // x.denominator)) for t, x in nz]


def _value_split(value, dim):
    """The canonical split of a vector of Q^dim given densely or as a sparse
    {index: scalar} dict."""
    if isinstance(value, dict):
        v = [ZERO] * dim
        for k, s in value.items():
            v[int(k)] = rat(s)
    else:
        v = vec(value)
        if len(v) != dim:
            raise DimensionMismatch("vector length %d, expected %d" % (len(v), dim))
    return _nonzeros(v)


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


def _over(big, split):
    """The numerators of a split over big, a multiple of its denominator."""
    d, nz = split
    f = big // d
    return nz if f == 1 else [(k, a * f) for k, a in nz]


def _negated(split):
    d, nz = split
    return d, [(k, -a) for k, a in nz]


def _ints(nz, n):
    """The numerators nz of a split as a dense list of n integers."""
    out = [0] * n
    for k, a in nz:
        out[k] = a
    return out


def _dense(split, n):
    """The vector in Q^n with this split, as normalised Fractions."""
    d, nz = split
    out = [ZERO] * n
    for k, a in nz:
        out[k] = Fraction(a, d)
    return tuple(out)


def _combine(den, terms, n):
    """The canonical split of sum of (c / den) * vector over terms (c, split
    of the vector) in Q^n.

    The one contraction kernel: every term is put over den * big, big the
    lcm of the terms' denominators, summed over Python ints and reduced.
    With no terms it is the empty split, at once.
    """
    if not terms:
        return 1, []
    big = lcm(*[d for _, (d, _) in terms])
    out = [0] * n
    for c, (d, nz) in terms:
        f = c * (big // d)
        for k, a in nz:
            out[k] += f * a
    return _reduced(den * big, [(k, a) for k, a in enumerate(out) if a])


def _combine_nonzero(den, terms, n):
    """_combine over the terms whose split is nonempty: the one zero-skip,
    the empty split with no contraction when there is none."""
    terms = [t for t in terms if t[1][1]]
    return _combine(den, terms, n) if terms else (1, [])


def vec_dot(u, v):
    if len(u) != len(v):
        raise DimensionMismatch("vector lengths %d and %d differ" % (len(u), len(v)))
    (du, nu), (dv, nv) = _nonzeros(u), _nonzeros(v)
    nv = dict(nv)
    return _entry(sum(a * nv.get(t, 0) for t, a in nu), du * dv)


def lin_comb(coeffs, vectors, n):
    """sum_q coeffs[q] * vectors[q] in Q^n; only the vectors with a nonzero
    coefficient are split."""
    dc, cs = _nonzeros(coeffs)
    return _dense(_combine(dc, [(c, _nonzeros(vectors[q])) for q, c in cs], n), n)


def _trace(split):
    """(numerator, denominator) of the trace of the square matrix with these
    column splits: the diagonal numerators summed over their lcm."""
    diag = [(a, d) for k, (d, nz) in enumerate(split) for t, a in nz if t == k]
    big = lcm(*[d for _, d in diag])
    return sum(a * (big // d) for a, d in diag), big


def _tensor_dense(split):
    """The rank-3 tensor of Fractions whose slices have these splits."""
    n = len(split)
    return tuple(tuple(_dense(s, n) for s in row) for row in split)


def _splits_key(splits):
    """A hashable form of a sequence of canonical splits, equal exactly when
    the vectors are."""
    return tuple((d, tuple(nz)) for d, nz in splits)


def _stacked(splits, n):
    """The canonical split of the concatenation of these vectors of Q^n."""
    big = lcm(*[d for d, _ in splits])
    return _reduced(big, [(i * n + k, a * (big // d))
                          for i, (d, nz) in enumerate(splits) for k, a in nz])


class _Tensor:
    """A rank-3 tensor on Q^dim, stored as the canonical splits of its
    slices t[i][j] and nothing else: == and hash compare them."""
    __slots__ = ("dim", "_split")

    def split(self):
        """The canonical split of every slice."""
        return self._split

    def __eq__(self, other):
        return type(other) is type(self) and self._split == other._split

    def __hash__(self):
        return hash(_splits_key(s for row in self._split for s in row))

    def __repr__(self):
        return "%s(dim=%d)" % (type(self).__name__, self.dim)


def contract_splits(parts, n):
    """The canonical split of the sum over parts (s, coefficient split,
    vector splits) of s * sum_q coefficient_q * (vector q) in Q^n, s an int."""
    den = lcm(*[d for _, (d, _), _ in parts])
    return _combine(den, [(s * c * (den // d), splits[q])
                          for s, (d, cs), splits in parts for q, c in cs], n)


def _first_nonzero_residual(tables, identities, triples, n):
    """The first basis triple at which an identity fails, as (triple, index
    of the identity, canonical split of its residual), or None.

    tables are the splits of rank-3 tensors on Q^n.  Each identity maps
    (*tables, *triple) to the parts of its residual in contract_splits form,
    (sign, coefficient slice, row of slices), always as many parts.  The
    triples, a sequence, are taken in order, and at each the identities.  A
    residual whose coefficient slices are all empty costs nothing; the
    witness is contract_splits of the parts.

    Zero test (Kronecker substitution): over D, the lcm of the slice
    denominators, each slice is integers N_s[k] of size at most M, packed
    once as P_s = sum_k N_s[k] 2^(W k).  D^2 times a residual has entries
    R_k = sum of sign * C_q * N_q[k] over the parts and their coefficient
    numerators C_q, and sum of sign * C_q * P_q = sum_k R_k 2^(W k).  As
    |R_k| <= parts * n * M^2 < 2^(W - 1), that integer is zero exactly when
    R is: at the lowest nonzero R_k it is 2^(W k) (R_k + 2^W m), m an
    integer, and 0 < |R_k| < 2^W.  Packing is used only when D is about
    the slices' own denominators, at most twice the bits of the largest;
    on mixed denominators each residual is contracted instead.
    """
    dens = {d for table in tables for row in table for d, nz in row if nz}
    if not triples or not dens:
        return None
    big = lcm(*dens)
    packed = None
    if big.bit_length() <= 2 * max(dens).bit_length():
        nums = [[[_over(big, s) for s in row] for row in table] for table in tables]
        top = max(abs(a) for table in nums for row in table for nz in row for _, a in nz)
        parts = max(len(identity(*tables, *triples[0])) for identity in identities)
        w = (parts * n * top * top).bit_length() + 1
        packed = [[[(nz, sum(a << w * k for k, a in nz) if nz else 0) for nz in row]
                   for row in table] for table in nums]
    for t in triples:
        for num, identity in enumerate(identities):
            if packed is not None:
                total = 0
                for s, (cs, _), row in identity(*packed, *t):
                    if cs:
                        total += s * sum(c * row[q][1] for q, c in cs)
                if not total:
                    continue
            parts = identity(*tables, *t)
            if not any(cs for _, (_, cs), _ in parts):
                continue
            resid = contract_splits(parts, n)
            certify("a packed residual is zero exactly when its contraction is",
                    packed is None or resid[1])
            if resid[1]:
                return t, num, resid
    return None


def _bilinear(split, x, y, n):
    """The canonical split of T(x, y) for the tensor T with this split, x
    and y given by their splits: the one bilinear contraction, over the
    nonzero slices T[p][q] it reads, and the empty split, with no
    contraction, when it reads none.  An empty slice is skipped before its
    coefficient is multiplied."""
    (dx, xs), (dy, ys) = x, y
    terms = [(a * b, s) for p, a in xs for q, b in ys if (s := split[p][q])[1]]
    return _combine(dx * dy, terms, n) if terms else (1, [])


def bilinear(split, x, y):
    """T(x, y) = sum_ij x_i y_j T[i][j] for the tensor T with this split."""
    n = len(split)
    return _dense(_bilinear(split, _nonzeros(x), _nonzeros(y), n), n)


def left_map(split, x):
    """Matrix of y -> T(x, y) for the tensor T with this split, x given by
    its split."""
    n = len(split)
    return Matrix._of_split([_bilinear(split, x, (1, [(j, 1)]), n) for j in range(n)], n)


def bilinear_table(split, xs, ys, pairs):
    """{(i, j): canonical split of T(x_i, y_j)} for exactly the index pairs
    asked for, xs and ys the splits of the vectors: an alternating T asks
    for the pairs i < j (itertools.combinations), a symmetric one for
    i <= j (combinations_with_replacement)."""
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


def _echelon(rows, ncols):
    """(canonical splits of the reduced row echelon rows, pivot columns) of
    these integer rows: the nonzero rows _eliminate leaves, over its last
    pivot."""
    pivots, den, _, _ = _eliminate(rows, ncols)
    return ([_reduced(den, [(k, x) for k, x in enumerate(row) if x])
             for row in rows[:len(pivots)]], pivots)


def _pivot_columns(splits, n):
    """The positions of the vectors, given by their splits in Q^n and taken
    in order, that lie outside the span of the vectors before them: the
    pivot columns of one elimination of the matrix with these columns, each
    scaled by its denominator (reduced row echelon form chooses greedily)."""
    rows = [[0] * len(splits) for _ in range(n)]
    for q, (_, nz) in enumerate(splits):
        for k, a in nz:
            rows[k][q] = a
    return _eliminate([row for row in rows if any(row)], len(splits))[0]


def _kernel(rows, ncols):
    """Canonical splits of the null-space basis of these integer rows, the
    free variables set to 1 in order; the rows are eliminated in place."""
    pivots, den, _, _ = _eliminate(rows, ncols)
    pivot_set = set(pivots)
    out = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = den
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        out.append(_reduced(den, [(k, a) for k, a in enumerate(v) if a]))
    return out


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
    """Dense exact matrix over Q, stored as the canonical splits of its
    columns; rows, column and columns build Fractions from them on each
    read.  The inverse is kept once computed."""

    __slots__ = ("nrows", "ncols", "_split", "_inverse")

    def __init__(self, rows):
        rows = [tuple(rat(e) for e in row) for row in rows]
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        if any(len(r) != self.ncols for r in rows):
            raise DimensionMismatch("ragged rows")
        self._split = [_nonzeros(col) for col in zip(*rows)]
        self._inverse = None

    @classmethod
    def _of_split(cls, split, nrows, inverse=None):
        """Matrix from its columns' canonical splits, and inverse, if known; never mutated."""
        m = object.__new__(cls)
        m.nrows, m.ncols, m._split, m._inverse = nrows, len(split), split, inverse
        return m

    @classmethod
    def identity(cls, n):
        return cls._of_split([(1, [(i, 1)]) for i in range(n)], n)

    @classmethod
    def zeros(cls, m, n):
        return cls._of_split([(1, [])] * n, m)

    @property
    def rows(self):
        """The rows as tuples of Fractions, built from the splits on each read."""
        cols = self.columns()
        return tuple(zip(*cols)) if cols else ((),) * self.nrows

    def column(self, j):
        return _dense(self._split[j], self.nrows)

    def columns(self):
        return [_dense(s, self.nrows) for s in self._split]

    def split(self):
        """The canonical splits of the columns."""
        return self._split

    def transpose(self):
        return Matrix._of_split(_transposed(self._split, self.nrows), self.ncols)

    def apply(self, v):
        """Matrix-vector product: the columns combined by v."""
        if len(v) != self.ncols:
            raise DimensionMismatch("vector length %d, expected %d" % (len(v), self.ncols))
        return _dense(self._apply_split(_nonzeros(v)), self.nrows)

    def _apply_split(self, x):
        """The canonical split of A x, x given by its split."""
        d, nz = x
        cols = self._split
        return _combine(d, [(c, cols[t]) for t, c in nz], self.nrows)

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise DimensionMismatch("shape mismatch in matmul")
            return Matrix._of_split([self._apply_split(s) for s in other._split], self.nrows)
        return self.apply(other)

    def _same_shape(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("shapes %dx%d and %dx%d differ" % (
                self.nrows, self.ncols, other.nrows, other.ncols))

    def _plus(self, other, sign):
        self._same_shape(other)
        return Matrix._of_split([_combine(1, ((1, a), (sign, b)), self.nrows)
                                 for a, b in zip(self._split, other._split)], self.nrows)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return Matrix._of_split([_negated(s) for s in self._split], self.nrows)

    def scale(self, c):
        c = rat(c)
        p, q = c.numerator, c.denominator
        return Matrix._of_split([_reduced(d * q, [(k, a * p) for k, a in nz] if p else [])
                                 for d, nz in self._split], self.nrows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and (self.nrows, self.ncols) == (other.nrows, other.ncols)
                and self._split == other._split)

    def __hash__(self):
        return hash(_splits_key(self._split))

    def is_zero(self):
        return not any(nz for _, nz in self._split)

    def is_square(self):
        return self.nrows == self.ncols

    def _scaled_rows(self):
        """(d, nums) for every row: its integer numerators over d, the lcm of
        its denominators, read off the column splits.  kernel eliminates the
        nonzero rows: scaling a row changes no reduced echelon form, and a
        zero row adds nothing to it."""
        return [(d, _ints(nz, self.ncols)) for d, nz in _transposed(self._split, self.nrows)]

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

    def _kernel_splits(self):
        return _kernel([r for _, r in self._scaled_rows() if any(r)], self.ncols)

    def kernel(self):
        """Canonical null-space basis (free variables set to 1, in order)."""
        return [_dense(s, self.ncols) for s in self._kernel_splits()]

    def solve(self, b):
        """One solution of A x = b, or None if inconsistent: row i, with its
        integer numerators over d and b_i = p / q, is the equation
        q * nums . x = p * d."""
        if len(b) != self.nrows:
            raise DimensionMismatch("vector lengths %d and %d differ" % (self.nrows, len(b)))
        n = self.ncols
        work = []
        for (d, nums), bi in zip(self._scaled_rows(), vec(b)):
            row = [x * bi.denominator for x in nums] + [bi.numerator * d]
            if any(row):
                work.append(row)
        pivots, den, _, _ = _eliminate(work, n + 1)
        if n in pivots:
            return None
        x = [ZERO] * n
        for r, p in enumerate(pivots):
            x[p] = _entry(work[r][n], den)
        return tuple(x)

    def _row_strs(self):
        """The scalar strings of every row, written off the row splits."""
        return [_split_strs(s, self.ncols) for s in _transposed(self._split, self.nrows)]

    def __repr__(self):
        return "Matrix(%s)" % self._row_strs()


class Subspace:
    """Subspace of Q^n, stored as the canonical splits of its reduced row
    echelon basis, read as integers off _eliminate over its last pivot.
    Two equal subspaces have identical splits, so == is syntactic; basis
    builds Fractions from the splits on each read.
    """

    __slots__ = ("ambient", "_split", "pivots")

    def __init__(self, ambient, rows=()):
        rows = [vec(r) for r in rows]
        if any(len(r) != ambient for r in rows):
            raise DimensionMismatch("vector does not live in ambient space")
        self._span(ambient, [_nonzeros(r) for r in rows])

    @classmethod
    def _spanned(cls, ambient, splits):
        """The span of the vectors with these splits in Q^ambient."""
        s = object.__new__(cls)
        s._span(ambient, splits)
        return s

    def _span(self, ambient, splits):
        self.ambient = ambient
        rows, pivots = _echelon([_ints(nz, ambient) for _, nz in splits if nz], ambient)
        self._split, self.pivots = rows, tuple(pivots)

    @classmethod
    def zero(cls, ambient):
        return cls(ambient)

    @classmethod
    def whole(cls, ambient):
        """Q^ambient as its own reduced echelon form, with no elimination."""
        s = object.__new__(cls)
        s.ambient, s.pivots = ambient, tuple(range(ambient))
        s._split = [(1, [(i, 1)]) for i in range(ambient)]
        return s

    @property
    def basis(self):
        """The echelon basis as tuples of Fractions, built on each read."""
        return tuple(_dense(s, self.ambient) for s in self._split)

    def split(self):
        """The canonical splits of the echelon basis."""
        return self._split

    @property
    def dim(self):
        return len(self._split)

    def is_zero(self):
        return not self._split

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self._split == other._split)

    def __hash__(self):
        return hash((self.ambient, _splits_key(self._split)))

    def __repr__(self):
        return "Subspace(dim %d of Q^%d)" % (self.dim, self.ambient)

    def _coords(self, split):
        """The split of the coordinates, in the echelon basis, of the vector
        with this split, or None if it lies outside: the coordinates are its
        entries at the pivots, and the residual must vanish."""
        d, nz = split
        entries = dict(nz)
        cs = [(r, entries[p]) for r, p in enumerate(self.pivots) if p in entries]
        resid = _combine(d, [(d, split)] + [(-a, self._split[r]) for r, a in cs], self.ambient)
        return None if resid[1] else _reduced(d, cs)

    def coordinates(self, v):
        """Coefficients of v in the canonical basis, or None if v outside."""
        if len(v) != self.ambient:
            raise DimensionMismatch("ambient mismatch")
        cs = self._coords(_nonzeros(vec(v)))
        return None if cs is None else _dense(cs, self.dim)

    def contains(self, other):
        return all(self._coords(s) is not None for s in other._split)

    def sum(self, other):
        self._check(other)
        return Subspace._spanned(self.ambient, self._split + other._split)

    def intersect(self, other):
        """Zassenhaus: row reduce [U|U; V|0], read rows with zero left half."""
        self._check(other)
        n = self.ambient
        block = [_ints(nz, n) * 2 for _, nz in self._split]
        block += [_ints(nz, n) + [0] * n for _, nz in other._split]
        rows, _ = _echelon(block, 2 * n)
        return Subspace._spanned(n, [(d, [(k - n, a) for k, a in nz])
                                     for d, nz in rows if nz[0][0] >= n])

    def orthogonal_complement(self, metric):
        """Orthogonal complement with respect to an InnerProduct: the kernel
        of the rows G u over the basis vectors u."""
        n = self.ambient
        if metric.dim != n:
            raise DimensionMismatch("metric dimension %d, expected %d" % (metric.dim, n))
        if self.is_zero():
            return Subspace.whole(n)
        rows = [_ints(metric.gram._apply_split(s)[1], n) for s in self._split]
        return Subspace._spanned(n, _kernel(rows, n))

    def image(self, mat):
        """Span of mat applied to the basis."""
        if mat.ncols != self.ambient:
            raise DimensionMismatch("vector length %d, expected %d" % (self.ambient, mat.ncols))
        return Subspace._spanned(mat.nrows, [mat._apply_split(s) for s in self._split])

    def _check(self, other):
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimensions differ")
