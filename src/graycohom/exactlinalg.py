"""Exact scalar arithmetic and sparse linear algebra over Q and F_p.

Every cohomology dimension in the package reduces to rank / kernel
computations done here.  Scalars are ``int`` residues in {0, ..., p-1}
over F_p; over Q they are ``int`` when integral and ``Fraction``
otherwise.  Which field is meant is decided by the ``Field`` object
carried alongside.  There is no floating point anywhere.

A ``SparseMatrix`` is stored by row, one dict col -> nonzero scalar per
row, which is the form that products and elimination read.  This module
is the only one that knows it; the {(row, col): value} form exists only
as the ``entries`` view.

All elimination is one kernel, ``Echelon``: it takes rows sparsest first
(fewest nonzeros, ties by row index), which keeps fill-in low, and keeps
its pivot rows fully reduced.  The reduced row echelon form of a matrix
depends only on the span of its rows, so the row order changes the time,
never the result: the rank, the ``kernel_basis`` vectors and the
``solve_in_image`` solution (zero in every free column) are the same for
every order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


class Field:
    """Common interface for the two supported scalar fields."""

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def contains(self, a) -> bool:
        """a is a scalar of this field in its canonical form."""
        raise NotImplementedError

    def elements(self):
        """Iterate over all field elements (finite fields only)."""
        raise TypeError(f"{self} is not finite")


class RationalField(Field):
    """Exact rationals.  Integral values are carried as plain ``int`` and
    only division introduces ``Fraction``; the two interoperate exactly
    (``int`` and ``Fraction`` compare and hash consistently), and keeping
    the common integer case on native ints is substantially faster."""

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return int(n)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        q = 1 / Fraction(a)
        return q.numerator if q.denominator == 1 else q

    def is_zero(self, a) -> bool:
        return a == 0

    def contains(self, a) -> bool:
        return type(a) in (int, Fraction)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"

    def describe(self):
        return {"rational": True}


class PrimeField(Field):
    def __init__(self, p: int):
        if p < 2 or p >= 2**31:
            raise ValueError(f"prime must satisfy 2 <= p < 2^31, got {p}")
        for d in range(2, p):
            if d * d > p:
                break
            if p % d == 0:
                raise ValueError(f"{p} is not prime")
        self.p = p

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a == 0

    def contains(self, a) -> bool:
        return type(a) is int and 0 <= a < self.p

    def elements(self):
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def describe(self):
        return {"prime": self.p}


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


@dataclass
class Vector:
    """Sparse vector: index -> nonzero scalar."""

    length: int
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        for i in self.entries:
            if not 0 <= i < self.length:
                raise IndexError(f"index {i} out of range for length {self.length}")

    def get(self, i, zero):
        return self.entries.get(i, zero)

    def is_zero(self):
        return not self.entries


@dataclass(init=False)
class SparseMatrix:
    """Sparse matrix over a fixed field, stored by row: by_row[i] is row i
    as a dict col -> nonzero scalar, and rows = len(by_row).

    entries is a {(row, col): value} view for the tests and the benchmark,
    built on every read; assigning it (or passing it to the constructor)
    replaces every row and leaves the given dict as it is.  The setter,
    the constructor, set and add_to refuse an index out of range."""

    rows: int
    cols: int
    field: Field
    by_row: list

    def __init__(self, rows: int, cols: int, field_: Field,
                 entries: dict | None = None):
        self.rows, self.cols, self.field = rows, cols, field_
        self.entries = entries or {}

    @property
    def entries(self) -> dict:
        return {(i, j): v for i, row in enumerate(self.by_row)
                for j, v in row.items()}

    @entries.setter
    def entries(self, entries: dict):
        rows = [{} for _ in range(self.rows)]
        for (i, j), v in entries.items():
            self._check(i, j)
            if not self.field.is_zero(v):
                rows[i][j] = v
        self.by_row = rows

    def _check(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i},{j}) out of range")

    def set(self, i, j, v):
        self._check(i, j)
        if self.field.is_zero(v):
            self.by_row[i].pop(j, None)
        else:
            self.by_row[i][j] = v

    def add_to(self, i, j, v):
        self._check(i, j)
        self.set(i, j, self.field.add(self.by_row[i].get(j, 0), v))

    def mul_vector(self, v: Vector) -> Vector:
        return self.mul_vectors([v])[0]

    def mul_vectors(self, vs: list) -> list:
        """[M v for v in vs] in one pass over the rows: each row reads only
        the vectors that are nonzero in its columns.  Each entry sums its
        terms in the row's column order; over F_p the raw integer sum is
        reduced once."""
        if any(v.length != self.cols for v in vs):
            raise ValueError("dimension mismatch")
        p = _modulus(self.field)
        by_col: dict = {}
        for t, v in enumerate(vs):
            for j, x in v.entries.items():
                by_col.setdefault(j, []).append((t, x))
        outs = [{} for _ in vs]
        for i, row in enumerate(self.by_row):
            acc: dict = {}
            get = acc.get
            for j, a in row.items():
                for t, x in by_col.get(j, ()):
                    acc[t] = get(t, 0) + a * x
            for t, s in acc.items():
                s = s if p is None else s % p
                if s:
                    outs[t][i] = s
        return [Vector(self.rows, out) for out in outs]

    def mul_matrix(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows or self.field != other.field:
            raise ValueError("dimension or field mismatch")
        p = _modulus(self.field)
        other_rows = other.by_row
        rows = []
        # one row of the product at a time, keyed by column; over F_p the
        # raw integer sums are reduced once per entry
        for row in self.by_row:
            acc: dict = {}
            get = acc.get
            for j, a in row.items():
                for k, b in other_rows[j].items():
                    acc[k] = get(k, 0) + a * b
            if p is not None:
                acc = {k: v % p for k, v in acc.items()}
            rows.append({k: v for k, v in acc.items() if v})
        return from_rows(rows, other.cols, self.field)

    def is_zero(self):
        return not any(self.by_row)


def from_rows(rows: list, cols: int, field_: Field) -> SparseMatrix:
    """The matrix with the given rows, which it takes over: dicts col ->
    nonzero scalar with 0 <= col < cols (not checked)."""
    out = SparseMatrix(0, cols, field_)
    out.rows, out.by_row = len(rows), rows
    return out


def _modulus(K: Field):
    """p for F_p, None for Q: the two forms of the inner loops below."""
    if isinstance(K, PrimeField):
        return K.p
    if isinstance(K, RationalField):
        return None
    raise TypeError(f"unsupported field {K!r}")


def _sub(row: dict, f, prow: dict, p):
    """row -= f * prow in place, dropping entries that become zero; ints
    mod p over F_p (p given), int/Fraction over Q (p None), where an
    integral result is stored as int."""
    get = row.get
    if p is None:
        for j, v in prow.items():
            w = get(j, 0) - f * v
            if not w:
                del row[j]
            elif w.__class__ is Fraction and w.denominator == 1:
                row[j] = w.numerator
            else:
                row[j] = w
    else:
        for j, v in prow.items():
            w = (get(j, 0) - f * v) % p
            if w:
                row[j] = w
            else:
                del row[j]


class Echelon:
    """The reduced row echelon form of the span of the rows added so far.

    A row is a dict col -> nonzero scalar.  ``rows[c]`` is the pivot row
    whose leading entry, scaled to 1, is in column c; it is stored without
    that entry and is zero in every other pivot column.  ``_where[j]``
    holds (at least) the pivots whose row is nonzero in column j, so a new
    pivot column is cleared from only the rows that need it.
    """

    def __init__(self, field_: Field, rows=(), ncols=None):
        """Add rows (dicts, consumed) sparsest first, ties in the given
        order, stopping once there are ncols pivots."""
        self.field = field_
        self._p = _modulus(field_)
        self.rows: dict = {}
        self._where: dict = {}
        for row in sorted(filter(None, rows), key=len):
            if len(self.rows) == ncols:
                break
            self.add(row)

    def reduce(self, row: dict) -> dict:
        """row, changed in place, minus the multiples of the pivot rows
        that make it zero in every pivot column.  The result is the same
        for every order in which the span was built."""
        rows, p = self.rows, self._p
        for c in [c for c in row if c in rows]:
            _sub(row, row.pop(c), rows[c], p)
        return row

    def add(self, row: dict):
        """Extend the span by row (consumed); its pivot column, or None if
        row already lies in the span."""
        self.reduce(row)
        if not row:
            return None
        c = min(row)
        scale = self.field.inv(row.pop(c))
        p = self._p
        if p is None:
            for j, v in row.items():
                w = v * scale
                row[j] = (w.numerator if w.__class__ is Fraction
                          and w.denominator == 1 else w)
        elif scale != 1:
            for j, v in row.items():
                row[j] = v * scale % p
        rows, where = self.rows, self._where
        for j in row:
            where.setdefault(j, set()).add(c)
        # clear column c from the pivot rows; their new nonzeros can only
        # be in row's columns
        for r in where.pop(c, ()):
            prow = rows[r]
            f = prow.pop(c, None)
            if f is not None:
                _sub(prow, f, row, p)
                for j in row:
                    where[j].add(r)
        rows[c] = row
        return c


def _rows(M: SparseMatrix, rhs: Vector | None = None) -> list:
    """Copies of M's rows, for Echelon to consume; rhs (if given) appended
    as column M.cols."""
    rows = [dict(row) for row in M.by_row]
    if rhs is not None:
        for i, v in rhs.entries.items():
            if v:
                rows[i][M.cols] = v
    return rows


def rank(M: SparseMatrix) -> int:
    """Exact rank over M's field."""
    return len(Echelon(M.field, _rows(M), M.cols).rows)


def kernel_basis(M: SparseMatrix) -> list[Vector]:
    """Basis of the null space; always cols - rank vectors, M v = 0 exactly.

    One vector per free column fc, in ascending order: 1 at fc and minus
    the RREF's fc entry at each pivot column."""
    K = M.field
    pivot_rows = Echelon(K, _rows(M), M.cols).rows
    basis = {fc: {fc: K.one()} for fc in range(M.cols)
             if fc not in pivot_rows}
    for c in sorted(pivot_rows):
        for fc, v in pivot_rows[c].items():
            basis[fc][c] = K.neg(v)
    return [Vector(M.cols, entries) for entries in basis.values()]


def vstack(A: SparseMatrix, B: SparseMatrix) -> SparseMatrix:
    """Stack A on top of B (same column count and field)."""
    if A.cols != B.cols or A.field != B.field:
        raise ValueError("dimension or field mismatch")
    return from_rows([dict(row) for row in A.by_row + B.by_row], A.cols,
                     A.field)


def from_columns(columns: list[Vector], rows: int, field_: Field) -> SparseMatrix:
    out = [{} for _ in range(rows)]
    for j, col in enumerate(columns):
        if col.length != rows:
            raise ValueError("column length mismatch")
        for i, v in col.entries.items():
            if not field_.is_zero(v):
                out[i][j] = v
    return from_rows(out, len(columns), field_)


def normalize_leading(field_: Field, v: Vector) -> Vector:
    """Scale so the first nonzero coefficient is 1 (stable representatives)."""
    if not v.entries:
        return v
    lead = v.entries[min(v.entries)]
    inv = field_.inv(lead)
    return Vector(v.length, {i: field_.mul(inv, x) for i, x in v.entries.items()})


def vec_combine(field_: Field, vectors: list, coeffs, length: int) -> Vector:
    """sum_j coeffs[j] * vectors[j] as a vector of the given length, with
    zero entries dropped."""
    entries: dict = {}
    for c, vec in zip(coeffs, vectors):
        if field_.is_zero(c):
            continue
        for i, v in vec.entries.items():
            x = field_.add(entries.get(i, field_.zero()), field_.mul(c, v))
            if field_.is_zero(x):
                entries.pop(i, None)
            else:
                entries[i] = x
    return Vector(length, entries)


def solve_in_span(M: SparseMatrix, basis: list, b: Vector) -> Vector | None:
    """Some x in the span of basis with M x = b exactly, or None."""
    K = M.field
    sol = solve_in_image(from_columns(M.mul_vectors(basis), M.rows, K), b)
    if sol is None:
        return None
    return vec_combine(K, [basis[j] for j in sol.entries],
                       sol.entries.values(), M.cols)


def solve_in_image(M: SparseMatrix, b: Vector) -> Vector | None:
    """Some x with M x = b exactly, or None if b is not in the image.

    x is read off the RREF of [M | b]: zero in the free columns, b's
    reduced entry in each pivot column.  Such an x solves M x = b, so an x
    that does not is a fault, and raises AssertionError."""
    if b.length != M.rows:
        raise ValueError("dimension mismatch")
    K = M.field
    zero = K.zero()
    aug = M.cols
    pivot_rows = Echelon(K, _rows(M, b), aug + 1).rows
    if aug in pivot_rows:
        return None
    sol = Vector(M.cols, {c: row[aug] for c, row in sorted(pivot_rows.items())
                          if aug in row})
    # exactness guard: the contract is M x = b exactly
    Mx = M.mul_vector(sol).entries
    bad = [i for i in Mx.keys() | b.entries.keys()
           if not K.is_zero(K.sub(Mx.get(i, zero), b.entries.get(i, zero)))]
    if bad:
        raise AssertionError(f"the solution misses b in row {min(bad)}")
    return sol
