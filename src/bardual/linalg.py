"""Exact sparse linear algebra: rank, kernel/image bases and solving, all
answered by one column elimination.

A `Matrix` is held as sparse columns: dicts {row: coefficient} with no
zero stored, the vector convention of `sparse`, so equal matrices have
equal columns.  Dense rows are accepted as input only (`from_rows`, the
`data` argument) and turned into columns on entry; callers build a
matrix from its columns and read it through `columns()` and `col()`.

`ColumnEchelon` reduces the columns left to right against the span of
the independent columns before them ("first-pivot convention").  Its
results do not depend on the order of the arithmetic: the independent
columns are the pivot columns of the reduced row echelon form, and a
kernel vector is column j of that form with its sign flipped and a 1 at
j.  So every answer is deterministic given the input.
"""

from __future__ import annotations

from .sparse import vadd, viadd, vneg, vscale


class Matrix:
    __slots__ = ("field", "rows", "cols", "_columns")

    def __init__(self, field, rows: int, cols: int, data=None):
        """The zero matrix of this shape, or the one with dense rows `data`."""
        self.field = field
        self.rows = rows
        self.cols = cols
        if data is None:
            self._columns = [{} for _ in range(cols)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("matrix data does not match shape")
            self._columns = [{i: row[j] for i, row in enumerate(data)
                              if row[j]} for j in range(cols)]

    @classmethod
    def from_columns(cls, field, rows: int, columns):
        """Matrix with the given sparse columns; they are kept, not copied."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = len(columns)
        m._columns = list(columns)
        return m

    @classmethod
    def from_rows(cls, field, rows):
        r = len(rows)
        c = len(rows[0]) if r else 0
        return cls(field, r, c, rows)

    @classmethod
    def from_cols(cls, field, cols, rows_hint=None):
        """Matrix whose columns are the given dense vectors."""
        rows = len(cols[0]) if cols else rows_hint or 0
        return cls.from_columns(field, rows, [_sparse(c) for c in cols])

    @classmethod
    def identity(cls, field, n):
        one = field.one
        return cls.from_columns(field, n, [{i: one} for i in range(n)])

    def columns(self):
        """Sparse columns {row: coefficient}; read only."""
        return self._columns

    def col(self, j):
        return _dense(self._columns[j], self.rows, self.field.zero)

    def transpose(self):
        out = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.columns()):
            for i, v in col.items():
                out[i][j] = v
        return Matrix.from_columns(self.field, self.cols, out)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols
                and self.columns() == other.columns())

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        mine = self.columns()
        out = []
        for col in other.columns():
            acc = {}
            for k, c in col.items():
                viadd(acc, mine[k], c)
            out.append(acc)
        return Matrix.from_columns(self.field, self.rows, out)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in sum")
        return Matrix.from_columns(
            self.field, self.rows,
            [vadd(x, y) for x, y in zip(self.columns(), other.columns())])

    def __neg__(self):
        return Matrix.from_columns(self.field, self.rows,
                                   [vneg(x) for x in self.columns()])

    def scale(self, c):
        return Matrix.from_columns(self.field, self.rows,
                                   [vscale(c, x) for x in self.columns()])

    def apply(self, v):
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        acc = {}
        for col, x in zip(self.columns(), v):
            if x:
                viadd(acc, col, x)
        return _dense(acc, self.rows, self.field.zero)

    def is_zero(self):
        return not any(self.columns())

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def _sparse(v):
    return {i: c for i, c in enumerate(v) if c}


def _dense(v: dict, n, zero):
    out = [zero] * n
    for i, c in v.items():
        out[i] = c
    return out


def _subtract_multiple(acc: dict, x: dict, f, p) -> None:
    """acc -= f * x in place; reduce mod p when p is nonzero."""
    for i, c in x.items():
        s = acc.get(i)
        s = -f * c if s is None else s - f * c
        if p:
            s %= p
        if s:
            acc[i] = s
        else:
            del acc[i]


class ColumnEchelon:
    """Column elimination of a sparse matrix with a fixed pivot order.

    `columns` are sparse vectors over `field`.  Column j is reduced
    against the independent columns before it: while its lowest nonzero
    row is the pivot row (lowest row) of a stored reduced column, that
    multiple is subtracted.  If anything is left, column j is independent
    and what is left is stored under its lowest row.  So:

      pivots   the indices of the independent columns, ascending: the
               first-pivot columns of the reduced row echelon form;
      rank     their number;
      kernel   (track=True only) for every other column j, the sparse
               kernel vector with 1 at j, supported on j and the pivots
               before it: the reduced-echelon kernel basis vector of j.

    Over F_p the arithmetic runs on plain ints modulo p, and results are
    turned back into field elements on the way out.
    """

    def __init__(self, field, columns, track=False):
        self.field = field
        self._p = field.characteristic
        # pivot row -> (reduced column scaled to 1 there, its combination)
        self._rows = {}
        self.pivots = []
        self.kernel = {}
        one = 1 if self._p else field.one
        for j, col in enumerate(columns):
            comb = {j: one} if track else None
            v, comb = self._reduce(self._lift(col), comb)
            if v:
                self._add_pivot(v, comb)
                self.pivots.append(j)
            elif track:
                self.kernel[j] = self._lower(comb)

    @property
    def rank(self):
        return len(self.pivots)

    def _lift(self, col):
        if self._p:
            return {i: c.val for i, c in col.items()}
        return dict(col)

    def _lower(self, v):
        if self._p:
            return {i: self.field(c) for i, c in v.items()}
        return v

    def _reduce(self, v, comb):
        """Reduce v until its lowest row is no pivot row.  comb tracks the
        input columns subtracted: v - sum comb[k] * column k stays fixed."""
        rows, p = self._rows, self._p
        while v:
            r = min(v)
            pivot = rows.get(r)
            if pivot is None:
                break
            f = v[r]
            _subtract_multiple(v, pivot[0], f, p)
            if comb is not None:
                _subtract_multiple(comb, pivot[1], f, p)
        return v, comb

    def _add_pivot(self, v, comb):
        r = min(v)
        p = self._p
        if p:
            inv = pow(v[r], p - 2, p)
            v = {i: c * inv % p for i, c in v.items()}
            if comb is not None:
                comb = {i: c * inv % p for i, c in comb.items()}
        else:
            inv = self.field.one / v[r]
            v = {i: c * inv for i, c in v.items()}
            if comb is not None:
                comb = {i: c * inv for i, c in comb.items()}
        self._rows[r] = (v, comb)

    def solve(self, b: dict):
        """Sparse x over the pivot columns with sum x[k] * column k = b, or
        None when b is not in their span.  Needs track=True."""
        v, comb = self._reduce(self._lift(b), {})
        if v:
            return None
        return self._lower(vneg(comb))


def eliminate(m: Matrix):
    """Rank, kernel basis and image basis of m, all exact.

    kernel vectors are columns v with m @ v = 0, one per non-pivot column
    in reduced-echelon form; the image basis is the pivot columns of m
    itself, so rank + len(kernel) == cols.
    """
    E = ColumnEchelon(m.field, m.columns(), track=True)
    z = m.field.zero
    kernel = [_dense(v, m.cols, z) for v in E.kernel.values()]
    image = [m.col(j) for j in E.pivots]
    return E.rank, kernel, image


def rank(m: Matrix) -> int:
    return ColumnEchelon(m.field, m.columns()).rank


def solve(m: Matrix, b):
    """Some x with m @ x = b, or None when b is not in the image.

    x is the solution supported on the pivot columns.  Raises on length
    mismatch; the zero-column case degenerates correctly.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side has wrong length")
    x = ColumnEchelon(m.field, m.columns(), track=True).solve(_sparse(b))
    return None if x is None else _dense(x, m.cols, m.field.zero)


def solve_matrix(m: Matrix, bmat: Matrix):
    """Solve m @ X = bmat column by column; None if any column fails."""
    E = ColumnEchelon(m.field, m.columns(), track=True)
    cols = []
    for b in bmat.columns():
        x = E.solve(b)
        if x is None:
            return None
        cols.append(x)
    return Matrix.from_columns(m.field, m.cols, cols)


def inverse(m: Matrix):
    if m.rows != m.cols:
        raise ValueError("only square matrices invert")
    return solve_matrix(m, Matrix.identity(m.field, m.rows))


def quotient_representatives(span_cols, candidate_cols, field, dim):
    """Columns among `candidate_cols` extending span(span_cols) to
    span(span_cols + candidates); first-pivot convention.

    Used for cohomology representatives: candidates are kernel vectors,
    span_cols the image of the previous differential.
    """
    k = len(span_cols)
    E = ColumnEchelon(field, [_sparse(c) for c in
                              list(span_cols) + list(candidate_cols)])
    return [candidate_cols[j - k] for j in E.pivots if j >= k]
