"""Exact sparse linear algebra: rank, kernel/image bases and solving, all
answered by one column elimination.

One vector convention holds at this boundary: every vector taken or
returned is a sparse dict {index: coefficient} with no zero stored, the
convention of `sparse`, so equal vectors are equal dicts.  A `Matrix`
is held as such columns; callers build it from its columns and read it
through `columns()`.  `from_rows` is the one dense input, turned into
columns on entry.

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

    def __init__(self, field, rows: int, cols: int):
        """The zero matrix of this shape."""
        self.field = field
        self.rows = rows
        self.cols = cols
        self._columns = [{} for _ in range(cols)]

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
        """Matrix with the given dense rows, all of one length."""
        c = len(rows[0]) if rows else 0
        if any(len(r) != c for r in rows):
            raise ValueError("matrix rows differ in length")
        return cls.from_columns(field, len(rows), [
            {i: row[j] for i, row in enumerate(rows) if row[j]}
            for j in range(c)])

    @classmethod
    def identity(cls, field, n):
        one = field.one
        return cls.from_columns(field, n, [{i: one} for i in range(n)])

    def columns(self):
        """Sparse columns {row: coefficient}; read only."""
        return self._columns

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

    def apply(self, v: dict) -> dict:
        """The sparse vector m @ v."""
        acc = {}
        mine = self.columns()
        for j, x in v.items():
            viadd(acc, mine[j], x)
        return acc

    def is_zero(self):
        return not any(self.columns())

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


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

    Columns are sparse vectors over `field`, appended one at a time by
    `add`; the constructor adds `columns`.  Column j is reduced against
    the independent columns before it: while its lowest nonzero row is
    the pivot row (lowest row) of a stored reduced column, that multiple
    is subtracted.  If anything is left, column j is independent
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

    def __init__(self, field, columns=(), track=False):
        self.field = field
        self._p = field.characteristic
        self._track = track
        # pivot row -> (reduced column scaled to 1 there, its combination)
        self._rows = {}
        self.pivots = []
        self.kernel = {}
        self.cols = 0
        for col in columns:
            self.add(col)

    def add(self, col) -> bool:
        """Append column `col`; True when it is independent of the columns
        before it, and so becomes a pivot."""
        j = self.cols
        self.cols += 1
        comb = {j: 1 if self._p else self.field.one} if self._track else None
        v, comb = self._reduce(self._lift(col), comb)
        if v:
            self._add_pivot(v, comb)
            self.pivots.append(j)
            return True
        if self._track:
            self.kernel[j] = self._lower(comb)
        return False

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

    kernel vectors are sparse vectors v with m @ v = 0, one per non-pivot
    column in reduced-echelon form; the image basis is the pivot columns
    of m itself, so rank + len(kernel) == cols.
    """
    columns = m.columns()
    E = ColumnEchelon(m.field, columns, track=True)
    return E.rank, list(E.kernel.values()), [columns[j] for j in E.pivots]


def rank(m: Matrix) -> int:
    return ColumnEchelon(m.field, m.columns()).rank


def solve_matrix(m: Matrix, bmat: Matrix):
    """Solve m @ X = bmat column by column, from one elimination of m;
    None if any column fails.  Each column of X is the solution supported
    on the pivot columns of m."""
    if bmat.rows != m.rows:
        raise ValueError("right-hand side has wrong length")
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


def quotient_representatives(span_cols, candidate_cols, field):
    """The sparse columns among `candidate_cols` that extend
    span(span_cols) to span(span_cols + candidates); first-pivot
    convention.  With no span_cols, the first-pivot basis of their span.

    Used for cohomology representatives: candidates are kernel vectors,
    span_cols the image of the previous differential.
    """
    E = ColumnEchelon(field, span_cols)
    return [c for c in candidate_cols if E.add(c)]
