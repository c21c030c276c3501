from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bardual.fields import GF, QQ
from bardual.linalg import (ColumnEchelon, Matrix, eliminate, inverse,
                            quotient_representatives, rank, solve_matrix)
from bardual.sparse import vec


def qm(rows):
    return Matrix.from_rows(QQ, [[Fraction(v) for v in r] for r in rows])


def solve(m, b):
    """The solution of m @ x = b for one sparse b, or None."""
    x = solve_matrix(m, Matrix.from_columns(m.field, m.rows, [b]))
    return None if x is None else x.columns()[0]


def test_identity_full_rank():
    r, kernel, image = eliminate(Matrix.identity(QQ, 2))
    assert r == 2 and kernel == [] and len(image) == 2


def test_zero_matrix_kernel_everything():
    r, kernel, image = eliminate(Matrix(QQ, 2, 2))
    assert r == 0 and len(kernel) == 2 and image == []


def test_rank_one_kernel():
    r, kernel, _ = eliminate(qm([[1, 2], [2, 4]]))
    assert r == 1
    assert kernel == [{0: Fraction(-2), 1: Fraction(1)}]


def test_solve_identity():
    b = {0: Fraction(3), 1: Fraction(-5)}
    assert solve(Matrix.identity(QQ, 2), b) == b


def test_solve_zero_matrix_no_solution():
    assert solve(Matrix(QQ, 2, 2), {0: Fraction(1)}) is None


def test_solve_back_substitution():
    x = solve(qm([[1, 1], [0, 1]]), {0: Fraction(3), 1: Fraction(1)})
    assert x == {0: Fraction(2), 1: Fraction(1)}


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_matrix(qm([[1, 1]]), qm([[1], [2]]))


def test_empty_matrix():
    r, kernel, image = eliminate(Matrix(QQ, 0, 0))
    assert r == 0 and kernel == [] and image == []


small_entries = st.integers(min_value=-6, max_value=6)


@given(st.lists(st.lists(small_entries, min_size=3, max_size=3),
                min_size=2, max_size=4))
def test_solutions_and_kernels_are_exact(rows):
    m = qm(rows)
    r, kernel, image = eliminate(m)
    assert r + len(kernel) == m.cols
    for v in kernel:
        assert m.apply(v) == {}
    for col in image:
        assert solve(m, col) is not None


@given(st.lists(st.lists(small_entries, min_size=3, max_size=3),
                min_size=2, max_size=4))
def test_rank_equals_rank_of_transpose(rows):
    m = qm(rows)
    assert rank(m) == rank(m.transpose())


@given(st.lists(st.lists(small_entries, min_size=2, max_size=2),
                min_size=2, max_size=2),
       st.lists(small_entries, min_size=2, max_size=2))
def test_returned_solutions_satisfy_the_system(rows, b):
    m = qm(rows)
    bq = vec(*enumerate(Fraction(v) for v in b))
    x = solve(m, bq)
    if x is not None:
        assert m.apply(x) == bq


def test_prime_field_elimination():
    F = GF(5)
    m = Matrix.from_rows(F, [[F(1), F(2)], [F(2), F(4)]])
    r, kernel, _ = eliminate(m)
    assert r == 1 and len(kernel) == 1
    assert m.apply(kernel[0]) == {}


def test_inverse_round_trip():
    m = qm([[1, 2], [3, 5]])
    mi = inverse(m)
    assert m @ mi == Matrix.identity(QQ, 2)
    assert inverse(qm([[1, 2], [2, 4]])) is None


def test_char_two_refused():
    with pytest.raises(ValueError):
        GF(2)
    with pytest.raises(ValueError):
        GF(9)


# ---------------------------------------------------------------------------
# properties of the column elimination on random sparse matrices, including
# empty, zero-row and zero-column shapes, over Q and F_7


def reference_rank(field, rows):
    """Plain dense Gaussian elimination, independent of bardual.linalg."""
    a = [list(r) for r in rows]
    ncols = len(a[0]) if a else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            if a[i][c]:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


@st.composite
def sparse_matrices(draw):
    """(field, dense rows, the same matrix built from sparse columns)."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    nrows = draw(st.integers(min_value=0, max_value=5))
    ncols = draw(st.integers(min_value=0, max_value=5))
    cells = [(i, j) for i in range(nrows) for j in range(ncols)]
    entries = (draw(st.dictionaries(st.sampled_from(cells),
                                    st.integers(min_value=-3, max_value=3),
                                    max_size=len(cells)))
               if cells else {})
    rows = [[field.zero] * ncols for _ in range(nrows)]
    columns = [{} for _ in range(ncols)]
    for (i, j), v in entries.items():
        if field(v):
            rows[i][j] = columns[j][i] = field(v)
    return field, rows, Matrix.from_columns(field, nrows, columns)


def first_pivot_columns(field, rows, ncols):
    """Columns not in the span of the columns before them."""
    out = []
    for j in range(ncols):
        if (reference_rank(field, [r[:j + 1] for r in rows])
                > reference_rank(field, [r[:j] for r in rows])):
            out.append(j)
    return out


@given(sparse_matrices())
def test_rank_matches_transpose_and_reference(data):
    field, rows, m = data
    want = reference_rank(field, rows)
    assert rank(m) == want
    assert rank(m.transpose()) == want


@given(sparse_matrices())
def test_elimination_kernel_image_and_nullity(data):
    field, rows, m = data
    r, kernel, image = eliminate(m)
    assert r + len(kernel) == m.cols
    pivots = first_pivot_columns(field, rows, m.cols)
    assert r == len(pivots)
    assert image == [m.columns()[j] for j in pivots]
    free = [j for j in range(m.cols) if j not in pivots]
    assert len(kernel) == len(free)
    for j, v in zip(free, kernel):
        assert m.apply(v) == {}
        # reduced-echelon shape: 1 at its own free column, 0 at the others,
        # nothing past its own column
        assert v[j] == field.one
        assert all(k not in v for k in free if k != j)
        assert max(v) == j
    # the matrix built from its dense rows gives the same answers
    dense = Matrix.from_rows(field, rows) if rows else Matrix(field, 0, m.cols)
    assert eliminate(dense) == (r, kernel, image)


@given(sparse_matrices(), st.data())
def test_solve_succeeds_exactly_when_solvable(data, draw):
    field, rows, m = data
    if draw.draw(st.booleans()):
        xs = draw.draw(st.lists(st.integers(min_value=-2, max_value=2),
                                min_size=m.cols, max_size=m.cols))
        b = m.apply(vec(*enumerate(field(x) for x in xs)))
    else:
        b = vec(*enumerate(field(v) for v in draw.draw(
            st.lists(st.integers(min_value=-2, max_value=2),
                     min_size=m.rows, max_size=m.rows))))
    dense_b = [b.get(i, field.zero) for i in range(m.rows)]
    solvable = (reference_rank(field, [r + [c] for r, c in zip(rows, dense_b)])
                == reference_rank(field, rows))
    x = solve(m, b)
    assert (x is not None) == solvable
    if x is not None:
        assert m.apply(x) == b


# ---------------------------------------------------------------------------
# one representation: sparse columns and vectors that never store a zero,
# so that a matrix or vector built through a cancellation equals the one
# built directly


def stores_no_zero(m):
    return all(v for col in m.columns() for v in col.values())


def test_matrices_are_sparse_columns_with_no_zero_stored():
    from bardual.catalog import builtin_algebra
    from bardual.morita import OrdinaryAlgebra, OrdinaryModule

    assert not hasattr(Matrix(QQ, 2, 2), "data")
    assert not any("data" in name for name in Matrix.__slots__)
    F = GF(7)
    a = qm([[1, 2], [0, 1]])
    b = qm([[1, 0], [3, 1]])
    M = OrdinaryModule(OrdinaryAlgebra(builtin_algebra("kxk", QQ)), [a, b],
                       check=False)
    built_and_direct = [
        (a, Matrix.from_columns(QQ, 2, [{0: Fraction(1)},
                                        {0: Fraction(2), 1: Fraction(1)}])),
        (M.act_matrix({0: QQ.one, 1: -QQ.one}), qm([[0, 2], [-3, 0]])),
        (M.act_matrix({0: Fraction(3), 1: Fraction(-3)}),
         qm([[0, 6], [-9, 0]])),
        (a + (-a), Matrix(QQ, 2, 2)),
        (a + b.scale(-QQ.one), qm([[0, 2], [-3, 0]])),
        (Matrix.from_rows(F, [[F(3), F(4)]])
         + Matrix.from_rows(F, [[F(4), F(4)]]),
         Matrix.from_columns(F, 1, [{}, {0: F(1)}])),
        (qm([[1, 1], [1, -1]]) @ qm([[1], [1]]), qm([[2], [0]])),
        (a.scale(QQ.zero), Matrix(QQ, 2, 2)),
        (qm([[0, 1], [2, 0]]).transpose(), qm([[0, 2], [1, 0]])),
    ]
    for built, direct in built_and_direct:
        assert stores_no_zero(built) and stores_no_zero(direct)
        assert built == direct

    # every vector linalg returns is such a dict; column 2 of c is the sum
    # of the first two, whose second rows cancel
    from bardual.graded import (Complex, GradedMap, GradedVectorSpace,
                                cohomology)
    c = qm([[1, 1, 2], [1, -1, 0]])
    one = QQ.one
    V = GradedVectorSpace({0: ["a", "b"], 1: ["c"]})
    C = Complex(QQ, V, GradedMap(QQ, V, V, 1, {0: qm([[1, -1]])}))
    _, kernel, image = eliminate(c)
    returned_and_direct = [
        (kernel, [{0: -one, 1: -one, 2: one}]),
        (image, [{0: one, 1: one}, {0: one, 1: -one}]),
        ([c.apply({0: one, 1: one})], [{0: Fraction(2)}]),
        ([Matrix.from_rows(F, [[F(3), F(4)]]).apply({0: F(1), 1: F(1)})],
         [{}]),
        ([ColumnEchelon(QQ, c.columns(), track=True).solve({0: one})],
         [{0: Fraction(1, 2), 1: Fraction(1, 2)}]),
        (quotient_representatives([{0: one, 1: one}],
                                  Matrix.identity(QQ, 2).columns(), QQ),
         [{0: one}]),
        (cohomology(C)[0].representatives, [{0: one, 1: one}]),
    ]
    for returned, direct in returned_and_direct:
        assert all(type(v) is dict and all(v.values()) for v in returned)
        assert returned == direct
