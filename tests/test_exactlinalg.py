"""Exact sparse linear algebra: properties checked against dense brute
force, sympy's DomainMatrix RREF and rank-nullity identities over Q and
small prime fields."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graycohom.exactlinalg import (
    GF,
    QQ,
    Echelon,
    SparseMatrix,
    Vector,
    from_columns,
    kernel_basis,
    normalize_leading,
    rank,
    solve_in_image,
    vstack,
)
from graycohom.pfcomplex import _cohomology_core

FIELDS = [QQ, GF(2), GF(5), GF(97)]


def dense_matrices(field_, max_dim=5):
    entry = st.integers(min_value=-7, max_value=7)
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entry, min_size=c, max_size=c),
                min_size=r, max_size=r)))


def to_sparse(field_, rows):
    M = SparseMatrix(len(rows), len(rows[0]), field_)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x:
                M.set(i, j, field_.from_int(x))
    return M


def dense_rank_fraction(rows, p=None):
    """Row reduction over Fraction, or over the integers mod p when p is
    given; written independently of the module."""
    red = (lambda x: x) if p is None else (lambda x: x % p)
    rows = [[red(Fraction(x)) for x in row] for row in rows]
    r = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        x = rows[r][col]
        inv = 1 / x if p is None else pow(int(x), p - 2, p)
        rows[r] = [red(y * inv) for y in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [red(a - c * b) for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


@settings(max_examples=60, deadline=None)
@given(dense_matrices(QQ))
def test_rank_matches_independent_dense_elimination(rows):
    assert rank(to_sparse(QQ, rows)) == dense_rank_fraction(rows)


@pytest.mark.parametrize("field_", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(rows=dense_matrices(st.none()))
def test_rank_nullity_and_kernel_membership(field_, rows):
    M = to_sparse(field_, rows)
    ker = kernel_basis(M)
    assert rank(M) + len(ker) == M.cols
    for v in ker:
        assert not v.is_zero()
        assert M.mul_vector(v).is_zero()


@pytest.mark.parametrize("field_", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(rows=dense_matrices(st.none()), data=st.data())
def test_solve_in_image_solves_and_certifies(field_, rows, data):
    M = to_sparse(field_, rows)
    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=M.cols,
                                max_size=M.cols))
    x = Vector(M.cols, {j: field_.from_int(c) for j, c in enumerate(coeffs)
                        if not field_.is_zero(field_.from_int(c))})
    b = M.mul_vector(x)
    sol = solve_in_image(M, b)
    assert sol is not None
    got = M.mul_vector(sol)
    assert all(got.get(i, field_.zero()) == b.get(i, field_.zero())
               for i in range(M.rows))
    # a certified failure really is outside the column span
    t = data.draw(st.lists(st.integers(-5, 5), min_size=M.rows,
                           max_size=M.rows))
    target = Vector(M.rows, {i: field_.from_int(c) for i, c in enumerate(t)
                             if not field_.is_zero(field_.from_int(c))})
    if solve_in_image(M, target) is None:
        aug = from_columns(
            [Vector(M.rows, {i: v for (i, j), v in M.entries.items()
                             if j == jj}) for jj in range(M.cols)] + [target],
            M.rows, field_)
        assert rank(aug) == rank(M) + 1


def test_solve_in_image_raises_when_its_solution_misses_b(monkeypatch):
    """A solution read off the RREF of [M | b] solves M x = b, so a product
    that misses b is a fault: it raises and names the row, rather than
    passing for "b is not in the image"."""
    K = GF(5)
    M = SparseMatrix(2, 2, K, {(0, 0): 1, (0, 1): 2})
    mul_vector = SparseMatrix.mul_vector

    def corrupt(self, v):
        out = mul_vector(self, v)
        return Vector(out.length,
                      {**out.entries, 0: K.add(out.get(0, 0), 1)})

    monkeypatch.setattr(SparseMatrix, "mul_vector", corrupt)
    with pytest.raises(AssertionError, match="in row 0$"):
        solve_in_image(M, Vector(2, {0: 3}))
    # a b outside the image is still answered by the RREF alone
    assert solve_in_image(M, Vector(2, {1: 1})) is None


def scalars(field_):
    """Field elements; over Q also non-integers (int when integral, as the
    field carries them)."""
    if field_ == QQ:
        return st.fractions(-7, 7, max_denominator=6).map(
            lambda q: q.numerator if q.denominator == 1 else q)
    return st.integers(min_value=-7, max_value=7).map(field_.from_int)


def to_sparse_scalars(field_, rows):
    M = SparseMatrix(len(rows), len(rows[0]), field_)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            M.set(i, j, x)
    return M


@settings(max_examples=80, deadline=None)
@given(field_=st.sampled_from(FIELDS), data=st.data())
def test_mul_matrix_matches_schoolbook(field_, data):
    dims = st.integers(1, 4)
    r, n, c = data.draw(dims), data.draw(dims), data.draw(dims)
    entry = scalars(field_)
    a = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                           min_size=r, max_size=r))
    b = data.draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                           min_size=n, max_size=n))
    A, B = to_sparse_scalars(field_, a), to_sparse_scalars(field_, b)
    P = A.mul_matrix(B)
    assert (P.rows, P.cols) == (r, c)
    for i in range(r):
        for j in range(c):
            # schoolbook sum over Fraction, reduced mod p over F_p
            want = sum(Fraction(a[i][k]) * Fraction(b[k][j])
                       for k in range(n))
            if field_ != QQ:
                want = want.numerator % field_.p
            assert P.entries.get((i, j), 0) == want
            assert (i, j) not in P.entries or P.entries[(i, j)] != 0


@settings(max_examples=80, deadline=None)
@given(field_=st.sampled_from(FIELDS), data=st.data())
def test_mul_vectors_matches_schoolbook(field_, data):
    """mul_vectors is the schoolbook product of the matrix with each
    vector, also for no vectors and for the zero vector; a vector of the
    wrong length raises."""
    dims = st.integers(1, 4)
    r, c = data.draw(dims), data.draw(dims)
    entry = scalars(field_)
    a = data.draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                           min_size=r, max_size=r))
    xs = data.draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                            max_size=4)) + [[0] * c]
    M = to_sparse_scalars(field_, a)
    got = M.mul_vectors([Vector(c, {j: x for j, x in enumerate(x) if x})
                         for x in xs])
    assert len(got) == len(xs)
    for x, v in zip(xs, got):
        assert v.length == r and 0 not in v.entries.values()
        for i in range(r):
            want = sum(Fraction(a[i][k]) * Fraction(x[k]) for k in range(c))
            if field_ != QQ:
                want = want.numerator % field_.p
            assert v.entries.get(i, 0) == want
    assert M.mul_vectors([]) == []
    with pytest.raises(ValueError):
        M.mul_vectors([Vector(c), Vector(c + 1)])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank_over_rationals_with_fractional_entries(data):
    dims = st.integers(1, 5)
    r, c = data.draw(dims), data.draw(dims)
    rows = data.draw(st.lists(st.lists(scalars(QQ), min_size=c, max_size=c),
                              min_size=r, max_size=r))
    M = to_sparse_scalars(QQ, rows)
    assert rank(M) == dense_rank_fraction(rows)
    for v in kernel_basis(M):
        assert M.mul_vector(v).is_zero()


def test_vstack_stacks_rows():
    K = GF(3)
    A = to_sparse(K, [[1, 2], [0, 1]])
    B = to_sparse(K, [[2, 2]])
    S = vstack(A, B)
    assert (S.rows, S.cols) == (3, 2)
    assert S.entries[(2, 0)] == 2 and S.entries[(2, 1)] == 2
    assert S.entries[(0, 1)] == 2


def test_from_columns_layout():
    K = GF(5)
    cols = [Vector(3, {0: 1, 2: 4}), Vector(3, {1: 2})]
    M = from_columns(cols, 3, K)
    assert (M.rows, M.cols) == (3, 2)
    assert M.entries == {(0, 0): 1, (2, 0): 4, (1, 1): 2}


@pytest.mark.parametrize("field_", FIELDS, ids=repr)
def test_normalize_leading_makes_first_entry_one(field_):
    v = Vector(4, {1: field_.from_int(3), 3: field_.from_int(7)})
    w = normalize_leading(field_, v)
    assert w.entries[1] == field_.one()
    # parallel: w is a scalar multiple of v
    c = field_.div(w.entries[3], v.entries[3])
    assert field_.mul(c, v.entries[1]) == w.entries[1]


def test_rational_field_is_exact():
    a = QQ.div(QQ.one(), QQ.from_int(3))
    s = QQ.zero()
    for _ in range(3):
        s = QQ.add(s, a)
    assert s == QQ.one()
    assert QQ.sub(QQ.from_int(10 ** 30), QQ.from_int(10 ** 30)) == QQ.zero()


def test_prime_field_arithmetic():
    K = GF(7)
    for a in K.elements():
        if not K.is_zero(a):
            assert K.mul(a, K.inv(a)) == K.one()
    with pytest.raises(ValueError):
        GF(6)


def sparse_matrices(field_, max_dim=6):
    """Matrices of field elements, about half of the entries zero."""
    entry = st.one_of(st.just(0), scalars(field_))
    return st.integers(1, max_dim).flatmap(
        lambda c: st.lists(st.lists(entry, min_size=c, max_size=c),
                           min_size=1, max_size=max_dim)
    ).map(lambda rows: to_sparse_scalars(field_, rows))


@settings(max_examples=60, deadline=None)
@given(field_=st.sampled_from(FIELDS), data=st.data())
def test_rref_kernel_and_pivots_match_sympy(field_, data):
    pytest.importorskip("sympy")
    from sympy import GF as SGF, QQ as SQQ
    from sympy.polys.matrices import DomainMatrix

    M = data.draw(sparse_matrices(field_))
    if field_ == QQ:
        dom, back = SQQ, lambda x: Fraction(int(x.numerator),
                                            int(x.denominator))
    else:
        dom = SGF(field_.p)
        back = lambda x: dom.to_int(x) % field_.p  # noqa: E731
    dense = [[dom(0)] * M.cols for _ in range(M.rows)]
    for (i, j), v in M.entries.items():
        dense[i][j] = dom(v.numerator, v.denominator) if field_ == QQ \
            else dom(v)
    R, pivots = DomainMatrix(dense, (M.rows, M.cols), dom).rref()
    R = [[back(x) for x in row] for row in R.to_list()]

    assert rank(M) == len(pivots)
    echelon = Echelon(field_, [dict(row) for row in M.by_row])
    assert sorted(echelon.rows) == list(pivots)
    for i, c in enumerate(pivots):
        assert {c: 1, **echelon.rows[c]} == \
            {j: x for j, x in enumerate(R[i]) if x}
    # the RREF null space basis: one vector per free column, in order
    free = [j for j in range(M.cols) if j not in pivots]
    want = [{fc: 1, **{c: field_.neg(R[i][fc])
                       for i, c in enumerate(pivots) if R[i][fc]}}
            for fc in free]
    assert [v.entries for v in kernel_basis(M)] == want


@settings(max_examples=60, deadline=None)
@given(field_=st.sampled_from(FIELDS), data=st.data())
def test_row_order_does_not_change_kernel_or_solution(field_, data):
    M = data.draw(sparse_matrices(field_))
    perm = data.draw(st.permutations(range(M.rows)))
    P = SparseMatrix(M.rows, M.cols, field_,
                     {(perm[i], j): v for (i, j), v in M.entries.items()})
    b = data.draw(st.lists(st.one_of(st.just(0), scalars(field_)),
                           min_size=M.rows, max_size=M.rows))
    b_M = Vector(M.rows, {i: x for i, x in enumerate(b) if x})
    b_P = Vector(M.rows, {perm[i]: x for i, x in enumerate(b) if x})

    def items(vectors):
        return [list(v.entries.items()) for v in vectors]

    assert items(kernel_basis(M)) == items(kernel_basis(P))
    x_M, x_P = solve_in_image(M, b_M), solve_in_image(P, b_P)
    assert (x_M is None) == (x_P is None)
    if x_M is not None:
        assert list(x_M.entries.items()) == list(x_P.entries.items())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integral_rationals_come_back_as_int(data):
    # Fraction(n, 1) inputs too: the outputs are still plain int
    entry = st.one_of(st.just(0), st.fractions(-7, 7, max_denominator=4))
    c = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                              min_size=1, max_size=5))
    M = to_sparse_scalars(QQ, rows)
    xs = [x for v in kernel_basis(M) for x in v.entries.values()]
    coeffs = data.draw(st.lists(entry, min_size=c, max_size=c))
    b = M.mul_vector(Vector(c, {j: x for j, x in enumerate(coeffs) if x}))
    sol = solve_in_image(M, b)
    assert sol is not None and M.mul_vector(sol) == b
    xs += list(sol.entries.values())
    assert all(type(x) is int or x.denominator != 1 for x in xs)


def test_cleared_pivot_rows_hold_int_when_integral():
    # clearing column 1 from the first pivot row makes -1/2 * 2 there
    M = to_sparse(QQ, [[2, 1, 0], [0, 1, 2]])
    (v,) = kernel_basis(M)
    assert v.entries == {2: 1, 0: 1, 1: -2}
    assert all(type(x) is int for x in v.entries.values())


def old_representatives(field_, cobound, Z):
    """The rule _cohomology_core replaced: a kernel vector, in order, is a
    representative when adding it to the coboundaries and the earlier
    representatives raises the rank; ranks by dense elimination."""
    p = None if field_ == QQ else field_.p
    n = Z[0].length if Z else 0

    def dense_rank(vectors):
        if not vectors:
            return 0
        return dense_rank_fraction(
            [[v.entries.get(i, 0) for i in range(n)] for v in vectors], p)

    dim = len(Z) - dense_rank(cobound)
    chosen, reps = list(cobound), []
    for z in Z:
        if len(reps) == dim:
            break
        if dense_rank(chosen + [z]) > dense_rank(chosen):
            reps.append(z)
            chosen.append(z)
    return reps


@settings(max_examples=60, deadline=None)
@given(field_=st.sampled_from(FIELDS), data=st.data())
def test_cohomology_core_keeps_the_greedy_representatives(field_, data):
    M = data.draw(sparse_matrices(field_))
    Z = kernel_basis(M)
    # coboundaries: random combinations of kernel vectors
    cobound = []
    for _ in range(data.draw(st.integers(0, 4))):
        acc = {}
        for z in Z:
            c = data.draw(st.integers(-2, 2))
            for i, x in z.entries.items():
                acc[i] = field_.add(acc.get(i, 0), field_.mul(
                    field_.from_int(c), x))
        cobound.append(Vector(M.cols, {i: x for i, x in acc.items() if x}))
    dim, reps, rank_prev = _cohomology_core(field_, cobound, M)
    want = old_representatives(field_, cobound, Z)
    assert reps == want and dim == len(want)
    assert rank_prev == len(Z) - dim


def test_solve_in_image_ignores_explicit_zeros_in_b():
    K = GF(5)
    M = to_sparse(K, [[1, 2], [0, 1]])
    assert solve_in_image(M, Vector(2, {0: 1, 1: 0})).entries == {0: 1}


READ_FIELDS = [QQ, GF(2), GF(3)]


@settings(max_examples=60, deadline=None)
@given(field_=st.sampled_from(READ_FIELDS), data=st.data())
def test_readers_leave_their_matrices_unchanged(field_, data):
    # Echelon consumes the rows it is given: a reader that handed it a
    # matrix's own rows would change a memoised differential in place
    M = data.draw(sparse_matrices(field_))
    N = data.draw(sparse_matrices(field_))
    before = M.entries, N.entries
    x = Vector(M.cols, {j: 1 for j in range(0, M.cols, 2)})
    b = Vector(M.rows, {i: 1 for i in range(M.rows)})
    rank(M)
    kernel_basis(M)
    solve_in_image(M, b)
    M.mul_vector(x)
    if M.cols == N.rows:
        M.mul_matrix(N)
    if M.cols == N.cols:
        vstack(M, N)
    assert (M.entries, N.entries) == before


def test_entries_is_a_view_that_validates():
    K = GF(3)
    E = {(0, 1): 2, (1, 0): 0, (1, 2): 1}
    M = SparseMatrix(2, 3, K, E)
    assert M.entries == {(0, 1): 2, (1, 2): 1}
    assert E == {(0, 1): 2, (1, 0): 0, (1, 2): 1}
    # a shallow copy with its entries replaced is a new matrix
    out = copy.copy(M)
    out.entries = dict(M.entries)
    out.set(0, 1, 1)
    out.set(1, 1, 2)
    assert M.entries == {(0, 1): 2, (1, 2): 1}
    assert out.entries == {(0, 1): 1, (1, 1): 2, (1, 2): 1}
    for i in (-1, M.rows):
        with pytest.raises(IndexError):
            SparseMatrix(2, 3, K, {(i, 0): 1})
        with pytest.raises(IndexError):
            M.entries = {(i, 0): 1}
        with pytest.raises(IndexError):
            M.set(i, 0, 1)
        with pytest.raises(IndexError):
            M.add_to(i, 0, 1)
    assert M.entries == {(0, 1): 2, (1, 2): 1}
