"""Pseudofunctorial cochain complex: tuple bookkeeping, the two
differential-assembly paths, the square-zero law, the unitary lemma, the
degree-2 classification bundle, and naturality on Model B checked against
2 x 2 matrix identities."""

import pytest

from graycohom.exactlinalg import (
    GF,
    Vector,
    from_columns,
    rank,
    solve_in_image,
    vstack,
)
from graycohom.examples import deloop, group_algebra_monoidal
from graycohom.gray import tensor_power
from graycohom.pfcomplex import (
    Assembler,
    CapExceeded,
    PFClassification,
    PFCochain,
    check_unitary_lemma,
    composable_tuples,
    delta_pf,
    delta_pf_matrix,
    delta_pf_padded,
    pf_cochain_basis,
    pf_cohomology,
    term_operator,
)
from graycohom.twocat import (
    identity_pseudofunctor,
    validate_pseudofunctor,
    validate_two_category,
)


@pytest.fixture(scope="module")
def FK():
    """Identity pseudofunctor on the delooped group-algebra category."""
    return identity_pseudofunctor(deloop(group_algebra_monoidal(2, GF(3))))


def test_composable_tuples_are_composable_and_sorted(g_sign3):
    C = tensor_power(g_sign3, 2).dom
    ts = composable_tuples(C, 3)
    assert ts == sorted(ts)
    for t in ts:
        for i in range(len(t) - 1):
            assert C.cell_src[t[i]] == C.cell_tgt[t[i + 1]]
    # count matches a direct filter of the cube of cells
    cells = sorted(C.cell_src)
    brute = [(a, b, c) for a in cells for b in cells for c in cells
             if C.cell_src[a] == C.cell_tgt[b]
             and C.cell_src[b] == C.cell_tgt[c]]
    assert sorted(brute) == ts


def test_degree_cap_raises(g_sign3):
    F = tensor_power(g_sign3, 2)
    with pytest.raises(CapExceeded):
        pf_cochain_basis(F, 5, cap=4)


@pytest.mark.parametrize("n", [1, 2])
def test_padded_and_closed_form_differentials_agree(g_sign3, n):
    F = tensor_power(g_sign3, 2)
    sp = pf_cochain_basis(F, n)
    sp1 = pf_cochain_basis(F, n + 1)
    fast = delta_pf_matrix(F, sp, sp1)
    slow = delta_pf_padded(F, sp, sp1)
    assert fast.entries == slow.entries


def test_assembler_puts_operator_rows_and_columns_in_place():
    """An operator entry (k, b, v) lands at row row0 + k and column
    col0 + b, and sums that cancel are dropped.  The term is the cyclic
    shift x -> e_1 . x on the group algebra of Z/3, whose matrix is not
    symmetric; the assembled matrix is compared with literal evaluation,
    one column at a time."""
    C = deloop(group_algebra_monoidal(3, GF(5)))
    K = C.field
    f = 0
    e1 = C.basis2(f, f, 1)

    def shift(x):
        return C.vcomp(e1, x)

    op = term_operator(C, f, f, 1, shift)
    assert {(k, b) for k, b, _ in op} != {(b, k) for k, b, _ in op}
    terms = [(2, 1, 4), (-1, 4, 0), (1, 4, 0)]  # (sign, row0, col0)
    asm = Assembler(7, 8, K,
                    lambda sign: term_operator(C, f, f, sign, shift))
    for sign, row0, col0 in terms:
        asm.add(sign, row0, col0)
    M = asm.matrix()
    for col in range(M.cols):
        expected = [K.zero()] * M.rows
        for sign, row0, col0 in terms:
            if col0 <= col < col0 + 3:
                image = shift(C.basis2(f, f, col - col0))
                for k, v in enumerate(image.coeffs):
                    expected[row0 + k] = K.add(expected[row0 + k],
                                               K.mul(K.from_int(sign), v))
        got = M.mul_vector(Vector(M.cols, {col: K.one()}))
        assert got.entries == {i: v for i, v in enumerate(expected)
                               if not K.is_zero(v)}
    assert not any(i >= 4 and j < 4 for i, j in M.entries)


def test_differential_squares_to_zero_on_cochains(g_fiber2, FK):
    for F in (tensor_power(g_fiber2, 2), FK):
        sp1 = pf_cochain_basis(F, 1)
        sp2 = pf_cochain_basis(F, 2)
        sp3 = pf_cochain_basis(F, 3)
        d1 = delta_pf_matrix(F, sp1, sp2)
        d2 = delta_pf_matrix(F, sp2, sp3)
        prod = d2.mul_matrix(d1)
        for b in sp1.basis:
            assert prod.mul_vector(b).is_zero()


def test_delta_pf_asserts_output_naturality(FK):
    sp1 = pf_cochain_basis(FK, 1)
    if not sp1.basis:
        pytest.skip("no degree-1 cochains")
    out = delta_pf(FK, PFCochain(sp1, sp1.basis[0]))
    assert out.space.degree == 2


def test_cohomology_dimension_is_rank_nullity(FK):
    coh = pf_cohomology(FK, 2)
    sp2 = coh["space"]
    K = FK.cod.field
    cocycle = vstack(coh["delta_n"], sp2.constraints)
    dim_ker = cocycle.cols - rank(cocycle)
    im_cols = [coh["delta_prev"].mul_vector(b)
               for b in pf_cochain_basis(FK, 1).basis]
    assert coh["dimension"] == dim_ker - rank(
        from_columns(im_cols, cocycle.cols, K))
    for rep in coh["representatives"]:
        assert coh["delta_n"].mul_vector(rep).is_zero()
        assert sp2.constraints.mul_vector(rep).is_zero()
        assert solve_in_image(
            from_columns(im_cols, cocycle.cols, K), rep) is None


def test_unitary_lemma(g_sign3):
    F = tensor_power(g_sign3, 2)
    assert F.unitary
    assert check_unitary_lemma(F).ok
    C, D = F.dom, F.cod
    fhat1 = {}
    for (g, f) in C.compose1:
        gf = C.compose1[(g, f)]
        fhat1[(g, f)] = D.zero2(
            D.compose(F.cell_map[g], F.cell_map[f]), F.cell_map[gf])
    good_f0 = {X: fhat1[(C.identity_cell[X], C.identity_cell[X])]
               for X in C.objects}
    assert check_unitary_lemma(F, (fhat1, good_f0)).ok
    X0 = sorted(C.objects)[0]
    e = F.cell_map[C.identity_cell[X0]]
    bad_f0 = dict(good_f0)
    bad_f0[X0] = D.id2(e)
    rep = check_unitary_lemma(F, (fhat1, bad_f0))
    assert any(name == "first-order-unit-determination"
               for name, _ in rep.violations)


def test_classification_bundle(FK):
    cls = PFClassification(FK)
    K = FK.cod.field
    coh = pf_cohomology(FK, 2)
    # a non-cocycle is rejected with the violated hexagon instance named
    nonc = next((Vector(cls.space2.dim_free, {i: K.one()})
                 for i in range(cls.space2.dim_free)
                 if not cls.delta2.mul_vector(
                     Vector(cls.space2.dim_free, {i: K.one()})).is_zero()),
                None)
    if nonc is not None:
        with pytest.raises(ValueError, match="hexagon|naturality"):
            cls.deform(nonc)
    zero = Vector(cls.space2.dim_free)
    fhat1, f01 = cls.deform(zero)
    assert set(fhat1) == {(t[0], t[1]) for t in cls.space2.slots}
    # shifting by a coboundary is recognized as equivalent
    if cls.space1.basis:
        w = cls.space1.basis[0]
        shifted = cls.delta1.mul_vector(w)
        xi = cls.equivalent(shifted, zero)
        assert xi is not None
        got = cls.delta1.mul_vector(xi)
        assert got.entries == shifted.entries
    # a representative of a nontrivial class is not equivalent to zero
    for rep in coh["representatives"]:
        fhat1, f01 = cls.deform(rep)   # accepted as a cocycle
        assert cls.equivalent(rep, zero) is None


# ----- Model B: naturality against 2 x 2 matrix identities --------------
#
# Every fiber of Model B is F_5 (a tuple of identity 1-cells) or the 2 x 2
# matrices (a tuple with one letter f or g), and whiskering by an identity
# 1-cell changes no matrix.  So naturality in a tau = E_rc: a => b at slot
# j reads E_rc X(t) = X(t2) E_rc, and the differential is the bar formula
# on matrices, a scalar x becoming x times the unit matrix.  The systems
# below are read off those identities and eliminated densely; they share
# only the coordinate layout (slots) with the code under test.

P = 5


@pytest.fixture(scope="module")
def FB(model_b):
    return identity_pseudofunctor(model_b)


def _dense_rank(rows):
    """Rank over F_5 of a list of dense rows, by Gauss-Jordan elimination."""
    rows = [[x % P for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], P - 2, P)
        rows[rank] = [x * inv % P for x in rows[rank]]
        for i, r in enumerate(rows):
            if i != rank and r[c]:
                rows[i] = [(x - r[c] * y) % P for x, y in zip(r, rows[rank])]
        rank += 1
    return rank


def _mat(x, slot):
    """The 2 x 2 matrix a coordinate dict x puts at a slot."""
    first, d = slot[:2]
    if d == 1:
        return [[x.get(first, 0), 0], [0, x.get(first, 0)]]
    return [[x.get(first + 2 * r + c, 0) for c in range(2)] for r in range(2)]


def _mul(A, B):
    return [[sum(A[r][s] * B[s][c] for s in range(2)) % P for c in range(2)]
            for r in range(2)]


def _unit(r, c):
    return [[int((i, j) == (r, c)) for j in range(2)] for i in range(2)]


def _columns(fn, dim):
    """The dense matrix of a linear map given as x -> list of values."""
    cols = [fn({k: 1}) for k in range(dim)]
    return [list(row) for row in zip(*cols)] if cols else []


def _naturality_system(sp):
    """Rows E_rc X(t) - X(t2) E_rc = 0 over every tuple, slot and E_rc."""
    def residuals(x):
        out = []
        for t, slot in sp.slots.items():
            for j, a in enumerate(t):
                if a not in ("f", "g"):
                    continue
                for b in ("f", "g"):
                    slot2 = sp.slots[t[:j] + (b,) + t[j + 1:]]
                    for r in range(2):
                        for c in range(2):
                            E = _unit(r, c)
                            lhs = _mul(E, _mat(x, slot))
                            rhs = _mul(_mat(x, slot2), E)
                            out += [lhs[i][k] - rhs[i][k]
                                    for i in range(2) for k in range(2)]
        return out
    return _columns(residuals, sp.dim_free)


def _differential(C, sp, sp1):
    """The bar differential from degree n to n + 1 on matrices."""
    def image(x):
        out = []
        for t, slot in sp1.slots.items():
            n1 = len(t)
            terms = [(1, t[1:]), ((-1) ** n1, t[:-1])]
            terms += [((-1) ** i,
                       t[:i - 1] + (C.compose(t[i - 1], t[i]),) + t[i + 1:])
                      for i in range(1, n1)]
            mats = [(sign, _mat(x, sp.slots[u])) for sign, u in terms]
            total = [[sum(sign * M[r][c] for sign, M in mats)
                      for c in range(2)] for r in range(2)]
            out += ([total[0][0]] if slot[1] == 1
                    else [total[r][c] for r in range(2) for c in range(2)])
        return out
    return _columns(image, sp.dim_free)


def test_model_b_is_a_valid_two_category_and_pseudofunctor(model_b, FB):
    assert validate_two_category(model_b).ok
    assert validate_pseudofunctor(FB).ok


@pytest.mark.parametrize("n", [1, 2])
def test_model_b_naturality_kernel_matches_matrix_identities(FB, n):
    sp = pf_cochain_basis(FB, n)
    system = _naturality_system(sp)
    assert len(sp.basis) == sp.dim_free - _dense_rank(system)
    for v in sp.basis:
        assert all(sum(a * v.entries.get(k, 0) for k, a in enumerate(row))
                   % P == 0 for row in system)


def test_model_b_cohomology_matches_matrix_identities(FB):
    C = FB.dom
    sp = {k: pf_cochain_basis(FB, k) for k in range(1, 4)}
    nat = {k: _naturality_system(sp[k]) for k in sp}
    for n in (1, 2):
        delta = _differential(C, sp[n], sp[n + 1])
        cocycles = sp[n].dim_free - _dense_rank(delta + nat[n])
        coboundaries = 0
        if n > 1:
            prev = _differential(C, sp[n - 1], sp[n])
            coboundaries = (_dense_rank(nat[n - 1] + prev)
                            - _dense_rank(nat[n - 1]))
        assert pf_cohomology(FB, n)["dimension"] == cocycles - coboundaries


@pytest.mark.parametrize("n", [1, 2])
def test_model_b_differentials_agree_and_square_to_zero(FB, n):
    sp, sp1, sp2 = (pf_cochain_basis(FB, k) for k in (n, n + 1, n + 2))
    fast = delta_pf_matrix(FB, sp, sp1)
    assert fast.entries == delta_pf_padded(FB, sp, sp1).entries
    prod = delta_pf_matrix(FB, sp1, sp2).mul_matrix(fast)
    for b in sp.basis:
        assert prod.mul_vector(b).is_zero()
