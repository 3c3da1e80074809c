"""Total deformation complexes: square-zero laws, commuting squares, the
special subspace, Betti numbers cross-checked against an independent
bar-resolution computation for the pentagonator tower, the coordinate
layout, and Model A, whose fibers have dimension 2."""

import pytest

from graycohom import cli, schema as sc
from graycohom.defcomplex import (
    CapExceeded,
    ComplexSelection,
    SELECTION_KINDS,
    assemble_complex,
    bicomplex_space,
    cohomology,
    delta_h_matrix,
    delta_pent_matrix,
    delta_v_matrix,
    identity_slot_coordinates,
    pent_space,
    phi_matrix,
    total_differential,
    total_space,
)
from graycohom.exactlinalg import SparseMatrix, from_columns, kernel_basis, rank
from graycohom.gray import validate_gray


@pytest.mark.parametrize("kind", SELECTION_KINDS)
def test_total_differentials_square_to_zero(g_fiber2, kind):
    # assemble_complex asserts d^2 = 0 on the constrained bases internally
    out = assemble_complex(g_fiber2, ComplexSelection(kind))
    assert set(out["differentials"]) == {1, 2, 3}


@pytest.mark.parametrize("kind", ["unit", "pent_restricted", "pent_general"])
def test_pentagonator_towers_square_to_zero(g_base2, kind):
    assemble_complex(g_base2, ComplexSelection(kind))


def test_horizontal_and_vertical_differentials_commute(g_fiber2):
    G = g_fiber2
    for (m, n) in [(0, 1), (1, 1), (0, 2)]:
        hv = delta_v_matrix(G, m + 1, n).mul_matrix(delta_h_matrix(G, m, n))
        vh = delta_h_matrix(G, m, n + 1).mul_matrix(delta_v_matrix(G, m, n))
        for b in bicomplex_space(G, m, n).basis:
            x = hv.mul_vector(b)
            y = vh.mul_vector(b)
            assert x.entries == y.entries


def test_special_subspace_is_preserved(g_fiber2):
    G = g_fiber2
    for (m, n) in [(0, 1), (1, 1), (0, 2)]:
        sp = bicomplex_space(G, m, n)
        dh = delta_h_matrix(G, m, n)
        dv = delta_v_matrix(G, m, n)
        h_bad = set(identity_slot_coordinates(
            G, bicomplex_space(G, m + 1, n).pf))
        v_bad = set(identity_slot_coordinates(
            G, bicomplex_space(G, m, n + 1).pf))
        for b in sp.basis:
            assert not (set(dh.mul_vector(b).entries) & h_bad)
            assert not (set(dv.mul_vector(b).entries) & v_bad)


def test_phi_is_a_chain_map_small(g_base2):
    G = g_base2
    d = 1
    lhs = phi_matrix(G, d + 1).mul_matrix(delta_pent_matrix(G, d))
    rhs = delta_v_matrix(G, 0, d).mul_matrix(phi_matrix(G, d))
    for b in pent_space(G, d).basis:
        assert lhs.mul_vector(b).entries == rhs.mul_vector(b).entries


def _bar_betti(group, K, n):
    """dim H^n of the inhomogeneous bar complex of a finite group with
    trivial coefficients in K, assembled directly from the group table."""
    import itertools

    def space(k):
        return [tuple(t) for t in
                itertools.product(sorted(group.elements), repeat=k)]

    def diff(k):
        src = space(k)
        tgt = space(k + 1)
        pos_s = {t: i for i, t in enumerate(src)}
        M = SparseMatrix(len(tgt), len(src), K)
        for r, T in enumerate(tgt):
            M.add_to(r, pos_s[T[1:]], K.one())
            for i in range(1, k + 1):
                merged = T[:i - 1] + (group.mult[(T[i - 1], T[i])],) + T[i + 1:]
                M.add_to(r, pos_s[merged],
                         K.one() if i % 2 == 0 else K.neg(K.one()))
            M.add_to(r, pos_s[T[:-1]],
                     K.one() if (k + 1) % 2 == 0 else K.neg(K.one()))
        return M

    d_n = diff(n)
    d_prev = diff(n - 1)
    return (d_n.cols - rank(d_n)) - rank(d_prev)


@pytest.mark.parametrize("q", [1, 2])
def test_pent_general_betti_matches_bar_resolution(g_base2, g_sign3, q):
    from graycohom.examples import cyclic_group
    sel = ComplexSelection("pent_general")
    for G in (g_base2, g_sign3):
        K = G.base.field
        got = cohomology(G, sel, q)["betti"]
        want = _bar_betti(cyclic_group(2), K, q + 1)
        assert got == want
    # [DERIVED] concrete values: F_2 sees the full Z/2 tower, F_3 none of it
    assert cohomology(g_base2, sel, q)["betti"] == 1
    assert cohomology(g_sign3, sel, q)["betti"] == 0


def test_frozen_betti_numbers(g_base2, g_fiber2):
    # [DERIVED] frozen from the exhaustive enumeration oracle: each count
    # of gauge classes equals 2^betti on these models
    assert cohomology(g_base2, ComplexSelection("unit"), 2)["betti"] == 1
    assert cohomology(g_fiber2, ComplexSelection("unit"), 2)["betti"] == 1
    assert cohomology(g_fiber2, ComplexSelection("tens"), 2)["betti"] == 1
    assert cohomology(g_fiber2, ComplexSelection("tens_ass"), 2)["betti"] == 1


def test_cohomology_representatives_are_nontrivial_cocycles(g_fiber2):
    G = g_fiber2
    sel = ComplexSelection("tens_ass")
    coh = cohomology(G, sel, 2)
    D2 = total_differential(G, sel, 2)
    sp1 = total_space(G, sel, 1)
    D1 = total_differential(G, sel, 1)
    im = from_columns([D1.mul_vector(b) for b in sp1.basis], D1.rows,
                      G.base.field)
    from graycohom.exactlinalg import solve_in_image
    for rep in coh["representatives"]:
        assert D2.mul_vector(rep).is_zero()
        assert total_space(G, sel, 2).constraints.mul_vector(rep).is_zero()
        assert solve_in_image(im, rep) is None


def test_degree_caps(g_fiber2):
    sel = ComplexSelection("ass")
    with pytest.raises(CapExceeded):
        cohomology(g_fiber2, sel, 0)
    with pytest.raises(CapExceeded):
        cohomology(g_fiber2, sel, 4)
    with pytest.raises(ValueError):
        ComplexSelection("nope")


def test_pos_is_derived_from_slots(g_sign3, model_a2):
    """pos, through which representatives are decoded, gives coordinate
    first + b to basis index b of a tuple whose slot starts at first, for
    every coordinate of the layout."""
    for G in (g_sign3, model_a2):
        spaces = [bicomplex_space(G, m, n).pf
                  for m, n in ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2))]
        spaces += [pent_space(G, d) for d in range(3)]
        for sp in spaces:
            assert len(sp.pos) == sp.dim_free
            for (t, b), coord in sp.pos.items():
                assert coord == sp.slots[t][0] + b
            assert sorted(sp.pos.values()) == list(range(sp.dim_free))


def test_model_a_validates_round_trips_and_squares_to_zero(model_a2):
    G = model_a2
    assert validate_gray(G).ok
    text = sc.dumps(sc.gray_to_json(G))
    assert sc.dumps(sc.gray_to_json(sc.load_structure(text))) == text
    # assemble_complex checks D_{q+1} D_q = 0 on the constrained bases
    out = assemble_complex(G, ComplexSelection("unit"))
    assert set(out["differentials"]) == {1, 2, 3}


@pytest.mark.parametrize("mode", ["ass", "tens", "pent"])
def test_model_a_oracle_agrees(model_a2, mode):
    code, doc = cli.run_oracle(sc.dumps(sc.gray_to_json(model_a2)), mode)
    assert code == cli.EXIT_OK and doc["verdict"] == "AGREE"
