"""Acceptance criteria: one test (and one pass/fail line) per criterion.

Each test builds its own structures so the quoted time budget covers the
whole computation, asserts exact equality everywhere (no tolerances), and
prints a single summary line on success.
"""

import itertools
import random
import time

import pytest

from graycohom import cli, schema as sc
from graycohom.defcomplex import (
    ComplexSelection,
    SELECTION_KINDS,
    assemble_complex,
    bicomplex_space,
    cohomology,
    delta_h_matrix,
    delta_pent_matrix,
    delta_v_matrix,
    identity_slot_coordinates,
    phi_matrix,
)
from graycohom.deformations import (
    brute_force_classes,
    candidate_degree,
    extend_and_deform,
)
from graycohom.exactlinalg import GF, QQ, SparseMatrix, Vector, kernel_basis
from graycohom.examples import (
    MonoidalCategoryData,
    cyclic_group,
    deloop,
    group_algebra_monoidal,
    sign_bicharacter,
    trivial_bicharacter,
    trivial_group,
)
from graycohom.gray import PaddedStep, canonical_pad, pad, tensor_power
from graycohom.pfcomplex import (
    composable_tuples,
    delta_pf_matrix,
    pf_cochain_basis,
    pf_cohomology,
)
from graycohom.twocat import identity_pseudofunctor

from conftest import make_model


def _done(n, t0, budget):
    elapsed = time.monotonic() - t0
    assert elapsed <= budget, f"criterion {n}: over budget ({elapsed:.1f}s)"
    print(f"criterion {n}: PASS ({elapsed:.1f}s / {budget}s)")


def test_criterion_01_differential_identities():
    """delta^2 = 0 for every selection and commuting squares on all
    bidegrees with m + n <= 3, over F_3 and over Q; exact; <= 60 s."""
    t0 = time.monotonic()
    for K in (GF(3), QQ):
        G = make_model(cyclic_group(2), cyclic_group(2), sign_bicharacter, K)
        for kind in SELECTION_KINDS:
            # asserts d(q+1) o d(q) = 0 on the constrained bases
            assemble_complex(G, ComplexSelection(kind))
        for m in range(0, 4):
            for n in range(0, 4 - m):
                hv = delta_h_matrix(G, m, n + 1).mul_matrix(
                    delta_v_matrix(G, m, n))
                vh = delta_v_matrix(G, m + 1, n).mul_matrix(
                    delta_h_matrix(G, m, n))
                assert hv.entries == vh.entries, (K, m, n)
    _done(1, t0, 60)


def test_criterion_02_chain_map_and_cone():
    """phi o delta_pent = delta_v o phi and delta_h o phi = 0 as exact
    matrix identities on full bases; the cone differential squares to
    zero; <= 10 s."""
    t0 = time.monotonic()
    for G in (make_model(cyclic_group(2), cyclic_group(2),
                         sign_bicharacter, GF(3)),
              make_model(cyclic_group(2), trivial_group(),
                         trivial_bicharacter, GF(2))):
        for d in (1, 2):
            lhs = phi_matrix(G, d + 1).mul_matrix(delta_pent_matrix(G, d))
            rhs = delta_v_matrix(G, 0, d).mul_matrix(phi_matrix(G, d))
            assert lhs.entries == rhs.entries, d
            dh_phi = delta_h_matrix(G, 0, d).mul_matrix(phi_matrix(G, d))
            assert not dh_phi.entries, d
        # the cone over phi is the unit complex; squares to zero
        assemble_complex(G, ComplexSelection("unit"))
    _done(2, t0, 10)


def test_criterion_03_special_closure():
    """delta_h and delta_v map the special subspace into the special
    subspace: image coordinates on identity-slot tuples are exactly zero
    on all computed bidegrees; <= 10 s."""
    t0 = time.monotonic()
    G = make_model(cyclic_group(2), cyclic_group(2), sign_bicharacter, GF(3))
    bidegrees = [(m, n) for m in range(3) for n in range(3 - m)]
    for (m, n) in bidegrees:
        sp = bicomplex_space(G, m, n)
        dh = delta_h_matrix(G, m, n)
        dv = delta_v_matrix(G, m, n)
        h_slots = set(identity_slot_coordinates(
            G, bicomplex_space(G, m + 1, n).pf))
        v_slots = set(identity_slot_coordinates(
            G, bicomplex_space(G, m, n + 1).pf))
        for b in sp.basis:
            assert not (set(dh.mul_vector(b).entries) & h_slots), (m, n)
            assert not (set(dv.mul_vector(b).entries) & v_slots), (m, n)
    _done(3, t0, 10)


def test_criterion_04_hexagon_bijection_at_desk_scale():
    """For the two-fold tensor functor of the Z/2-base model over F_2,
    exhaustive enumeration: the 2-cochains satisfying the literal
    first-order hexagon are exactly ker delta_2, the literally
    gauge-reachable differences are exactly the coboundaries, and the
    class count is 2^dim H^2; <= 5 min, enumeration bound 2^20."""
    t0 = time.monotonic()
    G = make_model(cyclic_group(2), trivial_group(), trivial_bicharacter,
                   GF(2))
    F = tensor_power(G, 2)
    C, D = F.dom, F.cod
    K = D.field
    sp1 = pf_cochain_basis(F, 1)
    sp2 = pf_cochain_basis(F, 2)
    d1 = delta_pf_matrix(F, sp1, sp2)
    d2 = delta_pf_matrix(F, sp2, pf_cochain_basis(F, 3))
    pairs = composable_tuples(C, 2)
    triples = composable_tuples(C, 3)
    assert 2 ** len(sp2.basis) <= 2 ** 20
    assert 2 ** len(sp1.basis) <= 2 ** 20

    # first-order pairs (lead, eps) over the codomain
    def ev(a, b):
        return (D.vcomp(a[0], b[0]),
                D.add2(D.vcomp(a[0], b[1]), D.vcomp(a[1], b[0])))

    def eh(a, b):
        return (D.hcomp(a[0], b[0]),
                D.add2(D.hcomp(a[0], b[1]), D.hcomp(a[1], b[0])))

    def lift(t):
        return (t, D.zero2(t.src, t.tgt))

    def span(basis, dim):
        out = []
        for bits in itertools.product(range(2), repeat=len(basis)):
            e = {}
            for bit, b in zip(bits, basis):
                if bit:
                    for i, v in b.entries.items():
                        if i in e:
                            del e[i]
                        else:
                            e[i] = v
            out.append(Vector(dim, e))
        return out

    def key(v):
        return tuple(sorted(v.entries.items()))

    def fhat_eps(cvec, g, f):
        return (F.fhat[(g, f)], sp2.value(cvec, (g, f)))

    def hexagon_holds(cvec):
        for (f0, f1, f2) in triples:
            lhs = ev(fhat_eps(cvec, C.compose(f0, f1), f2),
                     eh(fhat_eps(cvec, f0, f1),
                        lift(D.id2(F.cell_map[f2]))))
            rhs = ev(fhat_eps(cvec, f0, C.compose(f1, f2)),
                     eh(lift(D.id2(F.cell_map[f0])),
                        fhat_eps(cvec, f1, f2)))
            if not (D.eq2(lhs[0], rhs[0]) and D.eq2(lhs[1], rhs[1])):
                return False
        return True

    candidates = span(sp2.basis, sp2.dim_free)
    Z_literal = {key(v) for v in candidates if hexagon_holds(v)}
    Z_matrix = {key(v) for v in candidates if d2.mul_vector(v).is_zero()}
    assert Z_literal == Z_matrix

    # gauge transfer eta(f) = id + eps xi(f):
    # Fhat'(g, f) = eta(gf)^{-1} . Fhat(g, f) . (eta(g) o eta(f))
    def shift_vector(xivec):
        entries = {}
        for (g, f) in pairs:
            eta_g = (D.id2(F.cell_map[g]), sp1.value(xivec, (g,)))
            eta_f = (D.id2(F.cell_map[f]), sp1.value(xivec, (f,)))
            gf = C.compose(g, f)
            eta_gf_inv = (D.id2(F.cell_map[gf]),
                          D.neg2(sp1.value(xivec, (gf,))))
            new = ev(eta_gf_inv, ev(lift(F.fhat[(g, f)]), eh(eta_g, eta_f)))
            assert D.eq2(new[0], F.fhat[(g, f)])
            for b, v in enumerate(new[1].coeffs):
                if not K.is_zero(v):
                    entries[sp2.pos[((g, f), b)]] = v
        return Vector(sp2.dim_free, entries)

    witnesses = span(sp1.basis, sp1.dim_free)
    B_literal = {key(shift_vector(x)) for x in witnesses}
    B_matrix = {key(d1.mul_vector(x)) for x in witnesses}
    assert B_literal == B_matrix
    betti = pf_cohomology(F, 2)["dimension"]
    assert len(Z_literal) % len(B_literal) == 0
    assert len(Z_literal) // len(B_literal) == 2 ** betti
    _done(4, t0, 300)


def test_criterion_05_unitary_classification():
    """Full unitary first-order deformations of the smallest nontrivial
    model: exhaustive class count equals 2^dim H^2_unit computed by the
    linear-algebra path; <= 10 min."""
    t0 = time.monotonic()
    G = make_model(cyclic_group(2), trivial_group(), trivial_bicharacter,
                   GF(2))
    out = brute_force_classes(G, "unit")
    betti = cohomology(G, ComplexSelection("unit"), 2)["betti"]
    assert out["count"] == 2 ** betti == 2
    _done(5, t0, 600)


def test_criterion_06_restricted_classifications():
    """Pentagonator-only, associator-only and tensorator-only classes on
    the same model equal 2^betti of the matching restricted complex;
    <= 10 min combined."""
    t0 = time.monotonic()
    G = make_model(cyclic_group(2), trivial_group(), trivial_bicharacter,
                   GF(2))
    for kind in ("pent_restricted", "ass", "tens"):
        out = brute_force_classes(G, kind)
        betti = cohomology(G, ComplexSelection(kind),
                           candidate_degree(kind))["betti"]
        assert out["count"] == 2 ** betti, kind
    _done(6, t0, 600)


def test_criterion_07_classified_representatives_extend():
    """Every representative emitted by the classify command, re-read from
    its emitted JSON and extended over F_3[eps]/(eps^2), passes the full
    non-linearized structural validator; <= 60 s."""
    t0 = time.monotonic()
    K = GF(3)
    models = [
        make_model(trivial_group(), cyclic_group(3), trivial_bicharacter, K),
        make_model(cyclic_group(3), trivial_group(), trivial_bicharacter, K),
    ]
    seen = {mode: 0 for mode in cli.CLASSIFY_MODES}
    for G in models:
        text = sc.dumps(sc.gray_to_json(G))
        G2 = sc.load_structure(text)
        for mode in cli.CLASSIFY_MODES:
            code, doc = cli.run_classify(text, mode)
            assert code == cli.EXIT_OK
            assert doc["class_count"] == 3 ** doc["betti"]
            for rep_doc in doc["representatives"]:
                d = sc.deformation_from_json(rep_doc)
                ext = extend_and_deform(G2, d)
                rep = ext.validate()
                assert rep.ok, (mode, rep.violations[:3])
                seen[mode] += 1
    # the workload is only meaningful if the modes contribute nonzero
    # representatives; associator-only cohomology vanishes over F_3 on
    # every group model small enough to classify, so that mode is
    # exercised through a (verified) empty classification instead
    for mode in ("unit", "tens_ass", "tens", "pent"):
        assert seen[mode] >= 1, (mode, seen)
    assert seen["ass"] == 0, seen
    _done(7, t0, 60)


def _yetter_dimensions(M, n):
    """Kernel dimension of the degree-n naturality system of the
    one-object reduction, built directly from the monoidal tables."""
    K = M.field

    def tensor_many(xs):
        out = xs[0]
        for x in xs[1:]:
            out = M.tensor_obj[(out, x)]
        return out

    def bilinear(consts, dim_out, u, v):
        out = [K.zero()] * dim_out
        for (j, i), vec in consts.items():
            c = K.mul(u[j], v[i])
            if K.is_zero(c):
                continue
            for k, x in vec.items():
                out[k] = K.add(out[k], K.mul(c, x))
        return out

    def compose(a, u, v):
        return bilinear(M.comp_const[(a, a, a)], M.hom_dim[(a, a)], u, v)

    def tens(a, u, b, v):
        ab = M.tensor_obj[(a, b)]
        return bilinear(M.tensor_const[(a, a, b, b)], M.hom_dim[(ab, ab)],
                        u, v)

    tuples = [tuple(t) for t in
              itertools.product(sorted(M.objects), repeat=n)]
    pos = {}
    for t in tuples:
        A = tensor_many(list(t))
        for b in range(M.hom_dim[(A, A)]):
            pos[(t, b)] = len(pos)
    rows = []
    for t in tuples:
        A = tensor_many(list(t))
        dA = M.hom_dim[(A, A)]
        for j, aj in enumerate(t):
            for u_idx in range(M.hom_dim[(aj, aj)]):
                u = [K.one() if i == u_idx else K.zero()
                     for i in range(M.hom_dim[(aj, aj)])]
                if u == list(M.id_coeffs[aj]):
                    continue
                whisker = u
                acc_obj = aj
                for i in range(j - 1, -1, -1):
                    whisker = tens(t[i], list(M.id_coeffs[t[i]]),
                                   acc_obj, whisker)
                    acc_obj = M.tensor_obj[(t[i], acc_obj)]
                for i in range(j + 1, n):
                    whisker = tens(acc_obj, whisker,
                                   t[i], list(M.id_coeffs[t[i]]))
                    acc_obj = M.tensor_obj[(acc_obj, t[i])]
                new_rows = [dict() for _ in range(dA)]
                for b in range(dA):
                    e = [K.one() if i == b else K.zero() for i in range(dA)]
                    left = compose(A, whisker, e)
                    right = compose(A, e, whisker)
                    for k in range(dA):
                        v = K.sub(left[k], right[k])
                        if not K.is_zero(v):
                            new_rows[k][pos[(t, b)]] = v
                rows.extend(r for r in new_rows if r)
    Mx = SparseMatrix(len(rows), len(pos), K)
    for i, r in enumerate(rows):
        for j, v in r.items():
            Mx.set(i, j, v)
    return len(pos), len(kernel_basis(Mx))


def test_criterion_08_one_object_reduction():
    """Cochain-space dimensions of the identity functor on a delooped
    strict monoidal category match an independently assembled Yetter-style
    naturality complex for n <= 3; <= 10 s."""
    t0 = time.monotonic()
    for M in (group_algebra_monoidal(2, GF(3)),
              group_algebra_monoidal(3, GF(5))):
        F = identity_pseudofunctor(deloop(M))
        for n in (1, 2, 3):
            sp = pf_cochain_basis(F, n)
            free, dim = _yetter_dimensions(M, n)
            assert sp.dim_free == free, n
            assert sp.dimension == dim, n
    _done(8, t0, 10)


def test_criterion_09_nested_tensor_tables_agree():
    """Left- and right-nested iterated-tensor coherence tables coincide
    entry by entry for n <= 4 on two distinct models; <= 10 s."""
    t0 = time.monotonic()
    models = [
        make_model(trivial_group(), cyclic_group(2), trivial_bicharacter,
                   GF(2)),
        make_model(cyclic_group(2), cyclic_group(2), sign_bicharacter,
                   GF(3)),
    ]
    for G in models:
        C = G.base
        for n in (2, 3, 4):
            F = tensor_power(G, n)
            dom = F.dom
            for (g, f) in dom.compose1:
                # left-nested recursion, rebuilt here from the raw tables
                def left_nested(gs, fs):
                    k = len(gs)
                    if k == 2:
                        return G.tensorator(gs[0], gs[1], fs[0], fs[1])
                    step = G.tensor2_many(
                        [G.tensorator(gs[0], gs[1], fs[0], fs[1])]
                        + [C.id2(C.compose(gs[i], fs[i]))
                           for i in range(2, k)])
                    gg = (G.tcell(gs[0], gs[1]),) + tuple(gs[2:])
                    ff = (G.tcell(fs[0], fs[1]),) + tuple(fs[2:])
                    return C.vcomp(step, left_nested(gg, ff))

                assert C.eq2(F.fhat[(g, f)], left_nested(g, f)), (n, g, f)
    _done(9, t0, 10)


def test_criterion_10_padding_recipe_independence():
    """Randomized insertion recipes for pad agree exactly on >= 1000
    random chains; <= 30 s."""
    t0 = time.monotonic()
    rng = random.Random(20240825)
    models = [
        make_model(trivial_group(), cyclic_group(2), trivial_bicharacter,
                   GF(2)),
        make_model(cyclic_group(2), cyclic_group(2), sign_bicharacter,
                   GF(3)),
    ]
    checked = 0
    for G in models:
        F = tensor_power(G, 2)
        C = F.cod
        cells = sorted(F.dom.cell_src)
        for _ in range(500):
            k = rng.randint(2, 4)
            letters = [rng.choice(cells)]
            for _ in range(k - 1):
                tgt = F.dom.cell_src[letters[0]]
                letters.insert(0, rng.choice(
                    [c for c in cells if F.dom.cell_tgt[c] == tgt]))
            letters = tuple(letters)

            def blocks():
                out = []
                left = k
                while left:
                    b = rng.randint(1, left)
                    out.append(b)
                    left -= b
                return tuple(out)

            b1, b2 = blocks(), blocks()
            chain = [PaddedStep(canonical_pad(F, letters, b1, b2), b1, b2)]
            first = pad(F, letters, chain,
                        rng=random.Random(rng.randrange(10 ** 9)))
            second = pad(F, letters, chain,
                         rng=random.Random(rng.randrange(10 ** 9)))
            assert C.eq2(first, second)
            assert C.eq2(first, pad(F, letters, chain))
            checked += 1
    assert checked >= 1000
    _done(10, t0, 30)
