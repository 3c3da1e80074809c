"""First-order deformations: the literal structural/transfer equations
against the matrix complexes (the central dictionary), gauge shifts,
equivalence search, exhaustive classification and epsilon-ring extension."""

import collections
import itertools
import random
from dataclasses import fields
from fractions import Fraction

import pytest

import graycohom.deformations as dm
from conftest import make_model_a
from graycohom.cli import EXPORT_MODELS
from graycohom.defcomplex import (
    ComplexSelection,
    SELECTION_KINDS,
    assemble_complex,
    bicomplex_space,
    cohomology,
    pent_space,
    total_differential,
    total_space,
)
from graycohom.deformations import (
    EnumerationBoundExceeded,
    EquivalenceWitness,
    FirstOrderDeformation,
    ORACLE_KINDS,
    brute_force_classes,
    candidate_degree,
    check_equivalence,
    check_structural,
    data_shapes,
    deformation_from_vector,
    equivalence_shift,
    extend_and_deform,
    find_equivalence,
    vector_from_deformation,
    vector_from_witness,
    witness_from_vector,
    zero_deformation,
    zero_witness,
)
from graycohom.exactlinalg import GF, QQ, Vector
from graycohom.examples import (
    GroupModelSpec,
    cyclic_group,
    group_model,
    trivial_bicharacter,
    trivial_group,
)
from graycohom.twocat import TwoMorphism, ValidationReport

# (fixture name, kinds exercised on it)
DICTIONARY_CASES = [
    ("g_fiber2", ("tens", "ass", "tens_ass", "unit")),
    ("g_base2", ("unit", "pent_restricted")),
    ("g_sign3", ("tens",)),
]


def _cases(request):
    for name, kinds in DICTIONARY_CASES:
        G = request.getfixturevalue(name)
        for kind in kinds:
            yield G, kind


def _combine(K, basis, coeffs, length):
    v = {}
    for c, b in zip(coeffs, basis):
        if K.is_zero(c):
            continue
        for i, x in b.entries.items():
            s = K.add(v.get(i, K.zero()), K.mul(c, x))
            if K.is_zero(s):
                v.pop(i, None)
            else:
                v[i] = s
    return Vector(length, v)


def test_zero_deformation_is_structural(g_base2, g_fiber2, g_sign3):
    for G in (g_base2, g_fiber2, g_sign3):
        assert check_structural(G, zero_deformation()).ok


def test_literal_equations_match_matrix_kernel(request):
    """The dictionary: a candidate satisfies the literal structural
    equations exactly when the total differential kills its coordinate
    vector."""
    rng = random.Random(2024)
    for G, kind in _cases(request):
        K = G.base.field
        sel = ComplexSelection(kind)
        q = candidate_degree(kind)
        sp = total_space(G, sel, q)
        Dq = total_differential(G, sel, q)
        vectors = list(sp.basis)
        for _ in range(8):
            coeffs = [K.from_int(rng.randrange(7)) for _ in sp.basis]
            vectors.append(_combine(K, sp.basis, coeffs, sp.dim_free))
        seen_nonzero_residual = False
        for v in vectors:
            d = deformation_from_vector(G, kind, v)
            literal_ok = check_structural(G, d).ok
            matrix_ok = Dq.mul_vector(v).is_zero()
            assert literal_ok == matrix_ok, (kind, v.entries)
            seen_nonzero_residual |= not matrix_ok
        # non-cocycles must show up whenever the differential is nonzero
        # on the constrained space
        has_noncocycle = any(not Dq.mul_vector(b).is_zero()
                             for b in sp.basis)
        assert seen_nonzero_residual == has_noncocycle


def test_gauge_shift_equals_total_differential(request):
    """The dictionary, equivalence side: the literal gauge shift of the
    zero deformation along a witness is exactly D_{q-1} applied to the
    witness coordinates."""
    for G, kind in _cases(request):
        sel = ComplexSelection(kind)
        q = candidate_degree(kind)
        wsp = total_space(G, sel, q - 1)
        Dprev = total_differential(G, sel, q - 1)
        for wb in wsp.basis:
            w = witness_from_vector(G, kind, wb)
            shift = equivalence_shift(G, w)
            got = vector_from_deformation(G, kind, shift)
            assert got.entries == Dprev.mul_vector(wb).entries, kind


def test_find_equivalence_within_and_across_classes(g_fiber2):
    G = g_fiber2
    kind = "tens"
    sel = ComplexSelection(kind)
    q = candidate_degree(kind)
    wsp = total_space(G, sel, q - 1)
    coh = cohomology(G, sel, q)
    assert coh["betti"] >= 1
    rep = deformation_from_vector(G, kind, coh["representatives"][0])
    # shifted copies of the same deformation are recognized as equivalent
    wb = next(b for b in wsp.basis
              if not total_differential(G, sel, q - 1).mul_vector(b).is_zero())
    shift = equivalence_shift(G, witness_from_vector(G, kind, wb))
    shifted_vec = Vector(coh["space"].dim_free, dict(
        coh["representatives"][0].entries))
    K = G.base.field
    for i, v in vector_from_deformation(G, kind, shift).entries.items():
        s = K.add(shifted_vec.entries.get(i, K.zero()), v)
        if K.is_zero(s):
            shifted_vec.entries.pop(i, None)
        else:
            shifted_vec.entries[i] = s
    shifted = deformation_from_vector(G, kind, shifted_vec)
    w = find_equivalence(G, rep, shifted, kind)
    assert w is not None
    assert check_equivalence(G, rep, shifted, w).ok
    # a nontrivial class representative is not equivalent to zero
    assert find_equivalence(G, rep, zero_deformation(), kind) is None


@pytest.mark.parametrize("kind", ["tens", "pent_restricted"])
@pytest.mark.parametrize("field_", [GF(3), QQ], ids=["p=3", "q"])
def test_find_equivalence_over_odd_characteristic(kind, field_):
    """A nonzero gauge shift of the zero deformation is found equivalent
    to it.  Over a field where -1 != 1 this needs the differential's sign
    to be that of the literal shift."""
    G = _model("z2-fiber", field_)
    sel = ComplexSelection(kind)
    q = candidate_degree(kind)
    Dprev = total_differential(G, sel, q - 1)
    shifted = 0
    for wb in total_space(G, sel, q - 1).basis:
        if Dprev.mul_vector(wb).is_zero():
            continue
        shift = equivalence_shift(G, witness_from_vector(G, kind, wb))
        w = find_equivalence(G, zero_deformation(), shift, kind)
        assert w is not None
        assert check_equivalence(G, zero_deformation(), shift, w).ok
        shifted += 1
    assert shifted


def test_brute_force_classification_matches_betti(g_fiber2):
    G = g_fiber2
    out = brute_force_classes(G, "tens")
    betti = cohomology(G, ComplexSelection("tens"), 2)["betti"]
    assert out["count"] == 2 ** betti == 2
    reps = out["representatives"]
    assert len(reps) == out["count"]
    for d in reps:
        assert check_structural(G, d).ok
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert find_equivalence(G, reps[i], reps[j], "tens") is None


def test_brute_force_bound_and_field_guards(g_fiber2):
    with pytest.raises(EnumerationBoundExceeded):
        brute_force_classes(g_fiber2, "tens", bound=1)
    spec = GroupModelSpec(trivial_group(), cyclic_group(2),
                          trivial_bicharacter(cyclic_group(2), QQ), QQ)
    GQ = group_model(spec)
    with pytest.raises(ValueError, match="prime field"):
        brute_force_classes(GQ, "tens")


def test_candidate_degree_rejects_unknown_kind():
    assert candidate_degree("pent_restricted") == 3
    assert all(candidate_degree(k) in (2, 3) for k in ORACLE_KINDS)
    with pytest.raises(ValueError):
        candidate_degree("pent_general")


def test_vector_round_trip_and_selection_guard(g_fiber2):
    G = g_fiber2
    kind = "tens_ass"
    sel = ComplexSelection(kind)
    sp = total_space(G, sel, 2)
    for b in sp.basis[:4]:
        d = deformation_from_vector(G, kind, b)
        assert vector_from_deformation(G, kind, d).entries == b.entries
    # an associator component is outside the tens selection
    C = G.base
    f = sorted(C.cell_src)[0]
    cell = G.tcell(G.tcell(f, f), f)
    d = FirstOrderDeformation(associator1={(f, f, f): C.id2(cell)})
    with pytest.raises(ValueError):
        vector_from_deformation(G, "tens", d)


def test_witness_round_trip(g_fiber2):
    G = g_fiber2
    sel = ComplexSelection("unit")
    wsp = total_space(G, sel, 1)
    for b in wsp.basis[:4]:
        w = witness_from_vector(G, "unit", b)
        assert vector_from_witness(G, "unit", w).entries == b.entries


# what a key of each family must be, as the shape check words it
KEY_SHAPES = {
    "tensorator1": "a composable pair of 1-cell pairs",
    "associator1": "a 1-cell triple",
    "pentagonator1": "an object quadruple",
    "psi1": "a 1-cell pair",
    "omega1": "an object triple",
}


def test_shape_checks_report_bad_entries(g_sign3):
    """For every family of deformation and witness data, a zero entry at a
    good key passes, and a malformed key, a value with the wrong endpoints,
    one with the wrong coefficient count and one with a coefficient outside
    F_3 (a fraction, p + 1, -1) each give the family's own message."""
    G = g_sign3
    C = G.base
    idc = C.identity_cell
    X, Y = sorted(C.objects)
    f, g = (next(c for c in sorted(C.cell_src)
                 if C.cell_src[c] == Z and c != idc[Z]) for Z in (X, Y))
    cases = {   # family: (good key, its endpoints, malformed key)
        "tensorator1": (
            ((idc[X], idc[Y]), (f, g)),
            (C.compose(G.tcell(idc[X], idc[Y]), G.tcell(f, g)),
             G.tcell(C.compose(idc[X], f), C.compose(idc[Y], g))),
            ((idc[Y], idc[Y]), (idc[X], idc[X]))),   # not composable
        "associator1": ((f, g, f), (G.tcell(G.tcell(f, g), f),) * 2,
                        (f, g)),
        "pentagonator1": ((X, Y, X, Y),
                          (idc[G.tobj_many((X, Y, X, Y))],) * 2, (X, Y, X)),
        "psi1": ((f, g), (G.tcell(f, g),) * 2, ("nope",)),
        "omega1": ((X, Y, Y), (idc[G.tobj_many((X, Y, Y))],) * 2,
                   (X, "nope", Y)),
    }
    seen = []
    for cls in (FirstOrderDeformation, EquivalenceWitness):
        for fld in fields(cls):
            family = fld.name
            key, (src, tgt), bad = cases[family]
            zero = C.zero2(src, tgt)
            other = next(c for c in sorted(C.cell_src) if c != src)

            def errors(table):
                return data_shapes(G, cls(**{family: table})).structural_errors

            assert errors({key: zero}) == []
            assert errors({bad: zero}) == [
                f"{family} key {bad!r} is not {KEY_SHAPES[family]}"]
            assert errors({key: C.id2(other)}) == [
                f"{family}[{key!r}] has wrong endpoints "
                f"(expected {src} => {tgt})"]
            assert errors({key: TwoMorphism(src, tgt, zero.coeffs + (0,))}) \
                == [f"{family}[{key!r}] has wrong coefficient length"]
            for c in (Fraction(1, 2), 4, -1):
                coeffs = (c,) + zero.coeffs[1:]
                assert errors({key: TwoMorphism(src, tgt, coeffs)}) == [
                    f"{family}[{key!r}] has coefficient {c!r}, not an "
                    f"element of GF(3)"]
            seen.append(family)
    assert sorted(seen) == sorted(KEY_SHAPES)


def test_extend_and_deform_validates_and_refuses(g_fiber2):
    G = g_fiber2
    coh = cohomology(G, ComplexSelection("tens"), 2)
    d = deformation_from_vector(G, "tens", coh["representatives"][0])
    ext = extend_and_deform(G, d)
    assert ext.validate().ok
    assert ext.reduce() is G
    # a candidate violating the structural equations is refused (the unit
    # selection has non-cocycle directions on this model)
    sp = total_space(G, ComplexSelection("unit"), 2)
    Dq = total_differential(G, ComplexSelection("unit"), 2)
    bad_vec = next(b for b in sp.basis if not Dq.mul_vector(b).is_zero())
    bad = deformation_from_vector(G, "unit", bad_vec)
    with pytest.raises(ValueError, match="structural"):
        extend_and_deform(G, bad)


def test_extended_structure_reports_a_non_cocycle(g_fiber2):
    """validate, called without extend_and_deform's check, finds every
    structural equation a non-cocycle violates: the same instances as the
    linearised check_structural."""
    G = g_fiber2
    sel = ComplexSelection("unit")
    sp = total_space(G, sel, 2)
    Dq = total_differential(G, sel, 2)
    bad_vec = next(b for b in sp.basis if not Dq.mul_vector(b).is_zero())
    bad = deformation_from_vector(G, "unit", bad_vec)
    rep = dm.ExtendedStructure(G, bad).validate()
    assert not rep.ok
    assert {name for name, _ in rep.violations} == {
        "associator-exchange", "pentagon-naturality"}
    assert rep.violations == check_structural(G, bad).violations


def test_check_equivalence_zero_witness_identity(g_fiber2):
    G = g_fiber2
    assert check_equivalence(G, zero_deformation(), zero_deformation(),
                             zero_witness()).ok


def _model(name, field_):
    return group_model(EXPORT_MODELS[name](field_))


def _structure(name, p):
    """A built-in model over F_p, or Model A (n = 2) over F_p."""
    if name == "model-a":
        return make_model_a(2, GF(p))
    return _model(name, GF(p))


@pytest.mark.parametrize("name, p, kinds", [
    ("z2-base", 2, ORACLE_KINDS),
    ("z2-fiber", 2, ORACLE_KINDS),
    ("z2-fiber", 3, ORACLE_KINDS),
    ("z2-sign", 2, ("tens",)),
    ("model-a", 2, ORACLE_KINDS),
])
def test_touched_instance_columns_equal_literal_residuals(name, p, kinds):
    """A column evaluated only on the instances that read the data of a
    basis vector is the full literal residual of that vector."""
    G = _structure(name, p)
    sys = dm._structural_system(G)
    columns = 0
    for kind in kinds:
        sp = total_space(G, ComplexSelection(kind), candidate_degree(kind))
        for b in sp.basis:
            d = deformation_from_vector(G, kind, b)
            full = sys.residual_list(d)
            assert sys.column(d) == {
                r: v for r, v in enumerate(full) if v}, (kind, b.entries)
            columns += 1
    assert columns


def _full_check(system, *data):
    """The violations of a loop over every instance of the system."""
    ctx = system.context(system.G, *data)
    rep = ValidationReport()
    for name, key, fn in system.instances:
        if not system.C.is_zero2(system.residual(fn, ctx)):
            rep.add(name, key)
    return rep


def _random_data(G, cls, rng, per_family=3):
    """Data of class cls with a nonzero random entry at each of a few
    random keys of every family, whatever the selections allow."""
    C, K = G.base, G.base.field
    cells, objs = sorted(C.cell_src), sorted(C.objects)
    comp = [(fp, f) for fp in cells for f in cells
            if C.cell_tgt[f] == C.cell_src[fp]]
    keys = {
        "tensorator1": [((fp, gp), (f, g)) for fp, f in comp
                        for gp, g in comp],
        "associator1": list(itertools.product(cells, repeat=3)),
        "pentagonator1": list(itertools.product(objs, repeat=4)),
        "psi1": list(itertools.product(cells, repeat=2)),
        "omega1": list(itertools.product(objs, repeat=3)),
    }
    data = cls()
    for fld in fields(cls):
        table = getattr(data, fld.name)
        family = keys[fld.name]
        for key in rng.sample(family, min(per_family, len(family))):
            src, tgt = dm._ENTRIES[fld.name][0](G, key)
            coeffs = [K.from_int(rng.randrange(K.p))
                      for _ in range(C.dim2(src, tgt))]
            coeffs[rng.randrange(len(coeffs))] = K.one()
            table[key] = TwoMorphism(src, tgt, tuple(coeffs))
    return data


@pytest.mark.parametrize("name, p", [
    ("z2-base", 2), ("z2-base", 3), ("z2-fiber", 2), ("z2-fiber", 3),
    ("z2-sign", 2), ("z2-sign", 3), ("model-a", 2),
])
def test_touched_check_equals_the_full_loop(name, p):
    """check_structural and check_equivalence evaluate only the instances
    the data touches.  Their reports equal those of a loop over every
    instance -- the same names and keys in the same order, and the same
    ok -- on each unit basis vector, on random combinations of them and
    on random data that is no cocycle."""
    G = _structure(name, p)
    K = G.base.field
    rng = random.Random(17)
    sel = ComplexSelection("unit")
    dsp, wsp = (total_space(G, sel, q) for q in (2, 1))
    zd, zw = zero_deformation(), zero_witness()

    def combination(sp):
        return _combine(K, sp.basis, [K.from_int(rng.randrange(p))
                                      for _ in sp.basis], sp.dim_free)

    def deformation(v):
        return deformation_from_vector(G, "unit", v)

    def witness(v):
        return witness_from_vector(G, "unit", v)

    basis = [deformation(b) for b in dsp.basis]
    combos = [deformation(combination(dsp)) for _ in range(4)]
    rand = [_random_data(G, FirstOrderDeformation, rng) for _ in range(4)]
    structural = [((d,), False) for d in basis + combos]
    structural += [((d,), True) for d in rand]
    transfer = [((d, zd, zw), False) for d in basis]
    transfer += [((zd, d, zw), False) for d in basis]
    transfer += [((zd, zd, witness(b)), False) for b in wsp.basis]
    transfer += [((deformation(combination(dsp)),
                   deformation(combination(dsp)),
                   witness(combination(wsp))), False) for _ in range(4)]
    transfer += [((_random_data(G, FirstOrderDeformation, rng),
                   _random_data(G, FirstOrderDeformation, rng),
                   _random_data(G, EquivalenceWitness, rng)), True)
                 for _ in range(4)]
    violated = collections.Counter()
    for check, system, cases in (
            (check_structural, dm._structural_system(G), structural),
            (check_equivalence, dm._equivalence_system(G), transfer)):
        for data, noncocycle in cases:
            got = check(G, *data)
            want = _full_check(system, *data)
            assert got.violations == want.violations, (check.__name__, data)
            assert got.structural_errors == []
            assert got.ok == want.ok
            if noncocycle:
                assert not want.ok, (check.__name__, data)
            violated[check.__name__] += not want.ok
    assert violated["check_structural"] and violated["check_equivalence"]


def test_transfer_combination_equals_literal_residual(g_fiber2):
    """The cross-class check combines the residual at the zero witness
    with those of the witness basis; each combination equals the literal
    transfer residual."""
    G, kind = g_fiber2, "unit"
    K = G.base.field
    out = brute_force_classes(G, kind)
    da, db = out["representatives"][:2]
    wsp = total_space(G, ComplexSelection(kind), candidate_degree(kind) - 1)
    witnesses = [witness_from_vector(G, kind, wb) for wb in wsp.basis]
    r0, cols = dm._transfer_columns(G, da, db, witnesses)
    esys = dm._equivalence_system(G)

    def literal(coeffs):
        w = witness_from_vector(G, kind, _combine(K, wsp.basis, coeffs,
                                                  wsp.dim_free))
        res = esys.residual_list(da, db, w)
        return tuple((r, v) for r, v in enumerate(res) if v)

    rng = random.Random(11)
    nw = len(witnesses)
    trials = [tuple(int(i == j) for i in range(nw)) for j in range(nw)]
    trials.append(tuple(rng.randrange(K.p) for _ in range(nw)))
    for coeffs in trials:
        got = dm._combine_columns(K.p, coeffs, cols, r0)
        assert got == literal(coeffs), coeffs
        assert got   # the two classes are inequivalent
    assert any(cols)


@pytest.mark.parametrize("field_", [GF(3), QQ], ids=["F3", "Q"])
def test_eps_products_skip_only_zero_terms(field_):
    """vcomp, hcomp, tensor2 and invert of eps-pairs, with every pattern
    of zero and nonzero eps parts, equal the formulas that compute both
    bilinear terms.  One _Eps makes every product twice, so the second
    one reads its memo of lead products; a lead given with int and with
    equal integral Fraction coefficients gives equal products, and a
    mismatched vcomp or hcomp raises both times."""
    G = _model("z2-sign", field_)
    C, K = G.base, field_
    E = dm._Eps(G)
    rng = random.Random(3)

    def rand2(f, f2):
        return TwoMorphism(f, f2, tuple(
            K.mul(K.from_int(rng.choice((1, 2))),
                  K.inv(K.from_int(rng.choice((1, 2)))))
            for _ in range(C.dim2(f, f2))))

    def ecell(lead, zero):
        eps = C.zero2(lead.src, lead.tgt) if zero else \
            rand2(lead.src, lead.tgt)
        return dm.ECell(lead, eps)

    def full(op, a, b):
        return dm.ECell(op(a.lead, b.lead),
                        C.add2(op(a.eps, b.lead), op(a.lead, b.eps)))

    def products(a, b):
        out = []
        for op, plain, x, y, defined in (
                (E.tensor2, G.tensor2, a, b, True),
                (E.vcomp, C.vcomp, b, a, a.lead.tgt == b.lead.src),
                (E.hcomp, C.hcomp, b, a,
                 C.cell_tgt[a.lead.src] == C.cell_src[b.lead.src])):
            for _ in range(2):
                if not defined:
                    with pytest.raises(ValueError):
                        op(x, y)
                    continue
                got = op(x, y)
                assert got == full(plain, x, y)
                if C.is_zero2(x.eps) and C.is_zero2(y.eps):
                    assert got.eps == C.zero2(got.lead.src, got.lead.tgt)
                out.append(got)
        return out

    cells = sorted(C.cell_src)
    checked = mismatched = 0
    for f in cells:
        for f2 in C.parallel_targets(f):
            for g in cells:
                for g2 in C.parallel_targets(g):
                    for za, zb in itertools.product((True, False),
                                                    repeat=2):
                        a = ecell(rand2(f, f2), za)
                        b = ecell(rand2(g, g2), zb)
                        products(a, b)
                        ints = tuple(rng.randrange(3)
                                     for _ in range(C.dim2(f, f2)))
                        as_int = dm.ECell(TwoMorphism(f, f2, ints), a.eps)
                        as_fraction = dm.ECell(TwoMorphism(
                            f, f2, tuple(map(Fraction, ints))), a.eps)
                        assert products(as_int, b) == \
                            products(as_fraction, b)
                        checked += 1
                        mismatched += f2 != g
    for t in G.tensorator_table.values():
        for zero in (True, False):
            a = ecell(t, zero)
            inv = C.invert2(t)
            assert E.invert(a) == dm.ECell(
                inv, C.neg2(C.vcomp(C.vcomp(inv, a.eps), inv)))
    assert checked and mismatched


@pytest.mark.parametrize("name", ["z2-sign", "model-a"])
def test_eps_leads_are_canonical_and_shared(name):
    """One eps algebra per structure, shared by the structural system and
    every ExtendedStructure.  After check_structural of random data,
    every lead in a key or value of its lead memos is the canonical
    object of its value, and products of leads that are equal to those
    but distinct objects return the identical lead and grow no memo."""
    G = _structure(name, 2)
    E = dm._structural_system(G).E
    assert dm.ExtendedStructure(G, zero_deformation())._E is E
    rng = random.Random(5)
    for _ in range(3):
        check_structural(G, _random_data(G, FirstOrderDeformation, rng))
    memos = {op: memo for op, (_fn, memo) in E._ops.items()}
    leads = [lead for memo in memos.values()
             for (a, b), lifted in memo.items()
             for lead in (a, b, lifted.lead)]
    leads += [lead for pair in E._inv.items() for lead in pair]
    assert all(memos.values()) and E._inv
    for lead in leads:
        assert E._leads.get(lead) is lead

    def distinct(t):
        return TwoMorphism(t.src, t.tgt, tuple(list(t.coeffs)))

    for op, memo in memos.items():
        size = len(memo)
        for (a, b), lifted in list(memo.items())[:25]:
            y = dm.ECell(distinct(b), E.zero(b.src, b.tgt))
            for eps in (E.zero(a.src, a.tgt), a):
                x = dm.ECell(distinct(a), eps)
                assert x.lead is not a and x.lead == a
                assert getattr(E, op)(x, y).lead is lifted.lead
        assert len(memo) == size

    # a memo miss on copies of seeded leads keys the seeded objects
    E = dm._Eps(G)
    a, b = (G.base.id2(f) for f in sorted(G.base.cell_src)[-2:])
    E.tensor2(*(dm.ECell(distinct(t), E.zero(t.src, t.tgt)) for t in (a, b)))
    [(ka, kb)] = E._ops["tensor2"][1]
    assert ka is a and kb is b


def test_brute_force_keeps_its_literal_checks(g_fiber2, monkeypatch):
    """One classification with two classes, so the cross-class check
    runs, makes every literal check it made when that check called
    check_equivalence once per witness: three full structural passes
    against the linear residual, three transfer residuals against the
    combination, the accept and reject spot-checks, one literal re-check
    per gauge shift and the within-class check."""
    calls = collections.Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[owner.__name__, name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(dm._StructuralSystem, "residual_list")
    count(dm._EquivalenceSystem, "residual_list")
    count(dm, "check_structural")
    count(dm, "check_equivalence")
    out = brute_force_classes(g_fiber2, "unit")
    p, nb = 2, out["candidate_dim"]
    nz, nw = out["cocycle_count"], out["witness_dim"]
    assert out["count"] > 1 and p ** nw <= dm.WITNESS_SEARCH_LIMIT
    assert calls["_StructuralSystem", "residual_list"] == 3
    # the zero witness, one per witness basis vector, three spot-checks
    assert calls["_EquivalenceSystem", "residual_list"] == 1 + nw + 3
    assert calls["graycohom.deformations", "check_structural"] == \
        min(3, nz) + min(3, p ** nb - nz) == 6
    assert calls["graycohom.deformations", "check_equivalence"] == \
        nw + 1 == 5


# each case breaks one input of a consistency check and prints what the
# check raised; run under python -O, where a plain assert would be gone
_CHECKS_UNDER_O = """
import graycohom.deformations as dm
import graycohom.pfcomplex as pf
from graycohom.examples import (GroupModelSpec, cyclic_group, group_model,
                                trivial_bicharacter, trivial_group)
from graycohom.exactlinalg import GF, SparseMatrix

K = GF(2)
G = group_model(GroupModelSpec(trivial_group(), cyclic_group(2),
                               trivial_bicharacter(cyclic_group(2), K), K))


def raised(fn):
    try:
        fn()
    except AssertionError as e:
        return str(e)
    return "no raise"


rank = dm.rank
dm.rank = lambda M: rank(M) + 1
print(raised(lambda: dm.brute_force_classes(G, "tens")))
dm.rank = rank

dm.Echelon = type("Flat", (dm.Echelon,), {"reduce": lambda self, row: {}})
print(raised(lambda: dm.brute_force_classes(G, "tens")))

kernel_basis = pf.kernel_basis
pf.kernel_basis = lambda M: kernel_basis(M) * 2
print(raised(lambda: pf._cohomology_core(K, [], SparseMatrix(1, 2, K))))
pf.kernel_basis = kernel_basis

import graycohom.exactlinalg as el
mul_vector = el.SparseMatrix.mul_vector
el.SparseMatrix.mul_vector = lambda M, v: el.Vector(
    M.rows, {0: K.add(mul_vector(M, v).get(0, 0), K.one())})
print(raised(lambda: el.solve_in_image(SparseMatrix(1, 1, K, {(0, 0): 1}),
                                       el.Vector(1, {0: 1}))))
el.SparseMatrix.mul_vector = mul_vector

import graycohom.defcomplex as dc
sel = dc.ComplexSelection("unit")
D1 = dc.total_differential(G, sel, 1)
b = next(v for v in dc.total_space(G, sel, 1).basis
         if not D1.mul_vector(v).is_zero())
D2 = dc.total_differential(G, sel, 2)   # the cached matrix
D2.add_to(0, min(D1.mul_vector(b).entries), K.one())
print(raised(lambda: dc.assemble_complex(G, sel)))
"""


def test_consistency_checks_survive_python_O():
    import os
    import subprocess
    import sys

    import graycohom
    src = os.path.dirname(os.path.dirname(graycohom.__file__))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _CHECKS_UNDER_O],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=120, check=True).stdout.splitlines()
    assert out == ["4 enumerated cocycles, expected 2",
                   "1 classes of 2^1 do not cover 4 cocycles",
                   "2 representatives for dimension 4",
                   "the solution misses b in row 0",
                   "differential does not square to zero at degree 1"]


def test_brute_force_catches_a_missing_reader():
    """check_structural and the columns trust the read index of layout.
    With one (entry, instance) link dropped from it, the column of a basis
    vector loses that instance's rows; the cocycle count cannot see it,
    since the enumeration and the rank both read the columns, but the
    linearity check against the full literal residual does."""
    G = _model("z2-fiber", GF(2))   # its own structure: the index is broken
    kind = "ass"
    system = dm._structural_system(G)
    readers = system.layout[1]
    sp = total_space(G, ComplexSelection(kind), candidate_degree(kind))

    def dropped():
        for b in sp.basis:
            d = deformation_from_vector(G, kind, b)
            entries = [("d", fld.name, key) for fld in fields(d)
                       for key in getattr(d, fld.name)]
            ctx = system.context(G, d)
            for entry in entries:
                others = {i for e in entries if e != entry
                          for i in readers[e]}
                for i in readers[entry]:
                    res = system.residual(system.instances[i][2], ctx)
                    if i not in others and not G.base.is_zero2(res):
                        readers[entry].remove(i)
                        return d
        raise LookupError("no basis column reads an instance once")

    d = dropped()
    assert system.column(d) != dm._nonzero(system.residual_list(d))
    with pytest.raises(AssertionError) as raised:
        brute_force_classes(G, kind)
    assert str(raised.value).startswith(
        "the structural residual is not linear at (")


@pytest.mark.parametrize("system", [dm._StructuralSystem,
                                    dm._EquivalenceSystem])
def test_layout_names_the_instance_with_a_nonzero_zero_residual(
        g_fiber2, system):
    """The full pass of layout refuses an instance whose residual at zero
    data is nonzero, and names it."""
    sys_ = system(g_fiber2)
    K = g_fiber2.base.field
    k = len(sys_.instances) // 2
    name, key, fn = sys_.instances[k]

    def one(t):
        return TwoMorphism(t.src, t.tgt, (K.one(),) + t.coeffs[1:])

    def bad(ctx):
        out = fn(ctx)
        if system is dm._StructuralSystem:
            lhs, rhs = out
            return dm.ECell(lhs.lead, one(lhs.eps)), rhs
        return one(out)

    sys_.instances[k] = (name, key, bad)
    with pytest.raises(AssertionError) as raised:
        sys_.layout
    assert str(raised.value) == (
        f"the zero deformation has a nonzero residual at {name} {key!r}")


def test_library_has_no_assert_statements():
    """Library checks raise explicitly, so python -O cannot remove them."""
    import ast
    import pathlib

    import graycohom
    found = []
    for path in sorted(pathlib.Path(graycohom.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_derived_tables_live_in_the_memo_only():
    """Building complexes, classifying and extending add no attribute to
    the structure or its base 2-category; every derived table goes into
    G.memo, where an argument passed by name shares the value of one
    passed by position."""
    G = group_model(GroupModelSpec(
        trivial_group(), cyclic_group(2),
        trivial_bicharacter(cyclic_group(2), GF(2)), GF(2)))
    names, base_names = set(vars(G)), set(vars(G.base))
    for kind in SELECTION_KINDS:
        sel = ComplexSelection(kind)
        assemble_complex(G, sel)
        for q in range(1, sel.qmax + 1):
            cohomology(G, sel, q)
    brute_force_classes(G, "tens")
    coh = cohomology(G, ComplexSelection("tens"), 2)
    d = deformation_from_vector(G, "tens", coh["representatives"][0])
    assert check_structural(G, d).ok
    wsp = total_space(G, ComplexSelection("unit"), 1)
    equivalence_shift(G, witness_from_vector(G, "unit", wsp.basis[0]))
    assert extend_and_deform(G, d).validate().ok
    assert set(vars(G)) == names
    assert set(vars(G.base)) == base_names
    assert G.memo
    assert pent_space(G, 2) is pent_space(G, degree=2)
