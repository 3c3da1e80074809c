"""Gray-semigroup tables: validator coverage, cubical vanishing, iterated
tensor powers and the canonical padding machinery."""

import random

import pytest

from conftest import make_model
from graycohom import cli, gray, schema as sc
from graycohom.defcomplex import (
    ComplexSelection,
    cohomology,
    total_differential,
    total_space,
)
from graycohom.exactlinalg import GF, QQ
from graycohom.examples import cyclic_group, sign_bicharacter
from graycohom.gray import (
    GraySemigroup,
    PaddedStep,
    canonical_pad,
    expr_cell,
    merge_to_single,
    pad,
    tensor_power,
    validate_gray,
)
from graycohom.twocat import validate_pseudofunctor


def test_validate_gray_accepts_models(g_base2, g_fiber2, g_sign3):
    for G in (g_base2, g_fiber2, g_sign3):
        rep = validate_gray(G)
        assert rep.ok, rep.violations[:5]


def test_tensorator_cubical_vanishing(g_sign3):
    G = g_sign3
    C = G.base
    for (fp, gp, f, g), t in G.tensorator_table.items():
        if gp == C.identity_cell[C.cell_src[gp]] or \
                f == C.identity_cell[C.cell_src[f]]:
            assert C.eq2(t, C.id2(t.src))


def test_sign_model_tensorator_is_not_identically_trivial(g_sign3):
    G = g_sign3
    C = G.base
    assert any(not C.eq2(t, C.id2(t.src))
               for t in G.tensorator_table.values())


def _rebuild(G, tensorator):
    return GraySemigroup(G.base, G.tensor_obj, G.tensor1, G.tensor2_const,
                         tensorator)


def test_validator_names_singular_tensorator(g_sign3):
    G = g_sign3
    C = G.base
    bad = dict(G.tensorator_table)
    key = sorted(bad)[0]
    t = bad[key]
    bad[key] = type(t)(t.src, t.tgt, (C.field.zero(),) * len(t.coeffs))
    rep = validate_gray(_rebuild(G, bad))
    assert not rep.ok
    assert any(name == "tensorator-invertible" for name, _ in rep.violations)


def test_validator_names_wrong_tensorator_endpoints(g_sign3):
    G = g_sign3
    bad = dict(G.tensorator_table)
    keys = sorted(bad)
    # give one entry the 2-morphism of a differently-shaped entry
    k0 = keys[0]
    other = next(k for k in keys if bad[k].src != bad[k0].src)
    bad[k0] = bad[other]
    rep = validate_gray(_rebuild(G, bad))
    assert not rep.ok
    assert any(name == "tensorator-endpoints" for name, _ in rep.violations)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tensor_powers_are_valid_pseudofunctors(g_sign3, n):
    F = tensor_power(g_sign3, n)
    rep = validate_pseudofunctor(F)
    assert rep.ok, rep.violations[:5]


def _digits(k, dims):
    """Factor indices of product index k, the first factor most
    significant."""
    out = []
    for d in reversed(dims):
        k, r = divmod(k, d)
        out.append(r)
    return out[::-1]


def test_tensor_power_tables_agree_with_iterated_tensor():
    """obj_map, cell_map and two_map of C^n -> C are the iterated tensor
    of the factors, n <= 4, over F_3 and Q."""
    for field_ in (GF(3), QQ):
        G = make_model(cyclic_group(2), cyclic_group(2), sign_bicharacter,
                       field_)
        C = G.base
        K = C.field
        for n in (1, 2, 3, 4):
            F = tensor_power(G, n)
            for X in F.dom.objects:
                assert F.obj_map[X] == G.tobj_many(X)
            for f in F.dom.cell_src:
                assert F.cell_map[f] == G.tcell_many(f)
            for (f, f2), cols in F.two_map.items():
                dims = [C.dim2(a, b) for a, b in zip(f, f2)]
                assert len(cols) == F.dom.dim2(f, f2)
                for k, col in enumerate(cols):
                    t = G.tensor2_many([C.basis2(a, b, i) for a, b, i
                                        in zip(f, f2, _digits(k, dims))])
                    assert col == {i: v for i, v in enumerate(t.coeffs)
                                   if not K.is_zero(v)}
                    assert F.map2(F.dom.basis2(f, f2, k)) == t


def test_validator_names_disagreeing_tensor_recursions(g_sign3,
                                                     monkeypatch):
    """A disagreement of the two iterated-tensor recursions at n = 3 is
    reported as a named violation, not raised."""
    real = gray.tensor_power

    def disagreeing(G, n):
        if n == 3:
            raise gray.RecursionsDisagree(("g", "f"))
        return real(G, n)

    monkeypatch.setattr(gray, "tensor_power", disagreeing)
    rep = validate_gray(g_sign3)
    assert rep.violations == [("tensor-power-recursions", ("g", "f"))]


def test_validator_builds_the_n3_fhat(monkeypatch):
    """validate_gray reads fhat of the n = 3 tensor power, so a
    disagreement found while that table is built is exit 1 with the
    violation tensor-power-recursions.  Doubling tensor2_many changes
    only the left-nested recursion of n >= 3."""
    text = sc.dumps(cli.run_export("z2-sign", "p=3")[1])
    real = GraySemigroup.tensor2_many

    def doubled(self, terms):
        return self.base.scale2(2, real(self, terms))

    monkeypatch.setattr(GraySemigroup, "tensor2_many", doubled)
    code, doc = cli.run_validate(text)
    assert code == cli.EXIT_VALIDATION
    assert doc["violations"]
    assert {name for name, _ in doc["violations"]} == {
        "tensor-power-recursions"}


_DOM_TABLES = ("compose1", "hom2_dim")
_PF_TABLES = ("obj_map", "cell_map", "two_map", "fhat", "f0")


def test_tensor_power_tables_wait_for_their_first_read():
    """cohomology of the unit selection, degrees 1-3, on z2-sign/F_3
    reads only the 1-cells of C^5 and their images, and no 2-cell
    composition of C^4.  The tables it never reads stay unbuilt, and once
    read they equal those of a fresh structure whose tables were all read
    first, in order and type."""
    G = make_model(cyclic_group(2), cyclic_group(2), sign_bicharacter, GF(3))
    sel = ComplexSelection("unit")
    for q in (1, 2, 3):
        cohomology(G, sel, q)
    F5, F4 = tensor_power(G, 5), tensor_power(G, 4)
    unread = [(F5, ("fhat", "two_map")),
              (F5.dom, _DOM_TABLES)]
    for obj, names in unread:
        for name in names:
            assert name not in vars(obj), name
    # no vertical or horizontal product on C^4 was made
    assert not F4.dom._plans

    fresh = make_model(cyclic_group(2), cyclic_group(2), sign_bicharacter,
                       GF(3))
    for n in range(1, 6):
        F = tensor_power(fresh, n)
        for name in _DOM_TABLES:
            getattr(F.dom, name)
        for name in _PF_TABLES:
            getattr(F, name)
    for n in range(1, 6):
        lazy, eager = tensor_power(G, n), tensor_power(fresh, n)
        for name in _DOM_TABLES:
            assert (repr(list(getattr(lazy.dom, name).items()))
                    == repr(list(getattr(eager.dom, name).items()))), name
        for name in _PF_TABLES:
            assert (repr(list(getattr(lazy, name).items()))
                    == repr(list(getattr(eager, name).items()))), name


def test_model_s_stores_only_the_object_pairs_with_1_cells(model_s):
    """Model S is a valid Gray semigroup whose tensor of objects does not
    commute.  C^4 has 6^4 objects but keeps only the 6^4 object pairs
    with 1-cells, not all (6^4)^2 pairs, and the unit complex squares to
    zero from degree 1 to 3."""
    G = model_s
    assert G.tobj((1, 0, 2), (0, 2, 1)) != G.tobj((0, 2, 1), (1, 0, 2))
    rep = validate_gray(G)
    assert rep.ok, rep.violations[:5]
    assert len(tensor_power(G, 4).dom.one_cells) == 1296
    sel = ComplexSelection("unit")
    for q in (1, 2):
        images = total_differential(G, sel, q).mul_vectors(
            total_space(G, sel, q).basis)
        assert all(v.is_zero()
                   for v in total_differential(G, sel, q + 1).mul_vectors(
                       images))


def _random_letters(rng, dom, k):
    """A composable k-tuple of 1-cells of dom, built back to front."""
    cells = sorted(dom.cell_src)
    last = rng.choice(cells)
    letters = [last]
    for _ in range(k - 1):
        tgt = dom.cell_src[letters[0]]
        options = [c for c in cells if dom.cell_tgt[c] == tgt]
        letters.insert(0, rng.choice(options))
    return tuple(letters)


def _random_blocks(rng, k):
    blocks = []
    left = k
    while left:
        b = rng.randint(1, left)
        blocks.append(b)
        left -= b
    return tuple(blocks)


def test_merge_order_independence(g_fiber2, g_sign3):
    rng = random.Random(7)
    for G in (g_fiber2, g_sign3):
        F = tensor_power(G, 2)
        C = F.cod
        for _ in range(25):
            k = rng.randint(2, 4)
            letters = _random_letters(rng, F.dom, k)
            blocks = _random_blocks(rng, k)
            base = merge_to_single(F, letters, blocks)
            for seed in (1, 2):
                again = merge_to_single(F, letters, blocks,
                                        random.Random(seed))
                assert C.eq2(base, again)


def test_canonical_pad_endpoints_and_identity(g_sign3):
    F = tensor_power(g_sign3, 2)
    C = F.cod
    rng = random.Random(3)
    letters = _random_letters(rng, F.dom, 3)
    t = canonical_pad(F, letters, (1, 1, 1), (2, 1))
    assert t.src == expr_cell(F, letters, (1, 1, 1))
    assert t.tgt == expr_cell(F, letters, (2, 1))
    same = canonical_pad(F, letters, (2, 1), (2, 1))
    assert C.eq2(same, C.id2(expr_cell(F, letters, (2, 1))))


def test_pad_of_empty_chain_is_full_merge(g_sign3):
    F = tensor_power(g_sign3, 2)
    C = F.cod
    rng = random.Random(5)
    for _ in range(10):
        letters = _random_letters(rng, F.dom, 3)
        total = pad(F, letters, [])
        assert C.eq2(total, merge_to_single(F, letters, (1, 1, 1)))


def test_pad_recipe_independence_small(g_fiber2):
    F = tensor_power(g_fiber2, 2)
    C = F.cod
    rng = random.Random(11)
    for _ in range(20):
        k = rng.randint(2, 4)
        letters = _random_letters(rng, F.dom, k)
        b1 = _random_blocks(rng, k)
        b2 = _random_blocks(rng, k)
        chain = [
            PaddedStep(canonical_pad(F, letters, b1, b2), b1, b2),
        ]
        base = pad(F, letters, chain)
        again = pad(F, letters, chain, rng=random.Random(rng.randrange(10 ** 6)))
        assert C.eq2(base, again)
