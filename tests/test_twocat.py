"""2-category tables: axioms, the 2-morphism algebra, inversion, products
and pseudofunctors, exercised on a delooped group-algebra category whose
hom spaces are genuinely multi-dimensional."""

import functools
import math
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import graycohom
from conftest import make_model, make_model_a, make_model_b
from graycohom.exactlinalg import GF, QQ
from graycohom.examples import (
    cyclic_group,
    deloop,
    group_algebra_monoidal,
    sign_bicharacter,
)
from graycohom.twocat import (
    TwoMorphism,
    identity_pseudofunctor,
    product_many,
    validate_pseudofunctor,
    validate_two_category,
)


@pytest.fixture(scope="module")
def C():
    return deloop(group_algebra_monoidal(3, GF(5)))


def test_validator_accepts_group_algebra_deloop(C):
    rep = validate_two_category(C)
    assert rep.ok, rep.violations[:5]


def test_validator_accepts_group_models(g_fiber2, g_sign3):
    for G in (g_fiber2, g_sign3):
        rep = validate_two_category(G.base)
        assert rep.ok, rep.violations[:5]


def test_vertical_composition_is_group_convolution(C):
    # End(a) = K[Z/3]; vertical composition of basis elements i, j is the
    # basis element i + j mod 3
    for a in C.cell_src:
        for i in range(3):
            for j in range(3):
                t = C.vcomp(C.basis2(a, a, i), C.basis2(a, a, j))
                assert t == C.basis2(a, a, (i + j) % 3)


def test_vcomp_many_applies_rightmost_first(C):
    f = sorted(C.cell_src)[0]
    a, b, c = (C.basis2(f, f, i) for i in (0, 1, 2))
    assert C.eq2(C.vcomp_many([a, b, c]), C.vcomp(a, C.vcomp(b, c)))


def test_two_morphism_linear_algebra(C):
    K = C.field
    f = sorted(C.cell_src)[0]
    a = C.basis2(f, f, 1)
    z = C.zero2(f, f)
    assert C.is_zero2(C.add2(a, C.neg2(a)))
    assert C.eq2(C.add2(a, z), a)
    two_a = C.add2(a, a)
    assert two_a.coeffs[1] == K.from_int(2)
    assert C.eq2(C.scale2(K.from_int(2), a), two_a)


def test_invert2_group_like_and_zero_divisor(C):
    f = sorted(C.cell_src)[0]
    g = C.basis2(f, f, 1)            # a group-like element, invertible
    inv = C.invert2(g)
    assert C.eq2(C.vcomp(inv, g), C.id2(f))
    assert C.eq2(C.vcomp(g, inv), C.id2(f))
    # 1 + x + x^2 annihilates 1 - x in K[Z/3], so it cannot be invertible
    K = C.field
    s = TwoMorphism(f, f, (K.one(), K.one(), K.one()))
    with pytest.raises(ValueError, match="not invertible"):
        C.invert2(s)


def test_hcomp_is_tensor_of_group_algebra(C):
    # horizontal composition in the deloop is convolution-algebra tensor:
    # on basis elements over Z/3 it lands on the sum of group labels
    cells = sorted(C.cell_src)
    f, g = cells[1], cells[2]
    for i in range(3):
        for j in range(3):
            t = C.hcomp(C.basis2(g, g, j), C.basis2(f, f, i))
            fg = C.compose(g, f)
            assert t == C.basis2(fg, fg, (i + j) % 3)


def test_product_many_multiplies_dimensions():
    B = deloop(group_algebra_monoidal(2, GF(5)))
    P = product_many([B, B])
    assert len(P.objects) == len(B.objects) ** 2
    f = sorted(B.cell_src)[0]
    assert P.dim2((f, f), (f, f)) == B.dim2(f, f) ** 2
    rep = validate_two_category(P)
    assert rep.ok, rep.violations[:5]


def _digits(k, dims):
    """Factor indices of product index k, the first factor most
    significant."""
    out = []
    for d in reversed(dims):
        k, r = divmod(k, d)
        out.append(r)
    return out[::-1]


def _kron(K, coeff_lists):
    """Coefficients of the Kronecker product of coefficient tuples."""
    dims = [len(cs) for cs in coeff_lists]
    out = []
    for k in range(math.prod(dims)):
        c = K.one()
        for cs, i in zip(coeff_lists, _digits(k, dims)):
            c = K.mul(c, cs[i])
        out.append(c)
    return tuple(out)


@pytest.mark.parametrize("model", ["group-algebra", "z2-sign"])
def test_product_composition_is_kronecker_of_factors(model, g_sign3):
    """On B^3, the identity of every 1-cell and the vertical and
    horizontal composite of every pair of basis 2-cells have the
    coefficients of the Kronecker product of the factor-wise results."""
    B = (deloop(group_algebra_monoidal(2, GF(5))) if model == "group-algebra"
         else g_sign3.base)
    K = B.field
    P = product_many([B] * 3)

    def basis(f, f2):
        """(product basis 2-cell, its factor basis 2-cells)."""
        dims = [B.dim2(a, b) for a, b in zip(f, f2)]
        assert P.dim2(f, f2) == math.prod(dims)
        for k in range(P.dim2(f, f2)):
            yield P.basis2(f, f2, k), [
                B.basis2(a, b, i) for a, b, i in zip(f, f2, _digits(k, dims))]

    for f in P.cell_src:
        assert P.id2(f).coeffs == _kron(K, [B.id2(a).coeffs for a in f])
    checked = 0
    for f in P.cell_src:
        for f1 in P.parallel_targets(f):
            for f2 in P.parallel_targets(f1):
                for t1, ts1 in basis(f, f1):
                    for t2, ts2 in basis(f1, f2):
                        want = _kron(K, [B.vcomp(b, a).coeffs
                                         for b, a in zip(ts2, ts1)])
                        assert P.vcomp(t2, t1).coeffs == want
                        checked += 1
    for (g, f) in P.compose1:
        for g2 in P.parallel_targets(g):
            for f2 in P.parallel_targets(f):
                for tg, tgs in basis(g, g2):
                    for tf, tfs in basis(f, f2):
                        want = _kron(K, [B.hcomp(b, a).coeffs
                                         for b, a in zip(tgs, tfs)])
                        assert P.hcomp(tg, tf).coeffs == want
                        checked += 1
    assert checked


def test_products_on_c5_build_no_table():
    """One vcomp and one hcomp on C^5, for C the 2-category of Model A
    (n = 3, F_3), finish within 1 GiB of address space: a product on a
    power reads only the factors' constants.  Each is a product of basis
    2-cells of K[Z/3]^5, so it lands on the basis 2-cell of the
    digit-wise sum mod 3 of its inputs' indices."""
    child = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from graycohom.exactlinalg import GF
        from graycohom.examples import deloop, group_algebra_monoidal
        from graycohom.twocat import product_many
        P = product_many([deloop(group_algebra_monoidal(3, GF(3)))] * 5)
        f, g = (1, 2, 0, 1, 2), (2, 2, 1, 0, 1)
        a = P.basis2(f, f, 7)
        v = P.vcomp(a, P.basis2(f, f, 100))
        h = P.hcomp(P.basis2(g, g, 5), a)
        print(v.coeffs.index(1), sum(v.coeffs), h.coeffs.index(1),
              sum(h.coeffs), *h.src)
    """)
    src = os.path.dirname(os.path.dirname(graycohom.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", child], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr[-2000:]
    # 7 + 100 = (0,0,0,2,1) + (1,0,2,0,1) -> (1,0,2,2,2) = 107 in base 3;
    # 5 + 7 = (0,0,0,1,2) + (0,0,0,2,1) -> 0; g o f = f + g digit-wise
    assert run.stdout.split() == ["107", "1", "0", "1", "0", "1", "1", "1",
                                  "0"]


def test_identity_pseudofunctor_validates(C):
    F = identity_pseudofunctor(C)
    rep = validate_pseudofunctor(F)
    assert rep.ok, rep.violations[:5]
    f = sorted(C.cell_src)[0]
    a = C.basis2(f, f, 2)
    assert C.eq2(F.map2(a), a)
    assert F.unitary


def test_validator_reports_broken_interchange(C):
    # corrupt one horizontal-composition constant and expect a named
    # violation rather than an exception
    bad_h = {k: {kk: dict(vv) for kk, vv in v.items()}
             for k, v in C.hcomp_const.items()}
    inner = bad_h[sorted(bad_h)[0]]
    ik = sorted(inner)[0]
    tgt = dict(inner[ik])
    k0 = sorted(tgt)[0] if tgt else 0
    tgt[k0] = C.field.add(tgt.get(k0, C.field.zero()), C.field.one())
    inner[ik] = tgt
    D = type(C)(C.field, C.objects, C.one_cells, C.cell_src, C.cell_tgt,
                C.identity_cell, C.compose1, C.hom2_dim, C.id2_coeffs,
                C.vcomp_const, bad_h)
    rep = validate_two_category(D)
    assert not rep.ok
    assert rep.violations


FIELDS = [QQ, GF(2), GF(5), GF(97)]


@functools.cache
def _plan_cases():
    """(name, 2-category, Gray semigroup or None, base or None): Model B,
    the delooped K[Z/3] over every field of FIELDS, Model A (n = 2) over
    F_2, F_3 and Q, and z2-sign over F_3 and Q; and the powers C^2 and
    C^3 (product_many) of each of the first three, whose base C is the
    fourth entry."""
    bases = [("model-b", make_model_b(), None)]
    bases += [(f"group-algebra-{K!r}", deloop(group_algebra_monoidal(3, K)),
               None) for K in FIELDS]
    for K in (GF(2), GF(3), QQ):
        G = make_model_a(2, K)
        bases.append((f"model-a-{K!r}", G.base, G))
    cases = [case + (None,) for case in bases]
    for K in (GF(3), QQ):
        G = make_model(cyclic_group(2), cyclic_group(2), sign_bicharacter, K)
        cases.append((f"z2-sign-{K!r}", G.base, G, None))
    cases += [(f"{name}^{n}", product_many([C] * n), None, C)
              for name, C, _ in bases for n in (2, 3)]
    return cases


def _coeffs(K, d):
    """Coefficient tuples of length d, the zero tuple among them."""
    if K == QQ:
        x = st.fractions(-5, 5, max_denominator=4).map(
            lambda q: q.numerator if q.denominator == 1 else q)
    else:
        x = st.integers(0, K.p - 1)
    return st.one_of(st.just((0,) * d), st.tuples(*[x] * d))


def _schoolbook(K, consts, dim, a, b):
    """sum over (j, i) of a[j] b[i] consts[(j, i)], in exact rationals and
    reduced at the end over F_p."""
    out = [Fraction(0)] * dim
    for (j, i), vec in (consts or {}).items():
        for k, v in vec.items():
            out[k] += Fraction(a[j]) * Fraction(b[i]) * Fraction(v)
    if K != QQ:
        return tuple(int(x) % K.p for x in out)
    return tuple(out)


def _power_consts(C, op, key):
    """The structure constants of op ("vcomp" at key (f, f1, f2), "hcomp"
    at key (g, g2, f, f2)) on the power of C whose 1-cells are tuples:
    the Kronecker product of the constants of C at each factor's key,
    the first factor most significant."""
    table = {(0, 0): {0: 1}}
    for part in zip(*key):
        if op == "vcomp":
            f, f1, f2 = part
            consts = C.vcomp_const.get(part)
            dims = C.dim2(f1, f2), C.dim2(f, f1), C.dim2(f, f2)
        else:
            g, g2, f, f2 = part
            consts = C.hcomp_const.get(part)
            dims = (C.dim2(g, g2), C.dim2(f, f2),
                    C.dim2(C.compose1[(g, f)], C.compose1[(g2, f2)]))
        dj, di, dk = dims
        table = {(j * dj + jj, i * di + ii): {k * dk + kk: v * w
                                              for k, v in vec.items()
                                              for kk, w in vec2.items()}
                 for (j, i), vec in table.items()
                 for (jj, ii), vec2 in (consts or {}).items()}
    return table


def _same(K, got, want):
    """Equal values; over F_p also ints in 0..p-1."""
    assert got == want
    assert K == QQ or all(K.contains(x) for x in got)


@settings(max_examples=450, deadline=None)
@given(data=st.data())
def test_products_equal_the_structure_constant_sum(data):
    """vcomp, hcomp and tensor2 through their plans equal the sum over
    the structure constants at their endpoint key, whether or not the
    plan exists yet; on a power C^n the constants are the Kronecker
    product of those of C.  Model B's vertical product is the 2 x 2
    matrix product, so a swapped factor order fails here."""
    name, C, G, base = data.draw(st.sampled_from(_plan_cases()),
                                 label="case")
    K = C.field
    cells = list(C.cell_src)

    def consts(op, key):
        if base is not None:
            return _power_consts(base, op, key)
        table = C.vcomp_const if op == "vcomp" else C.hcomp_const
        return table.get(key)

    def cell2(f, f2):
        return TwoMorphism(f, f2, data.draw(_coeffs(K, C.dim2(f, f2))))

    f = data.draw(st.sampled_from(cells))
    f1 = data.draw(st.sampled_from(C.parallel_targets(f)))
    f2 = data.draw(st.sampled_from(C.parallel_targets(f1)))
    t1, t2 = cell2(f, f1), cell2(f1, f2)
    got = C.vcomp(t2, t1)
    assert (got.src, got.tgt) == (f, f2)
    _same(K, got.coeffs, _schoolbook(K, consts("vcomp", (f, f1, f2)),
                                     C.dim2(f, f2), t2.coeffs, t1.coeffs))

    g, f = data.draw(st.sampled_from(list(C.compose1)))
    g2 = data.draw(st.sampled_from(C.parallel_targets(g)))
    f2 = data.draw(st.sampled_from(C.parallel_targets(f)))
    tg, tf = cell2(g, g2), cell2(f, f2)
    got = C.hcomp(tg, tf)
    gf, g2f2 = C.compose1[(g, f)], C.compose1[(g2, f2)]
    assert (got.src, got.tgt) == (gf, g2f2)
    _same(K, got.coeffs, _schoolbook(K, consts("hcomp", (g, g2, f, f2)),
                                     C.dim2(gf, g2f2), tg.coeffs, tf.coeffs))

    if G is None:
        return
    pairs = list(C.hom2_dim)
    f, f2 = data.draw(st.sampled_from(pairs))
    g, g2 = data.draw(st.sampled_from(pairs))
    a, b = cell2(f, f2), cell2(g, g2)
    got = G.tensor2(a, b)
    fg, f2g2 = G.tcell(f, g), G.tcell(f2, g2)
    assert (got.src, got.tgt) == (fg, f2g2)
    _same(K, got.coeffs, _schoolbook(K, G.tensor2_const.get((f, f2, g, g2)),
                                     C.dim2(fg, f2g2), a.coeffs, b.coeffs))


def test_mismatched_products_raise_when_the_plan_exists(model_b):
    """A vcomp whose key has a plan still compares t1.tgt with t2.src,
    and a horizontal mismatch raises every time, with the same messages
    on Model B and on its square."""
    for C, f, g in ((model_b, "f", "g"),
                    (product_many([model_b] * 2), ("f", "f"), ("g", "g"))):
        fg, gg = C.basis2(f, g, 1), C.basis2(g, g, 2)
        C.vcomp(gg, fg)
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape(
                    f"vertical composition mismatch: {g} vs {f}")):
                C.vcomp(fg, fg)
            with pytest.raises(ValueError,
                               match="^horizontal composition mismatch$"):
                C.hcomp(fg, fg)
