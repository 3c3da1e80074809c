"""Shared fixtures: the small skeletal models used across the suite.

All three are group models (base group acting as objects, fiber group as
endo-1-cells, scalar 2-cells, bicharacter tensorator):

* g_base2  -- base Z/2, trivial fiber, F_2: only the pentagonator tower
              carries cohomology.
* g_fiber2 -- trivial base, fiber Z/2, F_2: tensorator and associator
              directions are nontrivial.
* g_sign3  -- base Z/2, fiber Z/2, sign bicharacter, F_3: the smallest
              model with a nonscalar tensorator table.

Two more models have fibers of dimension > 1:

* model_a2 -- one object, 1-cells Z/2, every Hom2(a, a) the group
              algebra F_2[Z/2], the monoid tensor and identity
              tensorators (Model A for n = 2 over F_2).
* model_b  -- the strict 2-category with objects X, Y, 1-cells 1X, 1Y
              and f, g: X -> Y, Hom2(a, b) the 2 x 2 matrices over F_5
              for a, b in {f, g} (basis E_rc at index 2r + c, vcomp the
              matrix product), Hom2(1, 1) = F_5 and hcomp only whiskering
              by identity 1-cells (Model B).  Its 2-cells run between
              distinct 1-cells and its endomorphism algebras are not
              commutative, so its naturality systems have rows.

make_model_a(n, K) builds Model A for any n and field; make_model_b()
builds Model B.

* model_s  -- base S_3 (the permutations of (0, 1, 2), composed as
              maps), trivial fiber, F_2 (Model S): the first model whose
              tensor of objects does not commute.  Only the six identity
              1-cells exist, so C^n has 6^n objects but only 6^n object
              pairs with 1-cells.
"""

import itertools

import pytest

from graycohom.exactlinalg import GF
from graycohom.examples import (
    FiniteGroup,
    GroupModelSpec,
    cyclic_group,
    deloop,
    group_algebra_monoidal,
    group_model,
    sign_bicharacter,
    trivial_bicharacter,
    trivial_group,
)
from graycohom.gray import GraySemigroup
from graycohom.twocat import TwoCategory


def dense_rank(rows, p):
    """Rank over F_p of a list of dense rows, by Gauss-Jordan elimination:
    the tests' own elimination, independent of exactlinalg."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i, r in enumerate(rows):
            if i != rank and r[c]:
                rows[i] = [(x - r[c] * y) % p for x, y in zip(r, rows[rank])]
        rank += 1
    return rank


def make_model(base, fiber, bichar, field_):
    spec = GroupModelSpec(base, fiber, bichar(fiber, field_), field_)
    spec.validate()
    return group_model(spec)


@pytest.fixture(scope="session")
def g_base2():
    return make_model(cyclic_group(2), trivial_group(),
                      trivial_bicharacter, GF(2))


@pytest.fixture(scope="session")
def g_fiber2():
    return make_model(trivial_group(), cyclic_group(2),
                      trivial_bicharacter, GF(2))


@pytest.fixture(scope="session")
def g_sign3():
    return make_model(cyclic_group(2), cyclic_group(2),
                      sign_bicharacter, GF(3))


@pytest.fixture(scope="session")
def model_s():
    perms = tuple(itertools.permutations(range(3)))
    s3 = FiniteGroup(perms, {(a, b): tuple(a[k] for k in b)
                             for a in perms for b in perms}, (0, 1, 2))
    return make_model(s3, trivial_group(), trivial_bicharacter, GF(2))


@pytest.fixture(scope="session")
def model_a2():
    return make_model_a(2, GF(2))


def make_model_a(n, field_):
    """Model A: the monoid K[Z/n] delooped, with identity tensorators."""
    M = group_algebra_monoidal(n, field_)
    C = deloop(M)
    cells = M.objects
    tensorator = {(fp, gp, f, g): C.id2((fp + gp + f + g) % n)
                  for fp in cells for gp in cells for f in cells
                  for g in cells}
    return GraySemigroup(C, {("*", "*"): "*"}, dict(M.tensor_obj),
                         dict(M.tensor_const), tensorator)


@pytest.fixture(scope="session")
def model_b():
    return make_model_b()


def make_model_b():
    K = GF(5)
    one, zero = K.one(), K.zero()
    par = ("f", "g")
    one_cells = {("X", "X"): ("1X",), ("Y", "Y"): ("1Y",), ("X", "Y"): par,
                 ("Y", "X"): ()}
    cell_src = {"1X": "X", "1Y": "Y", "f": "X", "g": "X"}
    cell_tgt = {"1X": "X", "1Y": "Y", "f": "Y", "g": "Y"}
    compose1 = {("1X", "1X"): "1X", ("1Y", "1Y"): "1Y"}
    compose1.update({("1Y", a): a for a in par})
    compose1.update({(a, "1X"): a for a in par})
    hom2_dim = {("1X", "1X"): 1, ("1Y", "1Y"): 1}
    hom2_dim.update({(a, b): 4 for a in par for b in par})
    id2_coeffs = {"1X": (one,), "1Y": (one,)}
    id2_coeffs.update({a: (one, zero, zero, one) for a in par})
    scalar = {(0, 0): {0: one}}
    # E_rs E_sc = E_rc; the pair is (index of the later, of the earlier)
    product = {(2 * r + s, 2 * s + c): {2 * r + c: one}
               for r in range(2) for s in range(2) for c in range(2)}
    vcomp_const = {("1X",) * 3: scalar, ("1Y",) * 3: scalar}
    vcomp_const.update({(a, b, c): product
                        for a in par for b in par for c in par})
    hcomp_const = {("1X",) * 4: scalar, ("1Y",) * 4: scalar}
    for a in par:
        for b in par:
            hcomp_const[("1Y", "1Y", a, b)] = {(0, i): {i: one}
                                               for i in range(4)}
            hcomp_const[(a, b, "1X", "1X")] = {(i, 0): {i: one}
                                               for i in range(4)}
    return TwoCategory(K, ("X", "Y"), one_cells, cell_src, cell_tgt,
                       {"X": "1X", "Y": "1Y"}, compose1, hom2_dim,
                       id2_coeffs, vcomp_const, hcomp_const)
