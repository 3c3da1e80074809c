"""Gray semigroups: strictly associative tensor with a cubical tensorator.

A Gray semigroup here is a finite strict 2-category equipped with a tensor
that is strictly associative on objects and 1-cells, strictly compatible
with identities, and pseudofunctorial up to an invertible tensorator
2-morphism

    tensorator((f', g'), (f, g)) : (f' (x) g') o (f (x) g) => (f' o f) (x) (g' o g)

subject to the cubical vanishing conditions.  The module also builds the
iterated tensor pseudofunctors C^n -> C and the canonical padding
2-morphisms used by all differentials.  A tensor power builds its
objects, 1-cells and their images when it is made; its 2-cell map, its
coherence cells fhat and the 1-cell composition and Hom2 dimension
tables of C^n are each built whole the first time they are read, so a
caller that reads only the 1-cells of C^5 never builds the rest.  C^n
has no 2-cell table: its products recurse through its factors to the
constants of C (twocat.ProductCategory).

Every table derived from a structure (tensor powers here, cochain spaces
and differentials in defcomplex, equation systems in deformations) is
kept in the structure's one dict ``memo``.  A function that derives such
a table is decorated with ``per_structure``, which keys its value by the
function and its arguments with defaults applied.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass

from .twocat import (
    ProductCategory,
    Pseudofunctor,
    TwoCategory,
    TwoMorphism,
    ValidationReport,
    apply_plan,
    product_many,
    validate_pseudofunctor,
)


class GraySemigroup:
    """Tables:
      base          -- underlying TwoCategory
      tensor_obj    -- (X, Y) -> X (x) Y
      tensor1       -- (f, g) -> f (x) g
      tensor2_const -- (f, f2, g, g2) -> {(i, j): {k: scalar}}
      tensorator    -- (fp, gp, f, g) -> TwoMorphism, for tgt f = src fp,
                       tgt g = src gp

    tensor2 keeps one product plan (see twocat) per endpoint key
    (f, f2, g, g2), made on first use.
    """

    def __init__(self, base: TwoCategory, tensor_obj, tensor1, tensor2_const,
                 tensorator):
        self.base = base
        self.tensor_obj = dict(tensor_obj)
        self.tensor1 = dict(tensor1)
        self.tensor2_const = dict(tensor2_const)
        self.tensorator_table = dict(tensorator)
        self.memo = {}
        self._tensor2_plans = {}

    # ----- tensor on objects and 1-cells -------------------------------

    def tobj(self, X, Y):
        return self.tensor_obj[(X, Y)]

    def tobj_many(self, Xs):
        Xs = list(Xs)
        out = Xs[0]
        for X in Xs[1:]:
            out = self.tobj(out, X)
        return out

    def tcell(self, f, g):
        return self.tensor1[(f, g)]

    def tcell_many(self, fs):
        fs = list(fs)
        out = fs[0]
        for f in fs[1:]:
            out = self.tcell(out, f)
        return out

    # ----- tensor on 2-morphisms ---------------------------------------

    def tensor2(self, a: TwoMorphism, b: TwoMorphism) -> TwoMorphism:
        key = (a.src, a.tgt, b.src, b.tgt)
        plan = self._tensor2_plans.get(key)
        if plan is None:
            plan = self._tensor2_plans[key] = self.base.plan(
                self.tcell(a.src, b.src), self.tcell(a.tgt, b.tgt),
                self.tensor2_const.get(key))
        return apply_plan(plan, a.coeffs, b.coeffs)

    def tensor2_many(self, terms):
        terms = list(terms)
        out = terms[0]
        for t in terms[1:]:
            out = self.tensor2(out, t)
        return out

    def tensorator(self, fp, gp, f, g) -> TwoMorphism:
        return self.tensorator_table[(fp, gp, f, g)]


# ----- tables derived from a structure ----------------------------------


def per_structure(fn):
    """Memoise fn(G, ...) in G.memo.  The key is fn with its arguments
    after G, defaults applied, so a call that spells out a default shares
    the value of one that leaves it out."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def memoised(G, *args, **kwargs):
        bound = sig.bind(G, *args, **kwargs)
        bound.apply_defaults()
        key = (fn, bound.args[1:])
        if key not in G.memo:
            G.memo[key] = fn(*bound.args)
        return G.memo[key]

    return memoised


# ----- iterated tensor --------------------------------------------------


class RecursionsDisagree(AssertionError):
    """The right- and left-nested iterated tensors differ at the entry
    (g, f) given as the one argument."""


@per_structure
def tensor_power(G: GraySemigroup, n: int) -> Pseudofunctor:
    """The iterated tensor pseudofunctor C^n -> C (right-nested coherence
    data) on the product 2-category C^n.  obj_map, cell_map and f0 are
    built here; two_map and fhat are built on first read (TensorPower)."""
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    C = G.base
    if n == 1:
        prev = None
        dom = product_many([C])
        obj_map = {X: X[0] for X in dom.objects}
        cell_map = {f: f[0] for f in dom.cell_src}
    else:
        # C^n = C^{n-1} x C, and the tensor folds from the left
        prev = tensor_power(G, n - 1)
        dom = ProductCategory(prev.dom, C)
        obj_map = {X: G.tobj(prev.obj_map[X[:-1]], X[-1])
                   for X in dom.objects}
        cell_map = {f: G.tcell(prev.cell_map[f[:-1]], f[-1])
                    for f in dom.cell_src}
    return TensorPower(G, n, prev, dom, obj_map, cell_map)


class TensorPower(Pseudofunctor):
    """tensor_power(G, n), with prev = tensor_power(G, n - 1) (None for
    n = 1).  two_map and fhat are each built whole the first time they
    are read, from the same tables of prev.  The left-nested recursion
    yields the same fhat: both are built and compared on every entry when
    fhat is built, and a difference raises RecursionsDisagree."""

    def __init__(self, G: GraySemigroup, n: int, prev, dom: TwoCategory,
                 obj_map, cell_map):
        C = G.base
        self.G, self.n, self.prev = G, n, prev
        self.dom = dom
        self.cod = C
        self.obj_map = obj_map
        self.cell_map = cell_map
        self.f0 = {X: C.id2(C.identity_cell[obj_map[X]])
                   for X in dom.objects}

    @functools.cached_property
    def two_map(self):
        # column (i, j) of a product Hom2 space: the image of basis 2-cell
        # i of the first n - 1 factors, tensored with basis 2-cell j of the
        # last
        G, prev, C = self.G, self.prev, self.cod
        K = C.field
        two_map = {}
        for (f, f2), d in self.dom.hom2_dim.items():
            if prev is None:
                two_map[(f, f2)] = [{i: K.one()} for i in range(d)]
                continue
            d_last = C.dim2(f[-1], f2[-1])
            cols = []
            for i in range(d // d_last):
                head = prev.map2(prev.dom.basis2(f[:-1], f2[:-1], i))
                for j in range(d_last):
                    t = G.tensor2(head, C.basis2(f[-1], f2[-1], j))
                    cols.append({k: v for k, v in enumerate(t.coeffs)
                                 if not K.is_zero(v)})
            two_map[(f, f2)] = cols
        return two_map

    @functools.cached_property
    def fhat(self):
        G, n, prev, C = self.G, self.n, self.prev, self.cod
        compose1 = self.dom.compose1
        if n == 1:
            return {(g, f): C.id2(self.cell_map[compose1[(g, f)]])
                    for (g, f) in compose1}
        fhat = {}
        lhat = {}
        # both recursions combine few distinct 2-cells; memoise each
        # combination by the cells and 2-cell values it is a function of
        memo: dict = {}

        def right_nested(gf0, rest, first):
            key = ("r", gf0, rest.src, rest.tgt, rest.coeffs,
                   first.src, first.tgt, first.coeffs)
            out = memo.get(key)
            if out is None:
                out = memo[key] = C.vcomp(
                    G.tensor2(C.id2(gf0), rest), first)
            return out

        def left_nested(tens, composites, rest):
            key = ("l", tens.src, tens.tgt, tens.coeffs, composites,
                   rest.src, rest.tgt, rest.coeffs)
            out = memo.get(key)
            if out is None:
                step = G.tensor2_many(
                    [tens] + [C.id2(h) for h in composites])
                out = memo[key] = C.vcomp(step, rest)
            return out

        for (g, f) in compose1:
            rest_g, rest_f = g[1:], f[1:]
            tg_rest = prev.cell_map[rest_g]
            tf_rest = prev.cell_map[rest_f]
            # right-nested: peel the first factor
            first = G.tensorator(g[0], tg_rest, f[0], tf_rest)
            fhat[(g, f)] = right_nested(C.compose(g[0], f[0]),
                                        prev.fhat[(rest_g, rest_f)], first)
            # left-nested: merge the first two factors
            tens = G.tensorator(g[0], g[1], f[0], f[1])
            if n == 2:
                lhat[(g, f)] = tens
            else:
                gg = (G.tcell(g[0], g[1]),) + g[2:]
                ff = (G.tcell(f[0], f[1]),) + f[2:]
                lhat[(g, f)] = left_nested(
                    tens, tuple(C.compose(g[i], f[i]) for i in range(2, n)),
                    prev.fhat[(gg, ff)])
        for key in fhat:
            if not C.eq2(fhat[key], lhat[key]):
                raise RecursionsDisagree(key)
        return fhat


# ----- validator --------------------------------------------------------


def validate_gray(G: GraySemigroup) -> ValidationReport:
    """Strict associativity/unitality of the tensor, cubical vanishing of
    the tensorator, strict associativity of the 2-cell tensor, the
    pseudofunctor axioms of the induced C^2 -> C functor, and agreement of
    the two ways to tensor three composable pairs."""
    rep = ValidationReport()
    C = G.base
    objs = C.objects
    cells = list(C.all_cells())

    for X in objs:
        for Y in objs:
            if (X, Y) not in G.tensor_obj:
                rep.add_structural(f"tensor_obj missing {(X, Y)}")
    for f in cells:
        for g in cells:
            if (f, g) not in G.tensor1:
                rep.add_structural(f"tensor1 missing {(f, g)}")
    if rep.structural_errors:
        return rep

    for X in objs:
        for Y in objs:
            for Z in objs:
                if G.tobj(G.tobj(X, Y), Z) != G.tobj(X, G.tobj(Y, Z)):
                    rep.add("tensor-obj-associativity", (X, Y, Z))
    for f in cells:
        for g in cells:
            fg = G.tcell(f, g)
            if C.cell_src[fg] != G.tobj(C.cell_src[f], C.cell_src[g]) or \
                    C.cell_tgt[fg] != G.tobj(C.cell_tgt[f], C.cell_tgt[g]):
                rep.add("tensor1-endpoints", (f, g))
            for h in cells:
                if G.tcell(G.tcell(f, g), h) != G.tcell(f, G.tcell(g, h)):
                    rep.add("tensor1-associativity", (f, g, h))
    for X in objs:
        for Y in objs:
            idX, idY = C.identity_cell[X], C.identity_cell[Y]
            if G.tcell(idX, idY) != C.identity_cell[G.tobj(X, Y)]:
                rep.add("tensor1-identity", (X, Y))

    # 2-cell tensor: identities, strict associativity
    for f in cells:
        for g in cells:
            if not C.eq2(G.tensor2(C.id2(f), C.id2(g)), C.id2(G.tcell(f, g))):
                rep.add("tensor2-identity", (f, g))
    for f in cells:
        for g in cells:
            for h in cells:
                for f2 in C.parallel_targets(f):
                    for g2 in C.parallel_targets(g):
                        for h2 in C.parallel_targets(h):
                            for i in range(C.dim2(f, f2)):
                                for j in range(C.dim2(g, g2)):
                                    for k in range(C.dim2(h, h2)):
                                        a = C.basis2(f, f2, i)
                                        b = C.basis2(g, g2, j)
                                        c = C.basis2(h, h2, k)
                                        lhs = G.tensor2(G.tensor2(a, b), c)
                                        rhs = G.tensor2(a, G.tensor2(b, c))
                                        if not C.eq2(lhs, rhs):
                                            rep.add("tensor2-associativity",
                                                    (a, b, c))

    # the tensorator's endpoints are composites of tensored 1-cells, which
    # exist only once the checks above hold
    if rep.violations:
        return rep

    # cubical vanishing: the tensorator is an identity whenever the second
    # factor of the left pair or the first factor of the right pair is an
    # identity 1-cell
    for (fp, gp, f, g), t in G.tensorator_table.items():
        if gp == C.identity_cell[C.cell_src[gp]] or \
                f == C.identity_cell[C.cell_src[f]]:
            if not C.eq2(t, C.id2(t.src)):
                rep.add("tensorator-cubical", (fp, gp, f, g))

    # tensorator endpoints and invertibility, checked before anything
    # builds on the table (the iterated-tensor construction assumes both)
    for (fp, gp, f, g), t in G.tensorator_table.items():
        src = C.compose(G.tcell(fp, gp), G.tcell(f, g))
        tgt = G.tcell(C.compose(fp, f), C.compose(gp, g))
        if (t.src, t.tgt) != (src, tgt):
            rep.add("tensorator-endpoints", (fp, gp, f, g))
            continue
        try:
            C.invert2(t)
        except (ValueError, ZeroDivisionError):
            rep.add("tensorator-invertible", (fp, gp, f, g))
    if rep.violations or rep.structural_errors:
        return rep

    # pseudofunctor axioms of the induced two-variable tensor, then
    # three-variable compatibility: merging (1,2) then with 3 agrees with
    # merging (2,3) then with 1 (checked for all n when the iterated
    # tensor's fhat is built; n = 3 is the generating case).  Both
    # recursions already meet at n = 2, where a base 2-category whose
    # identity 2-cells are not units can set them apart.
    try:
        rep = rep.merged(validate_pseudofunctor(tensor_power(G, 2)))
        if not rep.ok:
            return rep
        tensor_power(G, 3).fhat
    except RecursionsDisagree as e:
        rep.add("tensor-power-recursions", e.args[0])
    return rep


# ----- canonical paddings -----------------------------------------------


def _check_blocks(blocks, k):
    if any(b <= 0 for b in blocks) or sum(blocks) != k:
        raise ValueError(f"invalid block sizes {blocks} for {k} letters")


def _split(letters, blocks):
    words = []
    i = 0
    for b in blocks:
        words.append(tuple(letters[i:i + b]))
        i += b
    return words


def expr_cell(F: Pseudofunctor, letters, blocks):
    """The 1-cell F(w_0) o F(w_1) o ... for the given grouping of letters."""
    _check_blocks(blocks, len(letters))
    return F.cod.compose_many(
        [F.cell_map[F.dom.compose_many(w)] for w in _split(letters, blocks)])


def merge_to_single(F: Pseudofunctor, letters, blocks, rng=None):
    """Canonical 2-morphism expr(blocks) => expr((k,)) built from whiskered
    tensorator/coherence cells; any merge order yields the same result, and
    rng (if given) randomizes the order."""
    _check_blocks(blocks, len(letters))
    C, D = F.dom, F.cod
    words = _split(letters, blocks)
    total = None
    while len(words) > 1:
        i = rng.choice(range(len(words) - 1)) if rng is not None else 0
        ids = [D.id2(F.cell_map[C.compose_many(w)]) for w in words]
        ids[i:i + 2] = [F.fhat[(C.compose_many(words[i]),
                                C.compose_many(words[i + 1]))]]
        step = D.hcomp_many(ids)
        total = step if total is None else D.vcomp(step, total)
        words[i:i + 2] = [words[i] + words[i + 1]]
    if total is None:
        total = D.id2(expr_cell(F, letters, blocks))
    return total


def canonical_pad(F: Pseudofunctor, letters, from_blocks, to_blocks,
                  rng=None):
    """Canonical coherence 2-morphism expr(from_blocks) => expr(to_blocks)."""
    if tuple(from_blocks) == tuple(to_blocks):
        return F.cod.id2(expr_cell(F, letters, from_blocks))
    up = merge_to_single(F, letters, from_blocks, rng)
    if tuple(to_blocks) == (len(letters),):
        return up
    down = merge_to_single(F, letters, to_blocks, rng)
    return F.cod.vcomp(F.cod.invert2(down), up)


@dataclass(frozen=True)
class PaddedStep:
    """A 2-morphism between grouped composites of F-images of the letters:
    tm goes from the src_blocks grouping to the tgt_blocks grouping."""

    tm: object
    src_blocks: tuple
    tgt_blocks: tuple


def pad(F: Pseudofunctor, letters, chain, rng=None):
    """Canonical padding of a vertical chain of grouped 2-morphisms.

    letters is the tuple of composable 1-cells f_0, ..., f_{k-1} (diagram
    order) and chain is a list of PaddedStep applied bottom-up.  The result
    runs from the fully split composite F(f_0) o ... o F(f_{k-1}) to the
    fully merged F(f_0 o ... o f_{k-1}), inserting canonical coherence
    cells between the steps.  Any insertion recipe gives the same result;
    rng randomizes the choices made.
    """
    D = F.cod
    letters = tuple(letters)
    k = len(letters)
    current = (1,) * k
    total = D.id2(expr_cell(F, letters, current))
    for step in chain:
        bridge = canonical_pad(F, letters, current, step.src_blocks, rng)
        total = D.vcomp(step.tm, D.vcomp(bridge, total))
        current = tuple(step.tgt_blocks)
    bridge = canonical_pad(F, letters, current, (k,), rng)
    return D.vcomp(bridge, total)
