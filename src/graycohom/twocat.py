"""Finite strict K-linear 2-categories as explicit tables.

A 2-category here is a finite object set, finite 1-cell sets with a total
strictly associative composition table, and finite-dimensional 2-morphism
spaces given by a basis and structure constants for vertical and horizontal
composition.  Pseudofunctors are layered on top as table-backed structures
with a validator that returns complete witness lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .exactlinalg import Field, Vector, from_columns, solve_in_image


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)   # (axiom_name, witness)
    structural_errors: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations and not self.structural_errors

    def add(self, axiom, witness):
        self.violations.append((axiom, witness))

    def add_structural(self, message):
        self.structural_errors.append(message)

    def merged(self, other: "ValidationReport") -> "ValidationReport":
        return ValidationReport(
            self.violations + other.violations,
            self.structural_errors + other.structural_errors,
        )


@dataclass(frozen=True)
class TwoMorphism:
    """2-morphism src => tgt as a coefficient vector over the hom basis."""

    src: object
    tgt: object
    coeffs: tuple


class TwoCategory:
    """Finite strict 2-category.

    Tables:
      objects            -- tuple of object ids
      one_cells          -- (X, Y) -> tuple of 1-cell ids
      cell_src, cell_tgt -- 1-cell id -> object
      identity_cell      -- X -> id 1-cell
      compose1           -- (g, f) -> g o f, for tgt(f) = src(g)
      hom2_dim           -- (f, f') -> basis size of Hom2(f, f') (parallel pairs)
      id2_coeffs         -- f -> coefficients of 1_f in Hom2(f, f)
      vcomp_const        -- (f, f1, f2) -> {(j, i): {k: scalar}}
      hcomp_const        -- (g, g2, f, f2) -> {(j, i): {k: scalar}}
    """

    def __init__(self, field_: Field, objects, one_cells, cell_src, cell_tgt,
                 identity_cell, compose1, hom2_dim, id2_coeffs,
                 vcomp_const, hcomp_const):
        self.field = field_
        self.objects = tuple(objects)
        self.one_cells = dict(one_cells)
        self.cell_src = dict(cell_src)
        self.cell_tgt = dict(cell_tgt)
        self.identity_cell = dict(identity_cell)
        self.compose1 = dict(compose1)
        self.hom2_dim = dict(hom2_dim)
        self.id2_coeffs = dict(id2_coeffs)
        self.vcomp_const = dict(vcomp_const)
        self.hcomp_const = dict(hcomp_const)
        self._id2_cache = {}
        self._parallel_cache = {}

    # ----- basic accessors ---------------------------------------------

    def all_cells(self):
        for pair in sorted(self.one_cells):
            yield from self.one_cells[pair]

    def dim2(self, f, f2) -> int:
        return self.hom2_dim.get((f, f2), 0)

    def parallel_targets(self, f):
        """1-cells f' with dim Hom2(f, f') > 0."""
        cached = self._parallel_cache.get(f)
        if cached is None:
            X, Y = self.cell_src[f], self.cell_tgt[f]
            cached = [g for g in self.one_cells[(X, Y)]
                      if self.dim2(f, g) > 0]
            self._parallel_cache[f] = cached
        return cached

    def compose(self, g, f):
        if self.cell_tgt[f] != self.cell_src[g]:
            raise ValueError(f"1-cells not composable: {g} o {f}")
        return self.compose1[(g, f)]

    def compose_many(self, cells):
        """Composite f0 o f1 o ... o fk (diagram order, f0 leftmost)."""
        cells = list(cells)
        out = cells[-1]
        for f in reversed(cells[:-1]):
            out = self.compose(f, out)
        return out

    # ----- 2-morphism algebra ------------------------------------------

    def zero2(self, f, f2) -> TwoMorphism:
        return TwoMorphism(f, f2, (self.field.zero(),) * self.dim2(f, f2))

    def id2(self, f) -> TwoMorphism:
        cached = self._id2_cache.get(f)
        if cached is None:
            cached = TwoMorphism(f, f, tuple(self.id2_coeffs[f]))
            self._id2_cache[f] = cached
        return cached

    def basis2(self, f, f2, i) -> TwoMorphism:
        d = self.dim2(f, f2)
        K = self.field
        return TwoMorphism(
            f, f2, tuple(K.one() if k == i else K.zero() for k in range(d)))

    def add2(self, a: TwoMorphism, b: TwoMorphism) -> TwoMorphism:
        if (a.src, a.tgt) != (b.src, b.tgt):
            raise ValueError("2-morphism endpoint mismatch in addition")
        K = self.field
        return TwoMorphism(a.src, a.tgt,
                           tuple(K.add(x, y) for x, y in zip(a.coeffs, b.coeffs)))

    def scale2(self, c, a: TwoMorphism) -> TwoMorphism:
        K = self.field
        return TwoMorphism(a.src, a.tgt, tuple(K.mul(c, x) for x in a.coeffs))

    def neg2(self, a: TwoMorphism) -> TwoMorphism:
        K = self.field
        return TwoMorphism(a.src, a.tgt, tuple(K.neg(x) for x in a.coeffs))

    def eq2(self, a: TwoMorphism, b: TwoMorphism) -> bool:
        K = self.field
        return (a.src, a.tgt) == (b.src, b.tgt) and all(
            K.is_zero(K.sub(x, y)) for x, y in zip(a.coeffs, b.coeffs))

    def is_zero2(self, a: TwoMorphism) -> bool:
        K = self.field
        return all(K.is_zero(x) for x in a.coeffs)

    def _bilinear(self, consts, dim_out, a_coeffs, b_coeffs):
        K = self.field
        out = [K.zero()] * dim_out
        if consts:
            is_zero, mul, add = K.is_zero, K.mul, K.add
            for (j, i), vec in consts.items():
                cj = a_coeffs[j]
                ci = b_coeffs[i]
                if is_zero(cj) or is_zero(ci):
                    continue
                c = mul(cj, ci)
                for k, v in vec.items():
                    out[k] = add(out[k], mul(c, v))
        return tuple(out)

    def vcomp(self, t2: TwoMorphism, t1: TwoMorphism) -> TwoMorphism:
        """Vertical composite t2 . t1 for t1: f => f1, t2: f1 => f2."""
        if t1.tgt != t2.src:
            raise ValueError(f"vertical composition mismatch: {t1.tgt} vs {t2.src}")
        f, f1, f2 = t1.src, t1.tgt, t2.tgt
        consts = self.vcomp_const.get((f, f1, f2))
        coeffs = self._bilinear(consts, self.dim2(f, f2), t2.coeffs, t1.coeffs)
        return TwoMorphism(f, f2, coeffs)

    def vcomp_many(self, terms):
        """Vertical composite t_n . ... . t_1 from a list [t_n, ..., t_1]."""
        terms = list(terms)
        out = terms[-1]
        for t in reversed(terms[:-1]):
            out = self.vcomp(t, out)
        return out

    def hcomp(self, tg: TwoMorphism, tf: TwoMorphism) -> TwoMorphism:
        """Horizontal composite tg o tf (tg on the left of the diagram)."""
        if self.cell_tgt[tf.src] != self.cell_src[tg.src]:
            raise ValueError("horizontal composition mismatch")
        g, g2, f, f2 = tg.src, tg.tgt, tf.src, tf.tgt
        consts = self.hcomp_const.get((g, g2, f, f2))
        gf = self.compose(g, f)
        g2f2 = self.compose(g2, f2)
        coeffs = self._bilinear(consts, self.dim2(gf, g2f2), tg.coeffs, tf.coeffs)
        return TwoMorphism(gf, g2f2, coeffs)

    def hcomp_many(self, terms):
        """Horizontal composite t_0 o t_1 o ... o t_k (diagram order)."""
        terms = list(terms)
        out = terms[-1]
        for t in reversed(terms[:-1]):
            out = self.hcomp(t, out)
        return out

    def invert2(self, t: TwoMorphism) -> TwoMorphism:
        """Vertical inverse of an invertible 2-morphism (solved exactly)."""
        f, g = t.src, t.tgt
        d_gf = self.dim2(g, f)
        # columns: candidate s in Hom2(g, f); rows: coefficients of
        # (s . t, t . s) against (1_f, 1_g)
        d_ff = self.dim2(f, f)
        d_gg = self.dim2(g, g)
        K = self.field
        cols = []
        for i in range(d_gf):
            e = self.basis2(g, f, i)
            st_ts = self.vcomp(e, t).coeffs + self.vcomp(t, e).coeffs
            cols.append(Vector(d_ff + d_gg, dict(enumerate(st_ts))))
        ids = self.id2(f).coeffs + self.id2(g).coeffs
        rhs = Vector(d_ff + d_gg, {k: v for k, v in enumerate(ids)
                                   if not K.is_zero(v)})
        sol = solve_in_image(from_columns(cols, d_ff + d_gg, K), rhs)
        if sol is None:
            raise ValueError(f"2-morphism is not invertible: {t}")
        coeffs = tuple(sol.entries.get(i, K.zero()) for i in range(d_gf))
        return TwoMorphism(g, f, coeffs)


# ----- validators -------------------------------------------------------


def validate_two_category(C: TwoCategory) -> ValidationReport:
    """Check all 2-category axioms on all index tuples; list every violation."""
    rep = ValidationReport()
    K = C.field

    # structural totality
    for (X, Y), cells in C.one_cells.items():
        for f in cells:
            if C.cell_src.get(f) != X or C.cell_tgt.get(f) != Y:
                rep.add_structural(f"1-cell {f} has inconsistent endpoints")
    for X in C.objects:
        e = C.identity_cell.get(X)
        if e is None or e not in C.one_cells.get((X, X), ()):
            rep.add_structural(f"missing identity 1-cell at {X}")
    cells = list(C.all_cells())
    for g in cells:
        for f in cells:
            if C.cell_tgt[f] == C.cell_src[g] and (g, f) not in C.compose1:
                rep.add_structural(f"missing composition entry {(g, f)}")
    if rep.structural_errors:
        return rep

    # 1-cell unit and associativity
    for f in cells:
        X, Y = C.cell_src[f], C.cell_tgt[f]
        if C.compose1[(f, C.identity_cell[X])] != f:
            rep.add("compose1-right-unit", f)
        if C.compose1[(C.identity_cell[Y], f)] != f:
            rep.add("compose1-left-unit", f)
    for h in cells:
        for g in cells:
            if C.cell_tgt[g] != C.cell_src[h]:
                continue
            for f in cells:
                if C.cell_tgt[f] != C.cell_src[g]:
                    continue
                if C.compose1[(C.compose1[(h, g)], f)] != \
                        C.compose1[(h, C.compose1[(g, f)])]:
                    rep.add("compose1-associativity", (h, g, f))

    def hom_basis(f, f2):
        return [C.basis2(f, f2, i) for i in range(C.dim2(f, f2))]

    # vertical units and associativity
    for f in cells:
        for f2 in C.parallel_targets(f):
            for t in hom_basis(f, f2):
                if not C.eq2(C.vcomp(C.id2(f2), t), t):
                    rep.add("vcomp-left-unit", (f, f2, t))
                if not C.eq2(C.vcomp(t, C.id2(f)), t):
                    rep.add("vcomp-right-unit", (f, f2, t))
    for f in cells:
        for f1 in C.parallel_targets(f):
            for f2 in C.parallel_targets(f1):
                for f3 in C.parallel_targets(f2):
                    for t1 in hom_basis(f, f1):
                        for t2 in hom_basis(f1, f2):
                            for t3 in hom_basis(f2, f3):
                                lhs = C.vcomp(C.vcomp(t3, t2), t1)
                                rhs = C.vcomp(t3, C.vcomp(t2, t1))
                                if not C.eq2(lhs, rhs):
                                    rep.add("vcomp-associativity", (t3, t2, t1))

    # horizontal units, functoriality of identities
    for f in cells:
        X, Y = C.cell_src[f], C.cell_tgt[f]
        for f2 in C.parallel_targets(f):
            for t in hom_basis(f, f2):
                if not C.eq2(C.hcomp(C.id2(C.identity_cell[Y]), t), t):
                    rep.add("hcomp-left-unit", (f, f2, t))
                if not C.eq2(C.hcomp(t, C.id2(C.identity_cell[X])), t):
                    rep.add("hcomp-right-unit", (f, f2, t))
    # identity 2-cells are horizontally multiplicative
    for g in cells:
        for f in cells:
            if C.cell_tgt[f] != C.cell_src[g]:
                continue
            if not C.eq2(C.hcomp(C.id2(g), C.id2(f)),
                         C.id2(C.compose(g, f))):
                rep.add("hcomp-identity", (g, f))

    # horizontal associativity
    for h in cells:
        for g in cells:
            if C.cell_tgt[g] != C.cell_src[h]:
                continue
            for f in cells:
                if C.cell_tgt[f] != C.cell_src[g]:
                    continue
                for h2 in C.parallel_targets(h):
                    for g2 in C.parallel_targets(g):
                        for f2 in C.parallel_targets(f):
                            for th in hom_basis(h, h2):
                                for tg in hom_basis(g, g2):
                                    for tf in hom_basis(f, f2):
                                        lhs = C.hcomp(C.hcomp(th, tg), tf)
                                        rhs = C.hcomp(th, C.hcomp(tg, tf))
                                        if not C.eq2(lhs, rhs):
                                            rep.add("hcomp-associativity",
                                                    (th, tg, tf))

    # interchange law on all basis 4-tuples
    for g in cells:
        for f in cells:
            if C.cell_tgt[f] != C.cell_src[g]:
                continue
            for g1 in C.parallel_targets(g):
                for f1 in C.parallel_targets(f):
                    for g2 in C.parallel_targets(g1):
                        for f2 in C.parallel_targets(f1):
                            for eta in hom_basis(g, g1):
                                for eta2 in hom_basis(g1, g2):
                                    for tau in hom_basis(f, f1):
                                        for tau2 in hom_basis(f1, f2):
                                            lhs = C.hcomp(C.vcomp(eta2, eta),
                                                          C.vcomp(tau2, tau))
                                            rhs = C.vcomp(C.hcomp(eta2, tau2),
                                                          C.hcomp(eta, tau))
                                            if not C.eq2(lhs, rhs):
                                                rep.add("interchange",
                                                        (eta2, eta, tau2, tau))
    return rep


# ----- cartesian products ----------------------------------------------


def _kron(K, u, v, dim_v):
    """Kronecker product of sparse vectors {index: scalar}: the index pair
    (a, b) becomes a * dim_v + b.  Zero products are left out."""
    out = {}
    for a, x in u.items():
        for b, y in v.items():
            c = K.mul(x, y)
            if not K.is_zero(c):
                out[a * dim_v + b] = c
    return out


def _kron_table(K, ta, tb, dims_b):
    """Structure constants {(j, i): {k: scalar}} of a product composition
    from those of its two factors; dims_b are the second factor's Hom2
    dimensions of the left input, the right input and the output."""
    dj, di, dk = dims_b
    table = {}
    for (ja, ia), u in ta.items():
        for (jb, ib), v in tb.items():
            vec = _kron(K, u, v, dk)
            if vec:
                table[(ja * dj + jb, ia * di + ib)] = vec
    return dict(sorted(table.items()))


class ProductCategory(TwoCategory):
    """A x B, where the labels of A are tuples: a product label is an A
    label with the B component appended, and the product 2-cell with
    factor indices (i_A, i_B) has index i_A * dim_B + i_B.

    objects, one_cells, cell_src, cell_tgt and identity_cell are built
    with the product.  compose1, hom2_dim, id2_coeffs, vcomp_const and
    hcomp_const are each built whole from the two factors the first time
    they are read, so a caller that needs only the 1-cells of a large
    power never pays for its composition tables."""

    def __init__(self, A: TwoCategory, B: TwoCategory):
        self.field = A.field
        self.factors = (A, B)
        self.objects = tuple(X + (Y,) for X in A.objects for Y in B.objects)
        self.one_cells = {}
        self.cell_src = {}
        self.cell_tgt = {}
        for X in self.objects:
            for Y in self.objects:
                cells = tuple(f + (g,)
                              for f in A.one_cells.get((X[:-1], Y[:-1]), ())
                              for g in B.one_cells.get((X[-1], Y[-1]), ()))
                self.one_cells[(X, Y)] = cells
                for f in cells:
                    self.cell_src[f] = X
                    self.cell_tgt[f] = Y
        self.identity_cell = {
            X: A.identity_cell[X[:-1]] + (B.identity_cell[X[-1]],)
            for X in self.objects}
        self._id2_cache = {}
        self._parallel_cache = {}

    @cached_property
    def compose1(self):
        A, B = self.factors
        compose1 = {}
        for (Y, Z), gs in self.one_cells.items():
            if not gs:
                continue
            for X in self.objects:
                fs = self.one_cells[(X, Y)]
                for g in gs:
                    for f in fs:
                        compose1[(g, f)] = (A.compose1[(g[:-1], f[:-1])]
                                            + (B.compose1[(g[-1], f[-1])],))
        return compose1

    @cached_property
    def hom2_dim(self):
        A, B = self.factors
        hom2_dim = {}
        for cells in self.one_cells.values():
            for f in cells:
                for f2 in cells:
                    d = A.dim2(f[:-1], f2[:-1]) * B.dim2(f[-1], f2[-1])
                    if d:
                        hom2_dim[(f, f2)] = d
        return hom2_dim

    @cached_property
    def id2_coeffs(self):
        A, B = self.factors
        K = self.field

        def sparse(coeffs):
            return {k: v for k, v in enumerate(coeffs) if not K.is_zero(v)}

        id2_coeffs = {}
        for f in self.cell_src:
            a, b = f[:-1], f[-1]
            vec = _kron(K, sparse(A.id2_coeffs[a]), sparse(B.id2_coeffs[b]),
                        B.dim2(b, b))
            id2_coeffs[f] = tuple(vec.get(k, K.zero())
                                  for k in range(self.dim2(f, f)))
        return id2_coeffs

    @cached_property
    def vcomp_const(self):
        A, B = self.factors
        vcomp_const = {}
        for f in self.cell_src:
            for f1 in self.parallel_targets(f):
                for f2 in self.parallel_targets(f1):
                    ta = A.vcomp_const.get((f[:-1], f1[:-1], f2[:-1]))
                    tb = B.vcomp_const.get((f[-1], f1[-1], f2[-1]))
                    if ta and tb:
                        table = _kron_table(self.field, ta, tb, (
                            B.dim2(f1[-1], f2[-1]), B.dim2(f[-1], f1[-1]),
                            B.dim2(f[-1], f2[-1])))
                        if table:
                            vcomp_const[(f, f1, f2)] = table
        return vcomp_const

    @cached_property
    def hcomp_const(self):
        A, B = self.factors
        compose1 = self.compose1
        hcomp_const = {}
        for (g, f), gf in compose1.items():
            for g2 in self.parallel_targets(g):
                for f2 in self.parallel_targets(f):
                    ta = A.hcomp_const.get((g[:-1], g2[:-1], f[:-1], f2[:-1]))
                    tb = B.hcomp_const.get((g[-1], g2[-1], f[-1], f2[-1]))
                    if ta and tb:
                        g2f2 = compose1[(g2, f2)]
                        table = _kron_table(self.field, ta, tb, (
                            B.dim2(g[-1], g2[-1]), B.dim2(f[-1], f2[-1]),
                            B.dim2(gf[-1], g2f2[-1])))
                        if table:
                            hcomp_const[(g, g2, f, f2)] = table
        return hcomp_const


def product_many(cats: list[TwoCategory]) -> TwoCategory:
    """Cartesian product; objects and 1-cells are tuples, 2-cell spaces are
    tensor products of the component spaces.  It is built one factor at a
    time from the one-cell 2-category, so the first factor is the most
    significant in a product 2-cell index.  Each step is a ProductCategory,
    whose composition and 2-cell tables are built on first read."""
    if not cats:
        raise ValueError("empty product")
    K = cats[0].field
    one = K.one()
    unit = {(0, 0): {0: one}}
    out = TwoCategory(K, [()], {((), ()): ((),)}, {(): ()}, {(): ()},
                      {(): ()}, {((), ()): ()}, {((), ()): 1}, {(): (one,)},
                      {((), (), ()): unit}, {((), (), (), ()): unit})
    for D in cats:
        if D.field != K:
            raise ValueError("field mismatch in product")
        out = ProductCategory(out, D)
    return out


# ----- pseudofunctors ---------------------------------------------------


class Pseudofunctor:
    """Pseudofunctor between finite strict 2-categories.

    obj_map  -- object -> object
    cell_map -- 1-cell -> 1-cell
    two_map  -- (f, f2) -> list over basis idx of {out_idx: scalar}
    fhat     -- (g, f) -> TwoMorphism F(g) o F(f) => F(g o f), invertible
    f0       -- X -> TwoMorphism F(id_X) => id_{F(X)}, invertible

    Here every table is given to the constructor.  gray.TensorPower, the
    iterated tensor, builds two_map and fhat on first read instead.
    """

    def __init__(self, dom: TwoCategory, cod: TwoCategory,
                 obj_map, cell_map, two_map, fhat, f0):
        self.dom = dom
        self.cod = cod
        self.obj_map = dict(obj_map)
        self.cell_map = dict(cell_map)
        self.two_map = dict(two_map)
        self.fhat = dict(fhat)
        self.f0 = dict(f0)

    def map2(self, t: TwoMorphism) -> TwoMorphism:
        K = self.cod.field
        Ff, Ff2 = self.cell_map[t.src], self.cell_map[t.tgt]
        out = [K.zero()] * self.cod.dim2(Ff, Ff2)
        cols = self.two_map[(t.src, t.tgt)]
        for i, c in enumerate(t.coeffs):
            if K.is_zero(c):
                continue
            for k, v in cols[i].items():
                out[k] = K.add(out[k], K.mul(c, v))
        return TwoMorphism(Ff, Ff2, tuple(out))

    @property
    def unitary(self) -> bool:
        C = self.cod
        return all(C.eq2(t, C.id2(t.src)) for t in self.f0.values())


def identity_pseudofunctor(C: TwoCategory) -> Pseudofunctor:
    obj_map = {X: X for X in C.objects}
    cell_map = {f: f for f in C.cell_src}
    two_map = {}
    K = C.field
    for (f, f2), d in C.hom2_dim.items():
        two_map[(f, f2)] = [{i: K.one()} for i in range(d)]
    fhat = {}
    for (g, f), gf in C.compose1.items():
        fhat[(g, f)] = C.id2(gf)
    f0 = {X: C.id2(C.identity_cell[X]) for X in C.objects}
    return Pseudofunctor(C, C, obj_map, cell_map, two_map, fhat, f0)


def validate_pseudofunctor(F: Pseudofunctor) -> ValidationReport:
    """Functoriality of the hom maps, naturality of Fhat, hexagonal and
    triangular axioms."""
    rep = ValidationReport()
    C, D = F.dom, F.cod

    # structural totality
    for X in C.objects:
        if X not in F.obj_map:
            rep.add_structural(f"object map missing {X}")
    for f in C.cell_src:
        if f not in F.cell_map:
            rep.add_structural(f"1-cell map missing {f}")
    for (g, f) in C.compose1:
        if (g, f) not in F.fhat:
            rep.add_structural(f"Fhat missing {(g, f)}")
    if rep.structural_errors:
        return rep

    # endpoints of cell map
    for f, X in C.cell_src.items():
        Ff = F.cell_map[f]
        if D.cell_src[Ff] != F.obj_map[X] or \
                D.cell_tgt[Ff] != F.obj_map[C.cell_tgt[f]]:
            rep.add("cell-map-endpoints", f)

    # hom functors preserve identities and vertical composition
    for f in C.cell_src:
        if not D.eq2(F.map2(C.id2(f)), D.id2(F.cell_map[f])):
            rep.add("two-map-identity", f)
    for f in C.cell_src:
        X, Y = C.cell_src[f], C.cell_tgt[f]
        for f1 in C.parallel_targets(f):
            for f2 in C.parallel_targets(f1):
                for i in range(C.dim2(f, f1)):
                    for j in range(C.dim2(f1, f2)):
                        t1 = C.basis2(f, f1, i)
                        t2 = C.basis2(f1, f2, j)
                        lhs = F.map2(C.vcomp(t2, t1))
                        rhs = D.vcomp(F.map2(t2), F.map2(t1))
                        if not D.eq2(lhs, rhs):
                            rep.add("two-map-vcomp", (f, f1, f2, j, i))

    # Fhat endpoints, invertibility and naturality
    for (g, f), t in F.fhat.items():
        Fg, Ff = F.cell_map[g], F.cell_map[f]
        if t.src != D.compose(Fg, Ff) or t.tgt != F.cell_map[C.compose(g, f)]:
            rep.add("Fhat-endpoints", (g, f))
            continue
        try:
            D.invert2(t)
        except ValueError:
            rep.add("Fhat-invertibility", (g, f))
    for (g, f), t in F.fhat.items():
        for g2 in C.parallel_targets(g):
            for f2 in C.parallel_targets(f):
                for j in range(C.dim2(g, g2)):
                    for i in range(C.dim2(f, f2)):
                        tau_g = C.basis2(g, g2, j)
                        tau_f = C.basis2(f, f2, i)
                        lhs = D.vcomp(F.fhat[(g2, f2)],
                                      D.hcomp(F.map2(tau_g), F.map2(tau_f)))
                        rhs = D.vcomp(F.map2(C.hcomp(tau_g, tau_f)), t)
                        if not D.eq2(lhs, rhs):
                            rep.add("Fhat-naturality", (g, f, g2, f2, j, i))

    # hexagonal axiom (alpha identities in the strict setting):
    # Fhat(h, g o f) . (1_{F(h)} o Fhat(g, f)) = Fhat(h o g, f) . (Fhat(h, g) o 1_{F(f)})
    cells = list(C.all_cells())
    for h in cells:
        for g in cells:
            if C.cell_tgt[g] != C.cell_src[h]:
                continue
            for f in cells:
                if C.cell_tgt[f] != C.cell_src[g]:
                    continue
                lhs = D.vcomp(F.fhat[(h, C.compose(g, f))],
                              D.hcomp(D.id2(F.cell_map[h]), F.fhat[(g, f)]))
                rhs = D.vcomp(F.fhat[(C.compose(h, g), f)],
                              D.hcomp(F.fhat[(h, g)], D.id2(F.cell_map[f])))
                if not D.eq2(lhs, rhs):
                    rep.add("hexagonal-axiom", (h, g, f))

    # triangular axioms:
    # Fhat(f, id_X) = 1_{F(f)} o F0(X)   and   Fhat(id_Y, f) = F0(Y) o 1_{F(f)}
    for f in cells:
        X, Y = C.cell_src[f], C.cell_tgt[f]
        lhs = F.fhat[(f, C.identity_cell[X])]
        rhs = D.hcomp(D.id2(F.cell_map[f]), F.f0[X])
        if not D.eq2(lhs, rhs):
            rep.add("triangular-axiom-right", f)
        lhs = F.fhat[(C.identity_cell[Y], f)]
        rhs = D.hcomp(F.f0[Y], D.id2(F.cell_map[f]))
        if not D.eq2(lhs, rhs):
            rep.add("triangular-axiom-left", f)
    return rep
