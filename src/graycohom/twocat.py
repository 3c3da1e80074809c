"""Finite strict K-linear 2-categories as explicit tables.

A 2-category here is a finite object set, finite 1-cell sets with a total
strictly associative composition table, and finite-dimensional 2-morphism
spaces given by a basis and structure constants for vertical and horizontal
composition.  Pseudofunctors are layered on top as table-backed structures
with a validator that returns complete witness lists.

Every product of 2-cells (vcomp, hcomp here, tensor2 in gray) runs
through a plan: a tuple (src, tgt, dim, consts, p) holding the output
endpoints, the output dimension, the basis products at the product's
endpoint key and the field's modulus (None over Q).  A 2-category makes
vcomp and hcomp through one method, product, with one plan cache keyed
by (op, key); a plan is made, with the endpoint checks, the first time
its key is used, and every later product at that key is one dict lookup
and apply_plan.  The basis products are the structure constants of a
base 2-category, a table walked whole; a product category (the powers
C^n) has none and gives instead a function of the pair of basis indices,
the outer product of its factors' basis products, called only at pairs
of nonzero coefficients.  The coefficient arithmetic is native ``*`` and
``+`` on ints and Fractions, and over F_p each output coefficient is
reduced once, as in SparseMatrix.mul_vectors; Pseudofunctor.map2 uses
the same arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .exactlinalg import Field, Vector, _modulus, from_columns, solve_in_image


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


class Frozen:
    """Base of the slotted immutable values TwoMorphism and ECell: a
    subclass names its fields in _fields and sets its slots in __new__
    through their member descriptors.  Pickling, copying and repr go by
    the fields, as for a frozen dataclass."""

    __slots__ = ()
    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{n}={getattr(self, n)!r}" for n in self._fields))


class TwoMorphism(Frozen):
    """2-morphism src => tgt as a coefficient vector over the hom basis.

    An immutable value with the equality and hash of a frozen dataclass
    of the fields (src, tgt, coeffs), in slots: the hash is computed on
    the first __hash__ and kept, and equality tests identity first, so a
    dict lookup by a cell that is the stored key is one pointer test."""

    __slots__ = ("src", "tgt", "coeffs", "_hash")
    _fields = ("src", "tgt", "coeffs")

    def __new__(cls, src, tgt, coeffs):
        self = _new(cls)
        _set_src(self, src)
        _set_tgt(self, tgt)
        _set_coeffs(self, coeffs)
        _set_hash(self, None)
        return self

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not TwoMorphism:
            return NotImplemented
        return (self.coeffs == other.coeffs and self.src == other.src
                and self.tgt == other.tgt)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.src, self.tgt, self.coeffs))
            _set_hash(self, h)
        return h


_new = object.__new__
_set_src, _set_tgt, _set_coeffs, _set_hash = (
    TwoMorphism.src.__set__, TwoMorphism.tgt.__set__,
    TwoMorphism.coeffs.__set__, TwoMorphism._hash.__set__)


class TwoCategory:
    """Finite strict 2-category.

    Tables (a ProductCategory has only the first six):
      objects            -- tuple of object ids
      one_cells          -- (X, Y) -> tuple of 1-cell ids; a pair
                            without 1-cells may be left out
      cell_src, cell_tgt -- 1-cell id -> object
      identity_cell      -- X -> id 1-cell
      compose1           -- (g, f) -> g o f, for tgt(f) = src(g)
      hom2_dim           -- (f, f') -> basis size of Hom2(f, f') (parallel pairs)
      id2_coeffs         -- f -> coefficients of 1_f in Hom2(f, f)
      vcomp_const        -- (f, f1, f2) -> {(j, i): {k: scalar}}
      hcomp_const        -- (g, g2, f, f2) -> {(j, i): {k: scalar}}

    vcomp and hcomp are product at the endpoint keys (f, f1, f2) and
    (g, g2, f, f2) of the tables; product keeps one plan (see the module
    docstring) per (op, key).  add2, neg2, scale2 and eq2 use the same
    native arithmetic, reduced once per coefficient over F_p.
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
        self._p = _modulus(field_)
        self._id2_cache = {}
        self._parallel_cache = {}
        self._plans = {}

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
            cached = [g for g in self.one_cells.get((X, Y), ())
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
        p, pairs = self._p, zip(a.coeffs, b.coeffs)
        if p is None:
            coeffs = tuple(x + y for x, y in pairs)
        else:
            coeffs = tuple((x + y) % p for x, y in pairs)
        return TwoMorphism(a.src, a.tgt, coeffs)

    def scale2(self, c, a: TwoMorphism) -> TwoMorphism:
        p = self._p
        if p is None:
            coeffs = tuple(c * x for x in a.coeffs)
        else:
            coeffs = tuple(c * x % p for x in a.coeffs)
        return TwoMorphism(a.src, a.tgt, coeffs)

    def neg2(self, a: TwoMorphism) -> TwoMorphism:
        p = self._p
        if p is None:
            coeffs = tuple(-x for x in a.coeffs)
        else:
            coeffs = tuple(-x % p for x in a.coeffs)
        return TwoMorphism(a.src, a.tgt, coeffs)

    def eq2(self, a: TwoMorphism, b: TwoMorphism) -> bool:
        if (a.src, a.tgt) != (b.src, b.tgt):
            return False
        p, pairs = self._p, zip(a.coeffs, b.coeffs)
        if p is None:
            return all(x == y for x, y in pairs)
        return all((x - y) % p == 0 for x, y in pairs)

    def is_zero2(self, a: TwoMorphism) -> bool:
        """Every coefficient is zero.  Scalars are ints or Fractions, whose
        zero is falsy; an unreduced residue such as p counts as nonzero."""
        return not any(a.coeffs)

    def endpoints(self, op, key) -> tuple:
        """The output 1-cells (src, tgt) of op ("vcomp" or "hcomp") at key:
        (f, f2) at (f, f1, f2), and (g o f, g2 o f2) at (g, g2, f, f2),
        which raises unless f ends where g starts."""
        if op == "vcomp":
            return key[0], key[2]
        g, g2, f, f2 = key
        if self.cell_tgt[f] != self.cell_src[g]:
            raise ValueError("horizontal composition mismatch")
        return self.compose(g, f), self.compose(g2, f2)

    def basis_products(self, op, key):
        """The products of op at key of left basis 2-cell j and right
        basis 2-cell i: here the structure constants {(j, i): {k:
        scalar}} at key, which apply_plan walks whole."""
        table = self.vcomp_const if op == "vcomp" else self.hcomp_const
        return table.get(key, {})

    def product(self, op, key, x: TwoMorphism, y: TwoMorphism) -> TwoMorphism:
        """op ("vcomp" or "hcomp") at its endpoint key of x (left) and y
        (right), through the plan of (op, key)."""
        plan = self._plans.get((op, key))
        if plan is None:
            src, tgt = self.endpoints(op, key)
            plan = self._plans[(op, key)] = (
                src, tgt, self.dim2(src, tgt), self.basis_products(op, key),
                self._p)
        return apply_plan(plan, x.coeffs, y.coeffs)

    def vcomp(self, t2: TwoMorphism, t1: TwoMorphism) -> TwoMorphism:
        """Vertical composite t2 . t1 for t1: f => f1, t2: f1 => f2."""
        if t1.tgt != t2.src:
            raise ValueError(f"vertical composition mismatch: {t1.tgt} vs {t2.src}")
        return self.product("vcomp", (t1.src, t1.tgt, t2.tgt), t2, t1)

    def vcomp_many(self, terms):
        """Vertical composite t_n . ... . t_1 from a list [t_n, ..., t_1]."""
        terms = list(terms)
        out = terms[-1]
        for t in reversed(terms[:-1]):
            out = self.vcomp(t, out)
        return out

    def hcomp(self, tg: TwoMorphism, tf: TwoMorphism) -> TwoMorphism:
        """Horizontal composite tg o tf (tg on the left of the diagram)."""
        return self.product("hcomp", (tg.src, tg.tgt, tf.src, tf.tgt), tg, tf)

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


def apply_plan(plan, a, b) -> TwoMorphism:
    """The product of a plan (src, tgt, dim, consts, p) at the coefficient
    tuples a and b: the sum over pairs (j, i) of a[j] * b[i] times the
    basis product {k: scalar} of j and i, leaving out a pair whose
    coefficient product is zero.  consts is either a table {(j, i): {k:
    scalar}}, walked in its order, or a function (j, i) -> {k: scalar},
    called at the pairs of nonzero coefficients only.  Over F_p (p not
    None) each output coefficient is reduced once."""
    src, tgt, dim, consts, p = plan
    out = [0] * dim
    if callable(consts):
        nonzero = [(i, y) for i, y in enumerate(b) if y]
        for j, x in enumerate(a):
            if x:
                for i, y in nonzero:
                    c = x * y
                    for k, v in consts(j, i).items():
                        out[k] += c * v
    else:
        for (j, i), vec in consts.items():
            c = a[j] * b[i]
            if c:
                for k, v in vec.items():
                    out[k] += c * v
    if p is not None:
        out = [x % p for x in out]
    return TwoMorphism(src, tgt, tuple(out))


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


class ProductCategory(TwoCategory):
    """A x B, where the labels of A are tuples: a product label is an A
    label with the B component appended, and the product 2-cell with
    factor indices (i_A, i_B) has index i_A * dim_B + i_B.

    one_cells holds only the object pairs with 1-cells.  compose1 and
    hom2_dim are each built whole from the factors when first read.  No
    2-cell table is built: id2 is the Kronecker product of the factors'
    identities, and vcomp and hcomp are TwoCategory's, with
    basis_products giving the basis product of (j_A, j_B) and (i_A, i_B)
    as the Kronecker product of A's at (j_A, i_A) and B's at (j_B, i_B).
    A recurses through its own factors, so C^n reads only the constants
    of C."""

    def __init__(self, A: TwoCategory, B: TwoCategory):
        self.field = A.field
        self.factors = (A, B)
        self.objects = tuple(X + (Y,) for X in A.objects for Y in B.objects)
        position = {X: k for k, X in enumerate(self.objects)}
        pairs = sorted(
            (position[XA + (XB,)], position[YA + (YB,)], fs, gs)
            for (XA, YA), fs in A.one_cells.items() if fs
            for (XB, YB), gs in B.one_cells.items() if gs)
        self.one_cells, self.cell_src, self.cell_tgt = {}, {}, {}
        for x, y, fs, gs in pairs:
            X, Y = self.objects[x], self.objects[y]
            cells = self.one_cells[(X, Y)] = tuple(f + (g,) for f in fs
                                                   for g in gs)
            for f in cells:
                self.cell_src[f] = X
                self.cell_tgt[f] = Y
        self.identity_cell = {
            X: A.identity_cell[X[:-1]] + (B.identity_cell[X[-1]],)
            for X in self.objects}
        self._p = A._p
        self._id2_cache, self._parallel_cache, self._plans = {}, {}, {}

    @cached_property
    def compose1(self):
        A, B = self.factors
        into = {}
        for (X, Y), fs in self.one_cells.items():
            into.setdefault(Y, []).append(fs)
        compose1 = {}
        for (Y, Z), gs in self.one_cells.items():
            for fs in into.get(Y, ()):
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

    def id2(self, f) -> TwoMorphism:
        cached = self._id2_cache.get(f)
        if cached is None:
            A, B = self.factors
            p = self._p
            cached = self._id2_cache[f] = TwoMorphism(f, f, tuple(
                (x * y if p is None else x * y % p) if x and y else 0
                for x in A.id2(f[:-1]).coeffs for y in B.id2(f[-1]).coeffs))
        return cached

    def basis_products(self, op, key):
        """The outer product of A's and B's basis products of op at the
        factor keys, as a function (j, i) -> {k: scalar} with its zero
        entries left out."""
        A, B = self.factors
        kb = tuple(c[-1] for c in key)
        x, y = (kb[1:], kb[:2]) if op == "vcomp" else (kb[:2], kb[2:])
        basis_a = _basis_function(A.basis_products(op, tuple(c[:-1]
                                                            for c in key)))
        basis_b = _basis_function(B.basis_products(op, kb))
        dx, dy, d = B.dim2(*x), B.dim2(*y), B.dim2(*B.endpoints(op, kb))

        def basis(j, i):
            ja, jb = divmod(j, dx)
            ia, ib = divmod(i, dy)
            u = basis_a(ja, ia)
            v = basis_b(jb, ib) if u else {}
            return {a * d + b: s * t for a, s in u.items() if s
                    for b, t in v.items() if t}

        return basis


def _basis_function(consts):
    """Basis products given as a table or as a function, as a function
    (j, i) -> {k: scalar}."""
    if callable(consts):
        return consts
    return lambda j, i: consts.get((j, i), {})


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
        """F on a 2-morphism, in the native arithmetic of apply_plan."""
        p = self.cod._p
        Ff, Ff2 = self.cell_map[t.src], self.cell_map[t.tgt]
        out = [0] * self.cod.dim2(Ff, Ff2)
        cols = self.two_map[(t.src, t.tgt)]
        for i, c in enumerate(t.coeffs):
            if not c:
                continue
            for k, v in cols[i].items():
                out[k] += c * v
        if p is not None:
            out = [x % p for x in out]
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
