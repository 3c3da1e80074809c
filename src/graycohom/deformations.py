"""First-order deformations of a Gray semigroup, checked at the source.

A first-order deformation perturbs the structural 2-isomorphisms of the
tensor (tensorator, associator, pentagonator) by an infinitesimal term
over K[eps]/(eps^2), keeping the unit data trivial.  This module evaluates
the defining structural equations and the equivalence equations literally
-- every whiskering and composite spelled out over eps-pairs -- without
going through the differential matrices of defcomplex.  The brute-force
classifier built on top exhaustively enumerates candidates and witnesses
over a prime field and is the independent oracle the cohomology results
are compared against.

What an entry of each of the five data families is (key shape and
endpoints) is said once, in _ENTRIES; everything else loops over the
dataclass fields.  Both equation systems share the base _Equations.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field as dc_field, fields

from .defcomplex import (
    ComplexSelection,
    summand_space,
    total_differential,
    total_space,
)
from .exactlinalg import (
    Echelon,
    PrimeField,
    Vector,
    from_columns,
    rank,
    solve_in_image,
    solve_in_span,
    vec_combine,
)
from .gray import GraySemigroup, per_structure
from .pfcomplex import composable_tuples, nonidentity_basis
from .twocat import Frozen, TwoMorphism, ValidationReport

DEFAULT_ENUM_BOUND = 2 ** 20
# the cross-class check tries every witness when there are at most this many
WITNESS_SEARCH_LIMIT = 4096

ORACLE_KINDS = ("unit", "tens_ass", "ass", "tens", "pent_restricted")


class EnumerationBoundExceeded(ValueError):
    """The candidate space is too large to enumerate exhaustively."""


def candidate_degree(kind: str) -> int:
    """Total degree in which first-order candidates of this kind live."""
    if kind not in ORACLE_KINDS:
        raise ValueError(f"unknown classification kind {kind!r}")
    return 3 if kind == "pent_restricted" else 2


# ----- deformation and witness data -------------------------------------


@dataclass
class FirstOrderDeformation:
    """Sparse first-order data; missing entries are zero.

    tensorator1   -- ((f', g'), (f, g)) -> 2-morphism
                     (f'(x)g') o (f(x)g) => (f'f)(x)(g'g)
    associator1   -- (f, g, h) -> endomorphism of f(x)g(x)h
    pentagonator1 -- (X, Y, Z, T) -> endomorphism of the identity 1-cell
                     of X(x)Y(x)Z(x)T
    The unit perturbation is identically zero by construction.
    """

    tensorator1: dict = dc_field(default_factory=dict)
    associator1: dict = dc_field(default_factory=dict)
    pentagonator1: dict = dc_field(default_factory=dict)


@dataclass
class EquivalenceWitness:
    """Sparse gauge data; missing entries are zero.

    psi1   -- (f, g) -> endomorphism of f(x)g
    omega1 -- (X, Y, Z) -> endomorphism of the identity 1-cell of
              X(x)Y(x)Z
    """

    psi1: dict = dc_field(default_factory=dict)
    omega1: dict = dc_field(default_factory=dict)


def zero_deformation() -> FirstOrderDeformation:
    return FirstOrderDeformation()


def zero_witness() -> EquivalenceWitness:
    return EquivalenceWitness()


# ----- arithmetic over K[eps]/(eps^2) -----------------------------------


class ECell(Frozen):
    """2-morphism over K[eps]/(eps^2) as a pair lead + eps * first; both
    components share the same endpoints.  A slotted immutable value like
    TwoMorphism, with the equality and hash of the pair (lead, eps)."""

    __slots__ = ("lead", "eps")
    _fields = ("lead", "eps")

    def __new__(cls, lead, eps):
        self = _new(cls)
        _set_lead(self, lead)
        _set_eps(self, eps)
        return self

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not ECell:
            return NotImplemented
        return self.lead == other.lead and self.eps == other.eps

    def __hash__(self):
        return hash((self.lead, self.eps))


_new = object.__new__
_set_lead, _set_eps = ECell.lead.__set__, ECell.eps.__set__


class _Eps:
    """Composition algebra of eps-pairs over a fixed Gray semigroup; one
    per structure, made through _eps_algebra and shared by the
    structural system and every ExtendedStructure.

    vcomp, hcomp and tensor2 go through one _product.  The lead of a
    product is the undeformed product of the two leads: it is made once
    per op and pair of lead values, and kept with a zero eps part in a
    memo of 2-cells.  A product whose endpoints do not match raises on
    every call, as nothing is stored for it.  The eps part is the sum of
    two bilinear products; one whose eps factor is zero is left out,
    which is exact, so with both eps parts zero the memo's product is
    returned as it is.  Every product asked for is still made, with both
    components.  Zero eps parts are shared, one per endpoint pair.

    Leads are interned: one canonical object per value, seeded with the
    identity 2-cell of every 1-cell and the tensorator table (kept as
    tensorators, with canonical values).  Every lead that lift, invert
    or a memo miss stores is the canonical one, so a lead read back from
    the algebra hits its memo entry by identity.  A lead is compared by
    value only and never written out, so an int and an equal integral
    Fraction coefficient share one object."""

    def __init__(self, G: GraySemigroup):
        self.G = G
        self.C = C = G.base
        self._leads: dict = {}
        self._inv: dict = {}
        self._zeros: dict = {}
        self._ids: dict = {}
        # op name -> (op, {(a.lead, b.lead): ECell(lead, zero eps)})
        self._ops = {"vcomp": (C.vcomp, {}),
                     "hcomp": (C.hcomp, {}),
                     "tensor2": (G.tensor2, {})}
        for f in C.cell_src:
            self.canonical(C.id2(f))
        self.tensorators = {key: self.canonical(t)
                            for key, t in G.tensorator_table.items()}

    def canonical(self, t: TwoMorphism) -> TwoMorphism:
        """The one object of t's value that this algebra uses as a lead."""
        return self._leads.setdefault(t, t)

    def zero(self, src, tgt) -> TwoMorphism:
        z = self._zeros.get((src, tgt))
        if z is None:
            z = self._zeros[(src, tgt)] = self.C.zero2(src, tgt)
        return z

    def lift(self, t: TwoMorphism) -> ECell:
        t = self.canonical(t)
        return ECell(t, self.zero(t.src, t.tgt))

    def id(self, cell) -> ECell:
        e = self._ids.get(cell)
        if e is None:
            e = self._ids[cell] = self.lift(self.C.id2(cell))
        return e

    def _product(self, op: str, a: ECell, b: ECell) -> ECell:
        """op(a, b) for the bilinear op named: op of the leads, from the
        memo, plus eps times op(a.eps, b.lead) + op(a.lead, b.eps)."""
        fn, memo = self._ops[op]
        lifted = memo.get((a.lead, b.lead))
        if lifted is None:
            canonical = self.canonical
            lifted = memo[(canonical(a.lead), canonical(b.lead))] = \
                self.lift(fn(a.lead, b.lead))
        is_zero2 = self.C.is_zero2
        if is_zero2(a.eps):
            if is_zero2(b.eps):
                return lifted
            eps = fn(a.lead, b.eps)
        elif is_zero2(b.eps):
            eps = fn(a.eps, b.lead)
        else:
            eps = self.C.add2(fn(a.eps, b.lead), fn(a.lead, b.eps))
        return ECell(lifted.lead, eps)

    def vcomp(self, a2: ECell, a1: ECell) -> ECell:
        return self._product("vcomp", a2, a1)

    def vcomp_many(self, terms) -> ECell:
        terms = list(terms)
        out = terms[-1]
        for t in reversed(terms[:-1]):
            out = self.vcomp(t, out)
        return out

    def hcomp(self, b: ECell, a: ECell) -> ECell:
        return self._product("hcomp", b, a)

    def tensor2(self, a: ECell, b: ECell) -> ECell:
        return self._product("tensor2", a, b)

    def invert(self, a: ECell) -> ECell:
        C = self.C
        l = self._inv.get(a.lead)
        if l is None:
            l = self._inv[self.canonical(a.lead)] = \
                self.canonical(C.invert2(a.lead))
        if C.is_zero2(a.eps):
            return ECell(l, self.zero(l.src, l.tgt))
        return ECell(l, C.neg2(C.vcomp(C.vcomp(l, a.eps), l)))

    def lunit(self, t: ECell) -> ECell:
        """Whisker on the left by the identity of the target object."""
        Y = self.C.cell_tgt[t.lead.src]
        return self.hcomp(self.id(self.C.identity_cell[Y]), t)

    def runit(self, t: ECell) -> ECell:
        """Whisker on the right by the identity of the source object."""
        X = self.C.cell_src[t.lead.src]
        return self.hcomp(t, self.id(self.C.identity_cell[X]))

    def eq(self, a: ECell, b: ECell) -> bool:
        return self.C.eq2(a.lead, b.lead) and self.C.eq2(a.eps, b.eps)


@per_structure
def _eps_algebra(G: GraySemigroup) -> _Eps:
    return _Eps(G)


# ----- the five data families -------------------------------------------


def _tens_ends(G, key):
    (fp, gp), (f, g) = key
    C = G.base
    return (C.compose(G.tcell(fp, gp), G.tcell(f, g)),
            G.tcell(C.compose(fp, f), C.compose(gp, g)))


def _endo_ends(arity, cell):
    """Endpoints of an entry keyed by a tuple of the given length: the
    1-cell cell(G, key), twice."""
    def ends(G, key):
        if len(key) != arity:
            raise ValueError(key)
        return (cell(G, key),) * 2
    return ends


def _tensor_identity(G, objs):
    return G.base.identity_cell[G.tobj_many(objs)]


# each family of first-order data: the endpoints of its entry at a key,
# which raise KeyError, TypeError or ValueError for a key of the wrong
# shape, and what a key must be
_ENTRIES = {
    "tensorator1": (_tens_ends, "a composable pair of 1-cell pairs"),
    "associator1": (_endo_ends(3, GraySemigroup.tcell_many),
                    "a 1-cell triple"),
    "pentagonator1": (_endo_ends(4, _tensor_identity), "an object quadruple"),
    "psi1": (_endo_ends(2, GraySemigroup.tcell_many), "a 1-cell pair"),
    "omega1": (_endo_ends(3, _tensor_identity), "an object triple"),
}


def _reader(G, role, family, table, reads):
    """key -> the entry of family in table, or the zero 2-cell between the
    endpoints of a missing one, made once per key.  With a set reads,
    every lookup notes (role, family, key) there."""
    get = table.get
    if reads is not None:
        def get(key, plain=get):
            reads.add((role, family, key))
            return plain(key)
    ends, zero2 = _ENTRIES[family][0], G.base.zero2

    @functools.cache
    def zero(key):
        return zero2(*ends(G, key))

    def read(key):
        val = get(key)
        return zero(key) if val is None else val

    return read


class _DataContext:
    """The first-order data an equation system reads, by (role, family,
    key): each role is a deformation or a witness.  roles maps a role to
    its class and to the attribute that reads each of its families, in
    field order; that attribute is a _reader.  The recording form, given
    a set reads, notes every lookup there."""

    roles: dict

    def __init__(self, G: GraySemigroup, *data, reads: set | None = None):
        self.G = G
        self.C = G.base
        for (role, (_cls, names)), obj in zip(self.roles.items(), data):
            for name, fld in zip(names, fields(obj)):
                setattr(self, name, _reader(
                    G, role, fld.name, getattr(obj, fld.name), reads))


class _DeformedCells(_DataContext):
    """The structural 2-isomorphisms of the eps-extension determined by a
    first-order deformation: undeformed value plus eps times the data."""

    roles = {"d": (FirstOrderDeformation, ("_tens", "_ass", "_pent"))}

    def __init__(self, G: GraySemigroup, *data, reads: set | None = None):
        super().__init__(G, *data, reads=reads)
        self._tensorators = _eps_algebra(G).tensorators

    def tens(self, pp, p) -> ECell:
        lead = self._tensorators[(pp[0], pp[1], p[0], p[1])]
        return ECell(lead, self._tens((pp, p)))

    def ass3(self, f, g, h) -> ECell:
        cell = self.G.tcell(self.G.tcell(f, g), h)
        return ECell(self.C.id2(cell), self._ass((f, g, h)))

    def pent4(self, T) -> ECell:
        e = self.C.identity_cell[self.G.tobj_many(T)]
        return ECell(self.C.id2(e), self._pent(tuple(T)))


# ----- shape validation -------------------------------------------------


def data_shapes(G: GraySemigroup, data) -> ValidationReport:
    """Endpoint/shape check of every stored entry of a deformation or a
    gauge witness, and of its coefficients: each must be an element of
    the field (over F_p an int in 0..p-1)."""
    rep = ValidationReport()
    C = G.base
    K = C.field
    for fld in fields(data):
        family = fld.name
        ends, what = _ENTRIES[family]
        for key, val in getattr(data, family).items():
            try:
                src, tgt = ends(G, key)
            except (KeyError, TypeError, ValueError):
                rep.add_structural(f"{family} key {key!r} is not {what}")
                continue
            if not isinstance(val, TwoMorphism) or val.src != src or \
                    val.tgt != tgt:
                rep.add_structural(f"{family}[{key!r}] has wrong endpoints "
                                   f"(expected {src} => {tgt})")
                continue
            if len(val.coeffs) != C.dim2(src, tgt):
                rep.add_structural(
                    f"{family}[{key!r}] has wrong coefficient length")
            bad = [c for c in val.coeffs if not K.contains(c)]
            if bad:
                rep.add_structural(f"{family}[{key!r}] has coefficient "
                                   f"{bad[0]!r}, not an element of {K}")
    return rep


# ----- equation systems -------------------------------------------------


def _nonzero(res: list) -> dict:
    """The nonzero coefficients of a residual list, {row: value}."""
    return {r: v for r, v in enumerate(res) if v}


class _Equations:
    """Ordered instances (name, key, fn) of a system of equations; fn reads
    its data through a context of class ``context``, and the residual of
    an instance is zero iff it holds and linear in the data."""

    context: type

    def __init__(self, G: GraySemigroup):
        self.G = G
        self.C = G.base
        self.instances = []
        self._build()

    def _add(self, name, key, fn):
        self.instances.append((name, key, fn))

    def residual(self, fn, ctx: _DataContext) -> TwoMorphism:
        return fn(ctx)

    def residual_list(self, *data) -> list:
        """All residual coefficients in instance order (linear in the data
        together)."""
        ctx = self.context(self.G, *data)
        return [c for _name, _key, fn in self.instances
                for c in self.residual(fn, ctx).coeffs]

    def check(self, rep: ValidationReport, *data) -> ValidationReport:
        """rep with every violated instance of the data added, in instance
        order.  Only the touched instances are evaluated (literally); every
        other one has the residual of zero data, which layout's full pass
        has checked is zero."""
        ctx = self.context(self.G, *data)
        for i in self.touched(*data):
            name, key, fn = self.instances[i]
            if not self.C.is_zero2(self.residual(fn, ctx)):
                rep.add(name, key)
        return rep

    @functools.cached_property
    def layout(self):
        """(offsets, readers): the first residual row of each instance, and
        for each (role, family, key) of data the instances that read it.
        Built by one literal pass over every instance on zero data, which
        also checks that its residual vanishes.  An instance picks its keys
        from its own cells, never from the data, so the read sets hold for
        all data."""
        reads = set()
        ctx = self.context(
            self.G, *(cls() for cls, _names in self.context.roles.values()),
            reads=reads)
        offsets, readers = [], {}
        row = 0
        for i, (name, key, fn) in enumerate(self.instances):
            reads.clear()
            res = self.residual(fn, ctx)
            if not self.C.is_zero2(res):
                raise AssertionError(
                    f"the zero deformation has a nonzero residual at "
                    f"{name} {key!r}")
            offsets.append(row)
            row += len(res.coeffs)
            for entry in reads:
                readers.setdefault(entry, []).append(i)
        return offsets, readers

    def touched(self, *data) -> list:
        """The indices, ascending, of the instances that read an entry
        stored in the data, by layout's read index."""
        readers = self.layout[1]
        out = set()
        for role, obj in zip(self.context.roles, data):
            for fld in fields(obj):
                for key in getattr(obj, fld.name):
                    out.update(readers.get((role, fld.name, key), ()))
        return sorted(out)

    def column(self, *data) -> dict:
        """_nonzero(residual_list(*data)).  Only the touched instances are
        evaluated (literally); the residual of every other one is that of
        zero data, which layout has checked is zero."""
        offsets = self.layout[0]
        ctx = self.context(self.G, *data)
        col = {}
        for i in self.touched(*data):
            res = self.residual(self.instances[i][2], ctx)
            col.update((offsets[i] + k, v) for k, v in enumerate(res.coeffs)
                       if v)
        return col


# ----- the eight structural equations -----------------------------------


# The two paddings below are module functions, not methods: an instance
# closure that held the system would make a reference cycle through G, and
# G would then outlive its command until a full garbage collection.


def _tpast_left(G, E, dc, X, quad):
    """Tensor of the identity 1-cell at X with a pentagonator cell,
    padded by its interchange 2-isomorphisms."""
    C = G.base
    idX = C.identity_cell[X]
    rest = C.identity_cell[G.tobj_many(quad)]
    return E.vcomp_many([
        E.invert(dc.tens((idX, rest), (idX, rest))),
        E.tensor2(E.id(idX), dc.pent4(quad)),
        dc.tens((idX, rest), (idX, C.compose(rest, rest))),
        E.hcomp(E.id(G.tcell(idX, rest)),
                dc.tens((idX, rest), (idX, rest))),
    ])


def _tpast_right(G, E, dc, quad, U):
    C = G.base
    idU = C.identity_cell[U]
    rest = C.identity_cell[G.tobj_many(quad)]
    return E.vcomp_many([
        E.invert(dc.tens((rest, idU), (rest, idU))),
        E.tensor2(dc.pent4(quad), E.id(idU)),
        dc.tens((rest, idU), (C.compose(rest, rest), idU)),
        E.hcomp(E.id(G.tcell(rest, idU)),
                dc.tens((rest, idU), (rest, idU))),
    ])


class _StructuralSystem(_Equations):
    """Ordered instance list of the structural equations, each instance a
    function taking the deformed cells to an (LHS, RHS) pair of eps-pairs.
    The lead components agree by the undeformed axioms; the eps components
    are linear in the deformation data."""

    context = _DeformedCells

    def __init__(self, G: GraySemigroup):
        self.E = _eps_algebra(G)
        super().__init__(G)

    def _build(self):
        G, C, E = self.G, self.C, self.E
        cells = sorted(C.cell_src)
        objs = sorted(C.objects)
        idc = C.identity_cell
        comp = composable_tuples(C, 2)
        pairs2 = [(f, g) for f in cells for g in cells]
        comp2 = [((fp, gp), (f, g)) for (fp, f) in comp for (gp, g) in comp]

        # naturality of the tensorator in each 2-cell slot
        for (pp, p) in comp2:
            fp, gp = pp
            f, g = p
            slots = (fp, gp, f, g)
            for s in range(4):
                for tau, _tgt in nonidentity_basis(C, slots[s]):
                    ts = [C.id2(c) for c in slots]
                    ts[s] = tau
                    pp_t = (ts[0].tgt, ts[1].tgt)
                    p_t = (ts[2].tgt, ts[3].tgt)

                    def fn(dc, pp=pp, p=p, ts=tuple(ts), pp_t=pp_t, p_t=p_t):
                        pre = C.hcomp(G.tensor2(ts[0], ts[1]),
                                      G.tensor2(ts[2], ts[3]))
                        post = G.tensor2(C.hcomp(ts[0], ts[2]),
                                         C.hcomp(ts[1], ts[3]))
                        lhs = E.vcomp(E.lift(post), dc.tens(pp, p))
                        rhs = E.vcomp(dc.tens(pp_t, p_t), E.lift(pre))
                        return lhs, rhs

                    self._add("tensor-naturality", (pp, p, s), fn)

        # cocycle rule of the tensorator on composable triples
        comp3 = composable_tuples(C, 3)
        for (fpp, fp, f) in comp3:
            for (gpp, gp, g) in comp3:

                def fn(dc, fpp=fpp, fp=fp, f=f, gpp=gpp, gp=gp, g=g):
                    lhs = E.vcomp(
                        dc.tens((fpp, gpp),
                                (C.compose(fp, f), C.compose(gp, g))),
                        E.hcomp(E.id(G.tcell(fpp, gpp)),
                                dc.tens((fp, gp), (f, g))))
                    rhs = E.vcomp(
                        dc.tens((C.compose(fpp, fp), C.compose(gpp, gp)),
                                (f, g)),
                        E.hcomp(dc.tens((fpp, gpp), (fp, gp)),
                                E.id(G.tcell(f, g))))
                    return lhs, rhs

                self._add("tensor-cocycle", ((fpp, gpp), (fp, gp), (f, g)), fn)

        # unit rule of the tensorator (unit perturbation is zero)
        for (f, g) in pairs2:
            Xp = C.cell_tgt[f]
            Yp = C.cell_tgt[g]
            X = C.cell_src[f]
            Y = C.cell_src[g]

            def fn_post(dc, f=f, g=g, Xp=Xp, Yp=Yp):
                lhs = dc.tens((idc[Xp], idc[Yp]), (f, g))
                rhs = E.hcomp(E.id(idc[G.tobj(Xp, Yp)]), E.id(G.tcell(f, g)))
                return lhs, rhs

            def fn_pre(dc, f=f, g=g, X=X, Y=Y):
                lhs = dc.tens((f, g), (idc[X], idc[Y]))
                rhs = E.hcomp(E.id(G.tcell(f, g)), E.id(idc[G.tobj(X, Y)]))
                return lhs, rhs

            self._add("tensor-unit", (f, g, "post"), fn_post)
            self._add("tensor-unit", (f, g, "pre"), fn_pre)

        # naturality of the associator in each 2-cell slot
        for (f, g, h) in itertools.product(cells, repeat=3):
            for s in range(3):
                for tau, _tgt in nonidentity_basis(C, (f, g, h)[s]):
                    ts = [C.id2(c) for c in (f, g, h)]
                    ts[s] = tau
                    tilde = (ts[0].tgt, ts[1].tgt, ts[2].tgt)

                    def fn(dc, f=f, g=g, h=h, ts=tuple(ts), tilde=tilde):
                        post = G.tensor2(ts[0], G.tensor2(ts[1], ts[2]))
                        pre = G.tensor2(G.tensor2(ts[0], ts[1]), ts[2])
                        lhs = E.vcomp(E.lunit(E.lift(post)), dc.ass3(f, g, h))
                        rhs = E.vcomp(dc.ass3(*tilde), E.runit(E.lift(pre)))
                        return lhs, rhs

                    self._add("associator-naturality", ((f, g, h), s), fn)

        # exchange rule between associator and tensorator
        for ((fp, f), (gp, g), (hp, h)) in itertools.product(comp, repeat=3):

            def fn(dc, fp=fp, f=f, gp=gp, g=g, hp=hp, h=h):
                ff = C.compose(fp, f)
                gg = C.compose(gp, g)
                hh = C.compose(hp, h)
                lhs = E.vcomp_many([
                    dc.ass3(ff, gg, hh),
                    E.runit(E.tensor2(dc.tens((fp, gp), (f, g)), E.id(hh))),
                    E.runit(dc.tens((G.tcell(fp, gp), hp),
                                    (G.tcell(f, g), h))),
                ])
                rhs = E.vcomp_many([
                    E.lunit(E.tensor2(E.id(ff), dc.tens((gp, hp), (g, h)))),
                    E.lunit(dc.tens((fp, G.tcell(gp, hp)),
                                    (f, G.tcell(g, h)))),
                    E.hcomp(dc.ass3(fp, gp, hp),
                            E.id(G.tcell(f, G.tcell(g, h)))),
                    E.hcomp(E.id(G.tcell(G.tcell(fp, gp), hp)),
                            dc.ass3(f, g, h)),
                ])
                return lhs, rhs

            self._add("associator-exchange",
                      ((fp, gp, hp), (f, g, h)), fn)

        # unit rule of the associator
        for (X, Y, Z) in itertools.product(objs, repeat=3):

            def fn(dc, X=X, Y=Y, Z=Z):
                lhs = dc.ass3(idc[X], idc[Y], idc[Z])
                rhs = E.id(idc[G.tobj_many((X, Y, Z))])
                return lhs, rhs

            self._add("associator-unit", (X, Y, Z), fn)

        # naturality (modification rule) of the pentagonator
        for (f, g, h, k) in itertools.product(cells, repeat=4):
            self._add("pentagon-naturality", (f, g, h, k),
                      self._pent_nat_fn(f, g, h, k))

        # coherence rule of the pentagonator
        for T5 in itertools.product(objs, repeat=5):
            self._add("pentagon-coherence", T5, self._pent_coh_fn(T5))

    def _pent_nat_fn(self, f, g, h, k):
        G, C, E = self.G, self.C, self.E
        idc = C.identity_cell

        def fn(dc, f=f, g=g, h=h, k=k):
            fg = G.tcell(f, g)
            hk = G.tcell(h, k)
            fgh = G.tcell(fg, h)
            ghk = G.tcell(g, hk)
            fghk = G.tcell(fgh, k)
            src = tuple(C.cell_src[c] for c in (f, g, h, k))
            tgt = tuple(C.cell_tgt[c] for c in (f, g, h, k))
            lhs = E.vcomp_many([
                E.lunit(dc.ass3(f, g, hk)),
                E.runit(dc.ass3(fg, h, k)),
                E.hcomp(E.id(fghk), dc.pent4(src)),
            ])
            rhs = E.vcomp_many([
                E.hcomp(dc.pent4(tgt), E.id(fghk)),
                E.lunit(E.invert(dc.tens(
                    (idc[tgt[0]], idc[G.tobj_many(tgt[1:])]), (f, ghk)))),
                E.lunit(E.tensor2(E.id(f), dc.ass3(g, h, k))),
                E.lunit(dc.tens(
                    (f, ghk), (idc[src[0]], idc[G.tobj_many(src[1:])]))),
                E.runit(E.lunit(dc.ass3(f, G.tcell(g, h), k))),
                E.runit(E.invert(dc.tens(
                    (idc[G.tobj_many(tgt[:3])], idc[tgt[3]]), (fgh, k)))),
                E.runit(E.tensor2(dc.ass3(f, g, h), E.id(k))),
                E.runit(dc.tens(
                    (fgh, k), (idc[G.tobj_many(src[:3])], idc[src[3]]))),
            ])
            return lhs, rhs

        return fn

    def _pent_coh_fn(self, T5):
        G, C, E = self.G, self.C, self.E
        idc = C.identity_cell

        def fn(dc, T5=T5):
            X, Y, Z, T, U = T5
            XY = G.tobj(X, Y)
            YZ = G.tobj(Y, Z)
            ZT = G.tobj(Z, T)
            TU = G.tobj(T, U)
            ZTU = G.tobj(ZT, U)
            YZT = G.tobj(YZ, T)
            XYZ = G.tobj(XY, Z)
            lhs = E.vcomp_many([
                E.runit(dc.pent4((XY, Z, T, U))),
                E.lunit(E.invert(dc.ass3(idc[X], idc[Y], idc[ZTU]))),
                E.runit(E.lunit(dc.pent4((X, Y, ZT, U)))),
                E.runit(_tpast_right(G, E, dc, (X, Y, Z, T), U)),
            ])
            rhs = E.vcomp_many([
                E.lunit(dc.pent4((X, Y, Z, TU))),
                E.runit(dc.ass3(idc[XYZ], idc[T], idc[U])),
                E.runit(E.lunit(dc.pent4((X, YZ, T, U)))),
                E.lunit(_tpast_left(G, E, dc, X, (Y, Z, T, U))),
                E.runit(E.lunit(dc.ass3(idc[X], idc[YZT], idc[U]))),
            ])
            return lhs, rhs

        return fn

    # -- evaluation --

    def residual(self, fn, dc: _DeformedCells) -> TwoMorphism:
        """eps(LHS) - eps(RHS); the lead components must agree because the
        undeformed structure satisfies its axioms."""
        C = self.C
        lhs, rhs = fn(dc)
        if not C.eq2(lhs.lead, rhs.lead):
            raise AssertionError("undeformed structural equation violated")
        return C.add2(lhs.eps, C.neg2(rhs.eps))


@per_structure
def _structural_system(G: GraySemigroup) -> _StructuralSystem:
    return _StructuralSystem(G)


def check_structural(G: GraySemigroup,
                     d: FirstOrderDeformation) -> ValidationReport:
    """Evaluate the eight structural equations of the eps-extension with d
    substituted and extract the first-order coefficient; lists every
    violated condition name with its instance key, in instance order.
    Only the instances that read an entry stored in d are evaluated,
    found through the system's read index; every other instance has the
    residual of the zero deformation, which the index's one full literal
    pass checked is zero."""
    rep = data_shapes(G, d)
    if rep.structural_errors:
        return rep
    return _structural_system(G).check(rep, d)


# ----- the five equivalence equations -----------------------------------


def _sub2(C, a, b):
    return C.add2(a, C.neg2(b))


def _sum2(C, terms):
    terms = list(terms)
    out = terms[0]
    for t in terms[1:]:
        out = C.add2(out, t)
    return out


class _TransferContext(_DataContext):
    """Lookup of the data entering the equivalence equations, with zero
    defaults: two deformations and a gauge witness.  a1, a2, p1, p2 and
    omega read a key tuple; psi and t1, t2 take its two parts."""

    roles = {"d1": (FirstOrderDeformation, ("_t1", "a1", "p1")),
             "d2": (FirstOrderDeformation, ("_t2", "a2", "p2")),
             "w": (EquivalenceWitness, ("_psi", "omega"))}

    def psi(self, f, g):
        return self._psi((f, g))

    def t1(self, pp, p):
        return self._t1((pp, p))

    def t2(self, pp, p):
        return self._t2((pp, p))


class _EquivalenceSystem(_Equations):
    """Ordered instances of the equations stating that a gauge witness
    carries one first-order deformation into another; each instance maps a
    _TransferContext to its residual 2-morphism (zero iff satisfied)."""

    context = _TransferContext

    def _build(self):
        G, C = self.G, self.C
        idc = C.identity_cell
        cells = sorted(C.cell_src)
        objs = sorted(C.objects)
        comp = composable_tuples(C, 2)

        # naturality of the gauge 2-cells
        for f in cells:
            for g in cells:
                for s in range(2):
                    for tau, _t in nonidentity_basis(C, (f, g)[s]):
                        ts = [C.id2(f), C.id2(g)]
                        ts[s] = tau
                        ft, gt = ts[0].tgt, ts[1].tgt

                        def fn(ctx, f=f, g=g, ts=tuple(ts), ft=ft, gt=gt):
                            pre = G.tensor2(ts[0], ts[1])
                            lhs = C.vcomp(pre, ctx.psi(f, g))
                            rhs = C.vcomp(ctx.psi(ft, gt), pre)
                            return _sub2(C, lhs, rhs)

                        self.instances.append(
                            ("gauge-naturality", (f, g, s), fn))

        # transfer of the tensorator along the gauge
        for (fp, f) in comp:
            for (gp, g) in comp:

                def fn(ctx, fp=fp, f=f, gp=gp, g=g):
                    t0 = G.tensorator(fp, gp, f, g)
                    ff = C.compose(fp, f)
                    gg = C.compose(gp, g)
                    lhs = _sum2(C, [
                        C.vcomp(ctx.psi(ff, gg), t0),
                        ctx.t1(((fp, gp)), (f, g)),
                    ])
                    rhs = _sum2(C, [
                        ctx.t2((fp, gp), (f, g)),
                        C.vcomp(t0, C.hcomp(ctx.psi(fp, gp),
                                            C.id2(G.tcell(f, g)))),
                        C.vcomp(t0, C.hcomp(C.id2(G.tcell(fp, gp)),
                                            ctx.psi(f, g))),
                    ])
                    return _sub2(C, lhs, rhs)

                self.instances.append(
                    ("tensor-transfer", ((fp, gp), (f, g)), fn))

        # gauge at identity pairs must vanish (unit data stays trivial)
        for X in objs:
            for Y in objs:

                def fn(ctx, X=X, Y=Y):
                    return ctx.psi(idc[X], idc[Y])

                self.instances.append(("gauge-unit", (X, Y), fn))

        # transfer of the associator along the gauge
        for (f, g, h) in itertools.product(cells, repeat=3):
            self.instances.append(
                ("associator-transfer", (f, g, h),
                 self._ass_transfer_fn(f, g, h)))

        # transfer of the pentagonator along the gauge
        for T4 in itertools.product(objs, repeat=4):
            self.instances.append(
                ("pentagon-transfer", T4, self._pent_transfer_fn(T4)))

    def _ass_transfer_fn(self, f, g, h):
        G, C = self.G, self.C
        idc = C.identity_cell

        def fn(ctx, f=f, g=g, h=h):
            X, Y, Z = (C.cell_src[c] for c in (f, g, h))
            Xp, Yp, Zp = (C.cell_tgt[c] for c in (f, g, h))
            fg = G.tcell(f, g)
            gh = G.tcell(g, h)
            fgh = G.tcell(fg, h)
            lhs = _sum2(C, [
                ctx.a2((f, g, h)),
                C.neg2(ctx.t2((idc[G.tobj(Xp, Yp)], idc[Zp]), (fg, h))),
                G.tensor2(ctx.psi(f, g), C.id2(h)),
                ctx.t2((fg, h), (idc[G.tobj(X, Y)], idc[Z])),
                ctx.psi(fg, h),
                C.hcomp(C.id2(fgh), ctx.omega((X, Y, Z))),
            ])
            rhs = _sum2(C, [
                C.hcomp(ctx.omega((Xp, Yp, Zp)), C.id2(fgh)),
                C.neg2(ctx.t2((idc[Xp], idc[G.tobj(Yp, Zp)]), (f, gh))),
                G.tensor2(C.id2(f), ctx.psi(g, h)),
                ctx.t2((f, gh), (idc[X], idc[G.tobj(Y, Z)])),
                ctx.psi(f, gh),
                ctx.a1((f, g, h)),
            ])
            return _sub2(C, lhs, rhs)

        return fn

    def _pent_transfer_fn(self, T4):
        G, C = self.G, self.C
        idc = C.identity_cell

        def fn(ctx, T4=T4):
            X, Y, Z, T = T4
            XY = G.tobj(X, Y)
            YZ = G.tobj(Y, Z)
            ZT = G.tobj(Z, T)
            XYZ = G.tobj(XY, Z)
            YZT = G.tobj(YZ, T)
            eXY_ZT = ((idc[XY], idc[ZT]), (idc[XY], idc[ZT]))
            lhs = _sum2(C, [
                ctx.p2(T4),
                G.tensor2(ctx.omega((X, Y, Z)), C.id2(idc[T])),
                ctx.psi(idc[XYZ], idc[T]),
                C.neg2(ctx.a2((idc[X], idc[YZ], idc[T]))),
                ctx.omega((X, YZ, T)),
                G.tensor2(C.id2(idc[X]), ctx.omega((Y, Z, T))),
                ctx.psi(idc[X], idc[YZT]),
            ])
            rhs = _sum2(C, [
                C.neg2(ctx.a1((idc[XY], idc[Z], idc[T]))),
                ctx.omega((XY, Z, T)),
                C.neg2(ctx.t1(*eXY_ZT)),
                C.neg2(G.tensor2(ctx.psi(idc[X], idc[Y]), C.id2(idc[ZT]))),
                G.tensor2(C.id2(idc[XY]), ctx.psi(idc[Z], idc[T])),
                ctx.t2(*eXY_ZT),
                C.neg2(ctx.a2((idc[X], idc[Y], idc[ZT]))),
                ctx.omega((X, Y, ZT)),
                ctx.p1(T4),
            ])
            return _sub2(C, lhs, rhs)

        return fn


@per_structure
def _equivalence_system(G: GraySemigroup) -> _EquivalenceSystem:
    return _EquivalenceSystem(G)


def check_equivalence(G: GraySemigroup, d1: FirstOrderDeformation,
                      d2: FirstOrderDeformation,
                      w: EquivalenceWitness) -> ValidationReport:
    """Does the gauge witness w carry d1 into d2?  Evaluates the transfer
    equations literally and lists every violated instance, in instance
    order.  As in check_structural, only the instances that read an entry
    stored in d1, d2 or w are evaluated; the rest have the residual of
    zero data, which the read index's full pass checked is zero."""
    rep = data_shapes(G, d1).merged(
        data_shapes(G, d2)).merged(data_shapes(G, w))
    if rep.structural_errors:
        return rep
    return _equivalence_system(G).check(rep, d1, d2, w)


# ----- gauge shift of the zero deformation ------------------------------


# the transfer equations that determine each family of the gauge shift,
# with the sign of that family's entry in the equation's residual
_SHIFT_FAMILIES = {
    "tensor-transfer": ("tensorator1", -1),
    "associator-transfer": ("associator1", 1),
    "pentagon-transfer": ("pentagonator1", 1),
}


def equivalence_shift(G: GraySemigroup,
                      w: EquivalenceWitness) -> FirstOrderDeformation:
    """The unique deformation the zero deformation is carried into by the
    gauge witness w (linear in w).

    Each transfer equation is linear in its own entry of the target
    deformation, with coefficient -1 (tensorator) or +1 (associator,
    pentagonator), and reads only the families before it.  So evaluating
    its residual with that entry still zero gives the entry: the residual
    itself for the tensorator, minus it for the other two.  The system
    lists the equations family by family in that order.  The result is
    re-checked against the literal equations through check_equivalence."""
    rep = data_shapes(G, w)
    if not rep.ok:
        raise ValueError("; ".join(rep.structural_errors))
    C = G.base
    d = FirstOrderDeformation()
    ctx = _TransferContext(G, zero_deformation(), d, w)
    for name, key, fn in _equivalence_system(G).instances:
        if name not in _SHIFT_FAMILIES:
            continue
        family, sign = _SHIFT_FAMILIES[name]
        val = fn(ctx)
        if not C.is_zero2(val):
            getattr(d, family)[key] = C.neg2(val) if sign == 1 else val
    out = check_equivalence(G, zero_deformation(), d, w)
    if not out.ok:
        raise AssertionError(
            f"gauge shift failed verification: {out.violations[:3]}")
    return d


# ----- coordinates <-> sparse data --------------------------------------


# the deformation or gauge family each summand carries, and whether that
# family is keyed by the one letter of a tuple rather than by the tuple
_SUMMAND_FAMILY = {("bi", 1, 1): ("tensorator1", False),
                   ("bi", 0, 2): ("associator1", True),
                   ("bi", 0, 1): ("psi1", True),
                   ("pent", 2): ("omega1", False),
                   ("pent", 3): ("pentagonator1", False)}


def _family(desc):
    if desc not in _SUMMAND_FAMILY:
        raise ValueError(
            f"summand {desc} carries no deformation or gauge data")
    return _SUMMAND_FAMILY[desc]


def _families_from_vector(G: GraySemigroup, kind: str, q: int, vec: Vector,
                          cls, foreign: str):
    """The data of class cls that total free coordinates of degree q
    assign; foreign is the error for a value in a family cls lacks."""
    sp = total_space(G, ComplexSelection(kind), q)
    if vec.length != sp.dim_free:
        raise ValueError("coordinate vector has the wrong length")
    data = cls()
    for desc, t, tm in sp.nonzero_values(vec):
        family, by_letter = _family(desc)
        table = getattr(data, family, None)
        if table is None:
            raise ValueError(foreign)
        table[t[0] if by_letter else t] = tm
    return data


def deformation_from_vector(G: GraySemigroup, kind: str,
                            vec: Vector) -> FirstOrderDeformation:
    """Decode total free coordinates of the candidate degree of a selection
    into sparse deformation data."""
    return _families_from_vector(
        G, kind, candidate_degree(kind), vec, FirstOrderDeformation,
        "vector carries gauge data, not deformation data")


def witness_from_vector(G: GraySemigroup, kind: str,
                        vec: Vector) -> EquivalenceWitness:
    """Decode total free coordinates one degree below the candidates."""
    return _families_from_vector(
        G, kind, candidate_degree(kind) - 1, vec, EquivalenceWitness,
        "vector carries deformation data, not gauge data")


def _families_to_vector(G: GraySemigroup, kind: str, q: int,
                        data) -> Vector:
    rep = data_shapes(G, data)
    if not rep.ok:
        raise ValueError("; ".join(rep.structural_errors))
    sp = total_space(G, ComplexSelection(kind), q)
    K = G.base.field
    C = G.base
    entries = {}
    consumed = set()
    for desc, off in zip(sp.summands, sp.offsets):
        family, by_letter = _family(desc)
        slots = summand_space(G, desc).slots
        for key, tm in getattr(data, family, {}).items():
            first = slots[(key,) if by_letter else tuple(key)][0]
            for b, c in enumerate(tm.coeffs):
                if not K.is_zero(c):
                    entries[off + first + b] = c
        consumed.add(family)
    for fld in fields(data):
        if fld.name in consumed:
            continue
        for key, tm in getattr(data, fld.name).items():
            if not C.is_zero2(tm):
                raise ValueError(
                    f"{fld.name}[{key!r}] is nonzero but the {kind!r} "
                    f"selection has no summand for it")
    return Vector(sp.dim_free, entries)


def vector_from_deformation(G: GraySemigroup, kind: str,
                            d: FirstOrderDeformation) -> Vector:
    return _families_to_vector(G, kind, candidate_degree(kind), d)


def vector_from_witness(G: GraySemigroup, kind: str,
                        w: EquivalenceWitness) -> Vector:
    return _families_to_vector(G, kind, candidate_degree(kind) - 1, w)


# ----- witness search ---------------------------------------------------


def find_equivalence(G: GraySemigroup, d1: FirstOrderDeformation,
                     d2: FirstOrderDeformation,
                     kind: str = "unit") -> EquivalenceWitness | None:
    """A gauge witness carrying d1 into d2 within the given selection, or
    None.  Both inputs must satisfy the structural equations.  The search
    solves the linear gauge system exactly; any witness found is
    re-verified against the literal transfer equations."""
    for d in (d1, d2):
        rep = check_structural(G, d)
        if not rep.ok:
            raise ValueError(
                f"input fails structural equations: {rep.violations[:3]}"
                f"{rep.structural_errors[:3]}")
    sel = ComplexSelection(kind)
    q = candidate_degree(kind)
    K = G.base.field
    v1, v2 = (vector_from_deformation(G, kind, d) for d in (d1, d2))
    target = vec_combine(K, [v2, v1], [K.one(), K.neg(K.one())], v1.length)
    wvec = solve_in_span(total_differential(G, sel, q - 1),
                         total_space(G, sel, q - 1).basis, target)
    if wvec is None:
        return None
    w = witness_from_vector(G, kind, wvec)
    rep = check_equivalence(G, d1, d2, w)
    if not rep.ok:
        raise AssertionError(f"gauge system solution fails the literal "
                             f"transfer equations: {rep.violations[:3]}")
    return w


# ----- brute-force classification ---------------------------------------


def _combine_columns(p: int, coeffs, cols, start=None) -> tuple:
    """Nonzero (row, value) pairs of start + sum_j coeffs[j] * cols[j]
    over F_p, rows ascending; start and the columns are {row: value}."""
    acc = dict(start or {})
    for c, col in zip(coeffs, cols):
        if c == 0:
            continue
        for r, v in col.items():
            acc[r] = (acc.get(r, 0) + c * v) % p
    return tuple(sorted((r, v) for r, v in acc.items() if v))


def _transfer_columns(G: GraySemigroup, d1, d2, witnesses):
    """(r0, cols): the literal transfer residual of (d1, d2) at the zero
    witness, and that of each witness between zero deformations.  The
    residual is linear in (d1, d2, w) together, so at sum_j c_j
    witnesses[j] it is r0 + sum_j c_j cols[j]."""
    esys = _equivalence_system(G)
    zero = zero_deformation()
    return (_nonzero(esys.residual_list(d1, d2, zero_witness())),
            [_nonzero(esys.residual_list(zero, zero, w)) for w in witnesses])


def brute_force_classes(G: GraySemigroup, kind: str = "unit",
                        bound: int = DEFAULT_ENUM_BOUND) -> dict:
    """Classify first-order deformations of a selection up to gauge
    equivalence by exhaustive enumeration over a prime field.

    Every candidate in the selection's coordinate space is enumerated
    (meet-in-the-middle over the two halves of the basis coefficients,
    joined on the residual of the structural equations).  The residual is
    linear in the candidate, so it is a combination of one column per
    basis vector.  A column is evaluated literally, but only on the
    instances that read an entry the basis vector sets; every other
    instance keeps the residual of the zero deformation, which one full
    literal pass (the read index's) checks is zero.  Linearity is
    verified against the full literal residual, every instance evaluated,
    at three random candidates; this is what catches a read index that
    misses an instance.  The accept/reject decision is spot-checked
    against check_structural at three cocycles and three non-cocycles;
    that check, like check_equivalence below, goes through the read
    index too.

    Solutions are partitioned by the gauge shifts of an exhaustively
    spanned witness space, each shift re-checked literally.  A sampled
    pair in one class is checked literally to be equivalent.  Between two
    inequivalent representatives every witness is tried when affordable:
    the transfer residual is linear too, so it is the literal residual at
    the zero witness plus a combination of the literal residuals of the
    witness basis, all evaluated on every instance, and verified against
    the full literal residual at three random witnesses.
    """
    C = G.base
    K = C.field
    if not isinstance(K, PrimeField):
        raise ValueError("exhaustive classification needs a prime field")
    p = K.p
    rng = random.Random(20240811)
    sel = ComplexSelection(kind)
    q = candidate_degree(kind)
    sp = total_space(G, sel, q)
    basis = sp.basis
    nb = len(basis)
    if p ** nb > bound:
        raise EnumerationBoundExceeded(
            f"{p}^{nb} candidates exceed the enumeration bound {bound}; "
            f"use a smaller model or raise the bound")
    sys = _structural_system(G)
    sys.layout   # the read index; raises if the zero deformation fails

    def dfv(coeff_tuple):
        return deformation_from_vector(
            G, kind, vec_combine(K, basis, coeff_tuple, sp.dim_free))

    cols = [sys.column(deformation_from_vector(G, kind, b)) for b in basis]

    def lin_residual(assignment, cols_part=cols):
        return _combine_columns(p, assignment, cols_part)

    # the join key is only honest if the residual really is linear
    for _ in range(3):
        coeffs = tuple(rng.randrange(p) for _ in range(nb))
        direct = _nonzero(sys.residual_list(dfv(coeffs)))
        if tuple(direct.items()) != lin_residual(coeffs):
            raise AssertionError(
                f"the structural residual is not linear at {coeffs}")

    half = nb // 2
    colsA, colsB = cols[:half], cols[half:]

    tableA: dict = {}
    for a in itertools.product(range(p), repeat=half):
        tableA.setdefault(lin_residual(a, colsA), []).append(a)

    Z: list = []
    for btup in itertools.product(range(p), repeat=nb - half):
        res = lin_residual(btup, colsB)
        need = tuple((r, (-v) % p) for r, v in res)
        for a in tableA.get(need, ()):
            Z.append(a + btup)
    Z.sort()

    n_rows = 1 + max((max(col) for col in cols if col), default=0)
    Smat = from_columns([Vector(n_rows, col) for col in cols], n_rows, K)
    expected = p ** (nb - rank(Smat))
    if len(Z) != expected:
        raise AssertionError(
            f"{len(Z)} enumerated cocycles, expected {expected}")

    # spot-check the linearized accept/reject against the full equations
    for ztup in (rng.sample(Z, min(3, len(Z))) if Z else []):
        if not check_structural(G, dfv(ztup)).ok:
            raise AssertionError(
                f"enumerated cocycle {ztup} fails the structural equations")
    zset = set(Z)
    tries = 0
    while tries < 3 and len(zset) < p ** nb:
        cand = tuple(rng.randrange(p) for _ in range(nb))
        if cand in zset:
            continue
        tries += 1
        if check_structural(G, dfv(cand)).ok:
            raise AssertionError(
                f"rejected candidate {cand} satisfies the structural "
                f"equations")

    # gauge shifts span the coboundaries
    wsp = total_space(G, sel, q - 1)
    cand_mat = from_columns(basis, sp.dim_free, K)
    witnesses = [witness_from_vector(G, kind, wb) for wb in wsp.basis]
    shift_vectors = []
    for w in witnesses:
        shift = equivalence_shift(G, w)   # verified literally inside
        svec = vector_from_deformation(G, kind, shift)
        coeff = solve_in_image(cand_mat, svec)
        if coeff is None:
            raise AssertionError("gauge shift left the candidate space")
        ctup = tuple(coeff.entries.get(j, 0) for j in range(nb))
        if lin_residual(ctup):
            raise AssertionError("gauge shift is not a solution")
        shift_vectors.append(ctup)

    # a class is keyed by the normal form of its members modulo the span
    # of the shifts, which the RREF makes unique
    span = Echelon(K, [{j: x for j, x in enumerate(ctup) if x}
                       for ctup in shift_vectors])
    rank_shifts = len(span.rows)

    def reduce_mod_shifts(t):
        return frozenset(span.reduce(
            {j: x for j, x in enumerate(t) if x}).items())

    classes: dict = {}
    for z in Z:   # Z is sorted, so the first member of a class is minimal
        classes.setdefault(reduce_mod_shifts(z), []).append(z)
    count = len(classes)
    if count * (p ** rank_shifts) != len(Z):
        raise AssertionError(
            f"{count} classes of {p}^{rank_shifts} do not cover "
            f"{len(Z)} cocycles")
    for members in classes.values():
        if len(members) != p ** rank_shifts:
            raise AssertionError(
                f"a class has {len(members)} members, not {p}^{rank_shifts}")

    reps = sorted(members[0] for members in classes.values())

    # literal within-class verification on a sampled pair
    if rank_shifts and reps:
        wcoeffs = [rng.randrange(p) for _ in shift_vectors]
        if all(c == 0 for c in wcoeffs):
            wcoeffs[0] = 1
        base_rep = reps[0]
        other = tuple(
            (z + sum(c * s[j] for c, s in zip(wcoeffs, shift_vectors))) % p
            for j, z in enumerate(base_rep))
        w = witness_from_vector(
            G, kind, vec_combine(K, wsp.basis, wcoeffs, wsp.dim_free))
        if not check_equivalence(G, dfv(base_rep), dfv(other), w).ok:
            raise AssertionError(
                f"{base_rep} and {other} differ by a shift but the literal "
                f"equivalence check fails")

    # cross-class verification: no witness at all works
    nw = len(wsp.basis)
    if count > 1 and p ** nw <= WITNESS_SEARCH_LIMIT:
        da, db = dfv(reps[0]), dfv(reps[1])
        r0, wcols = _transfer_columns(G, da, db, witnesses)
        for _ in range(3):
            wcoeffs = tuple(rng.randrange(p) for _ in range(nw))
            w = witness_from_vector(
                G, kind, vec_combine(K, wsp.basis, wcoeffs, wsp.dim_free))
            direct = _nonzero(_equivalence_system(G).residual_list(da, db, w))
            if tuple(direct.items()) != \
                    _combine_columns(p, wcoeffs, wcols, r0):
                raise AssertionError(
                    f"the transfer residual is not linear at {wcoeffs}")
        for wcoeffs in itertools.product(range(p), repeat=nw):
            if not _combine_columns(p, wcoeffs, wcols, r0):
                raise AssertionError(
                    f"witness {wcoeffs} joins the classes of {reps[0]} "
                    f"and {reps[1]}")

    return {
        "kind": kind,
        "count": count,
        "representatives": [dfv(r) for r in reps],
        "representative_coefficients": reps,
        "candidate_dim": nb,
        "cocycle_count": len(Z),
        "coboundary_rank": rank_shifts,
        "witness_dim": nw,
    }


# ----- extension over K[eps]/(eps^2) ------------------------------------


class ExtendedStructure:
    """The Gray semigroup with its structural 2-isomorphisms deformed over
    K[eps]/(eps^2); underlying objects, 1-cells, and hom tables are
    unchanged."""

    def __init__(self, G: GraySemigroup, deformation: FirstOrderDeformation):
        self.G = G
        self.deformation = deformation
        self._E = _eps_algebra(G)
        self._cells = _DeformedCells(G, deformation)

    def reduce(self) -> GraySemigroup:
        """Set eps = 0.  The lead components of the deformed cells are
        read from the undeformed tables, so this is G itself."""
        return self.G

    def validate(self) -> ValidationReport:
        """Full check of the extension: invertibility of every structural
        cell over the extension ring, and the eight structural equations
        with both components compared (nothing is linearized here)."""
        rep = ValidationReport()
        G, C, E = self.G, self.G.base, self._E
        dc = self._cells

        def check_invertible(name, key, t):
            inv = E.invert(t)
            if not (E.eq(E.vcomp(inv, t), E.id(t.lead.src))
                    and E.eq(E.vcomp(t, inv), E.id(t.lead.tgt))):
                rep.add(name + "-invertible", key)

        cells = sorted(C.cell_src)
        objs = sorted(C.objects)
        comp = composable_tuples(C, 2)
        for (fp, f) in comp:
            for (gp, g) in comp:
                check_invertible("tensorator", ((fp, gp), (f, g)),
                                 dc.tens((fp, gp), (f, g)))
        for (f, g, h) in itertools.product(cells, repeat=3):
            check_invertible("associator", (f, g, h), dc.ass3(f, g, h))
        for T4 in itertools.product(objs, repeat=4):
            check_invertible("pentagonator", T4, dc.pent4(T4))

        for name, key, fn in _structural_system(G).instances:
            lhs, rhs = fn(dc)
            if not E.eq(lhs, rhs):
                rep.add(name, key)
        return rep


def extend_and_deform(G: GraySemigroup,
                      d: FirstOrderDeformation) -> ExtendedStructure:
    """Assemble the deformed structure over K[eps]/(eps^2); refuses data
    that fails the structural equations."""
    rep = check_structural(G, d)
    if not rep.ok:
        raise ValueError(
            f"deformation fails structural equations: "
            f"{rep.violations[:3]}{rep.structural_errors[:3]}")
    return ExtendedStructure(G, d)
