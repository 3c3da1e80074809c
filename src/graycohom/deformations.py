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
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field as dc_field

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
from .pfcomplex import nonidentity_basis
from .twocat import TwoMorphism, ValidationReport

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


@dataclass(frozen=True)
class ECell:
    """2-morphism over K[eps]/(eps^2) as a pair lead + eps * first; both
    components share the same endpoints."""

    lead: TwoMorphism
    eps: TwoMorphism


def _is_zero(t: TwoMorphism) -> bool:
    """Every coefficient is zero.  Scalars are ints or Fractions, whose
    zero is falsy; an unreduced residue such as p counts as nonzero, which
    only costs the product it could have skipped."""
    return not any(t.coeffs)


class _Eps:
    """Composition algebra of eps-pairs over a fixed Gray semigroup.

    The eps part of a product of two eps-pairs is the sum of two bilinear
    products; one whose eps factor is zero is left out, which is exact.
    Zero eps parts are shared, one per endpoint pair."""

    def __init__(self, G: GraySemigroup):
        self.G = G
        self.C = G.base
        self._inv: dict = {}
        self._zeros: dict = {}
        self._ids: dict = {}

    def zero(self, src, tgt) -> TwoMorphism:
        z = self._zeros.get((src, tgt))
        if z is None:
            z = self._zeros[(src, tgt)] = self.C.zero2(src, tgt)
        return z

    def lift(self, t: TwoMorphism) -> ECell:
        return ECell(t, self.zero(t.src, t.tgt))

    def id(self, cell) -> ECell:
        e = self._ids.get(cell)
        if e is None:
            e = self._ids[cell] = self.lift(self.C.id2(cell))
        return e

    def _eps_part(self, op, a: ECell, b: ECell, lead) -> TwoMorphism:
        """op(a.eps, b.lead) + op(a.lead, b.eps) for a bilinear op."""
        if _is_zero(a.eps):
            if _is_zero(b.eps):
                return self.zero(lead.src, lead.tgt)
            return op(a.lead, b.eps)
        if _is_zero(b.eps):
            return op(a.eps, b.lead)
        return self.C.add2(op(a.eps, b.lead), op(a.lead, b.eps))

    def vcomp(self, a2: ECell, a1: ECell) -> ECell:
        lead = self.C.vcomp(a2.lead, a1.lead)
        return ECell(lead, self._eps_part(self.C.vcomp, a2, a1, lead))

    def vcomp_many(self, terms) -> ECell:
        terms = list(terms)
        out = terms[-1]
        for t in reversed(terms[:-1]):
            out = self.vcomp(t, out)
        return out

    def hcomp(self, b: ECell, a: ECell) -> ECell:
        lead = self.C.hcomp(b.lead, a.lead)
        return ECell(lead, self._eps_part(self.C.hcomp, b, a, lead))

    def tensor2(self, a: ECell, b: ECell) -> ECell:
        lead = self.G.tensor2(a.lead, b.lead)
        return ECell(lead, self._eps_part(self.G.tensor2, a, b, lead))

    def invert(self, a: ECell) -> ECell:
        C = self.C
        l = self._inv.get(a.lead)
        if l is None:
            l = self._inv[a.lead] = C.invert2(a.lead)
        if _is_zero(a.eps):
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


# ----- accessors with zero defaults -------------------------------------


def _tens1_endpoints(G, pp, p):
    C = G.base
    src = C.compose(G.tcell(*pp), G.tcell(*p))
    tgt = G.tcell(C.compose(pp[0], p[0]), C.compose(pp[1], p[1]))
    return src, tgt


def _tens1(G, d: FirstOrderDeformation, pp, p) -> TwoMorphism:
    val = d.tensorator1.get((pp, p))
    if val is not None:
        return val
    src, tgt = _tens1_endpoints(G, pp, p)
    return G.base.zero2(src, tgt)


def _ass1(G, d: FirstOrderDeformation, f, g, h) -> TwoMorphism:
    val = d.associator1.get((f, g, h))
    if val is not None:
        return val
    cell = G.tcell(G.tcell(f, g), h)
    return G.base.zero2(cell, cell)


def _pent1(G, d: FirstOrderDeformation, T) -> TwoMorphism:
    val = d.pentagonator1.get(tuple(T))
    if val is not None:
        return val
    e = G.base.identity_cell[G.tobj_many(T)]
    return G.base.zero2(e, e)


class _DeformedCells:
    """The structural 2-isomorphisms of the eps-extension determined by a
    first-order deformation: undeformed value plus eps times the data."""

    def __init__(self, G: GraySemigroup, d: FirstOrderDeformation):
        self.G = G
        self.C = G.base
        self.d = d

    def tens(self, pp, p) -> ECell:
        lead = self.G.tensorator(pp[0], pp[1], p[0], p[1])
        return ECell(lead, _tens1(self.G, self.d, pp, p))

    def ass3(self, f, g, h) -> ECell:
        cell = self.G.tcell(self.G.tcell(f, g), h)
        return ECell(self.C.id2(cell), _ass1(self.G, self.d, f, g, h))

    def pent4(self, T) -> ECell:
        e = self.C.identity_cell[self.G.tobj_many(T)]
        return ECell(self.C.id2(e), _pent1(self.G, self.d, T))


class _RecordingCells(_DeformedCells):
    """Deformed cells that note, as (family, key), each entry of the
    deformation read through them since the last reset of ``reads``."""

    def __init__(self, G: GraySemigroup, d: FirstOrderDeformation):
        super().__init__(G, d)
        self.reads: set = set()

    def tens(self, pp, p) -> ECell:
        self.reads.add(("tensorator1", (pp, p)))
        return super().tens(pp, p)

    def ass3(self, f, g, h) -> ECell:
        self.reads.add(("associator1", (f, g, h)))
        return super().ass3(f, g, h)

    def pent4(self, T) -> ECell:
        self.reads.add(("pentagonator1", tuple(T)))
        return super().pent4(T)


# ----- shape validation -------------------------------------------------


def _check_entry(C, rep, family, key, val, src, tgt):
    if not isinstance(val, TwoMorphism) or val.src != src or val.tgt != tgt:
        rep.add_structural(
            f"{family}[{key!r}] has wrong endpoints (expected {src} => {tgt})")
        return
    if len(val.coeffs) != C.dim2(src, tgt):
        rep.add_structural(f"{family}[{key!r}] has wrong coefficient length")


def deformation_shapes(G: GraySemigroup,
                       d: FirstOrderDeformation) -> ValidationReport:
    """Endpoint/shape check of every stored entry of a deformation."""
    rep = ValidationReport()
    C = G.base
    for key, val in d.tensorator1.items():
        try:
            (fp, gp), (f, g) = key
            if C.cell_tgt[f] != C.cell_src[fp] or \
                    C.cell_tgt[g] != C.cell_src[gp]:
                raise KeyError(key)
            src, tgt = _tens1_endpoints(G, (fp, gp), (f, g))
        except (KeyError, TypeError, ValueError):
            rep.add_structural(f"tensorator1 key {key!r} is not a composable "
                               f"pair of 1-cell pairs")
            continue
        _check_entry(C, rep, "tensorator1", key, val, src, tgt)
    for key, val in d.associator1.items():
        try:
            f, g, h = key
            cell = G.tcell(G.tcell(f, g), h)
        except (KeyError, TypeError, ValueError):
            rep.add_structural(f"associator1 key {key!r} is not a 1-cell triple")
            continue
        _check_entry(C, rep, "associator1", key, val, cell, cell)
    for key, val in d.pentagonator1.items():
        try:
            if len(key) != 4:
                raise ValueError(key)
            e = C.identity_cell[G.tobj_many(key)]
        except (KeyError, TypeError, ValueError):
            rep.add_structural(
                f"pentagonator1 key {key!r} is not an object quadruple")
            continue
        _check_entry(C, rep, "pentagonator1", key, val, e, e)
    return rep


def witness_shapes(G: GraySemigroup, w: EquivalenceWitness) -> ValidationReport:
    rep = ValidationReport()
    C = G.base
    for key, val in w.psi1.items():
        try:
            f, g = key
            cell = G.tcell(f, g)
        except (KeyError, TypeError, ValueError):
            rep.add_structural(f"psi1 key {key!r} is not a 1-cell pair")
            continue
        _check_entry(C, rep, "psi1", key, val, cell, cell)
    for key, val in w.omega1.items():
        try:
            if len(key) != 3:
                raise ValueError(key)
            e = C.identity_cell[G.tobj_many(key)]
        except (KeyError, TypeError, ValueError):
            rep.add_structural(f"omega1 key {key!r} is not an object triple")
            continue
        _check_entry(C, rep, "omega1", key, val, e, e)
    return rep


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


class _StructuralSystem:
    """Ordered instance list of the structural equations, each instance a
    function taking the deformed cells to an (LHS, RHS) pair of eps-pairs.
    The lead components agree by the undeformed axioms; the eps components
    are linear in the deformation data."""

    def __init__(self, G: GraySemigroup):
        self.G = G
        self.C = G.base
        self.E = _Eps(G)
        self.instances = []
        self._build()

    # -- helpers --

    def _add(self, name, key, fn):
        self.instances.append((name, key, fn))

    def _composable(self, cells):
        C = self.C
        return [(fp, f) for fp in cells for f in cells
                if C.cell_tgt[f] == C.cell_src[fp]]

    def _build(self):
        G, C, E = self.G, self.C, self.E
        cells = sorted(C.cell_src)
        objs = sorted(C.objects)
        idc = C.identity_cell
        comp = self._composable(cells)
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
        for (fpp, fp, f) in [(a, b, c) for (a, b) in comp for c in cells
                             if C.cell_tgt[c] == C.cell_src[b]]:
            for (gpp, gp, g) in [(a, b, c) for (a, b) in comp for c in cells
                                 if C.cell_tgt[c] == C.cell_src[b]]:

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

    def residual_list(self, d: FirstOrderDeformation) -> list:
        """All residual coefficients in instance order (linear in d)."""
        dc = _DeformedCells(self.G, d)
        out = []
        for _name, _key, fn in self.instances:
            out.extend(self.residual(fn, dc).coeffs)
        return out

    @functools.cached_property
    def layout(self):
        """(offsets, readers): the first residual row of each instance, and
        for each (family, key) of deformation data the instances that read
        it.  Built by one literal pass on the zero deformation, which also
        checks that its residual vanishes.  An instance picks its keys from
        its own cells, never from the data, so the read sets hold for every
        deformation."""
        dc = _RecordingCells(self.G, zero_deformation())
        offsets, readers = [], {}
        row = 0
        for i, (_name, _key, fn) in enumerate(self.instances):
            dc.reads.clear()
            res = self.residual(fn, dc)
            if not _is_zero(res):
                raise AssertionError(
                    "the zero deformation has a nonzero residual")
            offsets.append(row)
            row += len(res.coeffs)
            for entry in dc.reads:
                readers.setdefault(entry, []).append(i)
        return offsets, readers

    def residual_column(self, d: FirstOrderDeformation) -> dict:
        """The nonzero entries of residual_list(d) by row.  Only the
        instances that read an entry of d are evaluated (literally); the
        residual of every other one is that of the zero deformation,
        which layout has checked is zero."""
        offsets, readers = self.layout
        touched = set()
        for family in ("tensorator1", "associator1", "pentagonator1"):
            for key in getattr(d, family):
                touched.update(readers.get((family, key), ()))
        dc = _DeformedCells(self.G, d)
        col = {}
        for i in sorted(touched):
            res = self.residual(self.instances[i][2], dc)
            for k, v in enumerate(res.coeffs):
                if v:
                    col[offsets[i] + k] = v
        return col


@per_structure
def _structural_system(G: GraySemigroup) -> _StructuralSystem:
    return _StructuralSystem(G)


def check_structural(G: GraySemigroup,
                     d: FirstOrderDeformation) -> ValidationReport:
    """Evaluate the eight structural equations of the eps-extension with d
    substituted and extract the first-order coefficient; lists every
    violated condition name with its instance key."""
    rep = deformation_shapes(G, d)
    if rep.structural_errors:
        return rep
    sys = _structural_system(G)
    dc = _DeformedCells(G, d)
    for name, key, fn in sys.instances:
        if not G.base.is_zero2(sys.residual(fn, dc)):
            rep.add(name, key)
    return rep


# ----- the five equivalence equations -----------------------------------


def _sub2(C, a, b):
    return C.add2(a, C.neg2(b))


def _sum2(C, terms):
    terms = list(terms)
    out = terms[0]
    for t in terms[1:]:
        out = C.add2(out, t)
    return out


class _TransferContext:
    """Lookup of the data entering the equivalence equations, with zero
    defaults: two deformations and a gauge witness."""

    def __init__(self, G, d1, d2, w):
        self.G = G
        self.C = G.base
        self.d1 = d1
        self.d2 = d2
        self.w = w

    def psi(self, f, g):
        val = self.w.psi1.get((f, g))
        if val is not None:
            return val
        cell = self.G.tcell(f, g)
        return self.C.zero2(cell, cell)

    def omega(self, T):
        val = self.w.omega1.get(tuple(T))
        if val is not None:
            return val
        e = self.C.identity_cell[self.G.tobj_many(T)]
        return self.C.zero2(e, e)

    def t1(self, pp, p):
        return _tens1(self.G, self.d1, pp, p)

    def t2(self, pp, p):
        return _tens1(self.G, self.d2, pp, p)

    def a1(self, t):
        return _ass1(self.G, self.d1, *t)

    def a2(self, t):
        return _ass1(self.G, self.d2, *t)

    def p1(self, T):
        return _pent1(self.G, self.d1, T)

    def p2(self, T):
        return _pent1(self.G, self.d2, T)


class _EquivalenceSystem:
    """Ordered instances of the equations stating that a gauge witness
    carries one first-order deformation into another; each instance maps a
    _TransferContext to its residual 2-morphism (zero iff satisfied)."""

    def __init__(self, G: GraySemigroup):
        self.G = G
        self.C = G.base
        self.instances = []
        self._build()

    def _build(self):
        G, C = self.G, self.C
        idc = C.identity_cell
        cells = sorted(C.cell_src)
        objs = sorted(C.objects)
        comp = [(fp, f) for fp in cells for f in cells
                if C.cell_tgt[f] == C.cell_src[fp]]

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

    def residual_list(self, ctx: _TransferContext) -> list:
        """All residual coefficients in instance order (linear in the two
        deformations and the witness together)."""
        out = []
        for _name, _key, fn in self.instances:
            out.extend(fn(ctx).coeffs)
        return out


@per_structure
def _equivalence_system(G: GraySemigroup) -> _EquivalenceSystem:
    return _EquivalenceSystem(G)


def check_equivalence(G: GraySemigroup, d1: FirstOrderDeformation,
                      d2: FirstOrderDeformation,
                      w: EquivalenceWitness) -> ValidationReport:
    """Does the gauge witness w carry d1 into d2?  Evaluates the transfer
    equations literally and lists every violated instance."""
    rep = deformation_shapes(G, d1).merged(
        deformation_shapes(G, d2)).merged(witness_shapes(G, w))
    if rep.structural_errors:
        return rep
    ctx = _TransferContext(G, d1, d2, w)
    for name, key, fn in _equivalence_system(G).instances:
        if not G.base.is_zero2(fn(ctx)):
            rep.add(name, key)
    return rep


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
    rep = witness_shapes(G, w)
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
_FAMILIES = {("bi", 1, 1): ("tensorator1", False),
             ("bi", 0, 2): ("associator1", True),
             ("bi", 0, 1): ("psi1", True),
             ("pent", 2): ("omega1", False),
             ("pent", 3): ("pentagonator1", False)}


def _family(desc):
    if desc not in _FAMILIES:
        raise ValueError(
            f"summand {desc} carries no deformation or gauge data")
    return _FAMILIES[desc]


def _families_from_vector(G: GraySemigroup, kind: str, q: int, vec: Vector):
    sel = ComplexSelection(kind)
    sp = total_space(G, sel, q)
    if vec.length != sp.dim_free:
        raise ValueError("coordinate vector has the wrong length")
    out = {"tensorator1": {}, "associator1": {}, "pentagonator1": {},
           "psi1": {}, "omega1": {}}
    for desc, t, tm in sp.nonzero_values(vec):
        family, by_letter = _family(desc)
        out[family][t[0] if by_letter else t] = tm
    return out


def deformation_from_vector(G: GraySemigroup, kind: str,
                            vec: Vector) -> FirstOrderDeformation:
    """Decode total free coordinates of the candidate degree of a selection
    into sparse deformation data."""
    fam = _families_from_vector(G, kind, candidate_degree(kind), vec)
    if fam["psi1"] or fam["omega1"]:
        raise ValueError("vector carries gauge data, not deformation data")
    return FirstOrderDeformation(fam["tensorator1"], fam["associator1"],
                                 fam["pentagonator1"])


def witness_from_vector(G: GraySemigroup, kind: str,
                        vec: Vector) -> EquivalenceWitness:
    """Decode total free coordinates one degree below the candidates."""
    fam = _families_from_vector(G, kind, candidate_degree(kind) - 1, vec)
    if fam["tensorator1"] or fam["associator1"] or fam["pentagonator1"]:
        raise ValueError("vector carries deformation data, not gauge data")
    return EquivalenceWitness(fam["psi1"], fam["omega1"])


def _families_to_vector(G: GraySemigroup, kind: str, q: int,
                        families: dict) -> Vector:
    sel = ComplexSelection(kind)
    sp = total_space(G, sel, q)
    K = G.base.field
    C = G.base
    entries = {}
    consumed = set()
    for desc, off in zip(sp.summands, sp.offsets):
        family, by_letter = _family(desc)
        slots = summand_space(G, desc).slots
        for key, tm in families.get(family, {}).items():
            first = slots[(key,) if by_letter else tuple(key)][0]
            for b, c in enumerate(tm.coeffs):
                if not K.is_zero(c):
                    entries[off + first + b] = c
        consumed.add(family)
    for family, data in families.items():
        if family in consumed:
            continue
        for key, tm in data.items():
            if not C.is_zero2(tm):
                raise ValueError(
                    f"{family}[{key!r}] is nonzero but the {kind!r} "
                    f"selection has no summand for it")
    return Vector(sp.dim_free, entries)


def vector_from_deformation(G: GraySemigroup, kind: str,
                            d: FirstOrderDeformation) -> Vector:
    rep = deformation_shapes(G, d)
    if not rep.ok:
        raise ValueError("; ".join(rep.structural_errors))
    return _families_to_vector(
        G, kind, candidate_degree(kind),
        {"tensorator1": d.tensorator1, "associator1": d.associator1,
         "pentagonator1": d.pentagonator1})


def vector_from_witness(G: GraySemigroup, kind: str,
                        w: EquivalenceWitness) -> Vector:
    rep = witness_shapes(G, w)
    if not rep.ok:
        raise ValueError("; ".join(rep.structural_errors))
    return _families_to_vector(
        G, kind, candidate_degree(kind) - 1,
        {"psi1": w.psi1, "omega1": w.omega1})


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


def _transfer_residual(G: GraySemigroup, d1, d2, w) -> dict:
    """The literal transfer residual of (d1, d2, w), {row: value}."""
    res = _equivalence_system(G).residual_list(_TransferContext(G, d1, d2, w))
    return {r: v for r, v in enumerate(res) if v}


def _transfer_columns(G: GraySemigroup, d1, d2, witnesses):
    """(r0, cols): the literal transfer residual of (d1, d2) at the zero
    witness, and that of each witness between zero deformations.  The
    residual is linear in (d1, d2, w) together, so at sum_j c_j
    witnesses[j] it is r0 + sum_j c_j cols[j]."""
    zero = zero_deformation()
    return (_transfer_residual(G, d1, d2, zero_witness()),
            [_transfer_residual(G, zero, zero, w) for w in witnesses])


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
    literal pass checks is zero.  Linearity is verified against the full
    literal residual at three random candidates, and the accept/reject
    decision against check_structural at three cocycles and three
    non-cocycles.

    Solutions are partitioned by the gauge shifts of an exhaustively
    spanned witness space, each shift re-checked literally.  A sampled
    pair in one class is checked literally to be equivalent.  Between two
    inequivalent representatives every witness is tried when affordable:
    the transfer residual is linear too, so it is the literal residual at
    the zero witness plus a combination of the literal residuals of the
    witness basis, verified against the full literal residual at three
    random witnesses.
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

    cols = [sys.residual_column(deformation_from_vector(G, kind, b))
            for b in basis]

    def lin_residual(assignment, cols_part=cols):
        return _combine_columns(p, assignment, cols_part)

    # the join key is only honest if the residual really is linear
    for _ in range(3):
        coeffs = tuple(rng.randrange(p) for _ in range(nb))
        direct = sys.residual_list(dfv(coeffs))
        if tuple((r, v) for r, v in enumerate(direct) if v) != \
                lin_residual(coeffs):
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
            if tuple(_transfer_residual(G, da, db, w).items()) != \
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
        self._E = _Eps(G)
        self._cells = _DeformedCells(G, deformation)

    def reduce(self) -> GraySemigroup:
        """Set eps = 0; validate() confirms the lead components coincide
        with the undeformed tables."""
        return self.G

    def validate(self) -> ValidationReport:
        """Full check of the extension: reduction mod eps, invertibility
        of every structural cell over the extension ring, and the eight
        structural equations with both components compared (nothing is
        linearized here)."""
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
        comp = [(fp, f) for fp in cells for f in cells
                if C.cell_tgt[f] == C.cell_src[fp]]
        for (fp, f) in comp:
            for (gp, g) in comp:
                t = dc.tens((fp, gp), (f, g))
                if not C.eq2(t.lead, G.tensorator(fp, gp, f, g)):
                    rep.add_structural(
                        f"tensorator at {((fp, gp), (f, g))!r} does not "
                        f"reduce to the undeformed table")
                check_invertible("tensorator", ((fp, gp), (f, g)), t)
        for (f, g, h) in itertools.product(cells, repeat=3):
            a = dc.ass3(f, g, h)
            if not C.eq2(a.lead, C.id2(a.lead.src)):
                rep.add_structural(
                    f"associator at {(f, g, h)!r} does not reduce to the "
                    f"identity")
            check_invertible("associator", (f, g, h), a)
        for T4 in itertools.product(objs, repeat=4):
            pcell = dc.pent4(T4)
            if not C.eq2(pcell.lead, C.id2(pcell.lead.src)):
                rep.add_structural(
                    f"pentagonator at {T4!r} does not reduce to the "
                    f"identity")
            check_invertible("pentagonator", T4, pcell)
        if rep.structural_errors:
            return rep

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
