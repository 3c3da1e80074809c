"""Deformation complexes of a Gray semigroup.

The building blocks are

* the double complex X^{m,n} = X^{m+1}(tensor_power(n+1)) with horizontal
  differential delta_h (the pseudofunctorial differential applied row-wise)
  and vertical differential delta_v (alternating sum over tensor-slot
  merges, padded by canonical tensorator interchange cells);
* the special subspaces X_s^{m,n} (vanishing on tuples containing an
  all-identities slot);
* the pentagonator complex of endomorphism families of identity 1-cells
  over object tuples with differential delta_pent, and the chain map phi
  into the bottom bicomplex row.

From these the module assembles the total complexes (tens_ass, ass, tens,
pent_restricted, pent_general, unit) as explicit sparse matrices and
computes their cohomology.

Every selection uses the same four differentials with the signs of the
unit complex, stated once in _leaving: delta_h carries the sign (-1)^n
out of X^{m,n}, delta_v and phi carry +1 and delta_pent carries -1.  A
selection's total differential is every one of them that runs between two
of its summands.  A selection also names the differential it imposes as a
condition on its summands (_CONDITIONS): ass imposes delta_h, tens
imposes delta_v and pent_restricted imposes phi; the others impose none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

from .exactlinalg import SparseMatrix, Vector, from_rows, kernel_basis, vstack
from .gray import (
    GraySemigroup,
    merge_to_single,
    per_structure,
    tensor_power,
)
from .pfcomplex import (
    Assembler,
    CapExceeded,
    CochainSpace,
    Layout,
    _cohomology_core,
    delta_pf_matrix,
    fiber_value,
    pf_cochain_basis,
    place,
    term_operator,
)
from .twocat import TwoMorphism

DEFAULT_TOTAL_CAP = 3
_PF_CAP = 8   # inner pseudofunctorial degrees are bounded by the total cap

SELECTION_KINDS = ("tens_ass", "ass", "tens", "pent_restricted",
                   "pent_general", "unit")


# ----- bicomplex spaces -------------------------------------------------


@dataclass
class BicomplexSpace(Layout):
    """X_s^{m,n}: the cochains of X^{m,n} that vanish on tuples with an
    all-identities slot.  Its layout is that of pf, the cochain space of
    X^{m,n}, whose naturality constraints it extends."""

    G: GraySemigroup
    m: int
    n: int
    pf: CochainSpace

    @cached_property
    def constraints(self) -> SparseMatrix:
        """Naturality and identity-slot vanishing; computed on first use."""
        K = self.G.base.field
        coords = identity_slot_coordinates(self.G, self.pf)
        extra = from_rows([{c: K.one()} for c in coords], self.dim_free, K)
        return vstack(self.pf.constraints, extra)


def identity_slot_coordinates(G: GraySemigroup, pf: CochainSpace):
    """Free coordinates sitting on tuples with an all-identities letter."""
    C = G.base
    out = []
    for t, (first, d, _, _) in pf.slots.items():
        if any(all(f == C.identity_cell[C.cell_src[f]] for f in letter)
               for letter in t):
            out.extend(range(first, first + d))
    return out


@per_structure
def bicomplex_space(G: GraySemigroup, m: int, n: int) -> BicomplexSpace:
    pf = pf_cochain_basis(tensor_power(G, n + 1), m + 1, cap=_PF_CAP)
    return BicomplexSpace(G, m, n, pf, slots=pf.slots, dim_free=pf.dim_free)


@per_structure
def delta_h_matrix(G: GraySemigroup, m: int, n: int) -> SparseMatrix:
    """Matrix of delta_h: X^{m,n} -> X^{m+1,n} on free coordinates."""
    return delta_pf_matrix(tensor_power(G, n + 1),
                           bicomplex_space(G, m, n).pf,
                           bicomplex_space(G, m + 1, n).pf)


@per_structure
def _interchange(G: GraySemigroup, pairs: tuple) -> TwoMorphism:
    """The interchange cell of delta_v: merge_to_single of the letters
    pairs (1-cells of C^2) under the two-variable tensor, kept for every
    delta_v_matrix of G."""
    return merge_to_single(tensor_power(G, 2), pairs, (1,) * len(pairs))


@per_structure
def delta_v_matrix(G: GraySemigroup, m: int, n: int) -> SparseMatrix:
    """Matrix of delta_v: X^{m,n} -> X^{m,n+1} on free coordinates.

    At an output tuple of (n+2)-component letters the terms drop the first
    column, merge adjacent columns, and drop the last column, whiskering by
    the canonical interchange cells built from tensorator instances.

    Term j (sign (-1)^j) maps the fiber Hom2(src, tgt) of its input tuple
    t_in by x -> sign * post(x).  Its Assembler key holds j, the number of
    the interchange cell (beta or gamma, merge_to_single of the term's
    per-letter pairs in C^2), the columns whiskered by identity 2-cells,
    and (src, tgt):

    * j = 0: pairs (f[0], (x)f[1:]), column 0; post(x) = (1 (x) x) . beta;
    * 0 < j < n+2: pairs (f[j-1], f[j]), every column except j-1 and j;
      post(x) = W . x with W = 1 (x) ... (x) gamma (x) ... (x) 1;
    * j = n+2: pairs ((x)f[:-1], f[-1]), the last column;
      post(x) = (x (x) 1) . beta.

    The pairs determine the interchange cell, so its number is looked up
    by the tuple of pair numbers.  Each letter's input letters and pairs
    are listed once."""
    C = G.base
    sp_in = bicomplex_space(G, m, n).pf
    sp_out = bicomplex_space(G, m, n + 1).pf
    c = n + 2  # columns of the output letters
    dom = sp_out.F.dom
    letters = list(dom.cell_src)
    lid = {f: i for i, f in enumerate(letters)}
    # composites are looked up only for output tuples of two or more
    # letters, so the m = 0 matrices leave the compose1 of C^{n+2} unbuilt
    comp = {}
    if m >= 1:
        comp = {(lid[g], lid[f]): lid[gf]
                for (g, f), gf in dom.compose1.items()}
    in_lid: dict = {}
    slots_in = {tuple([in_lid.setdefault(f, len(in_lid)) for f in t]):
                (first, src, tgt)
                for t, (first, d, src, tgt) in sp_in.slots.items() if d}
    pair_ids: dict = {}
    # per output letter and term j: input letter number, pair number, pair
    terms = []
    for f in letters:
        mid = range(1, c)
        ins = ([f[1:]]
               + [f[:i - 1] + (G.tcell(f[i - 1], f[i]),) + f[i + 1:]
                  for i in mid]
               + [f[:-1]])
        pairs = ([(f[0], G.tcell_many(f[1:]))]
                 + [(f[i - 1], f[i]) for i in mid]
                 + [(G.tcell_many(f[:-1]), f[-1])])
        terms.append(([in_lid.get(g, -1) for g in ins],
                      [pair_ids.setdefault(p, len(pair_ids)) for p in pairs],
                      pairs))
    merged_of: dict = {}  # pair numbers -> number of the interchange cell
    numbers: dict = {}    # interchange cell -> its number
    cells = []            # interchange cells by number

    def make(key):
        j, v, whiskered, src, tgt = key
        merged, sign = cells[v], (-1) ** j
        if j == 0:
            head = C.id2(whiskered[0])
            return term_operator(C, src, tgt, sign, lambda val: C.vcomp(
                G.tensor2(head, val), merged))
        if j == c:
            tail = C.id2(whiskered[0])
            return term_operator(C, src, tgt, sign, lambda val: C.vcomp(
                G.tensor2(val, tail), merged))
        ids = [C.id2(g) for g in whiskered]
        W = G.tensor2_many(ids[:j - 1] + [merged] + ids[j - 1:])
        return term_operator(C, src, tgt, sign, lambda val: C.vcomp(W, val))

    asm = Assembler(sp_out.dim_free, sp_in.dim_free, C.field, make)
    for t, slot in sp_out.slots.items():
        row0 = slot[0]
        ids = [lid[f] for f in t]
        whole = ids[-1]
        for a in ids[-2::-1]:
            whole = comp[(a, whole)]
        col = letters[whole]  # the composite of each column
        per_letter = [terms[a] for a in ids]
        # transpose: the input tuple and the pair numbers of each term
        t_ins = zip(*[p[0] for p in per_letter])
        pair_keys = zip(*[p[1] for p in per_letter])
        for j, t_in, pair_key in zip(range(c + 1), t_ins, pair_keys):
            s = slots_in.get(t_in)
            if s is None:
                continue
            col0, src, tgt = s
            v = merged_of.get(pair_key)
            if v is None:
                cell = _interchange(G, tuple(p[2][j] for p in per_letter))
                v = merged_of[pair_key] = numbers.setdefault(cell, len(cells))
                if v == len(cells):
                    cells.append(cell)
            if j == 0:
                whiskered = col[:1]
            elif j == c:
                whiskered = col[-1:]
            else:
                whiskered = col[:j - 1] + col[j + 1:]
            asm.add((j, v, whiskered, src, tgt), row0, col0)
    return asm.matrix()


# ----- pentagonator spaces ----------------------------------------------


@dataclass
class PentSpace(Layout):
    """Families of endomorphisms of identity 1-cells over object tuples.
    Every family is a cochain: there are no constraint rows."""

    G: GraySemigroup
    degree: int

    @cached_property
    def constraints(self) -> SparseMatrix:
        return SparseMatrix(0, self.dim_free, self.G.base.field)


def _object_tuples(G: GraySemigroup, k: int):
    import itertools
    return [tuple(t) for t in
            itertools.product(sorted(G.base.objects), repeat=k)]


@per_structure
def pent_space(G: GraySemigroup, degree: int) -> PentSpace:
    C = G.base
    space = PentSpace(G, degree)
    for T in _object_tuples(G, degree + 1) if degree >= 0 else []:
        e = C.identity_cell[G.tobj_many(T)]
        place(space, T, e, e, C.dim2(e, e))
    return space


@per_structure
def delta_pent_matrix(G: GraySemigroup, degree: int) -> SparseMatrix:
    """Matrix of delta_pent: degree -> degree + 1 (free coordinates).  In
    the Gray case all paddings are identities and the differential is the
    bar-type alternating sum with tensor whiskers by identity 2-cells.

    Term j (sign (-1)^j) drops the first object (j = 0, whiskered by its
    identity on the left), merges objects j-1 and j, or drops the last
    object (whiskered on the right).  Its Assembler key is j, the
    whiskering object and the identity 1-cell of the input tuple."""
    C = G.base
    sp_in = pent_space(G, degree)
    sp_out = pent_space(G, degree + 1)

    def make(key):
        j, whisker, e = key
        sign = (-1) ** j
        if whisker is None:
            return term_operator(C, e, e, sign, lambda val: val)
        unit = C.id2(C.identity_cell[whisker])
        if j == 0:
            return term_operator(C, e, e, sign,
                                 lambda val: G.tensor2(unit, val))
        return term_operator(C, e, e, sign, lambda val: G.tensor2(val, unit))

    asm = Assembler(sp_out.dim_free, sp_in.dim_free, C.field, make)
    for T, (row0, d, _, _) in sp_out.slots.items():
        if not d:
            continue
        k = len(T)  # degree + 2 objects
        terms = ([(T[1:], 0, T[0])]
                 + [(T[:i - 1] + (G.tobj(T[i - 1], T[i]),) + T[i + 1:], i,
                     None) for i in range(1, k)]
                 + [(T[:-1], k, T[-1])])
        for T_in, j, whisker in terms:
            s = sp_in.slots.get(T_in)
            if s is not None and s[1]:
                asm.add((j, whisker, s[2]), row0, s[0])
    return asm.matrix()


@per_structure
def phi_matrix(G: GraySemigroup, degree: int) -> SparseMatrix:
    """Chain map phi: pentagonator degree d -> bicomplex bidegree (0, d):
    (phi n)(f) = n_{targets} o 1_{(x)f} - 1_{(x)f} o n_{sources}.

    The Assembler key of each of the two terms is its sign, the whiskering
    cell (x)f and the identity 1-cell of its object tuple."""
    C = G.base
    sp_in = pent_space(G, degree)
    sp_out = bicomplex_space(G, 0, degree).pf

    def make(key):
        sign, tf, e = key
        unit = C.id2(tf)
        if sign == 1:
            return term_operator(C, e, e, sign,
                                 lambda val: C.hcomp(val, unit))
        return term_operator(C, e, e, sign, lambda val: C.hcomp(unit, val))

    asm = Assembler(sp_out.dim_free, sp_in.dim_free, C.field, make)
    for tup, slot in sp_out.slots.items():
        f = tup[0]  # a (degree+1)-tuple of composable-free base cells
        tf = G.tcell_many(f)
        for sign, T in ((1, tuple(C.cell_tgt[c] for c in f)),
                        (-1, tuple(C.cell_src[c] for c in f))):
            s = sp_in.slots.get(T)
            if s is not None and s[1]:
                asm.add((sign, tf, s[2]), slot[0], s[0])
    return asm.matrix()


# ----- total complexes --------------------------------------------------


@dataclass(frozen=True)
class ComplexSelection:
    kind: str
    qmax: ClassVar[int] = DEFAULT_TOTAL_CAP

    def __post_init__(self):
        if self.kind not in SELECTION_KINDS:
            raise ValueError(f"unknown complex selection {self.kind!r}")


def _summands(kind: str, q: int):
    """Ordered summand descriptors of total degree q (m ascending)."""
    if kind in ("tens_ass", "unit"):
        out = []
        for m in range(0, q):
            n = q - m
            out.append(("bi", m, n))
            if kind == "unit" and m == 0:
                out.append(("pent", q + 1))
        return out
    if kind == "ass":
        return [("bi", 0, q)] if q >= 1 else []
    if kind == "tens":
        return [("bi", q - 1, 1)] if q >= 1 else []
    if kind in ("pent_restricted", "pent_general"):
        return [("pent", q)] if q >= 0 else []
    raise ValueError(kind)


def summand_space(G: GraySemigroup, desc):
    """The space of one summand: X_s^{m,n} for ("bi", m, n), the
    pentagonator space of degree d for ("pent", d).  Both are Layouts,
    each with its own constraints."""
    if desc[0] == "bi":
        return bicomplex_space(G, desc[1], desc[2])
    return pent_space(G, desc[1])


@dataclass
class TotalSpace:
    """The summands of total degree q side by side; the constraint matrix
    and the kernel basis are computed on first use."""

    G: GraySemigroup
    kind: str
    q: int
    summands: list
    offsets: list
    dim_free: int

    @cached_property
    def constraints(self) -> SparseMatrix:
        """Block-diagonal stack of the summands' constraint matrices."""
        rows = []
        for desc, off in zip(self.summands, self.offsets):
            cons = _summand_constraints(self.G, self.kind, desc)
            rows.extend({off + j: v for j, v in row.items()}
                        for row in cons.by_row)
        return from_rows(rows, self.dim_free, self.G.base.field)

    @cached_property
    def basis(self) -> list:
        # the constraints are block-diagonal, so the kernel is the direct
        # sum of the per-summand kernels embedded at their offsets
        return [Vector(self.dim_free, {off + i: v
                                       for i, v in b.entries.items()})
                for desc, off in zip(self.summands, self.offsets)
                for b in _summand_kernel(self.G, self.kind, desc)]

    @property
    def dimension(self):
        return len(self.basis)

    def nonzero_values(self, vec: Vector):
        """(summand, tuple, 2-morphism) for every nonzero value that a
        vector of total free coordinates assigns, summands and tuples in
        order."""
        C = self.G.base
        for desc, off in zip(self.summands, self.offsets):
            for t, slot in summand_space(self.G, desc).slots.items():
                tm = fiber_value(C.field, slot, vec, off)
                if not C.is_zero2(tm):
                    yield desc, t, tm


def _leaving(G: GraySemigroup, desc) -> dict:
    """Every differential out of the summand desc, by name: its target
    summand, its sign and a function that builds its matrix.  The signs
    are those of the unit complex, and every selection uses them."""
    if desc[0] == "bi":
        _, m, n = desc
        return {"delta_h": (("bi", m + 1, n), (-1) ** n,
                            lambda: delta_h_matrix(G, m, n)),
                "delta_v": (("bi", m, n + 1), 1,
                            lambda: delta_v_matrix(G, m, n))}
    _, d = desc
    return {"phi": (("bi", 0, d), 1, lambda: phi_matrix(G, d)),
            "delta_pent": (("pent", d + 1), -1,
                           lambda: delta_pent_matrix(G, d))}


# the differential a selection imposes as a condition on its summands
_CONDITIONS = {"ass": "delta_h", "tens": "delta_v", "pent_restricted": "phi"}


def _summand_constraints(G: GraySemigroup, kind: str, desc) -> SparseMatrix:
    """Constraint matrix of one summand under selection kind."""
    cons = summand_space(G, desc).constraints
    condition = _CONDITIONS.get(kind)
    if condition is None:
        return cons
    _, _, build = _leaving(G, desc)[condition]
    return vstack(cons, build())


@per_structure
def _summand_kernel(G: GraySemigroup, kind: str, desc):
    """Kernel basis of one summand's constraints under selection kind;
    where kind adds no condition it is the summand space's own basis."""
    if kind in _CONDITIONS:
        return kernel_basis(_summand_constraints(G, kind, desc))
    return summand_space(G, desc).basis


@per_structure
def total_space(G: GraySemigroup, sel: ComplexSelection, q: int) -> TotalSpace:
    summands = _summands(sel.kind, q)
    offsets = []
    dim = 0
    for desc in summands:
        offsets.append(dim)
        dim += summand_space(G, desc).dim_free
    return TotalSpace(G, sel.kind, q, summands, offsets, dim)


@per_structure
def total_differential(G: GraySemigroup, sel: ComplexSelection,
                       q: int) -> SparseMatrix:
    """The differential from total degree q to q + 1: every differential
    of _leaving from a degree-q summand to a degree-(q + 1) summand, times
    its sign, placed at the offsets of its two summands.  Blocks out of
    different summands have disjoint columns and blocks into different
    summands disjoint rows, so no two blocks share an entry."""
    K = G.base.field
    src = total_space(G, sel, q)
    tgt = total_space(G, sel, q + 1)
    tgt_off = dict(zip(tgt.summands, tgt.offsets))
    rows = [{} for _ in range(tgt.dim_free)]
    for sdesc, col0 in zip(src.summands, src.offsets):
        for tdesc, sign, build in _leaving(G, sdesc).values():
            row0 = tgt_off.get(tdesc)
            if row0 is None:
                continue
            for i, row in enumerate(build().by_row):
                out = rows[row0 + i]
                for j, v in row.items():
                    out[col0 + j] = v if sign == 1 else K.neg(v)
    return from_rows(rows, src.dim_free, K)


def assemble_complex(G: GraySemigroup, sel: ComplexSelection):
    """Spaces for q = 1..qmax+1 and differential matrices for q = 1..qmax;
    consecutive products are checked to vanish on the constrained bases."""
    spaces = {q: total_space(G, sel, q) for q in range(1, sel.qmax + 2)}
    diffs = {q: total_differential(G, sel, q) for q in range(1, sel.qmax + 1)}
    for q in range(1, sel.qmax):
        images = diffs[q].mul_vectors(spaces[q].basis)
        if not all(v.is_zero() for v in diffs[q + 1].mul_vectors(images)):
            raise AssertionError(
                f"differential does not square to zero at degree {q}")
    return {"selection": sel, "spaces": spaces, "differentials": diffs}


def check_degree(sel: ComplexSelection, q: int):
    """Refuse a degree outside 1..sel.qmax with CapExceeded."""
    if q < 1 or q > sel.qmax:
        raise CapExceeded(f"degree {q} outside 1..{sel.qmax}")


def cohomology(G: GraySemigroup, sel: ComplexSelection, q: int):
    """dim H^q, representatives (free total coordinates) and the rank of
    the coboundaries in degree q."""
    check_degree(sel, q)
    sp_prev = total_space(G, sel, q - 1)
    sp_q = total_space(G, sel, q)
    D_q = total_differential(G, sel, q)
    cocycle = vstack(D_q, sp_q.constraints)
    im_cols = (total_differential(G, sel, q - 1).mul_vectors(sp_prev.basis)
               if sp_prev.dim_free else [])
    dim, reps, rank_prev = _cohomology_core(G.base.field, im_cols, cocycle)
    return {
        "selection": sel.kind,
        "degree": q,
        "dim_space": sp_q.dimension,
        "betti": dim,
        "rank_prev": rank_prev,
        "representatives": reps,
        "space": sp_q,
    }
