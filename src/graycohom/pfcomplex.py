"""The purely pseudofunctorial deformation complex X^n(F).

A degree-n cochain assigns to every composable tuple (f_0, ..., f_{n-1}) a
2-morphism F(f_0) o ... o F(f_{n-1}) => F(f_0 o ... o f_{n-1}), natural in
every argument.  The differential inserts an identity factor on the left
and on the right and merges each adjacent pair, with canonical paddings
supplied by gray.pad.  Cohomology in degree 2 classifies first-order
unitary deformations of the coherence data of F.

place lays out every cochain space of the package, in its slots table,
and the Assembler builds every naturality system and differential.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .exactlinalg import (
    Echelon,
    SparseMatrix,
    Vector,
    from_rows,
    kernel_basis,
    solve_in_span,
    vec_combine,
    vstack,
)
from .gray import PaddedStep, pad
from .twocat import Pseudofunctor, TwoMorphism, ValidationReport

DEFAULT_DEGREE_CAP = 4


class CapExceeded(Exception):
    """A requested degree is above the configured cap."""


def composable_tuples(C, n):
    """All length-n composable tuples of 1-cells (diagram order: the target
    of f_{i+1} is the source of f_i), lexicographically sorted."""
    cells = sorted(C.cell_src)
    if n == 0:
        return []
    into = {}  # object -> sorted 1-cells with that target
    for f in cells:
        into.setdefault(C.cell_tgt[f], []).append(f)
    tuples = [(f,) for f in cells]
    for _ in range(n - 1):
        tuples = [t + (f,) for t in tuples
                  for f in into.get(C.cell_src[t[-1]], ())]
    return tuples


@dataclass
class Layout:
    """The coordinate layout of a cochain space, filled by place.  slots,
    the one layout table, maps each tuple, in coordinate order, to (first
    coordinate, fiber dimension, src, tgt)."""

    slots: dict = field(default_factory=dict, kw_only=True)
    dim_free: int = field(default=0, kw_only=True)

    @cached_property
    def pos(self) -> dict:
        """(tuple, basis index) -> coordinate, derived on first read."""
        return {(t, b): first + b
                for t, (first, d, _, _) in self.slots.items()
                for b in range(d)}


@dataclass
class CochainSpace(Layout):
    """Free coordinates over (tuple, basis index) pairs together with the
    naturality constraint matrix cutting out the cochain space.  In slots,
    src is F(f_0) o ... o F(f_k) and tgt is F(f_0 o ... o f_k)."""

    F: Pseudofunctor
    degree: int

    @property
    def dimension(self):
        return len(self.basis)

    @cached_property
    def constraints(self) -> SparseMatrix:
        """Per-slot naturality system; computed on first use."""
        return naturality_matrix(self)

    @cached_property
    def basis(self) -> list:
        """Kernel basis of the naturality system; computed on first use."""
        return kernel_basis(self.constraints)

    def value(self, vec: Vector, t) -> TwoMorphism:
        """The 2-morphism a coordinate vector assigns to tuple t."""
        return fiber_value(self.F.cod.field, self.slots[t], vec)


def place(space: Layout, t, src, tgt, d: int):
    """Give tuple t the next d coordinates of space, for its fiber
    Hom2(src, tgt) of dimension d.  This is the one coordinate layout of
    every cochain space: the fiber of a tuple is one run of consecutive
    coordinates, recorded in space.slots."""
    space.slots[t] = (space.dim_free, d, src, tgt)
    space.dim_free += d


def fiber_value(K, slot, vec: Vector, offset: int = 0) -> TwoMorphism:
    """The 2-morphism vec assigns to the fiber slot (first, dim, src, tgt)
    of a layout whose coordinate 0 is coordinate offset of vec."""
    first, d, src, tgt = slot
    get, zero = vec.entries.get, K.zero()
    start = offset + first
    return TwoMorphism(src, tgt,
                       tuple([get(i, zero) for i in range(start, start + d)]))


def nonidentity_basis(C, f):
    """(tau, target) pairs over all non-identity basis 2-cells out of f."""
    return [(tau, f2) for f2 in C.parallel_targets(f)
            for tau in (C.basis2(f, f2, i) for i in range(C.dim2(f, f2)))
            if f2 != f or not C.eq2(tau, C.id2(f))]


def naturality_matrix(space: CochainSpace) -> SparseMatrix:
    """The naturality system of space, built by an Assembler.

    For a tuple t, a slot j and a non-identity basis 2-cell tau: f_j => f'
    it reads F(1_L o tau o 1_R) . x(t) = x(t2) . (1_FL o F(tau) o 1_FR):
    L and R compose the letters left and right of slot j, FL and FR their
    F-images, and t2 is t with f' in slot j.  Each condition owns one
    block of rows, Hom2(src(t), tgt(t2)), and adds the key ("dom", tau,
    L, R, src(t), tgt(t)) at the fiber of t and ("cod", tau, FL, FR,
    src(t2), tgt(t2)) at the fiber of t2.  tau is named by (f_j, its place
    in nonidentity_basis), and L, R, FL and FR are tuples of at most one
    1-cell.  Rows left with no entry are dropped."""
    F = space.F
    C, D = F.dom, F.cod
    taus = {f: nonidentity_basis(C, f) for f in C.cell_src}

    def make(key):
        side, (f, i), left, right, src, tgt = key
        tau = taus[f][i][0]
        if side == "dom":
            w = F.map2(C.hcomp_many([*map(C.id2, left), tau,
                                     *map(C.id2, right)]))
            return term_operator(D, src, tgt, 1, lambda x: D.vcomp(w, x))
        w = D.hcomp_many([*map(D.id2, left), F.map2(tau),
                          *map(D.id2, right)])
        return term_operator(D, src, tgt, -1, lambda x: D.vcomp(x, w))

    def side(A, letters):
        return (A.compose_many(letters),) if letters else ()

    terms = []
    row0 = 0
    for t, (first, _, src, tgt) in space.slots.items():
        for j, f in enumerate(t):
            if not taus[f]:
                continue
            images = [F.cell_map[g] for g in t]
            dom = (side(C, t[:j]), side(C, t[j + 1:]), src, tgt)
            cod = (side(D, images[:j]), side(D, images[j + 1:]))
            for i, (_, f2) in enumerate(taus[f]):
                first2, _, src2, tgt2 = space.slots[t[:j] + (f2,) + t[j + 1:]]
                terms.append((("dom", (f, i)) + dom, row0, first))
                terms.append((("cod", (f, i)) + cod + (src2, tgt2), row0,
                              first2))
                row0 += D.dim2(src, tgt2)
    asm = Assembler(row0, space.dim_free, D.field, make)
    for term in terms:
        asm.add(*term)
    return from_rows([row for row in asm.matrix().by_row if row],
                     space.dim_free, D.field)


def _composites(F: Pseudofunctor, t, suffixes: dict):
    """(F(t_0) o ... o F(t_k), t_0 o ... o t_k), composed as compose_many
    does (t_0 o (t_1 o ...)), reusing the composites of the suffix t[1:],
    which are kept in suffixes."""
    f = t[0]
    if len(t) == 1:
        return F.cell_map[f], f
    rest = suffixes.get(t[1:])
    if rest is None:
        rest = suffixes[t[1:]] = _composites(F, t[1:], suffixes)
    return F.cod.compose(F.cell_map[f], rest[0]), F.dom.compose(f, rest[1])


def pf_cochain_basis(F: Pseudofunctor, n: int,
                     cap: int = DEFAULT_DEGREE_CAP) -> CochainSpace:
    """Basis of X^n(F): kernel of the per-slot naturality system over the
    free coefficient space indexed by (composable tuple, fiber basis)."""
    if n > cap:
        raise CapExceeded(f"degree {n} exceeds cap {cap}")
    C, D = F.dom, F.cod
    space = CochainSpace(F, n)
    suffixes: dict = {}
    for t in composable_tuples(C, n) if n >= 1 else []:
        src, comp = _composites(F, t, suffixes)
        tgt = F.cell_map[comp]
        place(space, t, src, tgt, D.dim2(src, tgt))
    return space


# ----- differential -----------------------------------------------------


def _delta_terms(C, t):
    """The (input tuple, src_blocks, whisker) data of the differential at an
    output tuple t of length n+1.  whisker is 'left', 'right' or None."""
    n1 = len(t)
    terms = []
    terms.append((1, t[1:], (1,) * n1, (1, n1 - 1), "left"))
    for i in range(1, n1):
        merged = t[:i - 1] + (C.compose(t[i - 1], t[i]),) + t[i + 1:]
        blocks = (1,) * (i - 1) + (2,) + (1,) * (n1 - i - 1)
        terms.append(((-1) ** i, merged, blocks, (n1,), None))
    terms.append(((-1) ** n1, t[:-1], (1,) * n1, (n1 - 1, 1), "right"))
    return terms


def term_operator(D, src, tgt, sign, post):
    """Matrix of x -> sign * post(x) on Hom2(src, tgt), as its nonzero
    entries (k, b, value): coefficient k of the image of basis 2-cell b."""
    K = D.field
    s = K.from_int(sign)
    entries = []
    for b in range(D.dim2(src, tgt)):
        out = post(D.basis2(src, tgt, b))
        entries.extend((k, b, K.mul(s, v)) for k, v in enumerate(out.coeffs)
                       if not K.is_zero(v))
    return tuple(entries)


class Assembler:
    """A matrix, assembled as a sum of terms.

    Every differential here is an alternating sum of whiskered terms
    x -> sign * post(x), each from the fiber of an input tuple to the
    fiber of an output tuple, and so is every naturality condition (see
    naturality_matrix), whose rows are one block per condition.  A
    builder enumerates the terms and adds each one by a key at (row0,
    col0): the first row of its output fiber or block and the first
    coordinate of its input fiber.  The key determines the term's
    operator: its sign, its post and its fiber Hom2(src, tgt), but not
    the tuples it sits at.  So the operator of a key is computed once, by
    make(key) (usually through term_operator), and reused by every term
    with that key.  make must be a function of the key alone.  A builder
    that puts a 2-cell into its keys puts in a number or name given to
    each distinct value (src, tgt, coefficients), so equal keys give
    equal operators; delta_pf_matrix
    and delta_v_matrix number their tuples' 1-cells too, so the per-term
    lookups hash tuples of small ints.  total_differential adds whole
    blocks, one term per block.

    An operator is a sequence of entries (k, b, v): v is coefficient k of
    the image of input basis element b, and lands at row row0 + k and
    column col0 + b.  The sum is kept as one dict col -> value per row,
    which matrix() hands over as the rows of the result."""

    def __init__(self, rows: int, cols: int, K, make):
        self.cols, self.field = cols, K
        self.make = make
        self.ops: dict = {}
        self.acc = [{} for _ in range(rows)]

    def add(self, key, row0: int, col0: int):
        """Add the operator of key at (row0, col0)."""
        op = self.ops.get(key)
        if op is None:
            op = self.ops[key] = self.make(key)
        acc, add = self.acc, self.field.add
        for k, b, v in op:
            row = acc[row0 + k]
            j = col0 + b
            cur = row.get(j)
            row[j] = v if cur is None else add(cur, v)

    def matrix(self) -> SparseMatrix:
        """The sum of the terms added, with entries that cancel dropped
        row by row."""
        # a cancelled entry is 0 in Q and in F_p
        return from_rows([row if all(row.values())
                          else {j: v for j, v in row.items() if v}
                          for row in self.acc], self.cols, self.field)


def delta_pf_matrix(F: Pseudofunctor, space_n: CochainSpace,
                    space_n1: CochainSpace) -> SparseMatrix:
    """Matrix of the differential X^n -> X^{n+1} on free coordinates.

    The three padded terms are evaluated through their closed forms (one
    Fhat whiskering per term).  delta_pf_padded computes the same matrix
    through gray.pad instead, as an independent oracle; the two agree
    (tested).

    Each term at an output tuple t is x -> sign * post(x) on the fiber
    Hom2(src, tgt) of its input tuple t_in, where post whiskers by an
    identity 2-cell and composes with a bridge built from an Fhat cell.
    Its Assembler key holds the term's position j (which fixes the sign),
    the whisker data, the number of the Fhat cell and (src, tgt):

    * drop the first letter: F(f_0) and the cell Fhat(f_0, rest);
      post(x) = Fhat(f_0, rest) . (1_{F(f_0)} o x);
    * merge letters i-1, i: the F-images of the other letters and the cell
      Fhat(f_{i-1}, f_i); post(x) = x . (1 o ... o Fhat(f_{i-1}, f_i) o
      ... o 1);
    * drop the last letter: F(f_last) and the cell Fhat(front, f_last);
      post(x) = Fhat(front, f_last) . (x o 1_{F(f_last)})."""
    C, D = F.dom, F.cod
    K = D.field
    if space_n.degree < 1:
        return SparseMatrix(space_n1.dim_free, space_n.dim_free, K)
    n1 = space_n.degree + 1
    lid = {f: i for i, f in enumerate(C.cell_src)}
    image = [F.cell_map[f] for f in C.cell_src]
    comp = {(lid[g], lid[f]): lid[gf] for (g, f), gf in C.compose1.items()}
    numbers: dict = {}  # Fhat cell -> its number
    fhat = {(lid[g], lid[f]): numbers.setdefault(cell, len(numbers))
            for (g, f), cell in F.fhat.items()}
    cells = list(numbers)
    slots_in = {tuple([lid[f] for f in t]): (first, src, tgt)
                for t, (first, d, src, tgt) in space_n.slots.items() if d}

    def make(key):
        j, whisker, v, src, tgt = key
        cell, sign = cells[v], (-1) ** j
        if j == 0:
            head = D.id2(whisker)
            return term_operator(D, src, tgt, sign, lambda val: D.vcomp(
                cell, D.hcomp(head, val)))
        if j == n1:
            tail = D.id2(whisker)
            return term_operator(D, src, tgt, sign, lambda val: D.vcomp(
                cell, D.hcomp(val, tail)))
        left, right = whisker
        bridge = D.hcomp_many([D.id2(x) for x in left] + [cell]
                              + [D.id2(x) for x in right])
        return term_operator(D, src, tgt, sign,
                             lambda val: D.vcomp(val, bridge))

    asm = Assembler(space_n1.dim_free, space_n.dim_free, K, make)
    for t, slot in space_n1.slots.items():
        row0 = slot[0]
        ids = tuple([lid[f] for f in t])
        images = [image[a] for a in ids]
        # drop the first letter: Fhat(f_0, rest) . (1 o value)
        rest = ids[-1]
        for a in ids[-2:0:-1]:
            rest = comp[(a, rest)]
        terms = [(ids[1:], 0, images[0], fhat[(ids[0], rest)])]
        # merge letters i-1 and i: value . whiskered Fhat(f_{i-1}, f_i)
        for i in range(1, n1):
            pair = (ids[i - 1], ids[i])
            terms.append((ids[:i - 1] + (comp[pair],) + ids[i + 1:], i,
                          (tuple(images[:i - 1]), tuple(images[i + 1:])),
                          fhat[pair]))
        # drop the last letter: Fhat(front, f_last) . (value o 1)
        front = ids[-2]
        for a in ids[-3::-1]:
            front = comp[(a, front)]
        terms.append((ids[:-1], n1, images[-1], fhat[(front, ids[-1])]))
        for t_in, j, whisker, v in terms:
            s = slots_in.get(t_in)
            if s is not None:
                col0, src, tgt = s
                asm.add((j, whisker, v, src, tgt), row0, col0)
    return asm.matrix()


def delta_pf_padded(F: Pseudofunctor, space_n: CochainSpace,
                    space_n1: CochainSpace) -> SparseMatrix:
    """The matrix of delta_pf_matrix, with every term padded through
    gray.pad one basis 2-cell at a time and nothing reused: the
    independent oracle for the closed form."""
    C, D = F.dom, F.cod
    K = D.field
    M = SparseMatrix(space_n1.dim_free, space_n.dim_free, K)
    if space_n.degree < 1:
        return M
    for t, (row0, _, _, _) in space_n1.slots.items():
        for sign, t_in, src_blocks, tgt_blocks, whisker in _delta_terms(C, t):
            slot = space_n.slots.get(t_in)
            if slot is None or not slot[1]:
                continue
            col0, d, src, tgt = slot
            s = K.one() if sign == 1 else K.from_int(sign)
            for b in range(d):
                val = TwoMorphism(src, tgt, tuple(
                    K.one() if i == b else K.zero() for i in range(d)))
                if whisker == "left":
                    tm = D.hcomp(D.id2(F.cell_map[t[0]]), val)
                elif whisker == "right":
                    tm = D.hcomp(val, D.id2(F.cell_map[t[-1]]))
                else:
                    tm = val
                out = pad(F, t, [PaddedStep(tm, src_blocks, tgt_blocks)])
                for k, v in enumerate(out.coeffs):
                    if not K.is_zero(v):
                        M.add_to(row0 + k, col0 + b, K.mul(s, v))
    return M


@dataclass
class PFCochain:
    space: CochainSpace
    vector: Vector


def delta_pf(F: Pseudofunctor, phi: PFCochain,
             cap: int = DEFAULT_DEGREE_CAP) -> PFCochain:
    """The differential applied to a single cochain; output naturality is
    checked against the degree-(n+1) constraint system."""
    space_n = phi.space
    space_n1 = pf_cochain_basis(F, space_n.degree + 1, cap)
    M = delta_pf_matrix(F, space_n, space_n1)
    out = M.mul_vector(phi.vector)
    residue = space_n1.constraints.mul_vector(out)
    if not residue.is_zero():
        raise AssertionError("differential output violates naturality")
    return PFCochain(space_n1, out)


# ----- cohomology -------------------------------------------------------


def _cohomology_core(field_, delta_prev_cols, cocycle_matrix):
    """dim, representatives and rank_prev (the rank of the coboundaries)
    for ker(cocycle_matrix) / span(delta_prev_cols).

    Each kernel vector, in order, is a representative when it is not in
    the span of the coboundaries and the representatives before it."""
    Z = kernel_basis(cocycle_matrix)
    span = Echelon(field_, [dict(v.entries) for v in delta_prev_cols])
    rank_prev = len(span.rows)
    dim = len(Z) - rank_prev
    reps = []
    for z in Z:
        if len(reps) == dim:
            break
        if span.add(dict(z.entries)) is not None:
            reps.append(z)
    if len(reps) != dim:
        raise AssertionError(
            f"{len(reps)} representatives for dimension {dim}")
    return dim, reps, rank_prev


def pf_cohomology(F: Pseudofunctor, n: int, cap: int = DEFAULT_DEGREE_CAP):
    """dim H^n(F) and representative cocycles (free-coordinate vectors)."""
    space_prev = pf_cochain_basis(F, n - 1, cap)
    space_n = pf_cochain_basis(F, n, cap)
    space_next = pf_cochain_basis(F, n + 1, cap)
    D_n = delta_pf_matrix(F, space_n, space_next)
    D_prev = delta_pf_matrix(F, space_prev, space_n)
    cocycle = vstack(D_n, space_n.constraints)
    im_cols = D_prev.mul_vectors(space_prev.basis)
    dim, reps, _ = _cohomology_core(F.cod.field, im_cols, cocycle)
    return {
        "dimension": dim,
        "representatives": reps,
        "space": space_n,
        "delta_n": D_n,
        "delta_prev": D_prev,
    }


# ----- unitary lemma and classification ---------------------------------


def check_unitary_lemma(F: Pseudofunctor, candidate=None) -> ValidationReport:
    """(i) Fhat(id_X, id_X) = 1 for unitary F; (ii) a first-order candidate
    (fhat1, f01) must satisfy f01(X) = fhat1(id_X, id_X)."""
    rep = ValidationReport()
    C, D = F.dom, F.cod
    for X in C.objects:
        e = C.identity_cell[X]
        t = F.fhat[(e, e)]
        if not D.eq2(t, D.id2(t.src)):
            rep.add("unit-coherence", X)
    if candidate is not None:
        fhat1, f01 = candidate
        for X in C.objects:
            e = C.identity_cell[X]
            if not D.eq2(f01[X], fhat1[(e, e)]):
                rep.add("first-order-unit-determination", X)
    return rep


class PFClassification:
    """Degree-2 classification bundle: wrap cocycles as first-order
    deformations of the coherence data and test equivalence by solving for
    a degree-1 gauge cochain."""

    def __init__(self, F: Pseudofunctor, cap: int = DEFAULT_DEGREE_CAP):
        self.F = F
        self.space1 = pf_cochain_basis(F, 1, cap)
        self.space2 = pf_cochain_basis(F, 2, cap)
        self.space3 = pf_cochain_basis(F, 3, cap)
        self.delta1 = delta_pf_matrix(F, self.space1, self.space2)
        self.delta2 = delta_pf_matrix(F, self.space2, self.space3)

    def deform(self, cocycle: Vector):
        """(fhat1 table, f01 table) for a 2-cocycle; rejects non-cocycles
        naming a violated hexagon instance."""
        out = self.delta2.mul_vector(cocycle)
        if not out.is_zero():
            bad_row = min(out.entries)
            t = next(t for t, (first, d, _, _) in self.space3.slots.items()
                     if bad_row < first + d)
            raise ValueError(f"not a cocycle: hexagon instance {t} violated")
        residue = self.space2.constraints.mul_vector(cocycle)
        if not residue.is_zero():
            raise ValueError("not a cocycle: naturality violated")
        fhat1 = {}
        for t in self.space2.slots:
            fhat1[(t[0], t[1])] = self.space2.value(cocycle, t)
        C = self.F.dom
        f01 = {X: fhat1[(C.identity_cell[X], C.identity_cell[X])]
               for X in C.objects}
        return fhat1, f01

    def equivalent(self, c1: Vector, c2: Vector):
        """Degree-1 witness xi with delta(xi) = c1 - c2 in the naturality
        subspace of degree 1, or None."""
        K = self.F.cod.field
        diff = vec_combine(K, [c1, c2], [K.one(), K.neg(K.one())], c1.length)
        return solve_in_span(self.delta1, self.space1.basis, diff)
