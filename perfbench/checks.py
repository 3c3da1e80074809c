"""Correctness checks of the benchmark's operations.

Each check returns a list of problems; an empty list means the output
passed.  The checks take their matrices and spaces from the program, but
the arithmetic that decides them is the benchmark's own: sparse products
below, and ranks from sympy's DomainMatrix (sympy is not a dependency of
graycohom).  Nothing is compared against a stored copy of earlier output.
"""

from __future__ import annotations

import json
from collections import defaultdict

from graycohom import schema as sc
from graycohom.defcomplex import (
    ComplexSelection,
    bicomplex_space,
    pent_space,
    total_differential,
    total_space,
)
from graycohom.deformations import extend_and_deform


# ----- arithmetic ---------------------------------------------------------


def modulus(K):
    """p for F_p, None for Q, read from the field's description."""
    return K.describe().get("prime")


def products(entries: dict, xs: list, p) -> list:
    """[M x for x in xs], M as sparse {(row, col): value} entries and each
    x as {index: value}, in one pass over M's entries and without a copy of
    M; zeros are dropped, values reduced mod p over F_p."""
    uses = defaultdict(list)      # col -> [(k, xs[k][col])]
    for k, x in enumerate(xs):
        for j, xj in x.items():
            uses[j].append((k, xj))
    accs = [defaultdict(int) for _ in xs]
    for (i, j), v in entries.items():
        for k, xj in uses.get(j, ()):
            accs[k][i] += v * xj
    if p is not None:
        return [{i: w % p for i, w in acc.items() if w % p} for acc in accs]
    return [{i: w for i, w in acc.items() if w} for acc in accs]


def rank(n_rows: int, n_cols: int, entries: dict, p) -> int:
    """Rank of {(row, col): value} by sympy's sparse DomainMatrix."""
    from sympy import GF, QQ
    from sympy.polys.matrices import DomainMatrix

    if not entries:
        return 0
    dom = GF(p) if p is not None else QQ
    rows: defaultdict = defaultdict(dict)
    for (i, j), v in entries.items():
        rows[i][j] = dom(v) if p is not None else QQ(v.numerator,
                                                     v.denominator)
    return DomainMatrix(dict(rows), (n_rows, n_cols), dom).rank()


def _column_entries(cols: list) -> dict:
    return {(i, j): v for j, col in enumerate(cols) for i, v in col.items()}


# ----- cohomology ---------------------------------------------------------


def decode_representative(G, sp, rep) -> dict:
    """Total free coordinates of one representative as the cohomology
    command encodes it: [summand, tuple, coefficients] triples."""
    offsets = dict(zip(sp.summands, sp.offsets))
    vec = {}
    for desc, tid, coeffs in rep:
        desc = tuple(desc)
        if desc[0] == "bi":
            pos = bicomplex_space(G, desc[1], desc[2]).pf.pos
        else:
            pos = pent_space(G, desc[1]).pos
        t = sc.decode_id(tid)
        for b, c in enumerate(coeffs):
            c = sc.decode_scalar(c)
            if c:
                vec[offsets[desc] + pos[(t, b)]] = c
    return vec


def d_squared_problems(D_q, D_next, basis, p, where) -> list:
    """D_next D_q b = 0 for every basis vector b of degree q."""
    images = products(D_q.entries, [b.entries for b in basis], p)
    for k, y in enumerate(products(D_next.entries, images, p)):
        if y:
            return [f"{where}: D_(q+1) D_q is nonzero on basis vector {k}"]
    return []


def cohomology_problems(G, kind: str, entry: dict) -> list:
    """One degree of a `cohomology` result against ranks recomputed by
    sympy, plus d^2 = 0 and the representatives' own properties."""
    q = entry["degree"]
    where = f"{kind} degree {q}"
    sel = ComplexSelection(kind)
    p = modulus(G.base.field)
    sp = total_space(G, sel, q)
    D = total_differential(G, sel, q)
    sp_prev = total_space(G, sel, q - 1)
    image = []
    if sp_prev.dim_free:
        image = products(total_differential(G, sel, q - 1).entries,
                         [b.entries for b in sp_prev.basis], p)
    # the cocycle conditions [D_q; constraints] as one block matrix
    cocycle = dict(D.entries)
    cocycle.update({(D.rows + i, j): v
                    for (i, j), v in sp.constraints.entries.items()})
    n_rows = D.rows + sp.constraints.rows
    rank_cocycle = rank(n_rows, sp.dim_free, cocycle, p)
    rank_image = rank(sp.dim_free, len(image), _column_entries(image), p)
    betti = sp.dim_free - rank_cocycle - rank_image
    problems = []
    if entry["betti"] != betti:
        problems.append(f"{where}: betti {entry['betti']}, recomputed "
                        f"{betti}")
    dim_space = sp.dim_free - rank(sp.constraints.rows, sp.dim_free,
                                   sp.constraints.entries, p)
    if entry["dim_space"] != dim_space:
        problems.append(f"{where}: dim_space {entry['dim_space']}, "
                        f"recomputed {dim_space}")
    reps = [decode_representative(G, sp, r)
            for r in entry["representatives"]]
    if len(reps) != betti:
        problems.append(f"{where}: {len(reps)} representatives for betti "
                        f"{betti}")
    for k, (v, y) in enumerate(zip(reps, products(cocycle, reps, p))):
        if not v or y:
            problems.append(f"{where}: representative {k} is not a nonzero "
                            f"cocycle")
    if reps and rank(sp.dim_free, len(image) + len(reps),
                     _column_entries(image + reps), p) \
            != rank_image + len(reps):
        problems.append(f"{where}: representatives are dependent modulo "
                        f"coboundaries")
    if q < sel.qmax:
        problems += d_squared_problems(
            D, total_differential(G, sel, q + 1), sp.basis, p, where)
    return problems


# ----- identities ---------------------------------------------------------


def assemble_problems(assembled: dict, p, where: str) -> list:
    """d^2 = 0 on the constrained bases of an assembled complex."""
    diffs, spaces = assembled["differentials"], assembled["spaces"]
    problems = []
    for q in range(1, assembled["selection"].qmax):
        problems += d_squared_problems(diffs[q], diffs[q + 1],
                                       spaces[q].basis, p,
                                       f"{where} degree {q}")
    return problems


def _random_vector(n: int, p, rng) -> dict:
    """Every entry nonzero, so that a product wrong in a single entry
    always shows."""
    top = p if p is not None else 2 ** 20
    return {j: rng.randrange(1, top) for j in range(n)}


def square_problems(hv, vh, dh_next, dv, dv_next, dh, p, rng,
                    where) -> list:
    """delta_h delta_v = delta_v delta_h entry by entry, and the common
    product agrees on a random vector drawn from rng with applying the
    factors of either side one after the other."""
    if hv.entries != vh.entries:
        keys = sorted(set(hv.entries) | set(vh.entries))
        bad = next(k for k in keys if hv.entries.get(k) != vh.entries.get(k))
        return [f"{where}: delta_h delta_v != delta_v delta_h at {bad}"]
    x = _random_vector(dv.cols, p, rng)
    [y] = products(hv.entries, [x], p)
    problems = []
    for first, second, name in ((dv, dh_next, "delta_h delta_v"),
                                (dh, dv_next, "delta_v delta_h")):
        if [y] != products(second.entries,
                           products(first.entries, [x], p), p):
            problems.append(f"{where}: {name} is not the product of its "
                            f"factors")
    return problems


# ----- classify and oracle ------------------------------------------------


def classify_problems(G, text: str) -> list:
    """A `classify` result: class count, and every representative re-read
    from the JSON, extended over K[eps]/(eps^2) and validated without
    linearising."""
    doc = json.loads(text)
    p = modulus(G.base.field)
    problems = []
    if doc["class_count"] != p ** doc["betti"]:
        problems.append(f"class_count {doc['class_count']} is not "
                        f"{p}^{doc['betti']}")
    if len(doc["representatives"]) != doc["betti"]:
        problems.append(f"{len(doc['representatives'])} representatives "
                        f"for betti {doc['betti']}")
    for k, rep in enumerate(doc["representatives"]):
        d = sc.deformation_from_json(rep)
        try:
            report = extend_and_deform(G, d).validate()
        except ValueError as e:
            problems.append(f"representative {k} does not extend: {e}")
            continue
        if not report.ok:
            problems.append(f"representative {k} fails validation: "
                            f"{report.violations[:3]}")
    return problems


def oracle_problems(text: str, classify_text: str) -> list:
    """An `oracle` result: verdict, and its brute-force count against the
    class count `classify` gave for the same model and mode."""
    doc = json.loads(text)
    problems = []
    if doc["verdict"] != "AGREE":
        problems.append(f"verdict {doc['verdict']}")
    count = json.loads(classify_text)["class_count"]
    if doc["brute_force_count"] != count:
        problems.append(f"brute_force_count {doc['brute_force_count']}, "
                        f"classify class_count {count}")
    return problems
