"""Canonical JSON schema for the structures in this package.

One on-disk format, versioned with a ``schema`` field ("graycohom/1"),
shared by the example generators, hand-written fixtures, and the CLI.
Serialization is deterministic: dictionary keys are emitted as sorted
pair lists and ``dumps`` sorts object keys.

Identifiers (objects, 1-cells) may be ints, strings, or nested tuples of
those; they are encoded as tagged lists (["i", n] / ["s", s] /
["t", ...]) so round-tripping is exact.  Scalars are JSON ints for
integral values and "a/b" strings for non-integral rationals; a scalar of
a structure over F_p is an int in 0..p-1, and any other is refused.
"""

from __future__ import annotations

import json
from dataclasses import fields
from fractions import Fraction

from .deformations import EquivalenceWitness, FirstOrderDeformation
from .exactlinalg import GF, QQ, Field, PrimeField
from .gray import GraySemigroup
from .twocat import TwoCategory, TwoMorphism

SCHEMA = "graycohom/1"


class SchemaError(Exception):
    """Raised when a document does not parse against the schema."""


# ----- identifiers ------------------------------------------------------


def encode_id(x):
    if isinstance(x, bool):
        raise SchemaError(f"unsupported identifier {x!r}")
    if isinstance(x, int):
        return ["i", x]
    if isinstance(x, str):
        return ["s", x]
    if isinstance(x, tuple):
        return ["t"] + [encode_id(y) for y in x]
    raise SchemaError(f"unsupported identifier {x!r}")


def _is_int(x) -> bool:
    """x is a JSON integer: bool is a subclass of int, but true is not 1."""
    return isinstance(x, int) and not isinstance(x, bool)


def decode_id(j):
    if not isinstance(j, list) or not j or j[0] not in ("i", "s", "t"):
        raise SchemaError(f"malformed identifier {j!r}")
    tag = j[0]
    if tag == "i":
        if len(j) != 2 or not _is_int(j[1]):
            raise SchemaError(f"malformed identifier {j!r}")
        return j[1]
    if tag == "s":
        if len(j) != 2 or not isinstance(j[1], str):
            raise SchemaError(f"malformed identifier {j!r}")
        return j[1]
    return tuple(decode_id(y) for y in j[1:])


# ----- scalars and fields -----------------------------------------------


def encode_scalar(x):
    if isinstance(x, bool):
        raise SchemaError(f"unsupported scalar {x!r}")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    raise SchemaError(f"unsupported scalar {x!r}")


def decode_scalar(j, field_: Field | None = None):
    """An int, or a fraction string unless field_ is F_p.  Given a field,
    the scalar must be one of its elements: over F_p an int in 0..p-1.
    Deformations and witnesses carry no field; deformations.data_shapes
    checks their scalars against the structure."""
    if isinstance(j, bool):
        raise SchemaError(f"malformed scalar {j!r}")
    if isinstance(j, int):
        x = j
    elif isinstance(j, str) and not isinstance(field_, PrimeField):
        try:
            q = Fraction(j)
        except (ValueError, ZeroDivisionError) as e:
            raise SchemaError(f"malformed scalar {j!r}") from e
        x = q.numerator if q.denominator == 1 else q
    else:
        raise SchemaError(f"malformed scalar {j!r}")
    if field_ is not None and not field_.contains(x):
        raise SchemaError(f"scalar {j!r} is not an element of {field_}")
    return x


def encode_field(K: Field):
    return K.describe()


def decode_field(j) -> Field:
    if isinstance(j, dict) and j.get("rational") is True:
        return QQ
    if isinstance(j, dict) and isinstance(j.get("prime"), int):
        try:
            return GF(j["prime"])
        except ValueError as e:
            raise SchemaError(str(e)) from e
    raise SchemaError(f"malformed field descriptor {j!r}")


# ----- helpers for tuple-keyed tables -----------------------------------


def _sorted_pairs(d: dict, enc_key, enc_val):
    pairs = [[enc_key(k), enc_val(v)] for k, v in d.items()]
    pairs.sort(key=lambda kv: json.dumps(kv[0]))
    return pairs


def _decode_pairs(j, dec_key, dec_val) -> dict:
    if not isinstance(j, list):
        raise SchemaError(f"expected pair list, got {j!r}")
    out = {}
    for item in j:
        if not isinstance(item, list) or len(item) != 2:
            raise SchemaError(f"malformed pair {item!r}")
        out[dec_key(item[0])] = dec_val(item[1])
    return out


def _enc_consts(consts: dict):
    """{(i, j): {k: scalar}} as nested sparse pair lists."""
    return _sorted_pairs(
        consts,
        lambda ij: [ij[0], ij[1]],
        lambda vec: _sorted_pairs(vec, lambda k: k, encode_scalar))


def _dec_consts(j, field_: Field):
    def dec_ij(k):
        if not (isinstance(k, list) and len(k) == 2
                and all(_is_int(x) for x in k)):
            raise SchemaError(f"malformed index pair {k!r}")
        return (k[0], k[1])

    def dec_vec(v):
        def dec_k(k):
            if not _is_int(k):
                raise SchemaError(f"malformed basis index {k!r}")
            return k
        return _decode_pairs(v, dec_k, lambda c: decode_scalar(c, field_))

    return _decode_pairs(j, dec_ij, dec_vec)


def encode_two_morphism(t: TwoMorphism):
    return {"src": encode_id(t.src), "tgt": encode_id(t.tgt),
            "coeffs": [encode_scalar(c) for c in t.coeffs]}


def decode_two_morphism(j, field_: Field | None = None) -> TwoMorphism:
    if not (isinstance(j, dict) and "src" in j and "tgt" in j
            and isinstance(j.get("coeffs"), list)):
        raise SchemaError(f"malformed 2-morphism {j!r}")
    return TwoMorphism(decode_id(j["src"]), decode_id(j["tgt"]),
                       tuple(decode_scalar(c, field_) for c in j["coeffs"]))


# ----- 2-category -------------------------------------------------------


def _id_tuple(xs):
    return [encode_id(x) for x in xs]


def _dec_id_tuple(j, n=None):
    if not isinstance(j, list) or (n is not None and len(j) != n):
        raise SchemaError(f"malformed identifier tuple {j!r}")
    return tuple(decode_id(x) for x in j)


def two_category_to_json(C: TwoCategory) -> dict:
    return {
        "schema": SCHEMA,
        "type": "two_category",
        "field": encode_field(C.field),
        "objects": _id_tuple(C.objects),
        "oneCells": _sorted_pairs(C.one_cells, _id_tuple, _id_tuple),
        "cellSrc": _sorted_pairs(C.cell_src, encode_id, encode_id),
        "cellTgt": _sorted_pairs(C.cell_tgt, encode_id, encode_id),
        "identityCell": _sorted_pairs(C.identity_cell, encode_id, encode_id),
        "compose1": _sorted_pairs(C.compose1, _id_tuple, encode_id),
        "hom2Dim": _sorted_pairs(C.hom2_dim, _id_tuple, lambda n: n),
        "id2Coeffs": _sorted_pairs(
            C.id2_coeffs, encode_id,
            lambda cs: [encode_scalar(c) for c in cs]),
        "vcompConst": _sorted_pairs(C.vcomp_const, _id_tuple, _enc_consts),
        "hcompConst": _sorted_pairs(C.hcomp_const, _id_tuple, _enc_consts),
    }


def _require(doc, typ):
    if not isinstance(doc, dict):
        raise SchemaError("document is not a JSON object")
    if doc.get("schema") != SCHEMA:
        raise SchemaError(f"unsupported schema {doc.get('schema')!r}")
    if doc.get("type") != typ:
        raise SchemaError(f"expected type {typ!r}, got {doc.get('type')!r}")


def _check_consts(name, key, consts, dims, dim_out):
    """Every index pair of a structure-constant table is below the two
    input dimensions dims, and every output index below dim_out.  dim_out
    is None when the output Hom2 space is unknown because a composite is
    missing, which validation reports."""
    for pair, vec in consts.items():
        if not all(0 <= x < d for x, d in zip(pair, dims)):
            raise SchemaError(f"{name} of {key!r} has index pair {pair}"
                              f" outside dimensions {dims}")
        if dim_out is not None:
            for k in vec:
                if not 0 <= k < dim_out:
                    raise SchemaError(f"{name} of {key!r} has output index "
                                      f"{k} outside dimension {dim_out}")


def _check_known(name, table, known):
    """Every value of table names a member of known: an object or a
    1-cell the document declares."""
    for key, x in table.items():
        if x not in known:
            raise SchemaError(f"{name} of {key!r} names unknown {x!r}")


def _check_references(objects, one_cells, cell_src, cell_tgt,
                      identity_cell, id2_coeffs, compose1):
    """Every endpoint names a declared object, every 1-cell has both
    endpoints and is listed once in oneCells under them, every object has
    an identity 1-cell from itself to itself, every 1-cell has identity
    coefficients, and every composable pair a composite, a declared
    1-cell from the source of its first to the target of its second."""
    objects = set(objects)
    _check_known("cellSrc", cell_src, objects)
    _check_known("cellTgt", cell_tgt, objects)
    for name, table, other in (("cellTgt", cell_tgt, cell_src),
                               ("cellSrc", cell_src, cell_tgt)):
        for f in other:
            if f not in table:
                raise SchemaError(f"{name} has no entry for {f!r}")
    listed = set()
    for (X, Y), cells in one_cells.items():
        for f in cells:
            if (cell_src.get(f), cell_tgt.get(f)) != (X, Y) or f in listed:
                raise SchemaError(f"oneCells lists {f!r} under {(X, Y)!r}")
            listed.add(f)
    for f in cell_src:
        if f not in listed:
            raise SchemaError(f"oneCells does not list {f!r}")
    if set(identity_cell) != objects:
        raise SchemaError("identityCell does not name one 1-cell per object")
    for X, e in identity_cell.items():
        if (cell_src.get(e), cell_tgt.get(e)) != (X, X):
            raise SchemaError(f"identityCell of {X!r} names {e!r}, which is"
                              f" not a 1-cell {X!r} -> {X!r}")
    for f in cell_src:
        if f not in id2_coeffs:
            raise SchemaError(f"id2Coeffs has no entry for {f!r}")
    for g, src_g in cell_src.items():
        for f, tgt_f in cell_tgt.items():
            if tgt_f == src_g and (g, f) not in compose1:
                raise SchemaError(f"compose1 has no entry for {(g, f)!r}")
    for (g, f), gf in compose1.items():
        ends = (cell_src.get(f), cell_tgt.get(g))
        if gf not in cell_src or (cell_src[gf], cell_tgt[gf]) != ends:
            raise SchemaError(f"compose1 of {(g, f)!r} names {gf!r}, which "
                              f"is not a 1-cell {ends[0]!r} -> {ends[1]!r}")


def _check_hom2_shapes(hom2_dim, id2_coeffs, compose1, vcomp_const,
                       hcomp_const):
    """Every identity 2-cell has hom2Dim(f, f) coefficients, and every
    structure-constant index fits its Hom2 spaces.  An index pair (j, i)
    is below the dimensions of (f1, f2) and (f, f1) for vcomp, of (g, g2)
    and (f, f2) for hcomp; an output index below that of (f, f2) for
    vcomp, of (g o f, g2 o f2) for hcomp."""
    def dim(f, f2):
        return hom2_dim.get((f, f2), 0)

    for f, cs in id2_coeffs.items():
        if len(cs) != dim(f, f):
            raise SchemaError(f"id2Coeffs of {f!r} has {len(cs)} entries, "
                              f"hom2Dim gives {dim(f, f)}")
    for (f, f1, f2), consts in vcomp_const.items():
        _check_consts("vcompConst", (f, f1, f2), consts,
                      (dim(f1, f2), dim(f, f1)), dim(f, f2))
    for (g, g2, f, f2), consts in hcomp_const.items():
        gf, g2f2 = compose1.get((g, f)), compose1.get((g2, f2))
        _check_consts("hcompConst", (g, g2, f, f2), consts,
                      (dim(g, g2), dim(f, f2)),
                      None if gf is None or g2f2 is None else dim(gf, g2f2))


def _two_category_from_body(doc) -> TwoCategory:
    try:
        field_ = decode_field(doc["field"])
        objects = _dec_id_tuple(doc["objects"])
        one_cells = _decode_pairs(doc["oneCells"],
                                  lambda k: _dec_id_tuple(k, 2),
                                  _dec_id_tuple)
        cell_src = _decode_pairs(doc["cellSrc"], decode_id, decode_id)
        cell_tgt = _decode_pairs(doc["cellTgt"], decode_id, decode_id)
        identity_cell = _decode_pairs(doc["identityCell"],
                                      decode_id, decode_id)
        compose1 = _decode_pairs(doc["compose1"],
                                 lambda k: _dec_id_tuple(k, 2), decode_id)

        def dec_dim(n):
            if not _is_int(n) or n < 0:
                raise SchemaError(f"malformed dimension {n!r}")
            return n

        hom2_dim = _decode_pairs(doc["hom2Dim"],
                                 lambda k: _dec_id_tuple(k, 2), dec_dim)
        id2_coeffs = _decode_pairs(
            doc["id2Coeffs"], decode_id,
            lambda cs: tuple(decode_scalar(c, field_) for c in cs))
        vcomp_const = _decode_pairs(doc["vcompConst"],
                                    lambda k: _dec_id_tuple(k, 3),
                                    lambda c: _dec_consts(c, field_))
        hcomp_const = _decode_pairs(doc["hcompConst"],
                                    lambda k: _dec_id_tuple(k, 4),
                                    lambda c: _dec_consts(c, field_))
    except KeyError as e:
        raise SchemaError(f"missing key {e}") from e
    _check_references(objects, one_cells, cell_src, cell_tgt, identity_cell,
                      id2_coeffs, compose1)
    _check_hom2_shapes(hom2_dim, id2_coeffs, compose1, vcomp_const,
                       hcomp_const)
    return TwoCategory(field_, objects, one_cells, cell_src, cell_tgt,
                       identity_cell, compose1, hom2_dim, id2_coeffs,
                       vcomp_const, hcomp_const)


def two_category_from_json(doc) -> TwoCategory:
    _require(doc, "two_category")
    return _two_category_from_body(doc)


# ----- Gray semigroup ---------------------------------------------------


def gray_to_json(G: GraySemigroup) -> dict:
    base = two_category_to_json(G.base)
    base.pop("schema")
    base.pop("type")
    return {
        "schema": SCHEMA,
        "type": "gray_semigroup",
        "base": base,
        "tensorObjects": _sorted_pairs(G.tensor_obj, _id_tuple, encode_id),
        "tensor1": _sorted_pairs(G.tensor1, _id_tuple, encode_id),
        "tensor2Const": _sorted_pairs(G.tensor2_const, _id_tuple,
                                      _enc_consts),
        "tensorator": _sorted_pairs(G.tensorator_table, _id_tuple,
                                    encode_two_morphism),
    }


def gray_from_json(doc) -> GraySemigroup:
    _require(doc, "gray_semigroup")
    try:
        base = _two_category_from_body(doc["base"])
        tensor_obj = _decode_pairs(doc["tensorObjects"],
                                   lambda k: _dec_id_tuple(k, 2), decode_id)
        tensor1 = _decode_pairs(doc["tensor1"],
                                lambda k: _dec_id_tuple(k, 2), decode_id)
        tensor2_const = _decode_pairs(doc["tensor2Const"],
                                      lambda k: _dec_id_tuple(k, 4),
                                      lambda c: _dec_consts(c, base.field))
        tensorator = _decode_pairs(
            doc["tensorator"], lambda k: _dec_id_tuple(k, 4),
            lambda t: decode_two_morphism(t, base.field))
    except KeyError as e:
        raise SchemaError(f"missing key {e}") from e
    _check_known("tensorObjects", tensor_obj, set(base.objects))
    _check_tensor_shapes(base, tensor1, tensor2_const, tensorator)
    return GraySemigroup(base, tensor_obj, tensor1, tensor2_const,
                         tensorator)


def _check_tensor_shapes(base: TwoCategory, tensor1, tensor2_const,
                         tensorator):
    """Every tensor2Const index fits its Hom2 spaces: an index pair (i, j)
    below the dimensions of (f, f2) and (g, g2), an output index below
    that of (f (x) g, f2 (x) g2).  The tensorator has an entry for every
    two composable pairs, with as many coefficients as the Hom2 space
    between its endpoints."""
    dim = base.dim2
    for (f, f2, g, g2), consts in tensor2_const.items():
        fg, f2g2 = tensor1.get((f, g)), tensor1.get((f2, g2))
        _check_consts("tensor2Const", (f, f2, g, g2), consts,
                      (dim(f, f2), dim(g, g2)),
                      None if fg is None or f2g2 is None else dim(fg, f2g2))
    for fp, f in base.compose1:
        for gp, g in base.compose1:
            if (fp, gp, f, g) not in tensorator:
                raise SchemaError(f"tensorator has no entry for "
                                  f"{(fp, gp, f, g)!r}")
    for key, t in tensorator.items():
        if len(t.coeffs) != dim(t.src, t.tgt):
            raise SchemaError(f"tensorator of {key!r} has {len(t.coeffs)} "
                              f"coefficients, hom2Dim gives "
                              f"{dim(t.src, t.tgt)}")


# ----- deformations and witnesses ---------------------------------------


def _data_to_json(typ: str, data) -> dict:
    families = {fld.name: _sorted_pairs(getattr(data, fld.name), encode_id,
                                        encode_two_morphism)
                for fld in fields(data)}
    return {"schema": SCHEMA, "type": typ, "families": families}


def _data_from_json(doc, typ: str, cls):
    _require(doc, typ)
    fams = doc.get("families")
    if not isinstance(fams, dict):
        raise SchemaError(f"missing {typ} families")
    return cls(**{fld.name: _decode_pairs(fams.get(fld.name, []), decode_id,
                                          decode_two_morphism)
                  for fld in fields(cls)})


def deformation_to_json(d: FirstOrderDeformation) -> dict:
    return _data_to_json("deformation", d)


def deformation_from_json(doc) -> FirstOrderDeformation:
    return _data_from_json(doc, "deformation", FirstOrderDeformation)


def witness_to_json(w: EquivalenceWitness) -> dict:
    return _data_to_json("witness", w)


def witness_from_json(doc) -> EquivalenceWitness:
    return _data_from_json(doc, "witness", EquivalenceWitness)


# ----- entry points -----------------------------------------------------


def dumps(doc: dict) -> str:
    """Deterministic serialization (sorted keys, no trailing whitespace)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ": "),
                      indent=1)


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"malformed JSON at line {e.lineno}, "
                          f"column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise SchemaError("top-level JSON value must be an object")
    if doc.get("schema") != SCHEMA:
        raise SchemaError(f"unsupported schema {doc.get('schema')!r}")
    return doc


def load_structure(text: str):
    """Parse a document and build the structure it describes."""
    doc = loads(text)
    typ = doc.get("type")
    if typ == "two_category":
        return two_category_from_json(doc)
    if typ == "gray_semigroup":
        return gray_from_json(doc)
    if typ == "deformation":
        return deformation_from_json(doc)
    if typ == "witness":
        return witness_from_json(doc)
    raise SchemaError(f"unknown document type {typ!r}")
