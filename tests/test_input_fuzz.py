"""Single-leaf mutations of an exported document (z2-fiber and z2-sign
over F_3), and two-leaf mutations of the z2-fiber one, never make a
command raise: each one is parsed, refused or validated and ends with an
exit code.  A coefficient that is not an element of F_3 is refused with
exit 2.  Mutations of a deformation or a witness document are refused by
the loader or checked to a report.

A leaf is a scalar of the JSON tree (or an empty list or object).  A
mutation deletes it, replaces it by one of REPLACEMENTS, or duplicates
it: next to itself in a list, or as a two-element list in an object.
"""

import copy
from datetime import timedelta

from hypothesis import given, settings, strategies as st

from graycohom import cli, schema as sc
from graycohom.defcomplex import ComplexSelection, total_space
from graycohom.deformations import (
    EquivalenceWitness,
    FirstOrderDeformation,
    check_equivalence,
    check_structural,
    witness_from_vector,
    zero_deformation,
)
from graycohom.twocat import ValidationReport

REPLACEMENTS = (0, 1, 2, 3, -1, 7, "i", "t", "x", None, 0.5, True, [], {})
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_PARSE, cli.EXIT_CAP}


def leaf_paths(x, path=()):
    """The key/index path of every leaf of x, in document order."""
    if not x or not isinstance(x, (dict, list)):
        yield path
        return
    for k, v in (x.items() if isinstance(x, dict) else enumerate(x)):
        yield from leaf_paths(v, path + (k,))


def mutate(doc, path, op, value=None):
    """A copy of doc with the leaf at path deleted, replaced by value or
    duplicated."""
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = doc
    for k in head:
        parent = parent[k]
    if op == "delete":
        del parent[last]
    elif op == "replace":
        parent[last] = value
    elif isinstance(parent, list):
        parent.insert(last, parent[last])
    else:
        parent[last] = [parent[last], parent[last]]
    return doc


def ends_with_an_exit_code(doc, max_degree=None):
    text = sc.dumps(doc)
    code, out = cli.run_validate(text)
    assert code in EXIT_CODES and isinstance(out, dict)
    code, out = cli.run_cohomology(text, "unit", None, max_degree)
    assert code in EXIT_CODES and isinstance(out, dict)


DOC = cli.run_export("z2-fiber", "p=3")[1]
PATHS = list(leaf_paths(DOC))
SIGN_DOC = cli.run_export("z2-sign", "p=3")[1]
SIGN_PATHS = list(leaf_paths(SIGN_DOC))
OPS = st.sampled_from(("delete", "replace", "duplicate"))


@settings(derandomize=True, max_examples=800, deadline=timedelta(seconds=5))
@given(leaf=st.integers(0, len(PATHS) - 1), op=OPS,
       value=st.sampled_from(REPLACEMENTS))
def test_single_leaf_mutation_ends_with_an_exit_code(leaf, op, value):
    ends_with_an_exit_code(mutate(DOC, PATHS[leaf], op, value))


@settings(derandomize=True, max_examples=150, deadline=timedelta(seconds=5))
@given(leaf=st.integers(0, len(SIGN_PATHS) - 1), op=OPS,
       value=st.sampled_from(REPLACEMENTS))
def test_z2_sign_leaf_mutation_ends_with_an_exit_code(leaf, op, value):
    """Degrees 1 and 2 only: degree 3 of z2-sign takes about a second."""
    ends_with_an_exit_code(mutate(SIGN_DOC, SIGN_PATHS[leaf], op, value),
                           max_degree=2)


@settings(derandomize=True, max_examples=200, deadline=timedelta(seconds=5))
@given(leaves=st.lists(st.integers(0, len(PATHS) - 1), min_size=2,
                       max_size=2, unique=True),
       ops=st.tuples(OPS, OPS),
       values=st.tuples(*[st.sampled_from(REPLACEMENTS)] * 2))
def test_two_leaf_mutation_ends_with_an_exit_code(leaves, ops, values):
    """The later leaf in document order is mutated first, which leaves
    the path of the earlier one as it was."""
    doc = DOC
    for leaf, op, value in sorted(zip(leaves, ops, values), reverse=True):
        doc = mutate(doc, PATHS[leaf], op, value)
    ends_with_an_exit_code(doc)


def coefficient_paths(doc):
    """The path of every scalar coefficient of a gray_semigroup document:
    identity 2-cells, the three structure-constant tables and the
    tensorator cells."""
    base = doc["base"]
    for n, (_f, cs) in enumerate(base["id2Coeffs"]):
        for m in range(len(cs)):
            yield ("base", "id2Coeffs", n, 1, m)
    for head, table in ((("base", "vcompConst"), base["vcompConst"]),
                        (("base", "hcompConst"), base["hcompConst"]),
                        (("tensor2Const",), doc["tensor2Const"])):
        for n, (_key, consts) in enumerate(table):
            for m, (_pair, vec) in enumerate(consts):
                for k in range(len(vec)):
                    yield head + (n, 1, m, 1, k, 1)
    for n, (_key, t) in enumerate(doc["tensorator"]):
        for m in range(len(t["coeffs"])):
            yield ("tensorator", n, 1, "coeffs", m)


def test_scalar_outside_the_prime_field_exits_2():
    """Every built-in export over F_2, F_3 and F_5 loads.  In the z2-fiber
    export over F_3, each coefficient replaced by a fraction, by p + 1 or
    by -1 is refused with exit 2, by validate and by cohomology, with the
    value named."""
    for name in cli.EXPORT_MODELS:
        for p in (2, 3, 5):
            sc.load_structure(sc.dumps(cli.run_export(name, f"p={p}")[1]))
    paths = list(coefficient_paths(DOC))
    assert len(paths) > 20
    for path in paths:
        for value in ("1/2", 4, -1):
            text = sc.dumps(mutate(DOC, path, "replace", value))
            for code, doc in (cli.run_validate(text),
                              cli.run_cohomology(text, "unit", None, None)):
                assert code == cli.EXIT_PARSE, (path, value)
                assert repr(value) in doc["error"], (path, value)


def test_true_in_place_of_an_integer_exits_2():
    """JSON true is not the integer 1, although Python's bool is an int.
    In place of any integer leaf (an identifier, a Hom2 dimension, a
    structure-constant index, a coefficient or the field's prime) it is
    refused with exit 2."""
    replaced = 0
    for path in PATHS:
        leaf = DOC
        for k in path:
            leaf = leaf[k]
        if type(leaf) is int:
            text = sc.dumps(mutate(DOC, path, "replace", True))
            code, doc = cli.run_validate(text)
            assert code == cli.EXIT_PARSE and "error" in doc, path
            replaced += 1
    assert replaced


# a classify --mode tens representative of z2-fiber over F_2 and the last
# basis witness of its unit complex in degree 1
FIBER2 = sc.load_structure(sc.dumps(cli.run_export("z2-fiber", "p=2")[1]))
DATA_DOCS = [
    cli.run_classify(sc.dumps(sc.gray_to_json(FIBER2)), "tens")[1][
        "representatives"][0],
    sc.witness_to_json(witness_from_vector(
        FIBER2, "unit",
        total_space(FIBER2, ComplexSelection("unit"), 1).basis[-1])),
]
DATA_PATHS = [(doc, path) for doc in DATA_DOCS for path in leaf_paths(doc)]


@settings(derandomize=True, max_examples=800,
          deadline=timedelta(seconds=5))
@given(leaf=st.integers(0, len(DATA_PATHS) - 1),
       op=st.sampled_from(("delete", "replace", "duplicate")),
       value=st.sampled_from(REPLACEMENTS))
def test_data_mutation_is_refused_or_checked(leaf, op, value):
    doc, path = DATA_PATHS[leaf]
    try:
        data = sc.load_structure(sc.dumps(mutate(doc, path, op, value)))
    except sc.SchemaError:
        return
    if isinstance(data, FirstOrderDeformation):
        rep = check_structural(FIBER2, data)
    else:
        assert isinstance(data, EquivalenceWitness)
        rep = check_equivalence(FIBER2, zero_deformation(),
                                zero_deformation(), data)
    assert isinstance(rep, ValidationReport)
