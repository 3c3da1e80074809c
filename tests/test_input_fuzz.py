"""Single-leaf mutations of an exported document never make a command
raise: each one is parsed, refused or validated and ends with an exit
code.  Those of a deformation or a witness document are refused by the
loader or checked to a report.

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


DOC = cli.run_export("z2-fiber", "p=3")[1]
PATHS = list(leaf_paths(DOC))


@settings(derandomize=True, max_examples=800, deadline=timedelta(seconds=5))
@given(leaf=st.integers(0, len(PATHS) - 1),
       op=st.sampled_from(("delete", "replace", "duplicate")),
       value=st.sampled_from(REPLACEMENTS))
def test_single_leaf_mutation_ends_with_an_exit_code(leaf, op, value):
    text = sc.dumps(mutate(DOC, PATHS[leaf], op, value))
    code, doc = cli.run_validate(text)
    assert code in EXIT_CODES and isinstance(doc, dict)
    code, doc = cli.run_cohomology(text, "unit", None, None)
    assert code in EXIT_CODES and isinstance(doc, dict)


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
