"""CLI logic: exit codes, document shapes, determinism, and the
end-to-end click wiring."""

import json

import pytest
from click.testing import CliRunner

from graycohom import cli, schema as sc
from graycohom.defcomplex import (
    ComplexSelection,
    bicomplex_space,
    cohomology,
    pent_space,
    total_space,
)
from graycohom.deformations import check_structural
from graycohom.exactlinalg import GF, QQ, normalize_leading


@pytest.fixture(scope="module")
def fiber2_text():
    code, doc = cli.run_export("z2-fiber", "p=2")
    assert code == cli.EXIT_OK
    return sc.dumps(doc)


@pytest.fixture(scope="module")
def sign3_text():
    code, doc = cli.run_export("z2-sign", "p=3")
    assert code == cli.EXIT_OK
    return sc.dumps(doc)


def test_parse_field():
    assert cli.parse_field("q") is QQ
    assert cli.parse_field("p=5") == GF(5)
    for bad in ("p=6", "gf2", "p=x"):
        with pytest.raises(sc.SchemaError):
            cli.parse_field(bad)


def test_export_then_validate_round_trip(fiber2_text, sign3_text):
    for text in (fiber2_text, sign3_text):
        code, doc = cli.run_validate(text)
        assert code == cli.EXIT_OK
        assert doc["ok"] is True


def test_validate_reports_corruption_with_exit_1(sign3_text):
    doc = sc.loads(sign3_text)
    # zero out one tensorator entry
    entry = doc["tensorator"][0]
    entry[1]["coeffs"] = [0 for _ in entry[1]["coeffs"]]
    code, out = cli.run_validate(sc.dumps(doc))
    assert code == cli.EXIT_VALIDATION
    assert out["ok"] is False
    assert any(name == "tensorator-invertible"
               for name, _ in out["violations"])


def test_validate_malformed_input_exits_2():
    code, out = cli.run_validate("{oops")
    assert code == cli.EXIT_PARSE and "error" in out
    code, out = cli.run_validate(
        sc.dumps({"schema": sc.SCHEMA, "type": "deformation",
                  "families": []}))
    assert code == cli.EXIT_PARSE
    # a Hom2 dimension raised above its identity coefficients, structure
    # constants indexing past their input or output Hom2 spaces, a
    # tensorator entry longer than its Hom2 space, unknown references and
    # missing entries
    def export():
        return cli.run_export("z2-fiber", "p=3")[1]

    def first_consts(doc, table):
        owner = doc if table == "tensor2Const" else doc["base"]
        return owner[table][0][1]

    bads = [export(), export()]
    bads[0]["base"]["hom2Dim"][0][1] = 2
    bads[1]["tensorator"][0][1]["coeffs"].append(0)
    for table in ("vcompConst", "hcompConst", "tensor2Const"):
        doc = export()          # an input index pair out of range
        consts = first_consts(doc, table)
        consts[0][0] = [consts[0][0][0] + 1, consts[0][0][1]]
        bads.append(doc)
        doc = export()          # an output index out of range
        first_consts(doc, table)[0][1][0][0] += 1
        bads.append(doc)
    # a reference to an unknown object or 1-cell, and a missing entry
    refs = [export() for _ in range(6)]
    refs[0]["base"]["cellSrc"][0][1] = ["i", 7]
    refs[1]["base"]["cellTgt"][0][1] = ["i", 7]
    refs[2]["tensorObjects"][0][1] = ["i", 7]
    refs[3]["base"]["identityCell"][0][1] = ["t", ["i", 0], ["i", 7]]
    del refs[4]["tensorator"][0]
    del refs[5]["base"]["id2Coeffs"][0]
    bads += refs
    # a 1-cell with only one endpoint, listed in oneCells under the wrong
    # objects or not at all, an identity 1-cell for an unknown object,
    # and a composable pair with no composite
    one_sided = [export() for _ in range(2)]
    one_sided[0]["base"]["cellTgt"][0][0] = ["t", ["i", 0], ["i", 7]]
    one_sided[1]["base"]["cellSrc"][0][0] = ["t", ["i", 0], ["i", 7]]
    listed = [export() for _ in range(3)]
    listed[0]["base"]["oneCells"][0][0][0] = ["i", 1]
    listed[1]["base"]["oneCells"][0][1][0] = ["t", ["i", 0], ["i", 1]]
    del listed[2]["base"]["oneCells"][0][1][0]
    unknown_identity = export()
    unknown_identity["base"]["identityCell"][0][0] = ["i", 1]
    bads += one_sided + listed + [unknown_identity]
    for model in ("z2-fiber", "z2-sign"):
        n = len(cli.run_export(model, "p=3")[1]["base"]["compose1"])
        for i in range(n):
            doc = cli.run_export(model, "p=3")[1]
            del doc["base"]["compose1"][i]
            bads.append(doc)
    for bad in bads:
        text = sc.dumps(bad)
        code, out = cli.run_validate(text)
        assert code == cli.EXIT_PARSE and "error" in out
        code, out = cli.run_cohomology(text, "unit", None, None)
        assert code == cli.EXIT_PARSE and "error" in out


def test_cohomology_document_shape(fiber2_text):
    code, doc = cli.run_cohomology(fiber2_text, "tens", None, 2)
    assert code == cli.EXIT_OK
    assert doc["selection"] == "tens"
    assert [r["degree"] for r in doc["results"]] == [1, 2]
    for r in doc["results"]:
        assert r["dim_kernel"] == r["betti"] + r["rank_prev"]
        assert len(r["representatives"]) == r["betti"]


def _decode_representative(G, sp, rep) -> dict:
    """Total free coordinates of one encoded representative, read back
    through the summand offsets and the per-summand coordinate index."""
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


def test_cohomology_representatives_decode_to_normalized_cocycles():
    sel = ComplexSelection("unit")
    decoded = 0
    for model, field_text in (("z2-fiber", "q"), ("z2-sign", "p=3")):
        _, doc = cli.run_export(model, field_text)
        text = sc.dumps(doc)
        code, out = cli.run_cohomology(text, "unit", None, 2)
        assert code == cli.EXIT_OK
        assert [r["degree"] for r in out["results"]] == [1, 2]
        G = sc.load_structure(text)
        K = G.base.field
        for r in out["results"]:
            q = r["degree"]
            sp = total_space(G, sel, q)
            got = [_decode_representative(G, sp, rep)
                   for rep in r["representatives"]]
            # triples come in coordinate order: summands, then tuples
            assert all(list(vec) == sorted(vec) for vec in got)
            want = [normalize_leading(K, v).entries
                    for v in cohomology(G, sel, q)["representatives"]]
            assert got == want, (model, field_text, q)
            decoded += len(got)
    assert decoded == 2


def test_cohomology_cap_exits_3(fiber2_text):
    code, doc = cli.run_cohomology(fiber2_text, "tens", 9, None)
    assert code == cli.EXIT_CAP and "error" in doc


def test_max_degree_above_the_cap_exits_3_before_any_degree(
        sign3_text, monkeypatch):
    """--max-degree above the cap is refused with exit 3 and the message
    of the first degree past the cap, before any degree is computed."""
    computed = []
    monkeypatch.setattr(cli.defcomplex, "cohomology",
                        lambda G, sel, q: computed.append(q))
    code, doc = cli.run_cohomology(sign3_text, "unit", None, 9)
    assert (code, doc) == (cli.EXIT_CAP, {"error": "degree 4 outside 1..3"})
    assert computed == []


@pytest.mark.parametrize("degree, max_degree, named", [
    (None, 0, "--max-degree"),
    (None, -1, "--max-degree"),
    (0, None, "--degree"),
    (2, 1, "--max-degree"),
])
def test_cohomology_malformed_degrees_exit_2(fiber2_text, degree,
                                             max_degree, named):
    """A degree below 1, or --degree with --max-degree, is malformed
    input: exit 2 with a message naming the argument, before any work."""
    code, doc = cli.run_cohomology(fiber2_text, "unit", degree, max_degree)
    assert code == cli.EXIT_PARSE
    assert named in doc["error"]


def test_cohomology_over_rationals():
    code, doc = cli.run_export("z2-sign", "q")
    assert code == cli.EXIT_OK
    code, doc = cli.run_cohomology(sc.dumps(doc), "pent_general", 2, None)
    assert code == cli.EXIT_OK
    assert doc["field"] == {"rational": True}


def test_classify_emits_verified_round_trippable_representatives(
        fiber2_text):
    code, doc = cli.run_classify(fiber2_text, "tens")
    assert code == cli.EXIT_OK
    assert doc["class_count"] == 2 ** doc["betti"] == 2
    G = sc.load_structure(fiber2_text)
    assert len(doc["representatives"]) == doc["betti"]
    for rep_doc in doc["representatives"]:
        d = sc.deformation_from_json(rep_doc)
        assert check_structural(G, d).ok


def test_classify_class_count_is_none_over_rationals():
    _, doc = cli.run_export("z2-fiber", "q")
    code, out = cli.run_classify(sc.dumps(doc), "tens")
    assert code == cli.EXIT_OK
    assert out["class_count"] is None


def test_oracle_agrees(fiber2_text):
    code, doc = cli.run_oracle(fiber2_text, "tens")
    assert code == cli.EXIT_OK
    assert doc["verdict"] == "AGREE"
    assert doc["linear_count"] == doc["brute_force_count"]


def test_oracle_disagreement_exits_1(fiber2_text, monkeypatch):
    real = cli.defcomplex.cohomology

    def wrong(G, sel, q):
        out = dict(real(G, sel, q))
        out["betti"] = out["betti"] + 1
        return out

    monkeypatch.setattr(cli.defcomplex, "cohomology", wrong)
    code, doc = cli.run_oracle(fiber2_text, "tens")
    assert code == cli.EXIT_VALIDATION
    assert doc["verdict"] == "DISAGREE"


def test_oracle_guards(fiber2_text):
    code, doc = cli.run_oracle(fiber2_text, "tens", bound=1)
    assert code == cli.EXIT_CAP
    _, qdoc = cli.run_export("z2-fiber", "q")
    code, doc = cli.run_oracle(sc.dumps(qdoc), "tens")
    assert code == cli.EXIT_PARSE


def test_oracle_past_the_bound_exits_3_before_the_cohomology(
        fiber2_text, monkeypatch):
    """A candidate space past the enumeration bound is refused with exit
    3 and the enumeration's message, before the cohomology is computed."""
    computed = []
    monkeypatch.setattr(cli.defcomplex, "cohomology",
                        lambda G, sel, q: computed.append(q))
    code, doc = cli.run_oracle(fiber2_text, "tens", bound=1)
    assert (code, doc) == (cli.EXIT_CAP, {
        "error": "2^2 candidates exceed the enumeration bound 1; "
                 "use a smaller model or raise the bound"})
    assert computed == []


@pytest.mark.parametrize("bound", [0, -5])
def test_oracle_bound_below_1_exits_2(fiber2_text, bound):
    """An enumeration bound below 1 admits no candidate: it is malformed
    input, refused with exit 2 before the structure is read."""
    want = {"error": f"--enum-bound must be at least 1, got {bound}"}
    assert cli.run_oracle(fiber2_text, "tens", bound) == (cli.EXIT_PARSE,
                                                          want)
    res = CliRunner().invoke(cli.main, ["oracle", "-", "--enum-bound",
                                        str(bound)], input=fiber2_text)
    assert res.exit_code == cli.EXIT_PARSE
    assert json.loads(res.output) == want


def test_commands_free_their_structure(fiber2_text):
    """A command's Gray semigroup is freed when the command returns, not
    at some later full garbage collection: with the collector off, no
    structure is left alive after each command."""
    import gc

    from graycohom.gray import GraySemigroup

    def alive():
        return sum(isinstance(o, GraySemigroup) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = alive()
        for mode in ("unit", "pent"):
            for run, args in (
                    (cli.run_cohomology, (cli._MODE_TO_KIND[mode], None, 2)),
                    (cli.run_classify, (mode,)),
                    (cli.run_oracle, (mode,))):
                code, _doc = run(fiber2_text, *args)
                assert code == cli.EXIT_OK
                assert alive() == before, (run.__name__, mode)
        for code, _doc in (cli.run_validate(fiber2_text),
                           cli.run_export("z2-fiber", "p=2")):
            assert code == cli.EXIT_OK
            assert alive() == before
    finally:
        gc.enable()


def test_export_unknown_field_exits_2():
    code, doc = cli.run_export("z2-base", "p=9")
    assert code == cli.EXIT_PARSE


def test_output_is_deterministic(fiber2_text):
    a = cli.run_cohomology(fiber2_text, "tens_ass", None, 2)
    b = cli.run_cohomology(fiber2_text, "tens_ass", None, 2)
    assert json.dumps(a[1], sort_keys=True) == json.dumps(b[1], sort_keys=True)
    assert cli.run_export("z2-sign", "p=3") == cli.run_export("z2-sign", "p=3")


def test_click_end_to_end(tmp_path):
    runner = CliRunner()
    out_file = tmp_path / "g.json"
    res = runner.invoke(cli.main, ["export", "z2-fiber", "--field", "p=2",
                                   "--out", str(out_file)])
    assert res.exit_code == 0
    res = runner.invoke(cli.main, ["validate", str(out_file)])
    assert res.exit_code == 0
    assert json.loads(res.output)["ok"] is True
    res = runner.invoke(cli.main, ["cohomology", str(out_file),
                                   "--complex", "tens", "--degree", "2"])
    assert res.exit_code == 0
    res = runner.invoke(cli.main, ["classify", str(out_file),
                                   "--mode", "tens"])
    assert res.exit_code == 0
    res = runner.invoke(cli.main, ["oracle", str(out_file), "--mode", "tens"])
    assert res.exit_code == 0
    assert json.loads(res.output)["verdict"] == "AGREE"
    res = runner.invoke(cli.main, ["validate", str(tmp_path / "missing.json")])
    assert res.exit_code == 2


@pytest.mark.parametrize("command", ["validate", "cohomology", "classify",
                                     "oracle"])
def test_input_that_is_not_utf8_exits_2(tmp_path, command):
    """A file whose bytes are not UTF-8 ends every command that reads one
    with exit 2 and a JSON error naming the file, also with --out."""
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00")
    runner = CliRunner()
    res = runner.invoke(cli.main, [command, str(bad)])
    assert res.exit_code == cli.EXIT_PARSE, res.output
    assert isinstance(res.exception, SystemExit)
    assert json.loads(res.output)["error"].startswith(f"{bad} is not UTF-8")
    out = tmp_path / "out.json"
    res = runner.invoke(cli.main, [command, str(bad), "--out", str(out)])
    assert res.exit_code == cli.EXIT_PARSE
    assert "is not UTF-8" in json.loads(out.read_text())["error"]


def test_scaled_tensorator_entry_exits_1(sign3_text):
    """Scaling any one tensorator coefficient of z2-sign/F_3 by 2 is a
    validation failure for validate and cohomology alike: exit 1 with
    named violations, never a raise.  For the 16 entries outside the
    cubical identities the C^2 pseudofunctor axioms fail, and validation
    stops before the three-variable tensor is built."""
    doc = sc.loads(sign3_text)
    hexagonal = 0
    for i in range(len(doc["tensorator"])):
        bad = sc.loads(sign3_text)
        coeffs = bad["tensorator"][i][1]["coeffs"]
        coeffs[0] = coeffs[0] * 2 % 3
        text = sc.dumps(bad)
        for code, out in (cli.run_validate(text),
                          cli.run_cohomology(text, "unit", None, None)):
            assert code == cli.EXIT_VALIDATION, i
            assert out["violations"], i
        names = {name for name, _ in out["violations"]}
        hexagonal += "hexagonal-axiom" in names
    assert hexagonal == 16


def test_vertical_unit_that_is_not_a_unit_exits_1():
    """A vcompConst entry that makes the identity 2-cell of a 1-cell act
    as 2 sets the two recursions of the two-variable tensor apart.  That
    is the violation tensor-power-recursions, exit 1, not a raise."""
    bad = cli.run_export("z2-fiber", "p=3")[1]
    bad["base"]["vcompConst"][0][1][0][1][0][1] = 2
    text = sc.dumps(bad)
    for code, out in (cli.run_validate(text),
                      cli.run_cohomology(text, "unit", None, None)):
        assert code == cli.EXIT_VALIDATION
        assert [name for name, _ in out["violations"]] == [
            "tensor-power-recursions"]


def test_values_with_wrong_endpoints_end_with_an_exit_code(sign3_text):
    """A tensor1 value whose endpoints are not the tensors of its pair's
    endpoints is the violation tensor1-endpoints, exit 1, found before
    the tensorator table composes with it.  A compose1 value that is not
    a 1-cell from the source of the pair's first to the target of its
    second is refused by the schema, exit 2, in a gray_semigroup base and
    in a two_category document alike."""
    wrong = ["t", ["i", 1], ["i", 0]]
    bad = sc.loads(sign3_text)
    assert bad["tensor1"][0][1] != wrong
    bad["tensor1"][0][1] = wrong
    text = sc.dumps(bad)
    for code, out in (cli.run_validate(text),
                      cli.run_cohomology(text, "unit", None, None)):
        assert code == cli.EXIT_VALIDATION
        assert "tensor1-endpoints" in {name for name, _ in out["violations"]}
    bad = sc.loads(sign3_text)
    bad["base"]["compose1"][0][1] = wrong
    two = sc.two_category_to_json(sc.load_structure(sign3_text).base)
    two["compose1"][0][1] = wrong
    for doc in (bad, two):
        code, out = cli.run_validate(sc.dumps(doc))
        assert code == cli.EXIT_PARSE and "compose1" in out["error"]
