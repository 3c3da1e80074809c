"""The benchmark's checks refuse corrupted results.

    python3 -m pytest -q perfbench/test_checks.py

Each test takes a real result of the program on a small built-in model,
confirms the check accepts it, corrupts it in one place and confirms the
check refuses it.  The last test shows that an operation that raises or
exits with a wrong code fails without any check of its output.
"""

import copy
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from graycohom import cli, schema as sc  # noqa: E402
from graycohom.defcomplex import (  # noqa: E402
    ComplexSelection,
    total_differential,
    total_space,
)

import checks  # noqa: E402
from workloads import (  # noqa: E402
    Run,
    export,
    square_factors,
    square_products,
)


def _cohomology(model, field):
    text = export(model, field)
    code, doc = cli.run_cohomology(text, "unit", None, None)
    assert code == cli.EXIT_OK
    return sc.load_structure(text), json.loads(json.dumps(doc))


def test_betti_off_by_one_is_refused():
    G, doc = _cohomology("z2-fiber", "p=2")
    for entry in doc["results"]:
        assert checks.cohomology_problems(G, "unit", entry) == []
        for delta in (1, -1):
            bad = dict(entry, betti=entry["betti"] + delta)
            assert any("betti" in p
                       for p in checks.cohomology_problems(G, "unit", bad))


def test_changed_representative_coefficient_is_refused():
    G, doc = _cohomology("z2-fiber", "p=2")
    entry = doc["results"][2]
    assert entry["representatives"]
    bad = copy.deepcopy(entry)
    coeffs = bad["representatives"][0][0][2]
    coeffs[0] = (coeffs[0] + 1) % 2
    problems = checks.cohomology_problems(G, "unit", bad)
    assert any("representative" in p for p in problems), problems


def test_changed_classify_representative_is_refused():
    text = export("z2-fiber", "p=2")
    G = sc.load_structure(text)
    code, doc = cli.run_classify(text, "unit")
    assert code == cli.EXIT_OK and doc["representatives"]
    good = json.dumps(doc)
    assert checks.classify_problems(G, good) == []
    family = next(v for v in doc["representatives"][0]["families"].values()
                  if v)
    coeffs = family[0][1]["coeffs"]
    coeffs[0] = (coeffs[0] + 1) % 2
    assert checks.classify_problems(G, json.dumps(doc))


def test_changed_brute_force_count_is_refused():
    text = export("z2-base", "p=2")
    _, classified = cli.run_classify(text, "pent")
    code, oracle = cli.run_oracle(text, "pent")
    assert code == cli.EXIT_OK
    assert checks.oracle_problems(json.dumps(oracle),
                                  json.dumps(classified)) == []
    for delta in (1, -1):
        bad = dict(oracle, brute_force_count=oracle["brute_force_count"]
                   + delta)
        assert checks.oracle_problems(json.dumps(bad),
                                      json.dumps(classified))


def _changed(M, key):
    """A copy of M with the entry at key raised by one."""
    out = copy.copy(M)
    out.entries = dict(M.entries)
    out.set(*key, M.field.add(M.entries.get(key, 0), 1))
    return out


def test_changed_delta_entry_is_refused():
    G = sc.load_structure(export("z2-sign", "p=3"))
    m, n = 1, 0
    hv, vh = square_products(G, m, n)
    dh_next, dv, dv_next, dh = square_factors(G, m, n)

    def problems(hv, vh):
        return checks.square_problems(hv, vh, dh_next, dv, dv_next, dh, 3,
                                      random.Random(1), "square")

    assert problems(hv, vh) == []
    key = min(dv.entries)
    # a changed factor: its product no longer commutes
    bad_dv = _changed(dv, key)
    assert problems(dh_next.mul_matrix(bad_dv), vh)
    # a changed product on both sides: no longer the product of its factors
    key = min(hv.entries)
    assert problems(_changed(hv, key), _changed(vh, key))
    # a changed differential: D_(q+1) D_q no longer vanishes
    sel = ComplexSelection("tens_ass")
    D1, D2 = total_differential(G, sel, 1), total_differential(G, sel, 2)
    basis = total_space(G, sel, 1).basis
    assert checks.d_squared_problems(D1, D2, basis, 3, "d2") == []
    # an entry whose row D2 reads and whose column some basis vector uses
    rows_read = {j for (i, j) in D2.entries}
    cols_used = {j for b in basis for j in b.entries}
    key = (min(rows_read), min(cols_used))
    assert checks.d_squared_problems(_changed(D1, key), D2, basis, 3, "d2")


def test_raise_and_wrong_exit_code_fail_the_operation():
    # an oracle that disagrees exits 1 without a failed check of its output
    run = Run(None, random.Random(1))
    run.begin_round()
    assert run.command("ok", lambda: (cli.EXIT_OK, {})) == "{}"
    assert run.command("disagree", lambda: (cli.EXIT_VALIDATION,
                                            {"verdict": "DISAGREE"})) is None
    assert run.op("raise", lambda: 1 // 0) is None
    assert (run.attempted, run.failed) == (3, 2)
