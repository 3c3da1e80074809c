"""Command-line interface.

Subcommands: validate, cohomology, classify, oracle, export.  All output
is a single deterministic JSON document on stdout (or --out).  Exit
codes: 0 success, 1 validation failure (including an oracle DISAGREE),
2 parse failure, 3 resource cap or enumeration bound exceeded.

The run_* functions hold the logic and return (exit_code, document);
the click wrappers only do I/O, so everything is unit-testable without a
subprocess.
"""

from __future__ import annotations

import json
import sys

import click

from . import defcomplex, schema as sc
from .deformations import (
    DEFAULT_ENUM_BOUND,
    EnumerationBoundExceeded,
    brute_force_classes,
    candidate_degree,
    check_structural,
    deformation_from_vector,
)
from .defcomplex import (
    CapExceeded,
    ComplexSelection,
    SELECTION_KINDS,
    total_space,
)
from .examples import (
    GroupModelSpec,
    cyclic_group,
    group_model,
    sign_bicharacter,
    trivial_bicharacter,
    trivial_group,
)
from .exactlinalg import (
    GF,
    PrimeField,
    QQ,
    Vector,
    normalize_leading,
)
from .gray import GraySemigroup, validate_gray
from .twocat import TwoCategory, validate_two_category

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_CAP = 3

CLASSIFY_MODES = ("unit", "tens_ass", "ass", "tens", "pent")

_MODE_TO_KIND = {
    "unit": "unit",
    "tens_ass": "tens_ass",
    "ass": "ass",
    "tens": "tens",
    "pent": "pent_restricted",
}


def parse_field(text: str):
    """--field value: 'q' for the rationals, 'p=<prime>' for a prime field."""
    if text == "q":
        return QQ
    if text.startswith("p="):
        try:
            return GF(int(text[2:]))
        except ValueError as e:
            raise sc.SchemaError(f"bad field {text!r}: {e}") from e
    raise sc.SchemaError(f"bad field {text!r} (expected 'q' or 'p=<prime>')")


def _report_doc(rep) -> dict:
    return {
        "ok": rep.ok,
        "violations": [[name, str(key)] for name, key in rep.violations],
        "structural_errors": list(rep.structural_errors),
    }


def _load_gray(text: str) -> GraySemigroup:
    obj = sc.load_structure(text)
    if not isinstance(obj, GraySemigroup):
        raise sc.SchemaError(
            f"expected a gray_semigroup document, got {type(obj).__name__}")
    return obj


def _encode_representative(G: GraySemigroup, sel: ComplexSelection, q: int,
                           vec: Vector) -> list:
    """Sparse (summand, tuple) -> coefficient-list encoding of a total
    coordinate vector."""
    return [[list(desc), sc.encode_id(t),
             [sc.encode_scalar(c) for c in tm.coeffs]]
            for desc, t, tm in total_space(G, sel, q).nonzero_values(vec)]


# ----- command logic ----------------------------------------------------


def _on_gray(text: str, command, *args):
    """Parse and validate a Gray semigroup document, then return
    command(G, *args).  G.memo is cleared on the way out: the tables it
    holds refer back to G, so without that G would outlive the command
    until the next full garbage collection.  validate and export clear it
    for the same reason: the tensor powers that validate_gray leaves in
    it build their tables from G on first read."""
    try:
        G = _load_gray(text)
    except sc.SchemaError as e:
        return EXIT_PARSE, {"error": str(e)}
    try:
        rep = validate_gray(G)
        if not rep.ok:
            return EXIT_VALIDATION, _report_doc(rep)
        return command(G, *args)
    finally:
        G.memo.clear()


def run_validate(text: str):
    try:
        obj = sc.load_structure(text)
    except sc.SchemaError as e:
        return EXIT_PARSE, {"error": str(e)}
    if isinstance(obj, GraySemigroup):
        try:
            rep = validate_gray(obj)
        finally:
            obj.memo.clear()
    elif isinstance(obj, TwoCategory):
        rep = validate_two_category(obj)
    else:
        return EXIT_PARSE, {
            "error": "validate expects a two_category or gray_semigroup "
                     "document"}
    doc = _report_doc(rep)
    return (EXIT_OK if rep.ok else EXIT_VALIDATION), doc


def run_cohomology(text: str, selection: str, degree: int | None,
                   max_degree: int | None):
    """The one degree given, or degrees 1..max_degree, or, with neither,
    1..the selection's cap.  A degree below 1, or both arguments, is
    malformed input (exit 2); a degree above the cap exits 3."""
    if degree is not None and max_degree is not None:
        return EXIT_PARSE, {
            "error": "--degree and --max-degree exclude each other"}
    for name, value in (("--degree", degree), ("--max-degree", max_degree)):
        if value is not None and value < 1:
            return EXIT_PARSE, {
                "error": f"{name} must be at least 1, got {value}"}
    return _on_gray(text, _cohomology, selection, degree, max_degree)


def _cohomology(G: GraySemigroup, selection: str, degree: int | None,
                max_degree: int | None):
    sel = ComplexSelection(selection)
    K = G.base.field
    results = []
    try:
        if degree is not None:
            degrees = [degree]
        else:
            top = sel.qmax if max_degree is None else max_degree
            # a top above the cap is refused, at its first degree past the
            # cap, before any degree is computed
            defcomplex.check_degree(sel, min(top, sel.qmax + 1))
            degrees = range(1, top + 1)
        for q in degrees:
            coh = defcomplex.cohomology(G, sel, q)
            results.append({
                "degree": q,
                "dim_space": coh["dim_space"],
                "dim_kernel": coh["betti"] + coh["rank_prev"],
                "rank_prev": coh["rank_prev"],
                "betti": coh["betti"],
                "representatives": [
                    _encode_representative(G, sel, q,
                                           normalize_leading(K, v))
                    for v in coh["representatives"]],
            })
    except CapExceeded as e:
        return EXIT_CAP, {"error": str(e)}
    return EXIT_OK, {"selection": selection, "field": K.describe(),
                     "results": results}


def run_classify(text: str, mode: str):
    return _on_gray(text, _classify, mode)


def _classify(G: GraySemigroup, mode: str):
    kind = _MODE_TO_KIND[mode]
    sel = ComplexSelection(kind)
    q = candidate_degree(kind)
    K = G.base.field
    try:
        coh = defcomplex.cohomology(G, sel, q)
    except CapExceeded as e:
        return EXIT_CAP, {"error": str(e)}
    reps = []
    for v in coh["representatives"]:
        d = deformation_from_vector(G, kind, normalize_leading(K, v))
        check = check_structural(G, d)
        if not check.ok:
            raise AssertionError(
                f"classification representative fails re-verification: "
                f"{check.violations[:3]}")
        doc = sc.deformation_to_json(d)
        reps.append(doc)
    count = K.p ** coh["betti"] if isinstance(K, PrimeField) else None
    return EXIT_OK, {
        "mode": mode,
        "selection": kind,
        "degree": q,
        "field": K.describe(),
        "betti": coh["betti"],
        "class_count": count,
        "representatives": reps,
    }


def run_oracle(text: str, mode: str, bound: int = DEFAULT_ENUM_BOUND):
    return _on_gray(text, _oracle, mode, bound)


def _oracle(G: GraySemigroup, mode: str, bound: int):
    K = G.base.field
    if not isinstance(K, PrimeField):
        return EXIT_PARSE, {
            "error": "the oracle comparison needs a prime-field structure"}
    kind = _MODE_TO_KIND[mode]
    try:
        # the enumeration refuses a space past the bound before the
        # cohomology is computed
        brute = brute_force_classes(G, kind, bound=bound)
        coh = defcomplex.cohomology(G, ComplexSelection(kind),
                                    candidate_degree(kind))
    except (CapExceeded, EnumerationBoundExceeded) as e:
        return EXIT_CAP, {"error": str(e)}
    linear_count = K.p ** coh["betti"]
    verdict = "AGREE" if linear_count == brute["count"] else "DISAGREE"
    doc = {
        "mode": mode,
        "selection": kind,
        "field": K.describe(),
        "betti": coh["betti"],
        "linear_count": linear_count,
        "brute_force_count": brute["count"],
        "candidate_dim": brute["candidate_dim"],
        "cocycle_count": brute["cocycle_count"],
        "verdict": verdict,
    }
    return (EXIT_OK if verdict == "AGREE" else EXIT_VALIDATION), doc


EXPORT_MODELS = {
    # base group Z/2, trivial fiber: only the pentagonator tower is nonzero
    "z2-base": lambda K: GroupModelSpec(
        cyclic_group(2), trivial_group(),
        trivial_bicharacter(trivial_group(), K), K),
    # trivial base, fiber Z/2: exercises tensorator/associator data
    "z2-fiber": lambda K: GroupModelSpec(
        trivial_group(), cyclic_group(2),
        trivial_bicharacter(cyclic_group(2), K), K),
    # base Z/2, fiber Z/2 with the sign bicharacter: nonscalar tensorator
    "z2-sign": lambda K: GroupModelSpec(
        cyclic_group(2), cyclic_group(2),
        sign_bicharacter(cyclic_group(2), K), K),
    # one object, one cell: the smallest valid structure
    "point": lambda K: GroupModelSpec(
        trivial_group(), trivial_group(),
        trivial_bicharacter(trivial_group(), K), K),
}


def run_export(name: str, field_text: str):
    try:
        K = parse_field(field_text)
        spec = EXPORT_MODELS[name](K)
    except (sc.SchemaError, KeyError, ValueError) as e:
        return EXIT_PARSE, {"error": str(e)}
    G = group_model(spec)
    try:
        rep = validate_gray(G)
    finally:
        G.memo.clear()
    if not rep.ok:
        raise AssertionError(
            f"generated structure failed validation: {rep.violations[:3]}")
    return EXIT_OK, sc.gray_to_json(G)


# ----- click wiring -----------------------------------------------------


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _finish(code: int, doc: dict, out: str | None):
    text = json.dumps(doc, sort_keys=True, indent=1)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)
    sys.exit(code)


@click.group()
def main():
    """Exact deformation cohomology of finite Gray semigroups."""


@main.command("validate")
@click.argument("input", metavar="INPUT")
@click.option("--out", default=None, help="Write the report to a file.")
def cli_validate(input, out):
    """Check a structure file against all structural axioms."""
    try:
        text = _read_input(input)
    except OSError as e:
        _finish(EXIT_PARSE, {"error": str(e)}, out)
    _finish(*run_validate(text), out)


@main.command("cohomology")
@click.argument("input", metavar="INPUT")
@click.option("--complex", "complex_", type=click.Choice(SELECTION_KINDS),
              default="unit", help="Which total complex to assemble.")
@click.option("--degree", type=int, default=None,
              help="Single cohomological degree.")
@click.option("--max-degree", type=int, default=None,
              help="Compute degrees 1..N instead of a single degree.")
@click.option("--out", default=None)
def cli_cohomology(input, complex_, degree, max_degree, out):
    """Betti numbers and representatives of a deformation complex."""
    try:
        text = _read_input(input)
    except OSError as e:
        _finish(EXIT_PARSE, {"error": str(e)}, out)
    _finish(*run_cohomology(text, complex_, degree, max_degree), out)


@main.command("classify")
@click.argument("input", metavar="INPUT")
@click.option("--mode", type=click.Choice(CLASSIFY_MODES), default="unit",
              help="Which family of first-order deformations to classify.")
@click.option("--out", default=None)
def cli_classify(input, mode, out):
    """Cohomology-class representatives as first-order deformations."""
    try:
        text = _read_input(input)
    except OSError as e:
        _finish(EXIT_PARSE, {"error": str(e)}, out)
    _finish(*run_classify(text, mode), out)


@main.command("oracle")
@click.argument("input", metavar="INPUT")
@click.option("--mode", type=click.Choice(CLASSIFY_MODES), default="unit")
@click.option("--enum-bound", type=int, default=DEFAULT_ENUM_BOUND,
              help="Abort if the candidate space is larger than this.")
@click.option("--out", default=None)
def cli_oracle(input, mode, enum_bound, out):
    """Compare linear-algebra class counts with brute-force enumeration."""
    try:
        text = _read_input(input)
    except OSError as e:
        _finish(EXIT_PARSE, {"error": str(e)}, out)
    _finish(*run_oracle(text, mode, enum_bound), out)


@main.command("export")
@click.argument("name", type=click.Choice(sorted(EXPORT_MODELS)))
@click.option("--field", "field_text", default="p=2",
              help="'q' for rationals or 'p=<prime>'.")
@click.option("--out", default=None)
def cli_export(name, field_text, out):
    """Emit a built-in validated example structure as JSON."""
    _finish(*run_export(name, field_text), out)


if __name__ == "__main__":
    main()
