"""The benchmark's workloads and the bookkeeping of their operations.

Each workload runs whole rounds of the same operations.  An operation is one
command or one identity check; it fails if it raises, if its exit code is
wrong or if its output fails a check.  Only the program's work is timed:
checks run between or after the operations, untimed.

The inputs are the documents `graycohom export <model> --field <field>`
writes for the built-in models; they do not depend on the seed.  The seed
only drives the random vectors of the checks.
"""

from __future__ import annotations

import json
import sys
import time
import traceback

# program functions are called through their modules, so that the traced
# run's wrappers see every call
from graycohom import cli, defcomplex, schema as sc

import checks
from tracing import SERIALISE

# oracle modes whose candidate space fits the default enumeration bound;
# the other z2-sign modes exit 3 before enumerating
ORACLE_MODES = {
    "z2-base": cli.CLASSIFY_MODES,
    "z2-fiber": cli.CLASSIFY_MODES,
    "z2-sign": ("tens", "pent"),
}

# bidegrees (m, n) of the commuting squares
SQUARES = [(m, n) for m in range(4) for n in range(4 - m)]


def export(model: str, field: str) -> str:
    """The document `graycohom export` writes for a built-in model."""
    code, doc = cli.run_export(model, field)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"export {model} --field {field}: {doc}")
    return _dumps(doc)


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1)


class Run:
    """Times the operations of the rounds and records how each ended."""

    def __init__(self, tracer, rng, speed=None):
        self.tracer = tracer
        self.rng = rng
        self.speed = speed         # speed.Speed probing during the rounds
        self.round = 0
        self.round_wall = 0.0      # time of the round's operations
        self._mark = 0
        self.attempted = 0
        self.outputs: dict = {}    # (round, op) -> JSON text, exit code 0
        self.errors: dict = {}     # (round, op) -> why it raised or exit code
        self.wrong: dict = {}      # (round, op) -> problems with the output

    def begin_round(self):
        self.round += 1
        self.round_wall = 0.0
        if self.tracer:
            self.tracer.phase = self.round
        if self.speed:
            self._mark = self.speed.mark()

    def corrected_round_wall(self) -> float:
        """round_wall scaled to the reference speed of the machine by the
        probes taken during the round (see speed.py)."""
        return self.round_wall * self.speed.factor(self._mark)

    def timed(self, fn, *args):
        """fn(*args), its time added to round_wall, less the time of the
        probes that interrupted it."""
        probed = self.speed.spent if self.speed else 0.0
        t = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.round_wall += time.perf_counter() - t
            if self.speed:
                self.round_wall -= self.speed.spent - probed

    def op(self, name: str, fn, *args):
        """Run and time one operation; None if it raised."""
        self.attempted += 1
        try:
            return self.timed(fn, *args)
        except Exception:
            self.errors[self.round, name] = traceback.format_exc()
            print(f"round {self.round} {name}: raised\n"
                  f"{self.errors[self.round, name]}", file=sys.stderr)
            return None

    def command(self, name: str, fn, *args):
        """One graycohom command: fn is a cli.run_* function; its document
        is serialised as the command writes it."""
        def call():
            code, doc = fn(*args)
            if self.tracer:
                return code, self.tracer.call(SERIALISE, _dumps, doc)
            return code, _dumps(doc)
        out = self.op(name, call)
        if out is None:
            return None
        if out[0] != cli.EXIT_OK:
            self.errors[self.round, name] = f"exit code {out[0]}"
            print(f"round {self.round} {name}: exit code {out[0]}",
                  file=sys.stderr)
            return None
        self.outputs[self.round, name] = out[1]
        return out[1]

    def judge(self, name: str, problems: list, rnd: int | None = None):
        if problems:
            self.wrong[rnd or self.round, name] = problems
            for p in problems:
                print(f"round {rnd or self.round} {name}: {p}",
                      file=sys.stderr)

    def judge_outputs(self, first_round_problems: dict):
        """Deferred checks: round 1 by first_round_problems (op -> problems),
        later rounds by equality with round 1's output."""
        for (rnd, name), out in self.outputs.items():
            if rnd == 1:
                self.judge(name, first_round_problems.get(name, []), 1)
            elif out != self.outputs.get((1, name)):
                self.judge(name, ["output differs from round 1"], rnd)

    @property
    def failed(self) -> int:
        return len(set(self.errors) | set(self.wrong))


def _name(model, field):
    return f"{model}/{field}"


# ----- cohomology ---------------------------------------------------------


class Cohomology:
    """`cohomology --complex unit` over degrees 1..3."""

    inputs = [("z2-sign", "p=3"), ("z2-fiber", "q")]  # (model, --field)

    def round(self, run: Run, texts: dict):
        for key in self.inputs:
            run.command(f"cohomology {_name(*key)}", cli.run_cohomology,
                        texts[key], "unit", None, None)

    def check(self, run: Run, texts: dict) -> dict:
        out = {}
        for key in self.inputs:
            name = f"cohomology {_name(*key)}"
            text = run.outputs.get((1, name))
            if text is None:
                continue
            doc = json.loads(text)
            G = sc.load_structure(texts[key])
            problems = []
            if [r["degree"] for r in doc["results"]] != [1, 2, 3]:
                problems.append("degrees are not 1..3")
            for entry in doc["results"]:
                problems += checks.cohomology_problems(G, "unit", entry)
            out[name] = problems
        return out


# ----- identities ---------------------------------------------------------


class Identities:
    """The double-complex identities through public functions: every
    selection is assembled, then both products around each commuting
    square with m + n <= 3 are built."""

    inputs = [("z2-sign", "p=3"), ("z2-sign", "q")]

    def round(self, run: Run, texts: dict):
        for key in self.inputs:
            G = run.timed(sc.load_structure, texts[key])
            p = checks.modulus(G.base.field)
            for kind in defcomplex.SELECTION_KINDS:
                name = f"assemble {kind} {_name(*key)}"
                out = run.op(name, defcomplex.assemble_complex, G,
                             defcomplex.ComplexSelection(kind))
                if out is not None:
                    run.judge(name, checks.assemble_problems(out, p, name))
            for m, n in SQUARES:
                name = f"square {m},{n} {_name(*key)}"
                out = run.op(name, square_products, G, m, n)
                if out is not None:
                    run.judge(name, checks.square_problems(
                        *out, *square_factors(G, m, n), p, run.rng, name))

    def check(self, run: Run, texts: dict) -> dict:
        # judged during the round: the products are too large to keep
        return {}


def square_factors(G, m, n):
    """delta_h^{m,n+1}, delta_v^{m,n}, delta_v^{m+1,n}, delta_h^{m,n}."""
    return (defcomplex.delta_h_matrix(G, m, n + 1),
            defcomplex.delta_v_matrix(G, m, n),
            defcomplex.delta_v_matrix(G, m + 1, n),
            defcomplex.delta_h_matrix(G, m, n))


def square_products(G, m, n):
    """delta_h delta_v and delta_v delta_h from X^{m,n} to X^{m+1,n+1}."""
    dh_next, dv, dv_next, dh = square_factors(G, m, n)
    return dh_next.mul_matrix(dv), dv_next.mul_matrix(dh)


# ----- classify and oracle ------------------------------------------------


class ClassifyOracle:
    """`classify` in all five modes, then `oracle` in every mode whose
    candidate space fits the default enumeration bound."""

    inputs = [("z2-base", "p=2"), ("z2-fiber", "p=2"), ("z2-sign", "p=2")]

    def round(self, run: Run, texts: dict):
        for key in self.inputs:
            for mode in cli.CLASSIFY_MODES:
                run.command(f"classify {mode} {_name(*key)}",
                            cli.run_classify, texts[key], mode)
        for key in self.inputs:
            for mode in ORACLE_MODES[key[0]]:
                run.command(f"oracle {mode} {_name(*key)}",
                            cli.run_oracle, texts[key], mode)

    def check(self, run: Run, texts: dict) -> dict:
        out = {}
        for key in self.inputs:
            G = sc.load_structure(texts[key])
            for mode in cli.CLASSIFY_MODES:
                name = f"classify {mode} {_name(*key)}"
                classified = run.outputs.get((1, name))
                if classified is not None:
                    out[name] = checks.classify_problems(G, classified)
                oname = f"oracle {mode} {_name(*key)}"
                oracle = run.outputs.get((1, oname))
                if oracle is None:
                    continue
                if classified is None:
                    out[oname] = ["no classify result to compare with"]
                else:
                    out[oname] = checks.oracle_problems(oracle, classified)
        return out


WORKLOADS = {
    "cohomology": Cohomology,
    "identities": Identities,
    "classify-oracle": ClassifyOracle,
}
