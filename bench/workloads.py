"""The benchmark's workloads: inputs, one measured pass each, known answers.

Every workload drives the toycat modules through their public functions,
always through the module attribute (``closure.generate_closure``, never a
name imported into this file), so that the traced mode's wrappers see every
call.  Each workload has a set-up (`prepare`, plus whatever the workload
must build once) and a pass that `run.py` repeats until the run's time is
up.  Every answer a pass produces is compared with a known value and
counted in an `Answers` tally.  Workloads read time from the clock they are
given, which leaves out time the runner spends sampling the machine's speed.

The known values are written out below rather than computed by the code
under test.  None of them is a byte digest of a store: the store's order
and format are expected to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from typing import Callable

from toycat import basis, cli, closure, models, protocols, relcore, suite

Clock = Callable[[], float]


@dataclass(frozen=True)
class Spec:
    """One workload: what it runs and the answers it must get.

    kind: "close" (closure builds), "battery" or "store".
    generators: "spek" (delta_Z, eps_Z and the 23 non-identity
        permutations) or "reduced" (the permutations and eps_Z only).
    growth: expected morphisms added per round, rounds 1, 2, ...
    fixpoint: expected fixpoint flag of the store.
    queries: sampled stored morphisms queried per pass.
    relabelings: seeded relabelings of the generators; passes take them
        in turn, so one run averages over several.
    """

    name: str
    kind: str
    generators: str = "spek"
    max_arity: int = 3
    max_rounds: int | None = None
    growth: tuple[int, ...] = ()
    fixpoint: bool = False
    queries: int = 0
    relabelings: int = 1


WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec("close-wide", "close", max_arity=3, max_rounds=3,
             growth=(34, 941, 22463), queries=160, relabelings=4),
        Spec("close-deep", "close", max_arity=2, max_rounds=4,
             growth=(31, 737, 1603, 2955), queries=160, relabelings=4),
        Spec("verify-battery", "battery"),
        Spec("store-query", "store", max_arity=3, max_rounds=3,
             growth=(34, 941, 22463), queries=400),
    )
}


class Answers:
    """Tally of answers compared with their known values."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(label)


@dataclass
class Pass:
    """What one pass measured.

    seconds: the pass's own time (the unit of work, see README.md).
    items: work items the pass completed (morphisms or checks).
    requests: seconds of each user-level request timed in the pass.
    phases: seconds of named phases, for the per-workload detail lines.
    growth: (round, added) of a store the pass built.
    store_bytes: size of a store file the pass wrote.
    """

    seconds: float
    items: int
    requests: list[float] = field(default_factory=list)
    phases: dict[str, float] = field(default_factory=dict)
    growth: list[tuple[int, int]] = field(default_factory=list)
    store_bytes: int = 0


# -- inputs -----------------------------------------------------------------------

IV = models.IV


def _tensor_power(rel: relcore.Relation, k: int) -> relcore.Relation:
    out = relcore.identity(relcore.UNIT)
    for _ in range(k):
        out = relcore.tensor(out, rel)
    return out


def relabel(rel: relcore.Relation, sigma: relcore.Relation) -> relcore.Relation:
    """Conjugate a relation on powers of IV by the permutation sigma of IV."""
    inner = relcore.dagger(_tensor_power(sigma, rel.dom.arity))
    return relcore.compose(_tensor_power(sigma, rel.cod.arity), relcore.compose(rel, inner))


def base_generators(which: str) -> dict[str, relcore.Relation]:
    if which == "spek":
        return suite.spek_generator_symbols()
    perms, _, eps_z = models.spek_generators()
    gens = {models.perm_name(p): p for p in perms if models.perm_name(p) != "id_IV"}
    gens["eps_Z"] = eps_z
    return gens


def relabeled_generators(spec: Spec, seed: int) -> list[tuple[str, dict[str, relcore.Relation]]]:
    """The workload's generators conjugated by seeded permutations of IV.

    One (permutation name, generators) pair per relabeling, the
    permutations distinct.  Relabeling IV changes every relation the
    closure meets but not how the store grows, so the known growth vectors
    hold for every seed.
    """
    gens = base_generators(spec.generators)
    sigmas = random.Random(seed).sample(models.all_permutations(IV), spec.relabelings)
    return [
        (models.perm_name(sigma), {name: relabel(rel, sigma) for name, rel in gens.items()})
        for sigma in sigmas
    ]


def absent_probes(max_arity: int) -> dict[str, relcore.Relation]:
    """Relations that no Spek store holds, whatever the relabeling.

    Each is nonempty and not an affine Lagrangian relation over F2 (IV read
    as F2^2), a class that contains every Spek generator and is kept by
    compose, tensor, converse and relabeling.
    """
    from_pairs = relcore.Relation.from_pairs
    probes = {
        "full_IV": from_pairs(IV, IV, [(j, i) for j in range(4) for i in range(4)]),
        "partial_identity": from_pairs(IV, IV, [(0, 0), (1, 1), (2, 2)]),
        "three_element_state": from_pairs(relcore.UNIT, IV, [(0, 0), (0, 1), (0, 2)]),
    }
    if max_arity >= 2:
        probes["delta_oplus"] = from_pairs(IV, IV * IV, [(i, 5 * i) for i in range(4)])
    if max_arity >= 3:
        probes["triple_diagonal"] = from_pairs(IV, IV * IV * IV, [(i, 21 * i) for i in range(4)])
    return probes


def fresh(rel: relcore.Relation) -> relcore.Relation:
    """An equal relation with no cached canonical form, as a caller would pass."""
    return relcore.Relation(rel.dom, rel.cod, rel.rows)


def prepare(spec: Spec, seed: int) -> dict:
    """The set-up every run repeats: models and generated inputs.

    Imports happen when this module is imported; `run.py` times this
    function in fresh interpreters, imports included.
    """
    models.frel_qubit()
    models.spek()
    inputs: dict = {}
    if spec.kind in ("close", "store"):
        inputs["relabelings"] = relabeled_generators(spec, seed)
        inputs["probes"] = absent_probes(spec.max_arity)
    if spec.kind == "battery":
        inputs["arity1_store"] = closure.generate_closure(
            base_generators("reduced"), closure.ClosureConfig(max_arity=1)
        )
    return inputs


def _query(clock: Clock, store, rel: relcore.Relation, answers: Answers, label: str,
           expect_word: str | None, absent_status: str) -> float:
    """One membership query, with the witness word re-evaluated; its seconds."""
    t0 = clock()
    result = closure.contains(store, rel)
    ok_witness = result.status == "yes" and closure.evaluate_word(store, result.word) == rel
    elapsed = clock() - t0
    if expect_word is None:
        answers.check(f"query {label}: {result.status}", result.status == absent_status)
    else:
        answers.check(f"query {label}: witness", ok_witness and result.word == expect_word)
    return elapsed


def _query_sample(store, spec: Spec, rng: random.Random) -> list[tuple[relcore.Relation, str]]:
    entries = list(store.items.values())
    return [(fresh(e.relation), e.word) for e in rng.sample(entries, min(spec.queries, len(entries)))]


def _check_store(store, spec: Spec, answers: Answers, label: str) -> None:
    answers.check(f"{label}: growth {[n for _, n in store.growth]}",
                  tuple(n for _, n in store.growth) == spec.growth)
    answers.check(f"{label}: fixpoint {store.fixpoint}", store.fixpoint == spec.fixpoint)


def _check_converse_closed(store, answers: Answers, label: str) -> None:
    answers.check(f"{label}: converse-closed", all(
        relcore.dagger(e.relation).key in store.items for e in store.items.values()
    ))


# -- workloads --------------------------------------------------------------------

class CloseWorkload:
    """Build the closure of the relabeled generators, then query the store."""

    def __init__(self, spec: Spec, seed: int, answers: Answers, clock: Clock) -> None:
        self.spec = spec
        self.answers = answers
        self.clock = clock
        self.rng = random.Random(seed)
        self.inputs = prepare(spec, seed)
        self.setup_extra_s = 0.0
        self.passes = 0

    def run_pass(self) -> Pass:
        spec, answers, clock = self.spec, self.answers, self.clock
        config = closure.ClosureConfig(max_arity=spec.max_arity, max_rounds=spec.max_rounds)
        relabelings = self.inputs["relabelings"]
        _, gens = relabelings[self.passes % len(relabelings)]
        t0 = clock()
        store = closure.generate_closure(gens, config)
        seconds = clock() - t0
        _check_store(store, spec, answers, "build")
        if self.passes == 0:
            _check_converse_closed(store, answers, "build")
        self.passes += 1
        absent = "no" if spec.fixpoint else "unknown"
        requests = [
            _query(clock, store, rel, answers, "stored", word, absent)
            for rel, word in _query_sample(store, spec, self.rng)
        ]
        requests += [
            _query(clock, store, fresh(rel), answers, name, None, absent)
            for name, rel in self.inputs["probes"].items()
        ]
        return Pass(seconds, len(store), requests, growth=list(store.growth))


# Known answers of the battery.  The arity-1 store holds no IV x IV shapes,
# so exactly these three Spek checks fail on it.
SPEK_RED_ON_ARITY1 = frozenset({
    "closure.contains.eta_IV",
    "closure.contains.ghz",
    "closure.census.two_system_orbits",
})
SPEK_CHECK_COUNT = 36
QUBIT_CHECK_COUNT = 30

EVAL_TERMS = {
    "delta_Z ; eps_Z^": ([], [4, 4], [[0, 0], [0, 5], [0, 10], [0, 15]]),
    "delta_Z ; z0": ([], [4, 4], [[0, 0], [0, 1], [0, 4], [0, 5]]),
    "sigma_12 ; x0": ([], [4], [[0, 1], [0, 2]]),
    "eps_Z ; y1": ([], [], [[0, 0]]),
    "(sigma_23 x id_IV) ; delta_Z": (
        [4], [4, 4], [[0, 0], [0, 9], [1, 1], [1, 8], [2, 6], [2, 15], [3, 7], [3, 14]]
    ),
    "delta_X^ ; (x0 x x1)": ([], [4], []),
    "eta_Y": ([], [4, 4], [[0, 0], [0, 5], [0, 10], [0, 15]]),
    "(eps_Z x id_IV) ; delta_Z": ([4], [4], [[0, 0], [1, 1], [2, 2], [3, 3]]),
}

ASSERTIONS = {
    ("delta_Z ; z0", "z0 x z0"): True,
    ("delta_Z ; x0", "x0 x x0"): False,
    ("(eta^ x id_IV) ; (id_IV x eta)", "id_IV"): True,
    ("sigma_12 ; sigma_12", "id_IV"): True,
    ("delta_Z^ ; delta_Z", "id_IV"): True,
    ("delta_Z ; delta_Z^", "id_IVxIV"): False,
    ("sigma_123 ; sigma_123 ; sigma_123", "id_IV"): True,
    ("eps_X ; x0", "id_I"): True,
    ("eps_Z ; z0", "eps_Z ; z1"): True,
    ("swap_IV_IV ; delta_Y", "delta_Y"): True,
}

# Teleportation branch counts: II needs 2 branches, IV needs 4.
BRANCHES = {"frel-qubit": 2, "spek": 4}


def _cli(clock: Clock, argv: list[str]) -> tuple[int, object, float]:
    """Run `toycat ARGV` in process; returns (exit code, parsed JSON, seconds)."""
    out = io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    elapsed = clock() - t0
    return code, json.loads(out.getvalue()), elapsed


class BatteryWorkload:
    """The verification battery: suites, certificates and CLI calls, no pair scan."""

    def __init__(self, spec: Spec, seed: int, answers: Answers, clock: Clock) -> None:
        self.spec = spec
        self.answers = answers
        self.clock = clock
        self.rng = random.Random(seed)
        self.inputs = prepare(spec, seed)
        self.setup_extra_s = 0.0
        self.eval_terms = sorted(EVAL_TERMS)
        self.assertions = sorted(ASSERTIONS)

    def _certificates(self, answers: Answers) -> None:
        for name in ("frel-qubit", "spek"):
            model = models.get_model(name)
            eta = basis.eta(model.structures["Z"])
            pool = protocols.all_unitary_permutations(model.obj)
            found = protocols.find_branch_unitaries(eta, pool)
            answers.check(f"{name}: branch system", found.ok and len(found.unitaries) == BRANCHES[name])
            if not found.ok:
                continue
            cert = protocols.check_teleportation(eta, found.unitaries)
            answers.check(f"{name}: teleportation certificate", cert.valid)
            answers.check(f"{name}: dense coding", protocols.check_dense_coding(eta, found.unitaries).ok)

    def _cli_calls(self, answers: Answers) -> list[float]:
        term = self.rng.choice(self.eval_terms)
        lhs, rhs = self.rng.choice(self.assertions)
        requests = []

        for model in ("frel-qubit", "spek"):
            code, report, s = _cli(self.clock, ["verify", "--model", model])
            answers.check(f"cli verify {model}", code == 0 and len(report) == 3
                          and all(r["holds"] for r in report))
            requests.append(s)

        code, rel, s = _cli(self.clock, ["eval", term, "--model", "spek"])
        answers.check(f"cli eval {term!r}", code == 0
                      and (rel["dom"], rel["cod"], rel["pairs"]) == EVAL_TERMS[term])
        requests.append(s)

        equal = ASSERTIONS[(lhs, rhs)]
        code, verdict, s = _cli(self.clock, ["assert", lhs, rhs, "--model", "spek"])
        answers.check(f"cli assert {lhs!r} {rhs!r}", code == (0 if equal else 1)
                      and verdict["equal"] is equal)
        requests.append(s)

        code, cert, s = _cli(self.clock, ["protocol", "teleport", "--model", "spek"])
        answers.check("cli protocol teleport spek", code == 0 and cert["valid"]
                      and cert["branch_count"] == BRANCHES["spek"])
        requests.append(s)
        return requests

    def run_pass(self) -> Pass:
        answers = self.answers
        before = answers.attempted
        t0 = self.clock()
        code, report = suite.run_suite("qubit")
        spek = suite.spek_checks(store=self.inputs["arity1_store"])
        self._certificates(answers)
        requests = self._cli_calls(answers)
        seconds = self.clock() - t0

        answers.check("suite qubit: exit code", code == 0)
        answers.check("suite qubit: check count", report["total"] == QUBIT_CHECK_COUNT)
        for chk in report["checks"]:
            answers.check(f"suite qubit: {chk['name']}", chk["passed"])
        answers.check("suite spek: check count", len(spek) == SPEK_CHECK_COUNT)
        for chk in spek:
            answers.check(f"suite spek: {chk.name}", chk.passed != (chk.name in SPEK_RED_ON_ARITY1))
        return Pass(seconds, answers.attempted - before, requests)


# Answers of the closure checks that relabeling cannot change.  The other
# four (ghz, z0_projector, x0_z0_cross, two_system_orbits) look for fixed
# relations such as z0 x z0 whose membership depends on the relabeling, so
# they are not checked.
CLOSURE_CHECKS = {
    "closure.contains.eta_IV": True,
    "closure.delta_oplus_excluded": False,
    "closure.fixpoint": False,
    "closure.census.scalars": True,
    "closure.census.six_states": True,
}
# (states, orbits) of the state census on IV and IV x IV, and the shape
# count of the census, for the cap-3 round-3 store.
STATE_CENSUS = {IV: (6, 1), IV * IV: (17, 2)}
CENSUS_SHAPES = 16


class StoreWorkload:
    """Write, parse, query and census the cap-3 round-3 store built at set-up."""

    def __init__(self, spec: Spec, seed: int, answers: Answers, clock: Clock) -> None:
        self.spec = spec
        self.answers = answers
        self.clock = clock
        rng = random.Random(seed)
        self.inputs = prepare(spec, seed)
        config = closure.ClosureConfig(max_arity=spec.max_arity, max_rounds=spec.max_rounds)
        [(_, gens)] = self.inputs["relabelings"]
        t0 = clock()
        self.store = closure.generate_closure(gens, config)
        self.setup_extra_s = clock() - t0
        _check_store(self.store, spec, answers, "set-up build")
        _check_converse_closed(self.store, answers, "set-up build")
        self.expected = {k: (e.word, e.length) for k, e in self.store.items.items()}
        self.sample = _query_sample(self.store, spec, rng)

    def run_pass(self) -> Pass:
        spec, answers, clock = self.spec, self.answers, self.clock
        t0 = clock()
        blob = closure.store_to_json_str(self.store)
        t1 = clock()
        loaded = closure.store_from_json(json.loads(blob))
        t2 = clock()
        answers.check("load: equals the built store", len(loaded) == len(self.expected) and all(
            self.expected.get(k) == (e.word, e.length) for k, e in loaded.items.items()
        ))
        _check_store(loaded, spec, answers, "load")

        absent = "no" if spec.fixpoint else "unknown"
        requests = [
            _query(clock, loaded, rel, answers, "stored", word, absent) for rel, word in self.sample
        ]
        requests += [
            _query(clock, loaded, fresh(rel), answers, name, None, absent)
            for name, rel in self.inputs["probes"].items()
        ]

        t3 = clock()
        rows = closure.census(loaded)
        censuses = {obj: closure.state_census(loaded, obj) for obj in STATE_CENSUS}
        t4 = clock()
        checks = suite.closure_checks(loaded, models.spek())
        t5 = clock()

        answers.check("census: shapes and total", len(rows) == CENSUS_SHAPES
                      and sum(r["count"] for r in rows) == len(self.expected))
        for obj, sc in censuses.items():
            answers.check(f"state census {obj}", (sc.count, len(sc.orbits)) == STATE_CENSUS[obj])
        by_name = {c.name: c.passed for c in checks}
        for name, passed in CLOSURE_CHECKS.items():
            answers.check(f"closure check {name}", by_name.get(name) is passed)

        phases = {
            "store_write_s": t1 - t0,
            "store_load_s": t2 - t1,
            "census_s": t4 - t3,
            "closure_checks_s": t5 - t4,
        }
        seconds = sum(phases.values()) + sum(requests)
        return Pass(seconds, len(loaded), requests, phases, store_bytes=len(blob))


WORKLOAD_TYPES = {"close": CloseWorkload, "battery": BatteryWorkload, "store": StoreWorkload}


def start(spec: Spec, seed: int, answers: Answers, clock: Clock):
    """Set a workload up in this process."""
    return WORKLOAD_TYPES[spec.kind](spec, seed, answers, clock)
