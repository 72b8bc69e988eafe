"""The aggregated verification battery behind `toycat suite`.

Each check is a named closure over the models: the qubit battery covers
the two-element-set structures, their points, complementarity, the Bell
construction, and both protocols; the Spek battery covers the generators,
the six states, the three observables and their orbit, GHZ, the
protocols on the four-element set, and the compositional closure.

Closure checks run against the store they are handed, else against the
cap-3 store of `DEFAULT_CLOSURE_ROUNDS` rounds (`ClosureConfig`'s arity
default). The three observables are complementary as families: each
`spek.complementary.*` check finds one member pair. Positive
memberships are certified by witness words regardless of rounds; the
fixpoint and definitive-exclusion checks report the store's own answers,
which on the standard generators means they fail for any desk-scale
budget (see the closure module notes: the arity-3 fragment provably
exceeds 9.2e7 morphisms, far past the configured store cap). The proof
that the diagonal copy map is not in Spek is a separate status, the
invariant certificate of `toycat.symplectic`; these checks do not consult
it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from . import models as M
from .basis import (
    check_complementary,
    check_hopf,
    enumerate_points,
    eta as basis_eta,
    lambda_map,
)
from .closure import (
    ClosureConfig,
    MorphismStore,
    census,
    contains,
    evaluate_word,
    generate_closure,
    state_census,
)
from .protocols import (
    bell_basis,
    check_dense_coding,
    check_teleportation,
    find_branch_unitaries,
    measurement_projector,
    phase_pool,
)
from .relcore import (
    Relation,
    UNIT,
    compose,
    dagger,
    identity,
    is_unitary,
    reachable,
    run_composer,
    scalar_kind,
    snake_holds,
    swap,
    tensor,
    transpose_star,
)
from .terms import assert_equal, parse_term, signature_of

__all__ = [
    "CheckResult",
    "run_suite",
    "spek_generator_symbols",
    "DEFAULT_CLOSURE_ROUNDS",
]

# Word-length bound of the store `spek_checks` builds when given none.
DEFAULT_CLOSURE_ROUNDS = 4


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _check(results: list, name: str, fn: Callable[[], tuple[bool, str]]) -> None:
    try:
        passed, detail = fn()
    except Exception as exc:  # a crashed check is a failed check
        results.append(CheckResult(name, False, f"error: {exc}"))
        return
    results.append(CheckResult(name, bool(passed), detail))


def spek_generator_symbols() -> dict[str, Relation]:
    """The named generators handed to the closure engine."""
    perms, delta_z, eps_z = M.spek_generators()
    gens = {
        M.perm_name(p): p for p in perms if M.perm_name(p) != "id_IV"
    }
    gens["delta_Z"] = delta_z
    gens["eps_Z"] = eps_z
    return gens


# -- ambient category spot checks ---------------------------------------------------

def core_checks() -> list[CheckResult]:
    res: list[CheckResult] = []
    rng = random.Random(31)

    def rand_rel(dom, cod):
        pairs = [
            (j, i)
            for j in range(dom.cardinality)
            for i in range(cod.cardinality)
            if rng.random() < 0.5
        ]
        return Relation.from_pairs(dom, cod, pairs)

    II, IV = M.II, M.IV
    f = rand_rel(II, IV)
    g = rand_rel(IV, II)

    _check(res, "core.tensor.unit_neutral", lambda: (
        tensor(identity(UNIT), f) == f and tensor(f, identity(UNIT)) == f, ""
    ))
    _check(res, "core.dagger.involution_contravariance", lambda: (
        dagger(dagger(f)) == f
        and dagger(compose(g, f)) == compose(dagger(f), dagger(g))
        and tensor(dagger(f), dagger(g)) == dagger(tensor(f, g)),
        "",
    ))
    _check(res, "core.swap.self_inverse_and_natural", lambda: (
        compose(swap(IV, II), swap(II, IV)) == identity(II * IV)
        and _swap_naturality(rand_rel),
        "",
    ))
    _check(res, "core.structural.identity_scalar", lambda: (
        identity(UNIT).pairs == ((0, 0),), ""
    ))
    _check(res, "core.unitary.projector_is_not", lambda: (
        not is_unitary(
            compose(
                Relation.from_pairs(UNIT, IV, [(0, 0), (0, 1)]),
                dagger(Relation.from_pairs(UNIT, IV, [(0, 0), (0, 1)])),
            )
        ),
        "z0 o z0^ is not a bijection graph",
    ))

    def transpose_example():
        eta = Relation.from_pairs(UNIT, IV * IV, [(0, 5 * i) for i in range(4)])
        sigma = Relation.from_pairs(IV, IV, [(0, 1), (1, 2), (2, 0), (3, 3)])
        ok = (
            snake_holds(eta)
            and transpose_star(sigma, eta, eta) == dagger(sigma)
            and transpose_star(identity(IV), eta, eta) == identity(IV)
        )
        return ok, "transpose against the diagonal cup inverts permutations"

    _check(res, "core.transpose_star", transpose_example)
    return res


def _swap_naturality(rand_rel) -> bool:
    II, IV = M.II, M.IV
    for _ in range(20):
        f = rand_rel(II, II)
        g = rand_rel(IV, IV)
        if compose(swap(II, IV), tensor(f, g)) != compose(tensor(g, f), swap(II, IV)):
            return False
    return True


# -- qubit battery ---------------------------------------------------------------

def qubit_checks() -> list[CheckResult]:
    q = M.frel_qubit()
    Z, X, Xp = q.structures["Z"], q.structures["X"], q.structures["X'"]
    z0, z1, x0 = q.states["z0"], q.states["z1"], q.states["x0"]
    res: list[CheckResult] = core_checks()

    for label, s in (("Z", Z), ("X", X), ("X'", Xp)):
        _check(res, f"qubit.laws.{label}", lambda s=s: (
            s.all_laws_hold, ",".join(r.law for r in s.verified if not r.holds) or "six laws hold"
        ))

    def matrix_cols(rel, col):
        return tuple(rel.rows[i] >> col & 1 for i in range(len(rel.rows)))

    _check(res, "qubit.matrix.delta_Z", lambda: (
        matrix_cols(Z.delta, 0) == (1, 0, 0, 0) and matrix_cols(Z.delta, 1) == (0, 0, 0, 1), ""
    ))
    _check(res, "qubit.matrix.delta_X", lambda: (
        matrix_cols(X.delta, 0) == (1, 0, 0, 1) and matrix_cols(X.delta, 1) == (0, 1, 1, 0), ""
    ))

    def points_are(s, classical, unbiased):
        rep = enumerate_points(s)
        return (
            set(rep.classical) == set(classical)
            and set(rep.unbiased) == set(unbiased)
            and not rep.overlap,
            f"{len(rep.classical)} classical, {len(rep.unbiased)} unbiased",
        )

    _check(res, "qubit.points.Z", lambda: points_are(Z, [z0, z1], [x0]))
    _check(res, "qubit.points.X", lambda: points_are(X, [x0], [z0, z1]))
    _check(res, "qubit.points.Xp_same_as_X", lambda: points_are(Xp, [x0], [z0, z1]))

    _check(res, "qubit.scalar.eps_after_classical", lambda: (
        scalar_kind(compose(Z.epsilon, z0)) == "identity", ""
    ))
    _check(res, "qubit.scalar.disjoint_states", lambda: (
        scalar_kind(compose(dagger(z0), z1)) == "empty", ""
    ))

    _check(res, "qubit.complementary.ZX", lambda: (check_complementary(Z, X).holds, ""))
    _check(res, "qubit.hopf.ZX", lambda: (check_hopf(Z, X).holds, ""))
    _check(res, "qubit.complementary.self_fails", lambda: (
        not check_complementary(Z, Z).holds and not check_hopf(Z, Z).holds, ""
    ))

    for label, s in (("Z", Z), ("X", X), ("X'", Xp)):
        _check(res, f"qubit.snake.{label}", lambda s=s: (snake_holds(basis_eta(s)), ""))
    _check(res, "qubit.eta.values", lambda: (
        basis_eta(Z).pairs == ((0, 0), (0, 3)) and basis_eta(X).pairs == ((0, 0), (0, 3)), ""
    ))
    _check(res, "qubit.lambda.counit_dagger_is_identity", lambda: (
        all(lambda_map(s, dagger(s.epsilon)) == identity(q.obj) for s in (Z, X, Xp)), ""
    ))

    def bell():
        bb = bell_basis(X, Z)
        xor_map = Relation.from_pairs(
            q.obj * q.obj, q.obj * q.obj,
            [(a * 2 + b, ((a ^ b) * 2 + b)) for a in range(2) for b in range(2)],
        )
        return bb.bell_map == xor_map and is_unitary(bb.bell_map), "bell map is (a,b) ~ (a xor b, b)"

    _check(res, "qubit.bell.map", bell)
    _check(res, "qubit.bell.product_structure", lambda: (
        bell_basis(X, Z).tensor_basis.all_laws_hold, ""
    ))

    def teleport():
        found = find_branch_unitaries(basis_eta(Z), phase_pool(Z, X))
        if not found.ok or len(found.unitaries) != 2:
            return False, f"branch search: {found}"
        cert = check_teleportation(basis_eta(Z), found.unitaries)
        dc = check_dense_coding(basis_eta(Z), found.unitaries)
        return cert.valid and dc.ok, "2 branches, identity decode table"

    _check(res, "qubit.teleport_and_densecode", teleport)

    def bloch():
        rows = M.bloch_table(q)
        by_state = {r["state"]: r for r in rows}
        return (
            len(rows) == 4
            and rows[-1]["absent"]
            and by_state["x0"]["classical_for"] == ["X"]
            and by_state["x0"]["unbiased_for"] == ["Z"]
            and by_state["z0"]["classical_for"] == ["Z"]
            and by_state["z0"]["unbiased_for"] == ["X"],
            "3 states + absent X- row",
        )

    _check(res, "qubit.bloch_table", bloch)

    _check(res, "qubit.term.eta_from_generators", lambda: (
        assert_equal("delta_Z ; eps_Z^", "eta", q.symbols).equal, ""
    ))

    def term_type_error():
        try:
            signature_of(parse_term("z0 ; delta_Z"), q.symbols)
        except TypeError as exc:
            return "II" in str(exc), str(exc)
        return False, "no error raised"

    _check(res, "qubit.term.composition_type_error", term_type_error)
    return res


# -- Spek battery ------------------------------------------------------------------

def spek_checks(store: MorphismStore | None = None) -> list[CheckResult]:
    s = M.spek()
    perms, delta_z, eps_z = M.spek_generators()
    obs = s.observables
    Z, X, Y = obs["Z"], obs["X"], obs["Y"]
    states = s.states
    res: list[CheckResult] = []

    _check(res, "spek.generators.permutations", lambda: (
        len(perms) == 24 and all(is_unitary(p) for p in perms), "24 unitaries"
    ))
    _check(res, "spek.generators.delta_on_2", lambda: (
        sorted(i for j, i in delta_z.pairs if j == 1) == [1, 4],
        "2 ~ {(1,2),(2,1)}",
    ))
    _check(res, "spek.generators.x0_is_eps_dagger", lambda: (
        dagger(eps_z) == states["x0"], ""
    ))

    def six_states():
        x0 = dagger(eps_z)
        orbit = {compose(p, x0).pairs for p in perms}
        return (
            orbit == {st.pairs for st in states.values()} and len(orbit) == 6,
            "orbit of eps_Z^ has the six listed states",
        )

    _check(res, "spek.states.orbit_of_x0", six_states)

    def partners_partition():
        pairs = [("z0", "z1"), ("x0", "x1"), ("y0", "y1")]
        for a, b in pairs:
            union = {i for _, i in states[a].pairs} | {i for _, i in states[b].pairs}
            if union != {0, 1, 2, 3}:
                return False, f"{a},{b} do not partition"
        return True, ""

    _check(res, "spek.states.partner_partition", partners_partition)

    _check(res, "spek.observables.classical_points", lambda: (
        {n for n in ("z0", "z1") if states[n] in Z.classical_points} == {"z0", "z1"}
        and {n for n in ("x0", "x1") if states[n] in X.classical_points} == {"x0", "x1"}
        and {n for n in ("y0", "y1") if states[n] in Y.classical_points} == {"y0", "y1"},
        "",
    ))
    _check(res, "spek.observables.families_of_four", lambda: (
        all(len(ob.family) == 4 for ob in obs.values())
        and all(m.all_laws_hold for ob in obs.values() for m in ob.family),
        "",
    ))
    _check(res, "spek.observables.delta_X_on_3", lambda: (
        sorted(i for j, i in X.representative.delta.pairs if j == 2) == [2, 8],
        "3 ~ {(1,3),(3,1)}",
    ))
    _check(res, "spek.orbit.three_groups", lambda: (
        len(M.observable_orbit()) == 3
        and [len(v) for v in M.observable_orbit().values()] == [4, 4, 4],
        "permutation conjugation yields exactly X, Y, Z",
    ))

    def mutual(a_label, b_label):
        a, b = obs[a_label], obs[b_label]
        for ma in a.family:
            for mb in b.family:
                if check_complementary(ma, mb).holds and check_hopf(ma, mb).holds:
                    return True, f"{ma.name} with {mb.name}"
        return False, "no member pairing works"

    _check(res, "spek.complementary.ZX", lambda: mutual("Z", "X"))
    _check(res, "spek.complementary.ZY", lambda: mutual("Z", "Y"))
    _check(res, "spek.complementary.XY", lambda: mutual("X", "Y"))
    _check(res, "spek.complementary.self_fails", lambda: (
        not check_complementary(Z.representative, Z.representative).holds
        and not check_hopf(Z.representative, Z.representative).holds,
        "",
    ))

    _check(res, "spek.eta.value", lambda: (
        basis_eta(Z.representative).pairs == ((0, 0), (0, 5), (0, 10), (0, 15)),
        "* ~ {(1,1),(2,2),(3,3),(4,4)}",
    ))
    _check(res, "spek.snake.all_members", lambda: (
        all(snake_holds(basis_eta(m)) for ob in obs.values() for m in ob.family), ""
    ))

    def lambdas():
        names = {
            "x0": "id_IV", "y0": "sigma_34", "x1": "sigma_12_34", "y1": "sigma_12",
        }
        for st, pname in names.items():
            if lambda_map(Z.representative, states[st]) != s.symbols.get(pname, identity(M.IV)):
                return False, f"lambda({st}) != {pname}"
        return True, "phases of Z are the Klein four-group"

    _check(res, "spek.lambda.z_phases", lambda: lambdas())

    def ghz_value():
        g = M.ghz()
        expected = {(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1),
                    (2, 2, 2), (3, 3, 2), (2, 3, 3), (3, 2, 3)}
        flat = {(i // 16, (i // 4) % 4, i % 4) for _, i in g.pairs}
        return flat == expected, "eight listed triples"

    _check(res, "spek.ghz.value", ghz_value)
    _check(res, "spek.ghz.invariance", lambda: (
        M.ghz_invariance() == ("id_IV", "sigma_13_24"), "stabilizer {id, (13)(24)}"
    ))
    _check(res, "spek.ghz.marginal_is_eta", lambda: (
        compose(tensor(eps_z, identity(M.IV * M.IV)), M.ghz())
        == compose(delta_z, dagger(eps_z)),
        "(eps_Z x 1 x 1) o GHZ = eta",
    ))

    _check(res, "spek.projector.z0", lambda: (
        measurement_projector(states["z0"]).pairs
        == tuple((j, i) for j in (0, 1) for i in (0, 1)),
        "{1,2} ~ {1,2}",
    ))
    _check(res, "spek.projector.cross", lambda: (
        compose(states["x0"], dagger(states["z0"])).pairs
        == tuple(sorted((j, i) for j in (0, 1) for i in (0, 2))),
        "{1,2} ~ {1,3}",
    ))
    _check(res, "spek.projector.idempotent", lambda: (
        all(
            compose(measurement_projector(st), measurement_projector(st))
            == measurement_projector(st)
            for st in states.values()
        ),
        "",
    ))

    def teleport_iv():
        eta_iv = basis_eta(Z.representative)
        found = find_branch_unitaries(
            eta_iv, phase_pool(Z.representative, X.representative)
        )
        if not found.ok:
            return False, "no branch system found"
        names = sorted(M.perm_name(u) for u in found.unitaries)
        cert = check_teleportation(eta_iv, found.unitaries)
        dc = check_dense_coding(eta_iv, found.unitaries)
        return (
            names == ["id_IV", "sigma_12_34", "sigma_13_24", "sigma_14_23"]
            and cert.valid
            and dc.ok,
            "Klein four-group, 4 valid branches",
        )

    _check(res, "spek.teleport_and_densecode", teleport_iv)

    def teleport_negative():
        eta_iv = basis_eta(Z.representative)
        bad = find_branch_unitaries(eta_iv, phase_pool(Z.representative))
        return (not bad.ok and bad.coverage == 8 and bad.total == 16,
                f"coverage {bad.coverage} of {bad.total}")

    _check(res, "spek.teleport.z_phases_insufficient", teleport_negative)

    _check(res, "spek.bloch_table", lambda: (
        len(M.bloch_table(s)) == 6
        and all(r["classical_for"] == [r["axis"][0]] for r in M.bloch_table(s)),
        "six labelled states",
    ))

    _check(res, "spek.term.separable_pair", lambda: (
        assert_equal("delta_Z ; z0", "z0 x z0", s.symbols).equal, ""
    ))
    _check(res, "spek.term.snake", lambda: (
        assert_equal("(eta^ x id_IV) ; (id_IV x eta)", "id_IV", s.symbols).equal, ""
    ))

    # closure checks (round-bounded store unless one was supplied)
    if store is None:
        store = generate_closure(
            spek_generator_symbols(), ClosureConfig(max_rounds=DEFAULT_CLOSURE_ROUNDS)
        )
    res.extend(closure_checks(store, s))
    return res


def closure_checks(store: MorphismStore, model: M.Model) -> list[CheckResult]:
    res: list[CheckResult] = []
    perms, delta_z, eps_z = M.spek_generators()
    eta_iv = compose(delta_z, dagger(eps_z))
    z0 = model.states["z0"]
    x0 = model.states["x0"]
    targets = {
        "eta_IV": eta_iv,
        "ghz": M.ghz(),
        "z0_projector": measurement_projector(z0),
        "x0_z0_cross": compose(x0, dagger(z0)),
    }
    for name, rel in targets.items():
        def probe(rel=rel):
            r = contains(store, rel)
            if r.status != "yes":
                return False, f"status={r.status}"
            return evaluate_word(store, r.word) == rel, f"word: {r.word}"
        _check(res, f"closure.contains.{name}", probe)

    def oplus():
        d_oplus = Relation.from_pairs(M.IV, M.IV * M.IV, [(i, i * 4 + i) for i in range(4)])
        r = contains(store, d_oplus)
        if r.status == "yes":
            return False, f"diagonal copy unexpectedly present: {r.word}"
        if r.status == "no":
            return True, "definitively excluded (fixpoint store)"
        return False, (
            "absent from the explored fragment, but the store is not at "
            "fixpoint, so exclusion is not certified"
        )

    _check(res, "closure.delta_oplus_excluded", oplus)

    _check(res, "closure.fixpoint", lambda: (
        store.fixpoint,
        f"rounds={store.rounds_run}, morphisms={len(store)}, growth={store.growth}",
    ))

    def scalars():
        rows = census(store)
        scalar_row = [r for r in rows if r["dom"] == [] and r["cod"] == []]
        return bool(scalar_row) and scalar_row[0]["count"] == 2, "both scalars arise"

    _check(res, "closure.census.scalars", scalars)

    def iv_states():
        sc = state_census(store, M.IV)
        present = {st.pairs for st in model.states.values()}
        found = {e.relation.pairs for e in sc.states}
        return present <= found, f"{sc.count} states on IV"

    _check(res, "closure.census.six_states", iv_states)

    def two_system():
        sc = state_census(store, M.IV * M.IV)
        found = {e.relation.rows for e in sc.states}
        if eta_iv.rows not in found or tensor(z0, z0).rows not in found:
            return False, "missing eta or z0 x z0"
        # every maximal (4-element) state must be a local-permutation image
        # of eta or of z0 x z0: the orbits under the moves p x id and id x p
        id_iv = identity(M.IV)
        moves = [run_composer(tensor(p, id_iv).rows) for p in perms]
        moves += [run_composer(tensor(id_iv, p).rows) for p in perms]
        orbit = reachable(moves, [eta_iv.rows, tensor(z0, z0).rows])
        maximal = {rows for rows in found if sum(r.bit_count() for r in rows) == 4}
        stray = maximal - orbit
        return not stray, f"{len(maximal)} maximal two-system states, {len(orbit)} in the two orbits"

    _check(res, "closure.census.two_system_orbits", two_system)
    return res


def run_suite(name: str, store: MorphismStore | None = None) -> tuple[int, dict]:
    """Run a named battery; returns (exit code, JSON-able report)."""
    if name not in ("qubit", "spek", "all"):
        raise ValueError(f"unknown suite {name!r}")
    results: list[CheckResult] = []
    if name in ("qubit", "all"):
        results.extend(qubit_checks())
    if name in ("spek", "all"):
        results.extend(spek_checks(store=store))
    passed = all(r.passed for r in results)
    report = {
        "suite": name,
        "passed": passed,
        "total": len(results),
        "failures": sum(1 for r in results if not r.passed),
        "checks": [r.to_json() for r in results],
    }
    return (0 if passed else 1), report
