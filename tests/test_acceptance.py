"""Acceptance criteria, one test per criterion (5 is split into 5a/5b/5c).

One more test pins the bytes of the cap-3 round-4 store that criterion 5
builds, so it adds no build of its own.

Each test prints a single PASS/FAIL line. Criteria 5b and 5c prove that
the diagonal copy map delta_oplus lies outside the Spek closure at arity
caps 2, 3 and 4. A fixpoint cannot give that proof at desk scale: the
arity-3 fragment contains the two-local unitary group of order
92,897,280, far beyond the morphism cap, so the round-bounded stores are
non-fixpoint and `contains` faithfully answers "unknown". The proof is an
invariant instead (`toycat.symplectic`): every symbol a store is seeded
with is empty or affine Lagrangian over F2, compose, tensor and converse
keep that class, and delta_oplus is outside it. 5b and 5c issue that
certificate for each store's full symbol set, re-verify it with the
brute-force oracle in `tests/oracle.py`, check every stored morphism
against the class, and require `contains` to stay honest about the
missing fixpoint.
"""

import hashlib
import json
import random
import time

import pytest

from toycat.basis import (
    check_complementary,
    check_hopf,
    enumerate_points,
    eta as basis_eta,
    verify_basis_structure,
)
from toycat.closure import (
    ClosureConfig,
    StoredMorphism,
    contains,
    evaluate_word,
    generate_closure,
    store_from_json,
    store_to_json_str,
)
from toycat.models import (
    IV,
    II,
    frel_qubit,
    ghz,
    observable_orbit,
    perm_name,
    spek,
    spek_generators,
    spek_states,
)
from toycat.protocols import (
    check_dense_coding,
    check_teleportation,
    find_branch_unitaries,
    phase_pool,
)
from toycat.relcore import (
    FinObject,
    Relation,
    compose,
    dagger,
    identity,
    snake_holds,
)
from toycat.suite import spek_generator_symbols
from toycat.symplectic import (
    CertificateRefused,
    exclusion_certificate,
    is_affine_lagrangian,
)

from oracle import (
    affine_lagrangian_oracle,
    compose_oracle,
    dagger_oracle,
    random_relation,
    store_tree_oracle,
    tensor_oracle,
)

D_OPLUS = Relation.from_pairs(IV, IV * IV, [(i, i * 4 + i) for i in range(4)])


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def exclusion_proof(store, target) -> tuple[bool, str]:
    """Certify that no word over the store's symbols gives `target`.

    The certificate must cover every symbol the store was seeded with,
    re-derive from its own relations, agree with the brute-force oracle,
    and every morphism the store holds must be in the invariant class.
    """
    try:
        cert = exclusion_certificate(store.symbols, target)
    except CertificateRefused as exc:
        return False, f"no certificate: {exc}"
    if cert.checked != tuple(sorted(store.symbols)):
        return False, "certificate does not cover the store's symbols"
    if not cert.check():
        return False, "certificate does not re-derive from its relations"
    if not all(affine_lagrangian_oracle(rel) for _, rel in cert.symbols):
        return False, "oracle finds a symbol outside the class"
    if affine_lagrangian_oracle(cert.target):
        return False, "oracle finds the target inside the class"
    outside = sorted(
        e.word for e in store.items.values() if not is_affine_lagrangian(e.relation)
    )
    if outside:
        return False, f"{len(outside)} stored morphisms outside the class, e.g. {outside[0]}"
    return True, f"{cert.summary()}; all {len(store)} stored morphisms in the class"


@pytest.fixture(scope="module")
def qubit():
    return frel_qubit()


@pytest.fixture(scope="module")
def spek_model():
    return spek()


@pytest.fixture(scope="module")
def spek_store_r4():
    """Arity-3 run bounded at word length 4: the witness-bearing fragment.

    The bound exists only to terminate; without it the run provably
    exceeds the morphism cap (see module docstring), so the store is
    non-fixpoint either way.
    """
    return generate_closure(
        spek_generator_symbols(),
        ClosureConfig(max_arity=3, max_morphisms=1_000_000, max_rounds=4),
    )


@pytest.fixture(scope="module")
def spek_store_r4_proof(spek_store_r4):
    """The exclusion proof for the cap-3 store, shared by 5b and 5c."""
    return exclusion_proof(spek_store_r4, D_OPLUS)


def test_criterion_01_qubit_structures(qubit):
    elapsed = []
    for label, s in qubit.structures.items():
        # the least of 5 calls, as timeit reports: a busy machine only adds time
        times = []
        for _ in range(5):
            start = time.perf_counter()
            laws = verify_basis_structure(s.obj, s.delta, s.epsilon)
            times.append(time.perf_counter() - start)
        elapsed.append(min(times))
        assert all(r.holds for r in laws), f"{label}: {[r.law for r in laws if not r.holds]}"
    mean_ms = 1000 * sum(elapsed) / len(elapsed)
    report("1", True, f"Z, X, X' pass all six laws exactly (mean {mean_ms:.3f} ms)")
    assert mean_ms < 1.0


def test_criterion_02_point_classification(qubit, spek_model):
    repZ = enumerate_points(qubit.structures["Z"])
    repX = enumerate_points(qubit.structures["X"])
    names = {st.pairs: n for n, st in spek_model.states.items()}
    repIV = enumerate_points(spek_model.structures["Z"])
    ok = (
        len(repZ.classical) == 2 and len(repZ.unbiased) == 1
        and len(repX.classical) == 1 and len(repX.unbiased) == 2
        and sorted(names.get(r.pairs) for r in repIV.classical) == ["z0", "z1"]
        and sorted(names.get(r.pairs) for r in repIV.unbiased)
        == ["x0", "x1", "y0", "y1"]
        and not (repZ.overlap or repX.overlap or repIV.overlap)
    )
    report("2", ok, "point classification matches on II (2+1, 1+2) and IV (z/x/y)")
    assert ok


def test_criterion_03_qubit_complementarity(qubit):
    Z, X = qubit.structures["Z"], qubit.structures["X"]
    ok = (
        check_complementary(Z, X).holds
        and check_hopf(Z, X).holds
        and not check_complementary(Z, Z).holds
        and not check_hopf(Z, Z).holds
        and not check_complementary(X, X).holds
        and not check_hopf(X, X).holds
    )
    report("3", ok, "Z,X on II complementary in both senses; self-pairs fail both")
    assert ok


def test_criterion_04_mutually_complementary_observables(spek_model):
    obs = spek_model.observables
    witnesses = {}
    for a, b in (("Z", "X"), ("Z", "Y"), ("X", "Y")):
        pair = next(
            (
                (ma.name, mb.name)
                for ma in obs[a].family
                for mb in obs[b].family
                if check_complementary(ma, mb).holds and check_hopf(ma, mb).holds
            ),
            None,
        )
        witnesses[(a, b)] = pair
    groups = observable_orbit()
    ok = all(witnesses.values()) and len(groups) == 3 and all(
        len(v) == 4 for v in groups.values()
    )
    report(
        "4",
        ok,
        f"cross pairs pass both checks via {sorted(witnesses.values())}; orbit has 3 groups",
    )
    assert ok


def test_criterion_05a_closure_positive_memberships(spek_store_r4, spek_model):
    _, delta_z, eps_z = spek_generators()
    z0 = spek_model.states["z0"]
    x0 = spek_model.states["x0"]
    targets = {
        "eta_IV": compose(delta_z, dagger(eps_z)),
        "GHZ": ghz(),
        "z0 o z0^": compose(z0, dagger(z0)),
        "x0 o z0^": compose(x0, dagger(z0)),
    }
    for name, rel in targets.items():
        result = contains(spek_store_r4, rel)
        assert result.status == "yes", f"{name}: {result.status}"
        assert evaluate_word(spek_store_r4, result.word) == rel, name
    report("5a", True, "eta, GHZ, z0oz0^, x0oz0^ all contained with sound witness words")


def test_criterion_05b_closure_fixpoint_and_exclusion(spek_store_r4, spek_store_r4_proof):
    found = contains(spek_store_r4, D_OPLUS)
    assert found.status != "yes", "diagonal copy must never be generated"
    fix = spek_store_r4.fixpoint
    honest = found.status == ("no" if fix else "unknown")
    proved, detail = spek_store_r4_proof
    report(
        "5b",
        honest and proved,
        f"fixpoint={fix}, delta_oplus status={found.status} "
        f"(growth {spek_store_r4.growth}); excluded by invariant: {detail}",
    )
    assert honest, f"contains answered {found.status!r} with fixpoint={fix}"
    assert proved, detail


def test_criterion_05c_exclusion_stability_across_caps(spek_store_r4, spek_store_r4_proof):
    start = time.monotonic()
    stores = {3: spek_store_r4}
    stores[2] = generate_closure(
        spek_generator_symbols(),
        ClosureConfig(max_arity=2, max_morphisms=1_000_000, max_rounds=4),
    )
    stores[4] = generate_closure(
        spek_generator_symbols(),
        ClosureConfig(max_arity=4, max_morphisms=1_000_000, max_rounds=3),
    )
    elapsed = time.monotonic() - start
    assert elapsed < 600, "cap-4 run exceeded the 10 minute budget"
    statuses = {cap: contains(st, D_OPLUS).status for cap, st in stores.items()}
    assert all(s != "yes" for s in statuses.values())
    overflowed = any(len(st) >= st.config.max_morphisms for st in stores.values())
    assert not overflowed, "a run overflowed the 1M morphism budget"
    honest = {
        cap: statuses[cap] == ("no" if st.fixpoint else "unknown")
        for cap, st in stores.items()
    }
    proofs = {3: spek_store_r4_proof}
    proofs.update({cap: exclusion_proof(stores[cap], D_OPLUS) for cap in (2, 4)})
    certified = all(ok for ok, _ in proofs.values())
    report(
        "5c",
        certified and all(honest.values()),
        f"delta_oplus excluded at caps 2/3/4 by invariant (contains statuses "
        f"{statuses}); symbols checked per cap: "
        f"{ {cap: len(st.symbols) for cap, st in sorted(stores.items())} }",
    )
    assert all(honest.values()), f"contains is not honest about fixpoints: {statuses}"
    assert certified, {cap: detail for cap, (ok, detail) in proofs.items() if not ok}


@pytest.mark.parametrize("name, rel", [
    ("delta_oplus", D_OPLUS),
    ("full_IV", Relation.from_pairs(IV, IV, [(j, i) for j in range(4) for i in range(4)])),
])
def test_criterion_05bc_negative_control_injected_generator(name, rel):
    # the proof behind 5b/5c must fail once a generator leaves the class
    gens = dict(spek_generator_symbols())
    gens[name] = rel
    store = generate_closure(gens, ClosureConfig(max_arity=2, max_rounds=2))
    proved, detail = exclusion_proof(store, D_OPLUS)
    assert not proved
    assert detail.startswith(f"no certificate: symbol {name!r} is outside the class")


def test_criterion_05bc_negative_control_stray_stored_morphism():
    # a store holding a morphism outside the class fails the proof too
    store = generate_closure(
        spek_generator_symbols(), ClosureConfig(max_arity=2, max_rounds=2)
    )
    assert exclusion_proof(store, D_OPLUS)[0]
    store.items[D_OPLUS.key] = StoredMorphism(D_OPLUS, "delta_oplus", 1)
    proved, detail = exclusion_proof(store, D_OPLUS)
    assert not proved
    assert detail == "1 stored morphisms outside the class, e.g. delta_oplus"


def test_criterion_06_six_states(spek_model):
    perms, _, eps_z = spek_generators()
    orbit = {compose(p, dagger(eps_z)).pairs for p in perms}
    listed = {ns.state.pairs for ns in spek_states()}
    ok = orbit == listed and len(orbit) == 6
    report("6", ok, "orbit of eps_Z^ under S4 is exactly the six listed states")
    assert ok


def test_criterion_07_teleportation_and_dense_coding(qubit, spek_model):
    # II: branches {id, NOT}
    Zq = qubit.structures["Z"]
    eta_q = basis_eta(Zq)
    found_q = find_branch_unitaries(eta_q, phase_pool(Zq, qubit.structures["X"]))
    assert found_q.ok and len(found_q.unitaries) == 2
    assert {u.pairs for u in found_q.unitaries} == {
        identity(II).pairs, qubit.symbols["sigma_01"].pairs,
    }
    cert_q = check_teleportation(eta_q, found_q.unitaries)
    dc_q = check_dense_coding(eta_q, found_q.unitaries)
    assert cert_q.valid and dc_q.ok

    # IV: Klein four-group
    Zs = spek_model.observables["Z"].representative
    eta_s = basis_eta(Zs)
    klein = [
        spek_model.symbols[n]
        for n in ("id_IV", "sigma_12_34", "sigma_13_24", "sigma_14_23")
    ]
    cert_s = check_teleportation(eta_s, klein)
    dc_s = check_dense_coding(eta_s, klein)
    assert cert_s.valid and len(cert_s.branches) == 4 and dc_s.ok

    # cross-check every composite along the independent pair-list route
    for cert, obj in ((cert_q, II), (cert_s, IV)):
        ida = identity(obj)
        for branch in cert.branches:
            state = compose_oracle(tensor_oracle(branch.unitary, ida), cert.eta)
            assert state == branch.state
            assert dagger_oracle(state) == branch.effect
            branch_map = compose_oracle(
                tensor_oracle(branch.effect, ida), tensor_oracle(ida, cert.eta)
            )
            assert branch_map == branch.branch_map == dagger_oracle(branch.unitary)
            assert compose_oracle(branch.unitary, branch_map) == ida
    for dc, n in ((dc_q, 2), (dc_s, 4)):
        for i in range(n):
            for j in range(n):
                expected = "identity" if i == j else "empty"
                assert dc.table[i][j] == expected
    report(
        "7",
        True,
        "teleportation valid on II (2 branches) and IV (Klein four-group, 4 "
        "branches); decode tables exact; all composites re-derived by the "
        "pair-list oracle",
    )


def test_criterion_08_snake_equations(qubit, spek_model):
    structures = list(qubit.structures.values()) + [
        m for ob in spek_model.observables.values() for m in ob.family
    ]
    for s in structures:
        assert snake_holds(basis_eta(s)), s.name
    report("8", True, f"snake equations hold for eta of all {len(structures)} structures")


def test_criterion_09_oracle_equivalence():
    discrepancies = 0
    checked = 0
    sizes = [FinObject(), FinObject(2)]
    for a in sizes:
        for b in sizes:
            for c in sizes:
                fs = 1 << (a.cardinality * b.cardinality)
                gs = 1 << (b.cardinality * c.cardinality)
                for fbits in range(fs):
                    f = Relation(
                        a, b,
                        tuple(
                            sum(
                                1 << j
                                for j in range(a.cardinality)
                                if fbits >> (i * a.cardinality + j) & 1
                            )
                            for i in range(b.cardinality)
                        ),
                    )
                    for gbits in range(gs):
                        g = Relation(
                            b, c,
                            tuple(
                                sum(
                                    1 << j
                                    for j in range(b.cardinality)
                                    if gbits >> (i * b.cardinality + j) & 1
                                )
                                for i in range(c.cardinality)
                            ),
                        )
                        checked += 1
                        if compose(g, f) != compose_oracle(g, f):
                            discrepancies += 1
    rng = random.Random(462531)
    shapes = [FinObject(3), FinObject(4), FinObject(2, 2)]
    for _ in range(10_000):
        a, b, c = (rng.choice(shapes) for _ in range(3))
        f = random_relation(rng, a, b, rng.choice([0.15, 0.4, 0.7]))
        g = random_relation(rng, b, c, rng.choice([0.15, 0.4, 0.7]))
        checked += 1
        if compose(g, f) != compose_oracle(g, f):
            discrepancies += 1
    ok = discrepancies == 0
    report("9", ok, f"{checked} composition pairs agree across both routes")
    assert ok


def test_criterion_10_closure_determinism():
    perms, _, eps_z = spek_generators()
    reduced = {perm_name(p): p for p in perms if perm_name(p) != "id_IV"}
    reduced["eps_Z"] = eps_z
    fix_blobs = [
        store_to_json_str(generate_closure(reduced, ClosureConfig(max_arity=1)))
        for _ in range(2)
    ]
    bounded_blobs = [
        store_to_json_str(
            generate_closure(
                spek_generator_symbols(), ClosureConfig(max_arity=3, max_rounds=3)
            )
        )
        for _ in range(2)
    ]
    ok = fix_blobs[0] == fix_blobs[1] and bounded_blobs[0] == bounded_blobs[1]
    report("10", ok, "two builds write byte-identical stores (fixpoint and bounded)")
    assert ok


def test_cap3_round4_spek_store_bytes_are_pinned(spek_store_r4):
    # not a criterion: pins every word, order and growth count of the
    # largest build the tests make, so a pair-scan change that alters one shows
    assert [n for _, n in spek_store_r4.growth] == [34, 941, 22463, 121287]
    # the `toycat-store/5` text, and the `/3` rendering of the store read
    # back from it, which is pinned by the digest taken before the block form;
    # the read-back has the built store's items and record, its growth derived
    text = store_to_json_str(spek_store_r4)
    loaded = store_from_json(json.loads(text))
    assert loaded.items == spek_store_r4.items
    assert (loaded.growth, loaded.rounds_run, loaded.fixpoint) == (
        spek_store_r4.growth, spek_store_r4.rounds_run, spek_store_r4.fixpoint
    )
    v3 = json.dumps(store_tree_oracle(loaded), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e958d508233fd0748e2629f4c9baaea033b1751d276907002358a1fa63aecf62"
    )
    assert hashlib.sha256(v3.encode()).hexdigest() == (
        "88e763c1dd5f0acf6d27db7a6f5d5e9698e81796b67697efb80c477eb7abe488"
    )
