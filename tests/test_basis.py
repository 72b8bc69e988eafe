import random

import pytest

from toycat.basis import (
    BasisStructure,
    all_states,
    EnumerationCapExceeded,
    check_complementary,
    check_hopf,
    enumerate_points,
    eta,
    lambda_map,
    is_classical,
    is_unbiased,
    verify_basis_structure,
)
from toycat.models import (
    IV,
    II,
    all_permutations,
    conjugate_delta,
    frel_qubit,
    spek,
    spek_generators,
)
from toycat.relcore import (
    FinObject,
    Relation,
    ShapeMismatchError,
    UNIT,
    compose,
    dagger,
    identity,
    snake_holds,
    tensor,
)

from oracle import (
    all_relations,
    basis_laws_oracle,
    classical_oracle,
    complementarity_oracle,
    random_relation,
    state_members,
    unbiased_oracle,
)


@pytest.fixture(scope="module")
def qubit():
    return frel_qubit()


@pytest.fixture(scope="module")
def spek_model():
    return spek()


@pytest.fixture(scope="module")
def structure_groups(qubit, spek_model):
    """Structures sharing an object: the qubit's three, Spek's twelve family members."""
    return [
        list(qubit.structures.values()),
        [m for ob in spek_model.observables.values() for m in ob.family],
    ]


# -- law verification -----------------------------------------------------------

def test_qubit_structures_pass_all_laws(qubit):
    for s in qubit.structures.values():
        assert s.all_laws_hold, [r.law for r in s.verified if not r.holds]


def test_verifier_agrees_with_comprehension_oracle_exhaustively_on_II():
    mismatches = 0
    verified = 0
    for delta in all_relations(II, II * II):
        for eps in all_relations(II, UNIT):
            reports = {r.law: r.holds for r in verify_basis_structure(II, delta, eps)}
            if reports != basis_laws_oracle(delta, eps):
                mismatches += 1
            if all(reports.values()):
                verified += 1
    assert mismatches == 0
    # brute force finds exactly Z, X and the exchanged variant X'
    assert verified == 3


def test_bad_counit_fails_counit_law():
    _, delta_z, _ = spek_generators()
    z0 = Relation.from_pairs(UNIT, IV, [(0, 0), (0, 1)])
    reports = {r.law: r for r in verify_basis_structure(IV, delta_z, dagger(z0))}
    assert not reports["counit_left"].holds
    assert reports["counit_left"].witness is not None


def test_verify_rejects_wrong_shapes():
    _, delta_z, eps_z = spek_generators()
    with pytest.raises(ShapeMismatchError):
        verify_basis_structure(II, delta_z, eps_z)


# -- points -----------------------------------------------------------------------

def test_lambda_examples_on_spek_Z(spek_model):
    Z = spek_model.structures["Z"]
    st = spek_model.states
    assert lambda_map(Z, st["x0"]) == identity(IV)
    assert lambda_map(Z, st["y0"]) == spek_model.symbols["sigma_34"]
    assert lambda_map(Z, st["x1"]) == spek_model.symbols["sigma_12_34"]
    assert lambda_map(Z, st["y1"]) == spek_model.symbols["sigma_12"]


def test_lambda_of_counit_dagger_is_identity(qubit, spek_model):
    structures = list(qubit.structures.values()) + [
        m for ob in spek_model.observables.values() for m in ob.family
    ]
    for s in structures:
        assert lambda_map(s, dagger(s.epsilon)) == identity(s.obj)


def test_classical_and_unbiased_on_qubit(qubit):
    Z, X = qubit.structures["Z"], qubit.structures["X"]
    z0, z1, x0 = qubit.states["z0"], qubit.states["z1"], qubit.states["x0"]
    assert is_classical(Z, z0) and is_classical(Z, z1)
    assert is_classical(X, x0)
    assert not is_classical(Z, x0)
    assert is_unbiased(Z, x0)
    assert is_unbiased(X, z0) and is_unbiased(X, z1)
    assert not is_unbiased(Z, z0)


def test_point_reports_match_the_models(qubit, spek_model):
    Z, X = qubit.structures["Z"], qubit.structures["X"]
    repZ = enumerate_points(Z)
    assert len(repZ.classical) == 2 and len(repZ.unbiased) == 1
    repX = enumerate_points(X)
    assert len(repX.classical) == 1 and len(repX.unbiased) == 2
    repIV = enumerate_points(spek_model.structures["Z"])
    names = {st.pairs: n for n, st in spek_model.states.items()}
    assert sorted(names[r.pairs] for r in repIV.classical) == ["z0", "z1"]
    assert sorted(names[r.pairs] for r in repIV.unbiased) == ["x0", "x1", "y0", "y1"]


def test_point_report_partitions_and_no_overlap(qubit):
    rep = enumerate_points(qubit.structures["Z"])
    assert rep.total == 2 ** qubit.obj.cardinality - 1
    assert not rep.overlap


def test_points_partition_all_states_as_the_oracle_classifies(structure_groups):
    for s in (s for group in structure_groups for s in group):
        rep = s.points
        states = list(all_states(s.obj))
        assert enumerate_points(s) is rep
        assert sorted(rep.classical + rep.unbiased + rep.other, key=states.index) == states
        assert set(rep.overlap) <= set(rep.classical)
        for part in (rep.classical, rep.unbiased, rep.other):
            assert list(part) == [psi for psi in states if psi in part]
        for psi in states:
            c = classical_oracle(s, state_members(psi))
            u = unbiased_oracle(s, state_members(psi))
            assert (psi in rep.classical, psi in rep.unbiased, psi in rep.overlap) == (
                c, u and not c, c and u
            ), (s.name, psi)


def test_enumeration_cap():
    big = FinObject(32)
    s = BasisStructure(
        big,
        Relation.from_pairs(big, big * big, [(i, i * 32 + i) for i in range(32)]),
        Relation.from_pairs(big, UNIT, [(i, 0) for i in range(32)]),
    )
    with pytest.raises(EnumerationCapExceeded) as err:
        enumerate_points(s)
    assert "16" in str(err.value)


def test_enumeration_cap_holds_for_every_reader_of_the_points():
    obj = FinObject(17)
    s = BasisStructure(
        obj,
        Relation.from_pairs(obj, obj * obj, [(i, i * 17 + i) for i in range(17)]),
        Relation.from_pairs(obj, UNIT, [(i, 0) for i in range(17)]),
    )
    for read in (lambda: s.points, lambda: check_complementary(s, s)):
        with pytest.raises(EnumerationCapExceeded, match="17 elements"):
            read()


# -- complementarity ----------------------------------------------------------------

def test_complementarity_matches_the_pair_set_oracle(structure_groups):
    outcomes = []
    for group in structure_groups:
        for a in group:
            for b in group:
                rep = check_complementary(a, b)
                got = (
                    rep.holds,
                    rep.classical_a_unbiased_b,
                    rep.classical_b_unbiased_a,
                    rep.counit_daggers_classical,
                    None if rep.witness is None else state_members(rep.witness),
                )
                assert got == complementarity_oracle(a, b), (a.name, b.name)
                outcomes.append(got[:4])
    assert len(outcomes) == 153
    # pairs that hold, fail on a classical point, and fail on the counits only
    assert {(True,) * 4, (False, True, True, False)} <= set(outcomes)
    assert any(not o[1] for o in outcomes)


def test_complementarity_matches_the_oracle_on_random_structures():
    # lawless structures reach what the models never do: a classical point
    # of one structure that is both classical and unbiased for the other,
    # and both first bullets failing
    rng = random.Random(5)
    shared = two_sided = 0
    for size in (2, 3):
        obj = FinObject(size)
        for _ in range(300):
            a, b = (
                BasisStructure(
                    obj,
                    random_relation(rng, obj, obj * obj, 0.2),
                    random_relation(rng, obj, UNIT, 0.8),
                )
                for _ in range(2)
            )
            rep = check_complementary(a, b)
            expected = complementarity_oracle(a, b)
            assert (
                rep.holds,
                rep.classical_a_unbiased_b,
                rep.classical_b_unbiased_a,
                rep.counit_daggers_classical,
                None if rep.witness is None else state_members(rep.witness),
            ) == expected
            shared += bool(set(a.points.classical) & set(b.points.overlap))
            two_sided += not expected[1] and not expected[2]
    assert shared and two_sided


def test_qubit_ZX_complementary_both_senses(qubit):
    Z, X = qubit.structures["Z"], qubit.structures["X"]
    assert check_complementary(Z, X).holds
    assert check_hopf(Z, X).holds
    assert not check_complementary(Z, Z).holds
    assert not check_hopf(Z, Z).holds
    assert not check_complementary(X, X).holds
    assert not check_hopf(X, X).holds


def test_checks_are_symmetric(qubit, spek_model):
    Z, X = qubit.structures["Z"], qubit.structures["X"]
    assert check_complementary(Z, X).holds == check_complementary(X, Z).holds
    assert check_hopf(Z, X).holds == check_hopf(X, Z).holds
    a = spek_model.observables["Z"].family[0]
    b = spek_model.observables["Y"].family[0]
    assert check_complementary(a, b).holds == check_complementary(b, a).holds
    assert check_hopf(a, b).holds == check_hopf(b, a).holds


def test_hopf_antipode_value_on_qubit(qubit):
    # mu_Z o delta_X sends 0 to {0,1} and 1 to nothing, like eps_Z^ o eps_X
    Z, X = qubit.structures["Z"], qubit.structures["X"]
    lhs = compose(dagger(Z.delta), X.delta)
    rhs = compose(dagger(Z.epsilon), X.epsilon)
    assert lhs == rhs
    assert lhs.pairs == ((0, 0), (0, 1))


def test_def1_and_hopf_coincide_on_II_brute_force():
    structures = []
    for delta in all_relations(II, II * II):
        for eps in all_relations(II, UNIT):
            s = BasisStructure(II, delta, eps)
            if s.all_laws_hold:
                structures.append(s)
    assert len(structures) == 3
    for a in structures:
        for b in structures:
            assert check_complementary(a, b).holds == check_hopf(a, b).holds


def test_def1_and_hopf_coincide_sampled_on_IV(spek_model):
    members = [m for ob in spek_model.observables.values() for m in ob.family]
    diag = BasisStructure(
        IV,
        Relation.from_pairs(IV, IV * IV, [(i, i * 4 + i) for i in range(4)]),
        Relation.from_pairs(IV, UNIT, [(i, 0) for i in range(4)]),
        name="biproduct-diagonal",
    )
    assert diag.all_laws_hold
    pool = members + [diag]
    import random

    rng = random.Random(2024)
    for _ in range(60):
        a, b = rng.choice(pool), rng.choice(pool)
        assert check_complementary(a, b).holds == check_hopf(a, b).holds


def test_object_mismatch_rejected(qubit, spek_model):
    with pytest.raises(ShapeMismatchError):
        check_complementary(qubit.structures["Z"], spek_model.structures["Z"])
    with pytest.raises(ShapeMismatchError):
        check_hopf(qubit.structures["Z"], spek_model.structures["Z"])


# -- eta and snakes --------------------------------------------------------------------

def test_eta_values(qubit, spek_model):
    assert eta(spek_model.structures["Z"]).pairs == ((0, 0), (0, 5), (0, 10), (0, 15))
    assert eta(qubit.structures["Z"]).pairs == ((0, 0), (0, 3))
    assert eta(qubit.structures["X"]).pairs == ((0, 0), (0, 3))


def test_eta_snake_for_every_verified_structure(qubit, spek_model):
    structures = list(qubit.structures.values()) + [
        m for ob in spek_model.observables.values() for m in ob.family
    ]
    for s in structures:
        assert snake_holds(eta(s))


def test_snake_fails_for_separable_cup(spek_model):
    z0 = spek_model.states["z0"]
    assert not snake_holds(tensor(z0, z0))


def test_eta_warns_on_unverified_structure():
    _, delta_z, _ = spek_generators()
    z0 = Relation.from_pairs(UNIT, IV, [(0, 0), (0, 1)])
    bad = BasisStructure(IV, delta_z, dagger(z0))
    with pytest.warns(UserWarning):
        eta(bad)


# -- conjugation ---------------------------------------------------------------------

def test_permutation_conjugation_preserves_structures(spek_model):
    Z = spek_model.structures["Z"]
    for sigma in all_permutations(IV):
        moved = BasisStructure(
            IV, conjugate_delta(Z.delta, sigma), compose(Z.epsilon, dagger(sigma))
        )
        assert moved.all_laws_hold
