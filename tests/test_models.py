import pytest

from toycat.basis import (
    check_complementary,
    check_hopf,
    enumerate_points,
    is_classical,
    is_unbiased,
)
from toycat.models import (
    IV,
    II,
    all_permutations,
    bloch_table,
    frel_qubit,
    get_model,
    ghz,
    ghz_invariance,
    observable_orbit,
    perm_name,
    perm_relation,
    spek,
    spek_generators,
    spek_states,
)
from toycat.relcore import (
    compose,
    dagger,
    identity,
    is_unitary,
    tensor,
)


@pytest.fixture(scope="module")
def q():
    return frel_qubit()


@pytest.fixture(scope="module")
def s():
    return spek()


# -- qubit data ---------------------------------------------------------------

def test_qubit_delta_matrices(q):
    dz = q.structures["Z"].delta
    col = lambda rel, j: tuple(rel.rows[i] >> j & 1 for i in range(len(rel.rows)))
    assert col(dz, 0) == (1, 0, 0, 0)
    assert col(dz, 1) == (0, 0, 0, 1)
    dx = q.structures["X"].delta
    assert col(dx, 0) == (1, 0, 0, 1)
    assert col(dx, 1) == (0, 1, 1, 0)


def test_qubit_xprime_has_same_points_as_x(q):
    repX = enumerate_points(q.structures["X"])
    repXp = enumerate_points(q.structures["X'"])
    assert {r.pairs for r in repX.classical} == {r.pairs for r in repXp.classical}
    assert {r.pairs for r in repX.unbiased} == {r.pairs for r in repXp.unbiased}


def test_qubit_composition_examples(q):
    sym = q.symbols
    one = compose(sym["eps_Z"], sym["z0"])
    assert one.pairs == ((0, 0),)  # identity scalar
    empty = compose(dagger(sym["z0"]), sym["z1"])
    assert empty.pairs == ()  # empty scalar


# -- permutations ----------------------------------------------------------------

def test_permutation_count_and_order():
    perms = all_permutations(IV)
    assert len(perms) == 24
    assert all(is_unitary(p) for p in perms)
    assert perms[0] == identity(IV)


def test_perm_names_use_cycles():
    assert perm_name(perm_relation(IV, [0, 2, 1, 3])) == "sigma_23"
    assert perm_name(perm_relation(IV, [0, 3, 2, 1])) == "sigma_24"
    assert perm_name(perm_relation(IV, [1, 0, 3, 2])) == "sigma_12_34"
    assert perm_name(perm_relation(IV, [0, 1, 2, 3])) == "id_IV"
    assert perm_name(perm_relation(II, [1, 0])) == "sigma_01"


# -- spek generators and states ------------------------------------------------------

def test_spek_delta_listing():
    _, delta_z, eps_z = spek_generators()
    images = {}
    for j, i in delta_z.pairs:
        images.setdefault(j, set()).add((i // 4, i % 4))
    assert images == {
        0: {(0, 0), (1, 1)},
        1: {(0, 1), (1, 0)},
        2: {(2, 2), (3, 3)},
        3: {(2, 3), (3, 2)},
    }
    assert {j for j, _ in eps_z.pairs} == {0, 2}


def test_eps_dagger_is_x0():
    _, _, eps_z = spek_generators()
    x0 = [ns for ns in spek_states() if ns.name == "x0"][0]
    assert dagger(eps_z) == x0.state


def test_six_states_match_prescription_and_orbit():
    states = spek_states()
    members = {ns.name: {i for _, i in ns.state.pairs} for ns in states}
    assert members == {
        "z0": {0, 1}, "z1": {2, 3}, "x0": {0, 2},
        "x1": {1, 3}, "y0": {0, 3}, "y1": {1, 2},
    }
    perms, _, eps_z = spek_generators()
    orbit = {compose(p, dagger(eps_z)).pairs for p in perms}
    assert orbit == {ns.state.pairs for ns in states}
    assert len(orbit) == 6


def test_partner_states_partition_the_set():
    states = {ns.name: ns.state for ns in spek_states()}
    for a, b in (("z0", "z1"), ("x0", "x1"), ("y0", "y1")):
        union = {i for _, i in states[a].pairs} | {i for _, i in states[b].pairs}
        assert union == {0, 1, 2, 3}


# -- observables -----------------------------------------------------------------------

def test_observables_labels_and_classical_points(s):
    obs = s.observables
    assert sorted(obs) == ["X", "Y", "Z"]
    names = {st.pairs: n for n, st in s.states.items()}
    assert sorted(names[p.pairs] for p in obs["Z"].classical_points) == ["z0", "z1"]
    assert sorted(names[p.pairs] for p in obs["X"].classical_points) == ["x0", "x1"]
    assert sorted(names[p.pairs] for p in obs["Y"].classical_points) == ["y0", "y1"]


def test_every_family_member_is_verified(s):
    for ob in s.observables.values():
        assert len(ob.family) == 4
        for m in ob.family:
            assert m.all_laws_hold


def test_family_counits_are_the_unbiased_daggers(s):
    names = {st.pairs: n for n, st in s.states.items()}
    counits = {
        label: sorted(names[dagger(m.epsilon).pairs] for m in ob.family)
        for label, ob in s.observables.items()
    }
    assert counits == {
        "Z": ["x0", "x1", "y0", "y1"],
        "X": ["y0", "y1", "z0", "z1"],
        "Y": ["x0", "x1", "z0", "z1"],
    }


def test_each_member_counit_dagger_is_unbiased_for_it(s):
    for ob in s.observables.values():
        for m in ob.family:
            assert dagger(m.epsilon) in m.points.unbiased, m.name


def test_delta_x_conjugation_value(s):
    dx = s.observables["X"].representative.delta
    images = {}
    for j, i in dx.pairs:
        images.setdefault(j, set()).add((i // 4, i % 4))
    assert images[2] == {(0, 2), (2, 0)}  # 3 ~ {(1,3),(3,1)} 1-based


def test_observable_orbit_is_three_groups_of_four():
    orbit = observable_orbit()
    assert len(orbit) == 3
    assert [len(v) for v in orbit.values()] == [4, 4, 4]


def test_mutual_complementarity_via_member_search(s):
    obs = s.observables
    for a, b in (("Z", "X"), ("Z", "Y"), ("X", "Y")):
        found = any(
            check_complementary(ma, mb).holds and check_hopf(ma, mb).holds
            for ma in obs[a].family
            for mb in obs[b].family
        )
        assert found, f"{a} vs {b}"


def test_representative_pairing_for_ZX_works_directly(s):
    Z = s.observables["Z"].representative
    X = s.observables["X"].representative
    assert check_complementary(Z, X).holds
    assert check_hopf(Z, X).holds


# -- GHZ ------------------------------------------------------------------------------

def test_ghz_value():
    g = ghz()
    triples = {(i // 16, (i // 4) % 4, i % 4) for _, i in g.pairs}
    assert triples == {
        (0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1),
        (2, 2, 2), (3, 3, 2), (2, 3, 3), (3, 2, 3),
    }


def test_ghz_marginal_is_eta():
    _, delta_z, eps_z = spek_generators()
    eta_iv = compose(delta_z, dagger(eps_z))
    marginal = compose(tensor(eps_z, identity(IV * IV)), ghz())
    assert marginal == eta_iv


def test_ghz_invariance_stabilizer():
    assert ghz_invariance() == ("id_IV", "sigma_13_24")


# -- bloch tables ---------------------------------------------------------------------

def test_bloch_table_spek(s):
    rows = bloch_table(s)
    assert len(rows) == 6
    for row in rows:
        assert row["classical_for"] == [row["axis"][0]]
        assert len(row["unbiased_for"]) == 2
        assert row["axis"][0] not in row["unbiased_for"]


def test_bloch_table_qubit(q):
    rows = bloch_table(q)
    assert len(rows) == 4
    by_state = {r["state"]: r for r in rows}
    assert by_state["x0"]["classical_for"] == ["X"]
    assert by_state["x0"]["unbiased_for"] == ["Z"]
    assert by_state["z0"]["classical_for"] == ["Z"]
    assert by_state["z0"]["unbiased_for"] == ["X"]
    assert rows[-1]["absent"] and rows[-1]["state"] is None


@pytest.mark.parametrize("name", ["spek", "frel-qubit"])
def test_bloch_rows_agree_with_the_point_predicates(name):
    m = get_model(name)
    axes = {label: ob.representative for label, ob in m.observables.items()}
    for row in bloch_table(m):
        if row["absent"]:
            continue
        st = m.states[row["state"]]
        assert row["classical_for"] == [a for a in sorted(axes) if is_classical(axes[a], st)]
        assert row["unbiased_for"] == [a for a in sorted(axes) if is_unbiased(axes[a], st)]


def test_get_model_names():
    assert get_model("spek").name == "spek"
    assert get_model("frel-qubit").name == "frel-qubit"
    assert get_model("qubit").name == "frel-qubit"
    with pytest.raises(KeyError):
        get_model("nope")
