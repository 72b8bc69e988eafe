import pytest

from toycat.basis import eta as basis_eta
from toycat.models import IV, II, frel_qubit, perm_name, spek
from toycat.protocols import (
    ComplementarityRequired,
    all_unitary_permutations,
    bell_basis,
    check_dense_coding,
    check_teleportation,
    find_branch_unitaries,
    measurement_projector,
    phase_pool,
    phase_unitaries,
)
from toycat.relcore import (
    Relation,
    ShapeMismatchError,
    compose,
    dagger,
    identity,
    is_unitary,
    scalar_identity,
    tensor,
)

from oracle import compose_oracle, dagger_oracle, tensor_oracle


@pytest.fixture(scope="module")
def q():
    return frel_qubit()


@pytest.fixture(scope="module")
def s():
    return spek()


def closed_pool(*structures):
    """Every composite of the structures' phases, by a plain pairwise closure."""
    pool = {u.key: u for b in structures for u in phase_unitaries(b)}
    changed = True
    while changed:
        changed = False
        for u in list(pool.values()):
            for v in list(pool.values()):
                w = compose(u, v)
                if w.key not in pool:
                    pool[w.key] = w
                    changed = True
    return [pool[k] for k in sorted(pool)]


# -- bell basis -------------------------------------------------------------------

def test_bell_map_on_II_is_xor(q):
    bb = bell_basis(q.structures["X"], q.structures["Z"])
    expected = Relation.from_pairs(
        II * II, II * II,
        [(a * 2 + b, (a ^ b) * 2 + b) for a in range(2) for b in range(2)],
    )
    assert bb.bell_map == expected
    assert is_unitary(bb.bell_map)


def test_bell_product_structure_passes_all_laws(q):
    bb = bell_basis(q.structures["X"], q.structures["Z"])
    assert bb.tensor_basis.all_laws_hold


def test_bell_map_on_IV_is_unitary(s):
    bb = bell_basis(s.observables["X"].representative, s.observables["Z"].representative)
    assert is_unitary(bb.bell_map)
    assert bb.tensor_basis.all_laws_hold


def test_bell_refuses_non_complementary_pair(q):
    with pytest.raises(ComplementarityRequired):
        bell_basis(q.structures["Z"], q.structures["Z"])


# -- phase unitaries ---------------------------------------------------------------

def test_phase_unitaries_on_II(q):
    pz = phase_unitaries(q.structures["Z"])
    assert [u.pairs for u in pz] == [identity(II).pairs]
    px = phase_unitaries(q.structures["X"])
    flip = q.symbols["sigma_01"]
    assert {u.pairs for u in px} == {identity(II).pairs, flip.pairs}
    assert list(px) == sorted(px, key=lambda r: r.key)
    assert {u.pairs for u in phase_pool(q.structures["X"])} == {
        identity(II).pairs, flip.pairs,
    }


def test_phase_unitaries_on_IV_are_klein_groups(s):
    Z = s.observables["Z"].representative
    names = sorted(perm_name(u) for u in phase_unitaries(Z))
    assert names == ["id_IV", "sigma_12", "sigma_12_34", "sigma_34"]
    X = s.observables["X"].representative
    names_x = sorted(perm_name(u) for u in phase_unitaries(X))
    assert names_x == ["id_IV", "sigma_13", "sigma_13_24", "sigma_24"]


def test_phase_pool_closure_is_all_permutations(s):
    pool = closed_pool(
        s.observables["Z"].representative, s.observables["X"].representative
    )
    assert len(pool) == 24


def test_phase_pool_matches_a_pairwise_closure(q, s):
    Zs, Xs = s.observables["Z"].representative, s.observables["X"].representative
    Zq, Xq = q.structures["Z"], q.structures["X"]
    for structures, size in (((Zs, Xs), 24), ((Zs,), 4), ((Zq, Xq), 2)):
        for order in (structures, structures[::-1]):
            pool = phase_pool(*order)
            assert isinstance(pool, tuple) and len(pool) == size
            assert list(pool) == closed_pool(*order)


def test_phase_pool_refuses_structures_on_different_objects(q, s):
    with pytest.raises(ShapeMismatchError):
        phase_pool(q.structures["Z"], s.observables["Z"].representative)
    assert phase_pool() == ()


# -- branch search ------------------------------------------------------------------

def test_branch_search_on_II(q):
    pool = closed_pool(q.structures["Z"], q.structures["X"])
    found = find_branch_unitaries(basis_eta(q.structures["Z"]), pool)
    assert found.ok
    assert {u.pairs for u in found.unitaries} == {
        identity(II).pairs,
        q.symbols["sigma_01"].pairs,
    }


def test_branch_search_on_IV_finds_klein_four(s):
    Z = s.observables["Z"].representative
    pool = closed_pool(Z, s.observables["X"].representative)
    found = find_branch_unitaries(basis_eta(Z), pool)
    assert found.ok
    assert sorted(perm_name(u) for u in found.unitaries) == [
        "id_IV", "sigma_12_34", "sigma_13_24", "sigma_14_23",
    ]


def test_branch_search_fails_with_z_phases_only(s):
    Z = s.observables["Z"].representative
    found = find_branch_unitaries(basis_eta(Z), phase_pool(Z))
    assert not found.ok
    assert (found.coverage, found.total) == (8, 16)


def test_branch_search_rejects_bad_eta(s):
    z0 = s.states["z0"]
    with pytest.raises(ValueError):
        find_branch_unitaries(tensor(z0, z0), [identity(IV)])


def test_branch_search_refuses_a_non_unitary_pool(s):
    Z = s.observables["Z"].representative
    with pytest.raises(ValueError, match="non-unitary"):
        find_branch_unitaries(basis_eta(Z), [identity(IV), measurement_projector(s.states["z0"])])


# -- teleportation -------------------------------------------------------------------

def pairlist_compose(*rels):
    """Right-to-left composition through the pair-set oracle."""
    out = rels[-1]
    for r in reversed(rels[:-1]):
        out = compose_oracle(r, out)
    return out


def test_teleportation_on_II(q):
    Z = q.structures["Z"]
    eta = basis_eta(Z)
    unitaries = [identity(II), q.symbols["sigma_01"]]
    cert = check_teleportation(eta, unitaries)
    assert cert.valid
    assert len(cert.branches) == 2
    for branch in cert.branches:
        assert branch.branch_map == dagger(branch.unitary)
        assert compose(branch.unitary, branch.branch_map) == identity(II)


def test_teleportation_on_IV_klein_four(s):
    Z = s.observables["Z"].representative
    eta = basis_eta(Z)
    unitaries = [
        s.symbols[n] for n in ("id_IV", "sigma_12_34", "sigma_13_24", "sigma_14_23")
    ]
    cert = check_teleportation(eta, unitaries)
    assert cert.valid
    assert len(cert.branches) == 4


def test_teleportation_branches_cross_checked_by_pairlist_oracle(s):
    Z = s.observables["Z"].representative
    eta = basis_eta(Z)
    unitaries = [
        s.symbols[n] for n in ("id_IV", "sigma_12_34", "sigma_13_24", "sigma_14_23")
    ]
    cert = check_teleportation(eta, unitaries)
    ida = identity(IV)
    for branch in cert.branches:
        state = pairlist_compose(tensor_oracle(branch.unitary, ida), eta)
        assert state == branch.state
        effect = dagger_oracle(state)
        assert effect == branch.effect
        branch_map = pairlist_compose(tensor_oracle(effect, ida), tensor_oracle(ida, eta))
        assert branch_map == branch.branch_map
        assert branch_map == dagger_oracle(branch.unitary)
        assert pairlist_compose(branch.unitary, branch_map) == ida


def test_teleportation_fails_without_coverage(s):
    Z = s.observables["Z"].representative
    cert = check_teleportation(basis_eta(Z), [identity(IV), s.symbols["sigma_12"]])
    assert not cert.valid
    assert not cert.coverage_ok


def test_teleportation_fails_on_overlapping_branches(q, s):
    eta_iv = basis_eta(s.observables["Z"].representative)
    cert = check_teleportation(eta_iv, [identity(IV), s.symbols["sigma_12"]])
    assert not cert.disjoint and not cert.valid
    # overlap alone: every branch corrects and the supports cover II x II
    cert = check_teleportation(
        basis_eta(q.structures["Z"]), [identity(II), identity(II), q.symbols["sigma_01"]]
    )
    assert all(b.ok for b in cert.branches) and cert.coverage_ok
    assert not cert.disjoint and not cert.valid


def test_yanking_for_all_permutations(s):
    # (dagger((U x 1) o eta) x 1) o (1 x eta) = dagger(U) for every U
    Z = s.observables["Z"].representative
    eta = basis_eta(Z)
    ida = identity(IV)
    for u in all_unitary_permutations(IV):
        effect = dagger(compose(tensor(u, ida), eta))
        yanked = compose(tensor(effect, ida), tensor(ida, eta))
        assert yanked == dagger(u)


def test_yanking_exhaustive_on_II(q):
    eta = basis_eta(q.structures["Z"])
    ida = identity(II)
    for u in all_unitary_permutations(II):
        effect = dagger(compose(tensor(u, ida), eta))
        assert compose(tensor(effect, ida), tensor(ida, eta)) == dagger(u)


# -- dense coding ----------------------------------------------------------------------

def test_dense_coding_on_II(q):
    eta = basis_eta(q.structures["Z"])
    result = check_dense_coding(eta, [identity(II), q.symbols["sigma_01"]])
    assert result.ok
    assert result.table == (("identity", "empty"), ("empty", "identity"))


def test_dense_coding_on_IV(s):
    eta = basis_eta(s.observables["Z"].representative)
    unitaries = [
        s.symbols[n] for n in ("id_IV", "sigma_12_34", "sigma_13_24", "sigma_14_23")
    ]
    result = check_dense_coding(eta, unitaries)
    assert result.ok
    for i, row in enumerate(result.table):
        for j, kind in enumerate(row):
            assert kind == ("identity" if i == j else "empty")


def test_dense_coding_fails_with_overlapping_graphs(s):
    eta = basis_eta(s.observables["Z"].representative)
    unitaries = [
        s.symbols[n] for n in ("id_IV", "sigma_12", "sigma_34", "sigma_12_34")
    ]
    result = check_dense_coding(eta, unitaries)
    assert not result.ok


def test_dense_coding_equivalent_to_graph_partition(s):
    # success iff the unitary graphs partition IV x IV
    eta = basis_eta(s.observables["Z"].representative)
    perms = all_unitary_permutations(IV)
    import random

    rng = random.Random(99)
    for _ in range(30):
        chosen = rng.sample(perms, 4)
        graphs = [set(u.pairs) for u in chosen]
        disjoint = all(
            not (graphs[i] & graphs[j])
            for i in range(4)
            for j in range(i + 1, 4)
        )
        covers = len(set().union(*graphs)) == 16
        result = check_dense_coding(eta, chosen)
        assert result.ok == (disjoint and covers)


# -- projectors --------------------------------------------------------------------------

def test_measurement_projector_values(s):
    z0, x0 = s.states["z0"], s.states["x0"]
    proj = measurement_projector(z0)
    assert proj.pairs == ((0, 0), (0, 1), (1, 0), (1, 1))
    cross = compose(x0, dagger(z0))
    assert cross.pairs == ((0, 0), (0, 2), (1, 0), (1, 2))


def test_projector_idempotent_for_normalized_states(s):
    for st in s.states.values():
        assert compose(dagger(st), st) == scalar_identity()
        proj = measurement_projector(st)
        assert compose(proj, proj) == proj


def test_protocol_composites_have_generator_witness_words(s):
    # every composite used by the teleportation check is a closure member,
    # certified constructively: a generator word evaluates to it
    from toycat.suite import spek_generator_symbols
    from toycat.terms import eval_term, parse_term

    symbols = dict(spek_generator_symbols())
    symbols["id_IV"] = identity(IV)
    eta_word = "delta_Z ; eps_Z^"
    eta = eval_term(parse_term(eta_word), symbols)
    cert = check_teleportation(
        eta,
        [s.symbols[n] for n in ("id_IV", "sigma_12_34", "sigma_13_24", "sigma_14_23")],
    )
    assert cert.valid
    for name in ("id_IV", "sigma_12_34", "sigma_13_24", "sigma_14_23"):
        shifted_word = f"({name} x id_IV) ; ({eta_word})"
        effect_word = f"(({shifted_word}))^"
        branch_word = f"(({effect_word}) x id_IV) ; (id_IV x ({eta_word}))"
        branch = next(b for b in cert.branches if b.unitary == s.symbols[name])
        assert eval_term(parse_term(shifted_word), symbols) == branch.state
        assert eval_term(parse_term(effect_word), symbols) == branch.effect
        assert eval_term(parse_term(branch_word), symbols) == branch.branch_map
