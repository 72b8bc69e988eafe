import dataclasses
import gc
import hashlib
import json
import random
import re
import weakref

import pytest

from hypothesis import assume, example, given, settings, strategies as st

from toycat import closure, relcore
from toycat.closure import (
    ClosureConfig,
    GeneratorOutsideCapError,
    MorphismStore,
    StoredMorphism,
    census,
    contains,
    evaluate_word,
    generate_closure,
    load_store,
    state_census,
    store_from_json,
    store_json_chunks,
    store_to_json,
    store_to_json_str,
)
from toycat.models import IV, II, frel_qubit, perm_name, spek, spek_generators
from toycat.relcore import (
    FinObject,
    Relation,
    UNIT,
    compose,
    dagger,
    identity,
    is_unitary,
    reachable,
    relation_from_json,
    relation_to_json,
    run_composer,
    scalar_empty,
    scalar_identity,
    swap,
    tensor,
)
from toycat.suite import CheckResult, _check, closure_checks, spek_generator_symbols
from toycat.terms import Atom, Compose, Dagger, parse_term

from oracle import (
    block_rows,
    closure_member,
    closure_rounds_oracle,
    compose_oracle,
    first_wins_words_oracle,
    hex_indices,
    indices_hex,
    store_block_tree_oracle,
    store_tree_oracle,
    store_without_member,
    tensor_oracle,
    with_block_rows,
)


@pytest.fixture(scope="module")
def arity1_gens():
    """Permutations and the deleting relation only; closes fast at cap 1."""
    perms, _, eps_z = spek_generators()
    gens = {perm_name(p): p for p in perms if perm_name(p) != "id_IV"}
    gens["eps_Z"] = eps_z
    return gens


@pytest.fixture(scope="module")
def arity1_store(arity1_gens):
    return generate_closure(arity1_gens, ClosureConfig(max_arity=1))


@pytest.fixture(scope="module")
def qubit_gens():
    q = frel_qubit()
    return {
        "sigma_01": q.symbols["sigma_01"],
        "delta_Z": q.symbols["delta_Z"],
        "eps_Z": q.symbols["eps_Z"],
    }


@pytest.fixture(scope="module")
def qubit_store(qubit_gens):
    return generate_closure(qubit_gens, ClosureConfig(max_arity=2))


# -- fixpoint runs on feasible fragments ---------------------------------------------

def test_arity1_reaches_fixpoint_with_expected_census(arity1_store):
    assert arity1_store.fixpoint
    rows = {
        (tuple(r["dom"]), tuple(r["cod"])): r["count"] for r in census(arity1_store)
    }
    # 2 scalars; 6 states + empty each way; 24 permutations + 36 products + empty
    assert rows == {
        ((), ()): 2,
        ((), (4,)): 7,
        ((4,), ()): 7,
        ((4,), (4,)): 61,
    }


def test_qubit_generators_reach_fixpoint_at_cap_2(qubit_store):
    assert qubit_store.fixpoint
    assert len(qubit_store) == 92
    # the diagonal copy on II is one of its own generators, hence present
    q = frel_qubit()
    assert contains(qubit_store, q.symbols["delta_Z"]).status == "yes"


def test_store_closed_under_dagger(arity1_store):
    for entry in arity1_store.sorted_items():
        assert contains(arity1_store, dagger(entry.relation)).status == "yes"


def test_contains_iff_contains_dagger(qubit_store):
    rng = random.Random(5)
    sample = rng.sample(qubit_store.sorted_items(), 30)
    for entry in sample:
        assert bool(contains(qubit_store, entry.relation)) == bool(
            contains(qubit_store, dagger(entry.relation))
        )


def test_every_witness_word_re_evaluates(arity1_store, qubit_store):
    for store in (arity1_store, qubit_store):
        for entry in store.sorted_items():
            assert evaluate_word(store, entry.word) == entry.relation


def test_idempotence_reclosure_adds_nothing(arity1_store):
    regenerated = generate_closure(
        {f"m{idx}": e.relation for idx, e in enumerate(arity1_store.sorted_items())},
        ClosureConfig(max_arity=1),
    )
    assert regenerated.fixpoint
    assert set(regenerated.items) == set(arity1_store.items)


def test_monotone_in_arity_cap(qubit_gens):
    small_gens = {k: v for k, v in qubit_gens.items() if k != "delta_Z"}
    cap1 = generate_closure(small_gens, ClosureConfig(max_arity=1))
    cap2 = generate_closure(small_gens, ClosureConfig(max_arity=2))
    assert cap1.fixpoint and cap2.fixpoint
    restricted = {
        k for k in cap2.items if len(k[0]) <= 1 and len(k[1]) <= 1
    }
    assert set(cap1.items) <= restricted


def test_scalars_arise_from_state_compositions(arity1_store):
    assert contains(arity1_store, scalar_identity()).status == "yes"
    assert contains(arity1_store, scalar_empty()).status == "yes"


def test_state_census_orbits(arity1_store):
    sc = state_census(arity1_store, IV)
    assert sc.count == 7
    assert sorted(len(o) for o in sc.orbits) == [1, 6]


@pytest.mark.parametrize(
    "fixture, obj", [("arity1_store", IV), ("spek_cap2_r3", IV), ("spek_cap2_r3", IV * IV),
                     ("spek_cap2_r3", UNIT)],
)
def test_state_census_matches_a_plain_orbit_search(fixture, obj, request):
    store = request.getfixturevalue(fixture)
    entries = store.sorted_items()
    states = [e for e in entries if e.relation.dom == UNIT and e.relation.cod == obj]
    perms = [
        e.relation for e in entries
        if e.relation.dom == obj == e.relation.cod and is_unitary(e.relation)
    ]
    orbits, seen = set(), set()
    for e in states:
        if e.relation in seen:
            continue
        orbit, frontier = {e.relation}, [e.relation]
        while frontier:
            current = frontier.pop()
            for p in perms:
                moved = compose(p, current)
                if moved not in orbit:
                    orbit.add(moved)
                    frontier.append(moved)
        orbits.add(frozenset(orbit))
        seen |= orbit
    sc = state_census(store, obj)
    assert sc.states == tuple(states)
    assert {frozenset(o) for o in sc.orbits} == orbits
    assert len(sc.orbits) == len(orbits)
    for o in sc.orbits:
        assert list(o) == sorted(o, key=lambda r: r.key)


# -- negative answers and caps ----------------------------------------------------------

def test_negative_answer_on_fixpoint_store(arity1_store):
    singleton = Relation.from_pairs(UNIT, IV, [(0, 0)])
    assert contains(arity1_store, singleton).status == "no"


def test_negative_answer_unknown_without_fixpoint(arity1_gens):
    bounded = generate_closure(arity1_gens, ClosureConfig(max_arity=1, max_rounds=2))
    assert not bounded.fixpoint
    singleton = Relation.from_pairs(UNIT, IV, [(0, 0)])
    assert contains(bounded, singleton).status == "unknown"


def test_generator_outside_cap_rejected():
    _, delta_z, eps_z = spek_generators()
    with pytest.raises(GeneratorOutsideCapError):
        generate_closure({"delta_Z": delta_z, "eps_Z": eps_z}, ClosureConfig(max_arity=1))


@pytest.mark.parametrize("name", ["not-gate", "x", "f^", "", "a b"])
def test_generator_name_must_be_a_term_identifier(name):
    _, delta_z, eps_z = spek_generators()
    with pytest.raises(ValueError, match="not a term identifier") as err:
        generate_closure({"delta_Z": delta_z, name: eps_z}, ClosureConfig(max_arity=2))
    assert repr(name) in str(err.value)


def test_morphism_cap_flags_non_fixpoint(arity1_gens):
    store = generate_closure(arity1_gens, ClosureConfig(max_arity=1, max_morphisms=40))
    assert not store.fixpoint
    assert len(store) <= 40


@pytest.mark.parametrize(
    "cap, growth, fixpoint",
    [
        # the cap falls inside round 1
        (10, [(1, 10)], False),
        # round 2 fills the cap exactly; round 3 finds it full and adds nothing
        (38, [(1, 27), (2, 11), (3, 0)], False),
        # the whole fixpoint fits
        (77, [(1, 27), (2, 11), (3, 11), (4, 28), (5, 0)], True),
    ],
)
def test_morphism_cap_edges(arity1_gens, cap, growth, fixpoint):
    store = generate_closure(arity1_gens, ClosureConfig(max_arity=1, max_morphisms=cap))
    assert store.growth == growth
    assert store.fixpoint is fixpoint
    assert store.rounds_run == len(growth)
    assert len(store) == sum(n for _, n in growth)


def test_closure_checks_certify_exclusion_on_a_fixpoint_store(arity1_store):
    results = {r.name: r for r in closure_checks(arity1_store, spek())}
    oplus = results["closure.delta_oplus_excluded"]
    assert oplus.passed
    assert oplus.detail == "definitively excluded (fixpoint store)"


def test_a_raising_check_is_a_failed_check():
    def crash():
        raise ValueError("no such morphism")

    results = []
    _check(results, "crash", crash)
    assert results == [CheckResult("crash", False, "error: no such morphism")]


# -- determinism -------------------------------------------------------------------------

def test_two_builds_produce_byte_identical_stores(arity1_gens):
    a, b = (
        store_to_json_str(generate_closure(arity1_gens, ClosureConfig(max_arity=1)))
        for _ in range(2)
    )
    assert a == b


def test_two_runs_identical(qubit_gens):
    a = store_to_json_str(generate_closure(qubit_gens, ClosureConfig(max_arity=2)))
    b = store_to_json_str(generate_closure(qubit_gens, ClosureConfig(max_arity=2)))
    assert a == b


# -- spek bounded runs ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def spek_bounded():
    return generate_closure(
        spek_generator_symbols(), ClosureConfig(max_arity=3, max_rounds=3)
    )


def test_spek_bounded_contains_eta_and_cross(spek_bounded):
    _, delta_z, eps_z = spek_generators()
    eta_iv = compose(delta_z, dagger(eps_z))
    r = contains(spek_bounded, eta_iv)
    assert r.status == "yes"
    assert evaluate_word(spek_bounded, r.word) == eta_iv
    x0 = dagger(eps_z)
    z0 = Relation.from_pairs(UNIT, IV, [(0, 0), (0, 1)])
    assert contains(spek_bounded, compose(x0, dagger(z0))).status == "yes"


@pytest.fixture(scope="module")
def spek_cap2_r3():
    return generate_closure(
        spek_generator_symbols(), ClosureConfig(max_arity=2, max_rounds=3)
    )


def test_delta_oplus_not_found_at_caps_2_and_3(spek_bounded, spek_cap2_r3):
    d_oplus = Relation.from_pairs(IV, IV * IV, [(i, i * 4 + i) for i in range(4)])
    assert contains(spek_bounded, d_oplus).status != "yes"
    assert contains(spek_cap2_r3, d_oplus).status != "yes"


def test_bounded_monotonicity_cap2_within_cap3(spek_bounded, spek_cap2_r3):
    restricted = {
        k for k in spek_bounded.items if len(k[0]) <= 2 and len(k[1]) <= 2
    }
    assert set(spek_cap2_r3.items) <= restricted


# -- the rounds against a reference closure ------------------------------------------------

@pytest.mark.parametrize("fixture", ["arity1_store", "qubit_store", "spek_cap2_r3"])
def test_rounds_match_the_reference_closure(fixture, request):
    store = request.getfixturevalue(fixture)
    reference = closure_rounds_oracle(
        store.symbols, store.config.max_arity, store.rounds_run
    )
    rounds = [set() for _ in reference]
    for entry in store.items.values():
        rounds[entry.length - 1].add(closure_member(entry.relation))
    assert rounds == reference
    assert [n for _, n in store.growth] == [len(r) for r in reference]


@pytest.mark.parametrize("fixture", ["arity1_store", "qubit_store", "spek_cap2_r3"])
def test_words_match_the_first_wins_scan(fixture, request):
    # pins each key's word, not only its round: a change of scan order shows
    store = request.getfixturevalue(fixture)
    reference = first_wins_words_oracle(
        store.symbols, store.config.max_arity, store.rounds_run
    )
    assert {k: (e.word, e.length) for k, e in store.items.items()} == reference


# -- pinned store bytes ----------------------------------------------------------------------
#
# The sha256 of the store file of several builds, so a change to the pair scan
# that alters any word, order or growth count shows as a changed digest.
# Each store has two pins: its `toycat-store/7` text, and the `toycat-store/3`
# rendering of the store read back from that text, which is pinned by the
# digest taken before the block form: as that rendering holds the growth
# and the morphism count, its pin shows the derived ones unchanged too.

def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _store_digests(store: MorphismStore) -> tuple[str, str]:
    """(sha256 of the store's text, sha256 of the `/3` rendering of its read-back).

    The read-back has the store's items and record, its growth derived.
    """
    text = store_to_json_str(store)
    loaded = store_from_json(json.loads(text))
    assert store_to_json_str(loaded) == text
    _assert_same_record(loaded, store)
    return _sha256(text), _sha256(_v3_text(loaded))


def _assert_same_record(loaded: MorphismStore, store: MorphismStore) -> None:
    assert loaded.items == store.items
    assert (loaded.growth, loaded.rounds_run, loaded.fixpoint) == (
        store.growth, store.rounds_run, store.fixpoint
    )


def _v3_text(store: MorphismStore) -> str:
    return json.dumps(store_tree_oracle(store), sort_keys=True, separators=(",", ":"))


def test_cap2_round4_spek_store_bytes_are_pinned(spek_cap2_r4):
    # nearly every composite here has a left entry that is not a gather
    store = spek_cap2_r4
    assert [n for _, n in store.growth] == [31, 737, 1603, 2955]
    assert _store_digests(store) == (
        "ddb33f32e0515bca7d11b505665461aa8818fd48a9a01d7dacefdf638253a6d9",
        "895036c9a40f01e7d3d8ff85def991c0f64e4306e9bbd39f436ceffe0c8f6519",
    )


def test_morphism_cap_cuts_a_later_round_inside_a_shape(spek_cap2_r4):
    # 3,000 morphisms leave room for 629 of round 4's 2,955: whole shapes
    # first, in key order, then the first keys of the one the cap cuts
    store = generate_closure(
        spek_generator_symbols(),
        ClosureConfig(max_arity=2, max_rounds=4, max_morphisms=3000),
    )
    assert [n for _, n in store.growth] == [31, 737, 1603, 629]
    assert not store.fixpoint
    full = spek_cap2_r4.items
    round4 = sorted(k for k, e in full.items() if e.length == 4)
    kept = round4[:629]
    cut_shape = kept[-1][:2]
    assert cut_shape == ((4, 4), (4,))
    assert round4[629][:2] == cut_shape
    assert len({k[:2] for k in kept if k[:2] != cut_shape}) == 6
    expected = [k for k, e in full.items() if e.length < 4] + kept
    assert sorted(store.items) == sorted(expected)
    assert all(
        (e.word, e.length) == (full[k].word, full[k].length) for k, e in store.items.items()
    )
    assert _store_digests(store) == (
        "6d76371689fbee31615e981501d80053add477f8c92dbb99ab492207548ccea4",
        "4919cdc876e91c475613adf21c1a26e965e8d83c4eb7812f36ae0ded2e769dc6",
    )


def test_cap2_round5_spek_store_bytes_are_pinned():
    # the deepest cap-2 build in the tests: most (product ; product)
    # candidates here have a factor pair that is stored shorter
    store = generate_closure(
        spek_generator_symbols(), ClosureConfig(max_arity=2, max_rounds=5)
    )
    assert [n for _, n in store.growth] == [31, 737, 1603, 2955, 7056]
    assert _store_digests(store) == (
        "78df5fc26a8dbed520ca876138cc60bc6407a85c995f81b968f3ce0895826221",
        "0a09d0c22c813cf91fcee6dbc9cc3620d2ce5740a4ad0e9105524a99704cf803",
    )


def test_cap3_round3_spek_store_bytes_are_pinned_and_words_first_win(spek_bounded):
    # products of products and composites of composites are most common here
    assert [n for _, n in spek_bounded.growth] == [34, 941, 22463]
    assert _store_digests(spek_bounded) == (
        "1167bf477cd8056afd9ca0b3be2ebcb5c62af009cb0ba21c09432b9b76932e8d",
        "a853134041aaed61edc5a54d7b716f31f7ed390df9f971fd84cd85d5a57b25d8",
    )
    assert {k: (e.word, e.length) for k, e in spek_bounded.items.items()} == (
        first_wins_words_oracle(spek_bounded.symbols, 3, 3)
    )


def test_cap3_round3_members_share_their_row_ints(spek_bounded):
    # every product candidate's rows come from one table per build, so the
    # 23,438 members hold about 2,200 row int objects, not one per product row
    ids = {id(row) for _, _, rows in spek_bounded.items for row in rows}
    assert len(ids) < 10_000


def test_a_loaded_cap3_round3_store_shares_its_row_ints(spek_bounded):
    # each block's members are built from its row table's ints, so the
    # loaded store holds at most one row object per table entry (741), not
    # one per row entry of the file (1,221,908)
    blob = store_to_json(spek_bounded)
    loaded = store_from_json(blob)
    ids = {id(row) for _, _, rows in loaded.items for row in rows}
    assert len(ids) <= sum(len(block["table"]) for block in blob["blocks"])


def wide_row_generators() -> dict[str, Relation]:
    """Generators on IX, element e read as (q, r) = (e // 3, e % 3).

    The F3 copy (q, r) -> {((q, c), (q, r - c))}, the delete {(q, 0)} and
    the shift (q, r) -> (q, r + 1). At cap 2 the domain IX x IX has 81
    elements, so rows are wider than 64 bits.
    """
    ix = FinObject(9)
    copy = [
        (3 * q + r, (3 * q + c) * 9 + 3 * q + (r - c) % 3)
        for q in range(3) for r in range(3) for c in range(3)
    ]
    return {
        "delta_Z": Relation.from_pairs(ix, ix * ix, copy),
        "eps_Z": Relation.from_pairs(ix, UNIT, [(e, 0) for e in range(0, 9, 3)]),
        "shift": Relation.from_pairs(ix, ix, [(e, e - e % 3 + (e + 1) % 3) for e in range(9)]),
    }


def _assert_matches_the_oracles(store: MorphismStore) -> None:
    """Each round's members and each key's word are the oracles'."""
    cap, rounds_run = store.config.max_arity, store.rounds_run
    reference = closure_rounds_oracle(store.symbols, cap, rounds_run)
    rounds = [set() for _ in reference]
    for entry in store.items.values():
        rounds[entry.length - 1].add(closure_member(entry.relation))
    assert rounds == reference
    assert [n for _, n in store.growth] == [len(r) for r in reference]
    assert {k: (e.word, e.length) for k, e in store.items.items()} == (
        first_wins_words_oracle(store.symbols, cap, rounds_run)
    )


def test_wide_row_store_matches_the_reference_closure_and_is_pinned():
    store = generate_closure(wide_row_generators(), ClosureConfig(max_arity=2, max_rounds=4))
    _assert_matches_the_oracles(store)
    assert [n for _, n in store.growth] == [10, 38, 83, 106]
    assert _store_digests(store) == (
        "c45f08b0c71d820f44ebb964f391249da1c32fa513d6b8b5c53156fdfcb2563b",
        "876c6917d3de31916d665552b3d40d851bdecfa8df8a5b8592ffa2d1d590f283",
    )


MIXED_OBJECTS = [II, FinObject(3), II * FinObject(3)]


@st.composite
def mixed_generators(draw):
    """One to three relations between II, III and II x III, named g0, g1, ..."""
    gens = {}
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        dom, cod = draw(st.sampled_from(MIXED_OBJECTS)), draw(st.sampled_from(MIXED_OBJECTS))
        row = st.integers(min_value=0, max_value=(1 << dom.cardinality) - 1)
        rows = draw(st.lists(row, min_size=cod.cardinality, max_size=cod.cardinality))
        gens[f"g{i}"] = Relation(dom, cod, tuple(rows))
    return gens


@settings(max_examples=40, deadline=None)
@given(mixed_generators())
def test_mixed_factor_stores_match_the_reference_closure(gens):
    # shapes with factors of two sizes, such as II x III -> III x II, which
    # no Spek build meets
    _assert_matches_the_oracles(generate_closure(gens, ClosureConfig(max_arity=2, max_rounds=3)))


# -- the interchange rule ------------------------------------------------------------------

def _factor_words(word: str) -> tuple[str, str] | None:
    """The factors' words of a product word `(a) x (b)`, or None for another word."""
    if not word.startswith("("):
        return None
    depth = 0
    for end, ch in enumerate(word):
        depth += (ch == "(") - (ch == ")")
        if depth == 0:
            break
    rest = word[end + 1:]
    if not rest.startswith(" x ("):
        return None
    return word[1:end], rest[4:-1]


def _check_interchange_pairs(store: MorphismStore, law_stride: int) -> int:
    """Re-derive every composite that the interchange rule skips; return their number.

    The rule covers e1 after e2 for stored products e1 = (a) x (b) and
    e2 = (c) x (d) with a.dom == c.cod, when a after c or b after d is
    stored with a word shorter than its two factors' together. Each covered
    composite is formed by the oracle as (a after c) x (b after d) and must
    be stored with a length below its round len e1 + len e2. Every
    `law_stride`-th covered pair is also composed directly by the oracle,
    which checks the interchange law itself. The factors are read off the
    stored words, not from the closure's own records.
    """
    by_word = {e.word: e for e in store.items.values()}
    products = []
    for e in store.items.values():
        words = _factor_words(e.word)
        if words is not None:
            products.append((e, by_word[words[0]], by_word[words[1]]))
    # right operands by (length, codomain, codomain of the left factor)
    rights: dict[tuple, list] = {}
    for e2, c, d in products:
        rights.setdefault((e2.length, e2.relation.cod, c.relation.cod), []).append((e2, c, d))
    after: dict[tuple[int, int], tuple[Relation, bool]] = {}
    made: dict[tuple, Relation] = {}

    def composite(x: StoredMorphism, y: StoredMorphism) -> tuple[Relation, bool]:
        """x after y by the oracle, and whether it is stored shorter than len x + len y."""
        pair = id(x), id(y)
        if pair not in after:
            rel = compose_oracle(x.relation, y.relation)
            found = store.get(rel)
            after[pair] = rel, found is not None and found.length < x.length + y.length
        return after[pair]

    covered = 0
    for e1, a, b in products:
        for lb in range(2, store.rounds_run - e1.length + 1):
            for e2, c, d in rights.get((lb, e1.relation.dom, a.relation.dom), ()):
                ac, ac_shorter = composite(a, c)
                bd, bd_shorter = composite(b, d)
                if not (ac_shorter or bd_shorter):
                    continue
                covered += 1
                both = ac.key, bd.key
                if both not in made:
                    made[both] = tensor_oracle(ac, bd)
                product = made[both]
                found = store.get(product)
                assert found is not None and found.length < e1.length + lb, (e1.word, e2.word)
                if covered % law_stride == 0:
                    assert compose_oracle(e1.relation, e2.relation) == product
    return covered


@pytest.fixture(scope="module")
def spek_cap2_r4():
    return generate_closure(
        spek_generator_symbols(), ClosureConfig(max_arity=2, max_rounds=4)
    )


def test_interchange_rule_skips_only_stored_composites(spek_cap2_r4):
    # rounds 1 to 3 hold no (product ; product) candidate: a product has
    # length 2 at least; each wide-row covered pair is also composed directly
    wide = generate_closure(wide_row_generators(), ClosureConfig(max_arity=2, max_rounds=4))
    assert _check_interchange_pairs(wide, law_stride=1) == 267
    assert _check_interchange_pairs(spek_cap2_r4, law_stride=997) == 389_508


def test_interchange_rule_keeps_firing(monkeypatch):
    # the right-run members handed to the composer in the cap-2 round-4
    # build: by the scan, 440,344 without the rule, which skips the 389,508
    # covered above; by the rule's drop masks, each factor of each factor
    # table that a left factor is tested against
    handed = {"scan": 0, "interchange": 0}
    in_dropped = False
    dropped = closure._dropped

    def flagged(items, table, x):
        nonlocal in_dropped
        in_dropped = True
        try:
            return dropped(items, table, x)
        finally:
            in_dropped = False

    def counting(grows):
        after = run_composer(grows)

        def count(columns):
            handed["interchange" if in_dropped else "scan"] += len(columns[0]) if columns else 0
            return after(columns)
        return count

    monkeypatch.setattr(closure, "_dropped", flagged)
    monkeypatch.setattr(closure, "run_composer", counting)
    generate_closure(spek_generator_symbols(), ClosureConfig(max_arity=2, max_rounds=4))
    assert handed == {"scan": 50_836, "interchange": 3_864}


@pytest.mark.parametrize("cap, rounds, lengths", [(3, 3, set()), (2, 4, {2})])
def test_factor_tables_are_made_only_for_runs_the_rule_reads(cap, rounds, lengths, monkeypatch):
    # a product left entry has length 2 at least, so the rule reads a run of
    # length m in round m + 2 or later: a 3-round build reads none with a
    # product, and a 4-round build only those of length 2
    made = []

    class Recorded(closure._Run):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(closure, "_Run", Recorded)
    generate_closure(spek_generator_symbols(), ClosureConfig(max_arity=cap, max_rounds=rounds))
    assert made
    assert {run.entries[0].length for run in made if run.splits} == lengths


@pytest.mark.parametrize("generators", [spek_generator_symbols, wide_row_generators])
def test_interchange_drop_masks_match_the_oracle(generators, monkeypatch):
    # each mask the rule uses, recomputed pair by pair: x after f by the
    # oracle, looked up in the store as it stands at that call; a table
    # keeps its masks for the whole build (round 5 reuses masks of round 4),
    # so after it each kept mask is recomputed against the final store and
    # must not have changed
    dropped = closure._dropped
    after: dict[tuple[int, int], tuple] = {}
    masks = []
    tested: dict[int, tuple] = {}

    def expected(items, table, x):
        mask = 0
        for f, members in table[0].values():  # table = (members, drops)
            pair = id(x), id(f)
            if pair not in after:
                after[pair] = compose_oracle(x.relation, f.relation).key
            found = items.get(after[pair])
            if found is not None and found.length < x.length + f.length:
                mask |= members
        return mask

    def checked(items, table, x):
        mask = dropped(items, table, x)
        assert mask == expected(items, table, x), (
            x.word, [f.word for f, _ in table[0].values()]
        )
        masks.append(mask)
        tested.setdefault(id(table), (table, {}))[1][id(x)] = x
        return mask

    monkeypatch.setattr(closure, "_dropped", checked)
    store = generate_closure(generators(), ClosureConfig(max_arity=2, max_rounds=5))
    assert any(masks)
    for table, xs in tested.values():
        drops = table[1]
        assert drops.keys() == xs.keys()
        for key, mask in drops.items():
            assert mask == expected(store.items, table, xs[key]), xs[key].word


def _atoms(term) -> int:
    if isinstance(term, Atom):
        return 1
    if isinstance(term, Dagger):
        return _atoms(term.arg)
    if isinstance(term, Compose):
        return _atoms(term.outer) + _atoms(term.inner)
    return _atoms(term.left) + _atoms(term.right)


def test_bounded_store_is_converse_closed_and_lengths_count_atoms(spek_cap2_r3):
    for entry in spek_cap2_r3.items.values():
        converse = spek_cap2_r3.get(dagger(entry.relation))
        assert converse is not None and converse.length == entry.length
        assert _atoms(parse_term(entry.word)) == entry.length, entry.word


def test_bell_map_expands_two_system_unitaries_to_11520():
    """The size obstruction behind the arity-3 saturation claims.

    Routing through IVxIVxIV makes the Bell-type map available on IVxIV;
    the unitary group it generates with the local permutations jumps from
    1152 to 11520. With it, all two-local unitaries act on IVxIVxIV, and
    the group they generate there (order 92,897,280, the affine symplectic
    group on six bits) lower-bounds the arity-3 closure.
    """
    import toycat.models as M
    from toycat.relcore import is_unitary

    _, delta_z, eps_z = spek_generators()
    named = M.named_permutations(IV)
    sigma23 = named["sigma_23"]
    delta_x = M.conjugate_delta(delta_z, sigma23)
    bell = compose(
        tensor(dagger(delta_x), identity(IV)), tensor(identity(IV), delta_z)
    )
    assert is_unitary(bell)

    def group_order(gens):
        gens = list({g.key: g for g in gens}.values())
        seen = {g.key for g in gens}
        frontier = list(gens)
        while frontier:
            fresh = []
            for f in frontier:
                for g in gens:
                    h = compose(g, f)
                    if h.key not in seen:
                        seen.add(h.key)
                        fresh.append(h)
            frontier = fresh
        return len(seen)

    s4_gens = [named["sigma_12"], named["sigma_1234"]]
    id4 = identity(IV)
    local = (
        [tensor(g, id4) for g in s4_gens]
        + [tensor(id4, g) for g in s4_gens]
        + [swap(IV, IV)]
    )
    assert group_order(local) == 1152
    assert group_order(local + [bell]) == 11520


# -- serialization ----------------------------------------------------------------------------

def test_store_json_round_trip(arity1_store):
    blob = store_to_json(arity1_store)
    restored = store_from_json(json.loads(json.dumps(blob)))
    assert store_to_json_str(restored) == store_to_json_str(arity1_store)
    assert restored.fixpoint == arity1_store.fixpoint
    assert len(restored) == len(arity1_store)


def _reference_text(store: MorphismStore) -> str:
    return json.dumps(store_block_tree_oracle(store), sort_keys=True, separators=(",", ":"))


def test_store_writer_gives_the_bytes_of_the_reference_tree(arity1_store, arity1_gens, tmp_path):
    capped = generate_closure(
        spek_generator_symbols(), ClosureConfig(max_arity=2, max_morphisms=1000)
    )
    assert len(capped) == 1000 and not capped.fixpoint
    assert arity1_store.config.max_rounds is None and arity1_store.fixpoint
    # words over these names need \u escapes
    renamed = {"sigma_12": "\u03c3_1", "eps_Z": "\u03b5"}
    greek = generate_closure(
        {renamed.get(name, name): rel for name, rel in arity1_gens.items()},
        ClosureConfig(max_arity=1),
    )
    wide = generate_closure(wide_row_generators(), ClosureConfig(max_arity=2, max_rounds=4))
    assert max(row.bit_length() for _, _, rows in wide.items for row in rows) > 64
    path = tmp_path / "capped.json"
    path.write_text(store_to_json_str(capped))
    loaded = load_store(path)
    for store in (arity1_store, capped, greek, wide, loaded):
        text = store_to_json_str(store)
        assert text == _reference_text(store)
        assert store_to_json(store) == store_block_tree_oracle(store)
        assert store_to_json_str(store_from_json(json.loads(text))) == text
    assert text == path.read_text()
    text = store_to_json_str(greek)
    assert text.isascii() and '"(\\u03c3_1) ; (\\u03b5^)"' in text


def test_truncated_store_round_trips_with_its_growth():
    store = generate_closure(
        spek_generator_symbols(),
        ClosureConfig(max_arity=2, max_rounds=3, max_morphisms=1000),
    )
    assert store.growth == [(1, 31), (2, 737), (3, 232)] and not store.fixpoint
    restored = store_from_json(json.loads(store_to_json_str(store)))
    assert restored.growth == store.growth
    assert store_to_json_str(restored) == store_to_json_str(store)


@pytest.mark.parametrize(
    "field, value, message",
    [("max_rounds", 1, "max_rounds 1 stops the run before round 2"),
     ("max_morphisms", 767, "max_morphisms 767 is below its 768 morphisms")],
    ids=["max-rounds", "max-morphisms"],
)
def test_a_store_its_config_could_not_have_built_is_refused(field, value, message):
    # the cap-2 round-2 store is no fixpoint, and no build under either
    # edited bound writes it: one round too many, or one morphism
    store = generate_closure(spek_generator_symbols(), ClosureConfig(max_arity=2, max_rounds=2))
    blob = store_to_json(store)
    assert len(store_from_json(blob)) == 768 and not store.fixpoint
    edited = {**blob, "config": {**blob["config"], field: value}}
    with pytest.raises(ValueError, match=f"^store file records a run its config bars: {message}$"):
        store_from_json(edited)
    assert len(store_from_json({**blob, "config": {**blob["config"], field: value + 1}})) == 768


def test_fixpoint_stores_load_and_a_contradicted_flag_is_refused(
    arity1_store, qubit_store, arity1_gens
):
    capped = generate_closure(arity1_gens, ClosureConfig(max_arity=1, max_morphisms=77))
    for store in (arity1_store, qubit_store, capped):
        # the build ends at the first round after the last that added morphisms
        assert store.fixpoint and store.rounds_run == max(r for r, n in store.growth if n) + 1
        blob = json.loads(store_to_json_str(store))
        loaded = store_from_json(blob)
        assert store_to_json_str(loaded) == store_to_json_str(store)
        _assert_same_record(loaded, store)
        widest = max((cod for _, cod, _ in store.items), key=len)
        assert contains(loaded, identity(FinObject(*widest * 2))).status == "no"
        # max_rounds equal to rounds_run let the run reach its empty round
        edited = {**blob, "config": {**blob["config"], "max_rounds": store.rounds_run}}
        assert store_from_json(edited).fixpoint
        stopped = {**blob, "config": {**blob["config"], "max_rounds": store.rounds_run - 1}}
        with pytest.raises(ValueError, match="'fixpoint' is true, but max_rounds"):
            store_from_json(stopped)
        # one more empty round, or one fewer, is not where the run stops
        longer = {**blob, "rounds_run": store.rounds_run + 1}
        shorter = {**blob, "rounds_run": store.rounds_run - 1}
        for bad in (longer, shorter):
            with pytest.raises(ValueError, match="'fixpoint' is true, but the last round"):
                store_from_json(bad)
        unflagged = store_from_json({**longer, "fixpoint": False})
        assert not unflagged.fixpoint
        assert unflagged.growth == store.growth + [(store.rounds_run + 1, 0)]


def test_a_round_cap_at_the_empty_round_still_reaches_the_fixpoint(arity1_gens, arity1_store):
    # rounds 1 to 4 add morphisms; round 5 adds none and ends the build
    reached = generate_closure(arity1_gens, ClosureConfig(max_arity=1, max_rounds=5))
    assert reached.fixpoint and reached.growth == arity1_store.growth
    assert reached.items == arity1_store.items
    cut = generate_closure(arity1_gens, ClosureConfig(max_arity=1, max_rounds=4))
    assert not cut.fixpoint and cut.rounds_run == 4 and set(cut.items) == set(arity1_store.items)


def test_an_empty_round_before_the_last_growth_does_not_end_the_build():
    # round 9 adds nothing, but the store is not closed: round 10 pairs
    # lengths that round 9 did not, and adds two
    store = generate_closure({"g": Relation(FinObject(3), II * II, (1, 0, 5, 1))},
                             ClosureConfig(max_arity=2))
    assert [n for _, n in store.growth] == [13, 4, 9, 14, 10, 11, 12, 4, 0, 2, 0]
    assert store.fixpoint and store.rounds_run == 11
    reference = set().union(*closure_rounds_oracle(store.symbols, 2, 20))
    assert {closure_member(e.relation) for e in store.items.values()} == reference
    # the store as round 9 left it fits the growth rule, and the certificate refuses it
    cut = dataclasses.replace(
        store, items={k: e for k, e in store.items.items() if e.length < 10}, rounds_run=9,
    )
    with pytest.raises(ValueError, match=r"^store file field 'fixpoint' is true, but a product"):
        store_from_json(json.loads(store_to_json_str(cut)))


@settings(max_examples=30, deadline=None)
@given(mixed_generators(), st.integers(min_value=1, max_value=2))
def test_an_unbounded_build_stops_the_round_after_its_last_growth(gens, cap):
    gens = {n: rel for n, rel in gens.items() if max(rel.dom.arity, rel.cod.arity) <= cap}
    assume(gens)
    store = generate_closure(gens, ClosureConfig(max_arity=cap, max_morphisms=300))
    assume(store.fixpoint)
    last = max(r for r, n in store.growth if n)
    assert store.rounds_run == last + 1 and store.growth[-1] == (last + 1, 0)
    # the rule it replaced ran every round up to twice the last growing one
    reference = set().union(*closure_rounds_oracle(store.symbols, cap, 2 * last))
    assert {closure_member(e.relation) for e in store.items.values()} == reference


def test_a_fixpoint_store_its_generators_do_not_rebuild_is_refused(arity1_store):
    blob = json.loads(store_to_json_str(arity1_store))
    # a member deleted fits the growth derived from the lengths, and would
    # make `contains` answer "no" for a morphism of the closure
    deleted, _ = store_without_member(blob, 4)
    assert store_from_json({**deleted, "fixpoint": False}).growth[3] == (4, 27)
    with pytest.raises(ValueError, match="'fixpoint' is true, but the converse of "):
        store_from_json(deleted)
    # two words of one length swapped: every count still fits
    blocks = [{**block, "words": list(block["words"])} for block in blob["blocks"]]
    block = next(block for block in blocks if block["lengths"].count(4) >= 2)
    a, b = [k for k, n in enumerate(block["lengths"]) if n == 4][:2]
    block["words"][a], block["words"][b] = block["words"][b], block["words"][a]
    with pytest.raises(ValueError, match="'fixpoint' is true, but its word .* evaluates to "
                       "another morphism"):
        store_from_json({**blob, "blocks": blocks})
    # a seeded identity that is not the identity
    symbols = {**blob["symbols"], "id_IV": blob["symbols"]["sigma_12"]}
    with pytest.raises(ValueError, match="'fixpoint' is true, but its symbols"):
        store_from_json({**blob, "symbols": symbols})


@pytest.fixture(scope="module")
def eps_cap2_store():
    """The cap-2 closure of eps_Z alone: its only permutation of IV is the identity."""
    _, _, eps_z = spek_generators()
    return generate_closure({"eps_Z": eps_z}, ClosureConfig(max_arity=2))


def test_the_closure_certificate_accepts_the_fixpoints(
    arity1_store, qubit_store, eps_cap2_store, arity1_gens, monkeypatch
):
    capped = generate_closure(arity1_gens, ClosureConfig(max_arity=1, max_morphisms=77))
    stores = (arity1_store, qubit_store, capped, eps_cap2_store)
    assert [len(store) for store in stores] == [77, 92, 77, 20]
    texts = [store_to_json_str(store) for store in stores]
    # the load proves the fixpoint without closing anything again
    monkeypatch.setattr(closure, "generate_closure", None)
    for store, text in zip(stores, texts):
        assert store.fixpoint
        loaded = store_from_json(json.loads(text))
        assert loaded.fixpoint and store_to_json_str(loaded) == text
        assert contains(loaded, Relation(IV, IV, (15,) * 4)).status == "no"


def _blob_without(store: MorphismStore, doomed) -> dict:
    """The file tree of `store` less the members keyed in `doomed`."""
    cut = dataclasses.replace(
        store, items={k: e for k, e in store.items.items() if k not in doomed},
    )
    return json.loads(store_to_json_str(cut))


def _blob_with_word(store: MorphismStore, word: str, new_word: str, new_length: int) -> dict:
    """The file tree of `store` with the member of `word` given another word and length."""
    entry = next(e for e in store.items.values() if e.word == word)
    moved = StoredMorphism(entry.relation, new_word, new_length)
    items = {**store.items, entry.relation.key: moved}
    return json.loads(store_to_json_str(dataclasses.replace(store, items=items)))


def _blob_without_symbol(store: MorphismStore, name: str) -> dict:
    """The file tree of `store` less the symbol `name`; its member stays."""
    blob = store_to_json(store)
    return {**blob, "symbols": {n: rec for n, rec in blob["symbols"].items() if n != name}}


def _padded_round2_blob() -> dict:
    """The cap-2 round-2 store flagged as a fixpoint: its growth, 31, 737 and
    0, fits one."""
    store = generate_closure(spek_generator_symbols(), ClosureConfig(max_arity=2, max_rounds=2))
    blob = store_to_json(store)
    return {**blob, "fixpoint": True, "rounds_run": 3,
            "config": {**blob["config"], "max_rounds": None}}


def _product_orbit(eps_z: Relation) -> set:
    """The keys of id_IV x eps_Z^, its move eps_Z^ x id_IV, and their converses."""
    made = (tensor(identity(IV), dagger(eps_z)), tensor(dagger(eps_z), identity(IV)))
    return {rel.key for m in made for rel in (m, dagger(m))}


# Each store passes `_check_bounds` and the flag's round rule but is not
# closed, and the part of the closure certificate named above it refuses it
# first, as the message shows.
@pytest.mark.parametrize(
    "fixture, mangle, message",
    [
        # (a): a seeded swap gone from the symbols; the arity-1 cut store, one
        # length-4 member gone and its converse kept; a symbol gone, sigma_12,
        # its own converse
        ("eps_cap2_store", lambda s: _blob_without_symbol(s, "swap_IV_IV"),
         "its symbols lack the seeded 'swap_IV_IV'"),
        ("arity1_store", lambda s: store_without_member(store_to_json(s), 4)[0],
         "the converse of .* is not stored"),
        ("arity1_store", lambda s: _blob_without(s, {s.symbols["sigma_12"].key}),
         "its symbol 'sigma_12' is not stored"),
        # (b): psi ; psi^ for psi = {0, 1} is not the least of its orbit, and is
        # its own converse, so only a move shows the hole; the cap-2 round-2
        # store, which is not closed
        ("arity1_store", lambda s: _blob_without(s, {((4,), (4,), (3, 3, 0, 0))}),
         r"the image of a member under a move at factor 0 in IV -> IV is not stored"),
        (None, lambda _: _padded_round2_blob(),
         r"the image of a member under a move at factor 0 in I -> IVxIV is not stored"),
        # (c): the empty scalar, a composite of an effect after a state; and a
        # product's whole orbit with its converses
        ("arity1_store", lambda s: _blob_without(s, {((), (), (0,))}),
         r"a composite \(.*\) ; r1 of representatives in I -> I is not stored"),
        ("eps_cap2_store", lambda s: _blob_without(s, _product_orbit(s.symbols["eps_Z"])),
         r"a product \(.*\) x r1 of representatives in IV -> IVxIV is not stored"),
        # (d): a word of another morphism; a word with more atoms than its
        # length; a word of sigma_13, its length 4, that passes through IV x
        # IV, above cap 1, so its halves are no stored words
        ("arity1_store", lambda s: _blob_with_word(s, "id_IV", "sigma_12", 1),
         "its word 'sigma_12' evaluates to another morphism"),
        ("arity1_store", lambda s: _blob_with_word(s, "id_IV", "id_IV ; id_IV", 1),
         re.escape("its word 'id_IV ; id_IV' is no symbol, converse or (a) op (b) of stored words")),
        ("arity1_store",
         lambda s: _blob_with_word(s, "sigma_13", "(sigma_13 x eps_Z) ; (id_IV x eps_Z^)", 4),
         re.escape("its word '(sigma_13 x eps_Z) ; (id_IV x eps_Z^)' is no symbol, converse or "
                   "(a) op (b) of stored words")),
        # a word nested 400 deep is refused like any other bad word
        ("arity1_store", lambda s: _blob_with_word(s, "id_IV", "(" * 400 + "id_IV" + ")" * 400, 1),
         r"its word '\(\(\(.*' is no symbol, converse or \(a\) op \(b\) of stored words"),
        # halves whose lengths add up to 2, not 3
        ("arity1_store",
         lambda s: _blob_with_word(s, "(sigma_12) ; (eps_Z^)", "(sigma_12) ; (eps_Z^)", 3),
         re.escape("its word '(sigma_12) ; (eps_Z^)' has length 3, but halves of 1 and 1")),
        # the word re-evaluates to sigma_13, but sigma_13^ is no stored word:
        # sigma_13 is its own converse
        ("arity1_store", lambda s: _blob_with_word(s, "sigma_13", "(sigma_13^) ; (id_IV)", 2),
         re.escape("its word '(sigma_13^) ; (id_IV)' is no symbol, converse or (a) op (b)")),
        # two stored permutations whose composite is sigma_123, given to sigma_132
        ("arity1_store", lambda s: _blob_with_word(s, "sigma_132", "(sigma_12) ; (sigma_23)", 2),
         re.escape("its word '(sigma_12) ; (sigma_23)' evaluates to another morphism")),
        # an effect after an effect: IV -> I after IV -> I
        ("arity1_store", lambda s: _blob_with_word(s, "(eps_Z^) ; (eps_Z)", "(eps_Z) ; (eps_Z)", 2),
         re.escape("its word '(eps_Z) ; (eps_Z)' composes halves whose objects do not meet")),
        # the halves of a stored composite, but not inside its brackets
        ("arity1_store",
         lambda s: _blob_with_word(s, "(sigma_12) ; (eps_Z^)", "[sigma_12) ; (eps_Z^]", 2),
         re.escape("its word '[sigma_12) ; (eps_Z^]' is no symbol, converse or (a) op (b)")),
    ],
    ids=["seed", "cut", "symbol", "orbit-member", "round-2", "composite", "product",
         "wrong-word", "atoms", "word-above-cap", "word-too-deep", "halves-lengths",
         "half-not-stored", "halves-make-another", "halves-do-not-meet", "halves-unbracketed"],
)
def test_the_closure_certificate_refuses_a_store_that_is_not_closed(
    fixture, mangle, message, request
):
    blob = mangle(request.getfixturevalue(fixture) if fixture else None)
    assert not store_from_json({**blob, "fixpoint": False}).fixpoint
    with pytest.raises(ValueError, match="^store file field 'fixpoint' is true, but " + message):
        store_from_json(blob)


def test_a_walk_stops_at_the_first_image_that_is_not_stored(arity1_store, monkeypatch):
    # the six relations on IV with two rows {2, 3} form one orbit; with
    # (0, 0, 12, 12) gone, the first walk to reach it, from the least one
    # left, stops there, having reached one other, not the whole orbit
    walks = []

    def walk(moves, start, within=None):
        walks.append(reachable(moves, start, within))
        return walks[-1]

    monkeypatch.setattr(closure, "reachable", walk)
    gone = (0, 0, 12, 12)
    with pytest.raises(ValueError, match="a move at factor 0 in IV -> IV is not stored$"):
        store_from_json(_blob_without(arity1_store, {((4,), (4,), gone)}))
    assert next(w for w in walks if gone in w) == {(0, 12, 0, 12), (0, 12, 12, 0), gone}


def test_a_seed_the_symbols_lack_is_refused_unbuilt(arity1_store, monkeypatch):
    # at cap 9 the seeds reach IV^9, whose identity alone would take
    # gigabytes; the file names no seed above IV, so none is built
    built = []

    def identity_up_to_iv(obj):
        built.append(obj)
        assert obj.arity <= 1, f"built the seed on {obj}"
        return identity(obj)

    monkeypatch.setattr(relcore, "identity", identity_up_to_iv)
    blob = store_to_json(arity1_store)
    with pytest.raises(ValueError, match="^store file field 'fixpoint' is true, but its symbols "
                                         "lack the seeded 'id_IVxIV'$"):
        store_from_json({**blob, "config": {**blob["config"], "max_arity": 9}})
    assert built == [UNIT, IV]


def test_a_raised_max_arity_is_refused_at_its_first_missing_seed(arity1_store, monkeypatch):
    # the seeds come one object at a time, so refusing a cap of a million
    # makes IV and IV x IV, not every power of IV up to the cap; a third
    # object fails the test at once rather than let it run on
    made = []

    def counted(*factors):
        made.append(factors)
        assert len(made) <= 2, f"made the object {factors[:3]}... of arity {len(factors)}"
        return FinObject(*factors)

    monkeypatch.setattr(relcore, "FinObject", counted)
    blob = store_to_json(arity1_store)
    with pytest.raises(ValueError, match="^store file field 'fixpoint' is true, but its symbols "
                                         "lack the seeded 'id_IVxIV'$"):
        store_from_json({**blob, "config": {**blob["config"], "max_arity": 1_000_000}})
    assert made == [(4,), (4, 4)]


@settings(max_examples=30, deadline=None)
@given(mixed_generators(), st.integers(min_value=1, max_value=2), st.randoms())
# the sample holds (g0) ; (g0^), the one member of length 2: without it the
# flag's round rule, not the bound of twice the longest length, refuses
@example({"g0": Relation(II, II, (1, 3))}, 1, random.Random(0))
def test_mixed_factor_fixpoints_load_and_refuse_a_lost_member(gens, cap, rng):
    # codomains such as II x III, where a swap of unequal factors would
    # change the shape, so it is not a move; a member lost from a closure
    # leaves a store that is not closed, whatever the member
    gens = {n: rel for n, rel in gens.items() if max(rel.dom.arity, rel.cod.arity) <= cap}
    assume(gens)
    store = generate_closure(gens, ClosureConfig(max_arity=cap, max_morphisms=2000))
    assume(store.fixpoint)
    text = store_to_json_str(store)
    assert store_to_json_str(store_from_json(json.loads(text))) == text
    for key in rng.sample(sorted(store.items), min(4, len(store))):
        with pytest.raises(ValueError, match="^store file field 'fixpoint' is true, but"):
            store_from_json(_blob_without(store, {key}))


def test_store_lists_morphisms_in_rows_key_order(qubit_store):
    blob = store_to_json(qubit_store)
    assert blob["format"] == "toycat-store/7"
    # each count is the lengths': no field states it again
    assert "growth" not in blob and "morphism_count" not in blob
    keys = []
    for block in blob["blocks"]:
        rows = block_rows(block)
        n = len(rows) // len(block["words"])
        assert len(rows) == n * len(block["words"]) == n * len(block["lengths"])
        keys += [
            (tuple(block["dom"]), tuple(block["cod"]), tuple(rows[k:k + n]))
            for k in range(0, len(rows), n)
        ]
    assert keys == sorted(qubit_store.items)
    # one block per shape
    assert len(blob["blocks"]) == len({key[:2] for key in keys})


def test_store_from_json_rejects_version_1(arity1_store):
    for old in ("toycat-store/1", "toycat-store/2", "toycat-store/3", "toycat-store/4",
                "toycat-store/5", "toycat-store/6"):
        blob = store_to_json(arity1_store)
        blob["format"] = old
        with pytest.raises(ValueError, match=rf"^unsupported store format '{old}'; "
                                             "expected 'toycat-store/7'$"):
            store_from_json(blob)


SHAPES = [
    (UNIT, IV), (IV, UNIT), (IV, IV), (IV * IV, IV * IV),
    (II * FinObject(3), FinObject(3) * II), (IV * IV * IV, IV),
]


@st.composite
def shaped_relations(draw):
    dom, cod = draw(st.sampled_from(SHAPES))
    row = st.integers(min_value=0, max_value=(1 << dom.cardinality) - 1)
    rows = draw(st.lists(row, min_size=cod.cardinality, max_size=cod.cardinality))
    return Relation(dom, cod, tuple(rows))


UNINDEXED_BLOCK = "^store file field 'rows' of block 0 does not index its {} table entries in order"


@pytest.mark.parametrize("entries, digits", [(256, 2), (257, 4)])
def test_a_block_index_takes_one_byte_up_to_256_table_entries(entries, digits):
    # one block IX -> II whose members (k, 0) make a table of the rows 0 to
    # entries - 1, so each index is one byte up to 256 entries and two past
    items = {}
    for k in range(entries):
        rel = Relation(FinObject(9), II, (k, 0))
        items[rel.key] = StoredMorphism(rel, f"w{k}", 1)
    store = MorphismStore(config=ClosureConfig(max_arity=1), symbols={}, items=items,
                          rounds_run=1, growth=[(1, entries)])
    text = store_to_json_str(store)
    assert text == _reference_text(store)
    blob = json.loads(text)
    [block] = blob["blocks"]
    assert block["table"] == list(range(entries))
    assert len(block["rows"]) == 2 * entries * digits
    loaded = store_from_json(blob)
    _assert_same_record(loaded, store)
    assert store_to_json_str(loaded) == text

    def refused(edited: dict, table: int) -> None:
        with pytest.raises(ValueError, match=UNINDEXED_BLOCK.format(table)):
            store_from_json({**blob, "blocks": [{**block, **edited}]})

    indices = hex_indices(block["rows"], entries)
    # an index equal to the table's length: at 256 entries, after the table
    # loses its last entry (one byte still), and at 257, in place of the last
    if entries == 256:
        refused({"table": block["table"][:-1]}, 255)
    else:
        refused({"rows": indices_hex([*indices[:-1], entries], entries)}, entries)
    # the first two entries first used in the other order
    swapped = [{0: 1, 1: 0}.get(k, k) for k in indices]
    refused({"rows": indices_hex(swapped, entries)}, entries)


@given(shaped_relations())
def test_store_record_round_trips_the_rows(rel):
    store = MorphismStore(
        config=ClosureConfig(max_arity=3),
        symbols={"f": rel},
        items={rel.key: StoredMorphism(rel, "f", 1)},
        rounds_run=1,
        growth=[(1, 1)],
    )
    text = store_to_json_str(store)
    blob = json.loads(text)
    record = {"dom": list(rel.dom.factors), "cod": list(rel.cod.factors), "rows": list(rel.rows)}
    assert blob["symbols"] == {"f": record}
    assert blob["blocks"] == [with_block_rows({**record, "words": ["f"], "lengths": [1]}, rel.rows)]
    restored = store_from_json(blob)
    assert restored.symbols == {"f": rel}
    assert list(restored.items) == [rel.key]
    assert restored.items[rel.key].relation.pairs == rel.pairs
    assert store_to_json_str(restored) == text


STORE_OBJECTS = [UNIT, II, FinObject(3), II * FinObject(3), FinObject(9, 9)]


@st.composite
def mixed_stores(draw):
    """A store of 1 to 12 morphisms between I, II, III, II x III and IX x IX.

    Rows on IX x IX are up to 81 bits wide. Words are any text, so most
    need `\\u` escapes, and `growth` counts the drawn lengths.
    """
    items = {}
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        dom, cod = draw(st.sampled_from(STORE_OBJECTS)), draw(st.sampled_from(STORE_OBJECTS))
        row = st.integers(min_value=0, max_value=(1 << dom.cardinality) - 1)
        rows = draw(st.lists(row, min_size=cod.cardinality, max_size=cod.cardinality))
        rel = Relation(dom, cod, tuple(rows))
        length = draw(st.integers(min_value=1, max_value=3))
        # a word has an atom, so at least a character, per length
        items[rel.key] = StoredMorphism(rel, draw(st.text(min_size=length, max_size=6)), length)
    rounds = max(e.length for e in items.values())
    lengths = [e.length for e in items.values()]
    return MorphismStore(
        config=ClosureConfig(max_arity=2, max_rounds=rounds),
        symbols={"f": next(iter(items.values())).relation},
        items=items,
        rounds_run=rounds,
        growth=[(r, lengths.count(r)) for r in range(1, rounds + 1)],
    )


@settings(max_examples=60, deadline=None)
@given(mixed_stores())
def test_store_text_round_trips_on_mixed_factor_stores(store):
    text = store_to_json_str(store)
    assert text == _reference_text(store)
    restored = store_from_json(json.loads(text))
    _assert_same_record(restored, store)
    assert store_to_json_str(restored) == text


def test_store_file_is_written_without_building_pairs(arity1_store, monkeypatch):
    calls = []
    pairs = Relation.pairs
    monkeypatch.setattr(Relation, "pairs", property(lambda rel: calls.append(rel) or pairs.fget(rel)))
    store_to_json(arity1_store)
    assert calls == []
    # the probe sees a call that does build them
    relation_to_json(arity1_store.symbols["eps_Z"])
    assert len(calls) == 1


def test_relations_and_stored_morphisms_are_slotted_frozen_values(arity1_store):
    entry = next(iter(arity1_store.items.values()))
    built = Relation.from_pairs(IV, II, [(0, 1)])
    for value, name in ((entry, "word"), (entry.relation, "rows"), (built, "rows")):
        assert not hasattr(value, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))


def test_loaded_store_writes_back_the_same_bytes(tmp_path):
    path = tmp_path / "cap2_r3.json"
    store = generate_closure(spek_generator_symbols(), ClosureConfig(max_arity=2, max_rounds=3))
    path.write_text(store_to_json_str(store))
    assert store_to_json_str(load_store(path)) == path.read_text()


@pytest.mark.parametrize("enabled", [True, False])
def test_store_io_leaves_the_collector_as_it_found_it(arity1_store, enabled, tmp_path):
    bad = store_to_json(arity1_store)
    bad["format"] = "toycat-store/1"
    good_path, bad_path = tmp_path / "good.json", tmp_path / "bad.json"
    good_path.write_text(store_to_json_str(arity1_store))
    bad_path.write_text(json.dumps(bad))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        store_from_json(json.loads(store_to_json_str(arity1_store)))
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError):
            store_from_json(bad)
        assert gc.isenabled() is enabled
        assert len(load_store(good_path)) == len(arity1_store)
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError):
            load_store(bad_path)
        assert gc.isenabled() is enabled
        chunks = store_json_chunks(arity1_store)  # a writer stopped partway
        next(chunks)
        assert not gc.isenabled()
        chunks.close()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_build_leaves_the_collector_as_it_found_it(arity1_gens, enabled, monkeypatch):
    _, delta_z, eps_z = spek_generators()
    during = set()

    def watching(grows):
        during.add(gc.isenabled())
        return run_composer(grows)

    monkeypatch.setattr(closure, "run_composer", watching)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert generate_closure(arity1_gens, ClosureConfig(max_arity=1)).fixpoint
        assert gc.isenabled() is enabled
        with pytest.raises(GeneratorOutsideCapError):
            generate_closure({"delta_Z": delta_z, "eps_Z": eps_z}, ClosureConfig(max_arity=1))
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="not a term identifier"):
            generate_closure({"delta_Z": delta_z, "not-gate": eps_z}, ClosureConfig(max_arity=2))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    # the build ran with the collector paused
    assert during == {False}


def test_paused_calls_hand_what_they_kept_to_the_oldest_generation(
    arity1_gens, arity1_store, tmp_path
):
    path = tmp_path / "a1.json"
    path.write_text(store_to_json_str(arity1_store))
    text = path.read_text()
    calls = (
        lambda: generate_closure(arity1_gens, ClosureConfig(max_arity=1)),
        lambda: store_from_json(json.loads(text)),
        lambda: load_store(path),
    )
    was = gc.isenabled()
    gc.enable()
    try:
        frozen = gc.get_freeze_count()
        for call in calls:
            store = call()
            young_count = gc.get_count()[0]
            assert gc.isenabled() and gc.get_freeze_count() == frozen
            # no young collection is due, and none walks the store
            assert young_count < gc.get_threshold()[0]
            young = {id(obj) for gen in (0, 1) for obj in gc.get_objects(generation=gen)}
            assert id(store.items) not in young
    finally:
        (gc.enable if was else gc.disable)()


def test_what_the_handoff_moved_stays_collectable():
    class Node:
        pass

    was = gc.isenabled()
    gc.enable()
    try:
        with closure._collector_paused():
            node = Node()
            node.cycle = node
            ref = weakref.ref(node)
            del node
        gc.collect(1)
        assert ref() is not None  # in the oldest generation, past young collections
        gc.collect()
        assert ref() is None
    finally:
        (gc.enable if was else gc.disable)()


@pytest.fixture
def frozen_heap():
    """The process's objects frozen, as a forking server might freeze them."""
    gc.freeze()
    yield
    gc.unfreeze()


def test_a_build_leaves_the_process_frozen_objects_frozen(arity1_gens, frozen_heap):
    was = gc.isenabled()
    gc.enable()
    try:
        frozen = gc.get_freeze_count()
        store = generate_closure(arity1_gens, ClosureConfig(max_arity=1))
        assert gc.isenabled() and gc.get_freeze_count() == frozen > 0
        assert store.fixpoint
    finally:
        (gc.enable if was else gc.disable)()


def test_user_generator_file_round_trip(tmp_path):
    not_gate = Relation.from_pairs(II, II, [(0, 1), (1, 0)])
    eps = Relation.from_pairs(II, UNIT, [(0, 0), (1, 0)])
    path = tmp_path / "gens.json"
    path.write_text(
        json.dumps(
            {"generators": {"flip": relation_to_json(not_gate), "del": relation_to_json(eps)}}
        )
    )
    data = json.loads(path.read_text())
    gens = {name: relation_from_json(rec) for name, rec in data["generators"].items()}
    store = generate_closure(gens, ClosureConfig(max_arity=1))
    assert store.fixpoint
    assert contains(store, not_gate).status == "yes"
