import copy
import json
import operator
import os
import pickle
import random
import subprocess
import sys
import threading
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import toycat
from toycat.relcore import (
    FinObject,
    ProductTable,
    Relation,
    ShapeMismatchError,
    UNIT,
    compose,
    conjugate_star,
    dagger,
    identity,
    is_unitary,
    least_diff_cell,
    reachable,
    relation_from_json,
    relation_to_json,
    run_composer,
    scalar_empty,
    scalar_identity,
    scalar_kind,
    snake_holds,
    structural_seeds,
    swap,
    table_run,
    tensor,
    transpose_star,
)

from oracle import (
    all_relations,
    compose_oracle,
    dagger_oracle,
    random_pairs,
    random_relation,
    tensor_oracle,
)

II = FinObject(2)
IV = FinObject(4)


def rel(dom, cod, pairs):
    return Relation.from_pairs(dom, cod, pairs)


# -- objects -----------------------------------------------------------------

def test_unit_congruence_erases_trivial_factors():
    assert FinObject(4, 1) == FinObject(1, 4) == FinObject(4)
    assert FinObject(1, 1) == UNIT
    assert UNIT.cardinality == 1
    assert FinObject(4, 4).cardinality == 16


def test_object_names():
    assert str(UNIT) == "I"
    assert str(II) == "II"
    assert str(IV * IV) == "IVxIV"


def test_object_parse_reads_digits_and_numerals_alike():
    assert FinObject.parse("4x4") == FinObject.parse("IVxIV") == IV * IV


def test_bad_factor_rejected():
    for bad in (0, True, "4"):
        with pytest.raises(ValueError, match="factors must be integers"):
            FinObject(bad)


def test_objects_are_interned():
    assert FinObject(1, 4) is FinObject(4) is IV
    assert FinObject() is UNIT and FinObject(1, 1) is UNIT
    assert IV * IV is FinObject(4, 4) is FinObject.parse("IVx4")


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_of_an_object_are_the_object(clone):
    for obj in (UNIT, IV, IV * II):
        assert clone(obj) is obj
    # a copy made by calling __new__ with no factors would have replaced the unit
    assert UNIT.factors == () and UNIT.cardinality == 1 and FinObject() is UNIT


def test_threads_building_new_objects_get_one_instance():
    # Eight rounds of 2,000 factor tuples that nothing else builds, so each is
    # new to the table. A table filled without setdefault gave two instances
    # of some tuple in about three rounds of four.
    for base in range(97, 105):
        tuples = [(base, k) for k in range(2, 2002)]
        barrier = threading.Barrier(8)
        built: list[list[FinObject]] = []

        def build():
            barrier.wait(timeout=30)
            built.append([FinObject(*t) for t in tuples])

        threads = [threading.Thread(target=build) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(built) == len(threads)
        for objs in zip(*built):
            assert all(o is objs[0] for o in objs)


def test_hashes_are_the_same_in_every_run():
    code = (
        "from toycat.relcore import FinObject, Relation\n"
        "o = FinObject(4, 4)\n"
        "print(hash(o), hash(Relation.from_pairs(FinObject(4), o, [(0, 0), (3, 5)])))"
    )
    src = str(Path(toycat.__file__).parents[1])
    outs = [
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        for seed in ("1", "2")
    ]
    here = f"{hash(IV * IV)} {hash(Relation.from_pairs(IV, IV * IV, [(0, 0), (3, 5)]))}\n"
    assert outs == [here, here]


# -- constructors and canonical form ------------------------------------------

def test_pairs_round_trip_and_sorted():
    r = rel(IV, II, [(3, 1), (0, 0), (2, 0)])
    assert r.pairs == ((0, 0), (2, 0), (3, 1))
    assert Relation.from_pairs(IV, II, r.pairs) == r


@pytest.mark.parametrize("cod", [UNIT, IV, IV * IV], ids=str)
@pytest.mark.parametrize("dom", [UNIT, IV, IV * IV], ids=str)
def test_pairs_are_the_sorted_pair_set_on_every_call(dom, cod):
    rng = random.Random(17)
    for density in (0.0, 0.3, 1.0):
        expected = random_pairs(rng, dom, cod, density)
        r = Relation.from_pairs(dom, cod, expected)
        assert r.pairs == r.pairs == tuple(sorted(expected))


def test_row_validation():
    with pytest.raises(ValueError):
        Relation(II, II, (1,))
    with pytest.raises(ValueError):
        Relation(II, II, (4, 0))


def test_out_of_range_pair_rejected():
    with pytest.raises(ValueError):
        rel(II, II, [(2, 0)])


# -- composition ---------------------------------------------------------------

def test_compose_mismatch_names_both_objects():
    z0 = rel(UNIT, IV, [(0, 0), (0, 1)])
    delta = rel(IV, IV * IV, [(0, 0)])
    with pytest.raises(ShapeMismatchError) as err:
        compose(z0, delta)
    assert "IVxIV" in str(err.value) and "I" in str(err.value)


def test_compose_matches_oracle_exhaustively_on_size_2():
    shapes = [UNIT, II]
    for a in shapes:
        for b in shapes:
            for c in shapes:
                for fbits in range(1 << (a.cardinality * b.cardinality)):
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
                    for gbits in range(1 << (b.cardinality * c.cardinality)):
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
                        assert compose(g, f) == compose_oracle(g, f)


def test_compose_matches_oracle_random_sizes_3_4():
    rng = random.Random(20240917)
    sizes = [FinObject(3), FinObject(4), FinObject(2, 2), FinObject(3, 4) if False else FinObject(4)]
    for _ in range(2000):
        a, b, c = (rng.choice(sizes) for _ in range(3))
        f = random_relation(rng, a, b, rng.choice([0.2, 0.5, 0.8]))
        g = random_relation(rng, b, c, rng.choice([0.2, 0.5, 0.8]))
        assert compose(g, f) == compose_oracle(g, f)


# -- tensor ---------------------------------------------------------------------

def test_tensor_flattening_is_row_major():
    # single pairs land at index first*|second| + second
    f = rel(II, II, [(1, 0)])
    g = rel(II, II, [(0, 1)])
    t = tensor(f, g)
    assert t.pairs == ((2, 1),)  # dom (1,0) -> flat 2, cod (0,1) -> flat 1


def test_tensor_matches_oracle_random():
    rng = random.Random(7)
    sizes = [UNIT, II, FinObject(3), IV]
    for _ in range(300):
        f = random_relation(rng, rng.choice(sizes), rng.choice(sizes))
        g = random_relation(rng, rng.choice(sizes), rng.choice(sizes))
        assert tensor(f, g) == tensor_oracle(f, g)


# Composite and odd shapes: g's domain width gw is 1, 6, 16 and 12, so the
# spread of a row of f puts its bits at strides other than a power of two.
COMPOSITE = [UNIT, II * FinObject(3), IV * IV, FinObject(3) * II * II]


def with_empty_rows(rng, r):
    """r with about a third of its rows cleared."""
    rows = tuple(0 if rng.random() < 0.3 else row for row in r.rows)
    return Relation(r.dom, r.cod, rows)


def test_tensor_matches_oracle_on_composite_shapes():
    rng = random.Random(13)
    for f_dom in COMPOSITE:
        for g_dom in COMPOSITE:
            f = with_empty_rows(rng, random_relation(rng, f_dom, rng.choice(COMPOSITE), 0.2))
            g = with_empty_rows(rng, random_relation(rng, g_dom, rng.choice(COMPOSITE), 0.2))
            assert tensor(f, g) == tensor_oracle(f, g)
            assert tensor(g, f) == tensor_oracle(g, f)


def test_tensor_with_empty_and_full_relations():
    rng = random.Random(17)
    for a in COMPOSITE:
        for b in COMPOSITE:
            f = random_relation(rng, a, b)
            for g in (Relation.empty(b, a), random_relation(rng, b, a, 1.0)):
                assert tensor(f, g) == tensor_oracle(f, g)
                assert tensor(g, f) == tensor_oracle(g, f)


def test_tensor_unit_is_identity_on_morphisms():
    rng = random.Random(11)
    f = random_relation(rng, IV, II)
    assert tensor(identity(UNIT), f) == f
    assert tensor(f, identity(UNIT)) == f


# -- dagger ----------------------------------------------------------------------

@st.composite
def relations(draw, max_card=4):
    sizes = [1, 2, 3, 4]
    dom = FinObject(draw(st.sampled_from(sizes)))
    cod = FinObject(draw(st.sampled_from(sizes)))
    nd, nc = dom.cardinality, cod.cardinality
    bits = draw(st.integers(min_value=0, max_value=(1 << (nd * nc)) - 1))
    pairs = [(j, i) for i in range(nc) for j in range(nd) if bits >> (i * nd + j) & 1]
    return Relation.from_pairs(dom, cod, pairs)


@given(relations())
def test_dagger_involution(f):
    assert dagger(dagger(f)) == f


@given(relations())
def test_dagger_matches_oracle(f):
    assert dagger(f) == dagger_oracle(f)


@given(relations(), relations())
def test_dagger_distributes_over_tensor(f, g):
    assert tensor(dagger(f), dagger(g)) == dagger(tensor(f, g))


@given(relations(), relations())
def test_key_equal_iff_relations_equal(f, g):
    assert (f.key == g.key) == (f == g)
    copy = Relation(f.dom, f.cod, f.rows)
    assert copy.key == f.key and hash(copy.key) == hash(f.key)


def test_key_separates_shapes_with_equal_rows():
    # same cardinality and rows, different factors
    a = Relation(IV, IV, (1, 2, 4, 8))
    b = Relation(II * II, IV, (1, 2, 4, 8))
    assert a.key != b.key and a != b


@given(relations())
def test_dagger_key_matches_oracle(f):
    assert dagger(f).key == dagger_oracle(f).key


def test_dagger_key_matches_oracle_on_composite_shapes():
    rng = random.Random(19)
    for a in COMPOSITE:
        for b in COMPOSITE:
            f = with_empty_rows(rng, random_relation(rng, a, b, 0.3))
            assert dagger(f).key == dagger_oracle(f).key


def test_dagger_contravariant_over_compose():
    rng = random.Random(3)
    for _ in range(200):
        f = random_relation(rng, II, IV)
        g = random_relation(rng, IV, II)
        assert dagger(compose(g, f)) == compose(dagger(f), dagger(g))


# -- structural morphisms ---------------------------------------------------------

def test_identity_composes_neutrally():
    rng = random.Random(5)
    f = random_relation(rng, IV, II)
    assert compose(f, identity(IV)) == f
    assert compose(identity(II), f) == f


def test_identity_on_unit_is_identity_scalar():
    assert identity(UNIT) == scalar_identity()


def test_swap_self_inverse_and_naturality():
    rng = random.Random(13)
    s = swap(II, IV)
    assert compose(swap(IV, II), s) == identity(II * IV)
    for _ in range(100):
        f = random_relation(rng, II, II)
        g = random_relation(rng, IV, IV)
        lhs = compose(swap(II, IV), tensor(f, g))
        rhs = compose(tensor(g, f), swap(II, IV))
        assert lhs == rhs


def test_associativity_of_compose():
    rng = random.Random(17)
    for _ in range(300):
        objs = [UNIT, II, FinObject(3), IV]
        a, b, c, d = (rng.choice(objs) for _ in range(4))
        f = random_relation(rng, a, b)
        g = random_relation(rng, b, c)
        h = random_relation(rng, c, d)
        assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_interchange_law():
    rng = random.Random(19)
    for _ in range(200):
        f1 = random_relation(rng, II, IV)
        f2 = random_relation(rng, IV, II)
        g1 = random_relation(rng, IV, II)
        g2 = random_relation(rng, II, IV)
        lhs = compose(tensor(g1, g2), tensor(f1, f2))
        rhs = tensor(compose(g1, f1), compose(g2, f2))
        assert lhs == rhs


def test_structural_seeds_come_in_order_each_made_when_asked():
    seeds = list(structural_seeds([2, 4], 2))
    assert [name for name, _ in seeds] == [
        "id_I", "id_II", "id_IV", "id_IIxII", "id_IIxIV", "id_IVxII", "id_IVxIV",
        "swap_II_II", "swap_II_IV", "swap_IV_II", "swap_IV_IV",
    ]
    made = dict(seeds)
    assert made["id_IVxII"]() == identity(IV * II)
    assert made["swap_II_IV"]() == swap(II, IV)


def test_structural_seeds_yield_each_identity_as_its_object_is_made(monkeypatch):
    # at cap 16 the objects on II and IV number 2^17 - 1: none past the
    # first seeds' is made before they are yielded
    made = []

    def counted(*factors):
        made.append(factors)
        return FinObject(*factors)

    monkeypatch.setattr(toycat.relcore, "FinObject", counted)
    seeds = structural_seeds([2, 4], 16)
    assert [next(seeds)[0] for _ in range(4)] == ["id_I", "id_II", "id_IV", "id_IIxII"]
    assert made == [(2,), (4,), (2, 2)]


# -- scalars -----------------------------------------------------------------------

def test_scalars_closed_under_composition():
    e, one = scalar_empty(), scalar_identity()
    assert compose(e, e) == e
    assert compose(e, one) == e
    assert compose(one, e) == e
    assert compose(one, one) == one
    assert scalar_kind(e) == "empty"
    assert scalar_kind(one) == "identity"


# -- unitarity ----------------------------------------------------------------------

def test_permutation_is_unitary():
    # sigma(23) on IV, 0-indexed elements: swaps indices 1 and 2
    sigma = rel(IV, IV, [(0, 0), (1, 2), (2, 1), (3, 3)])
    assert is_unitary(sigma)


def test_projector_is_not_unitary():
    z0 = rel(UNIT, IV, [(0, 0), (0, 1)])
    proj = compose(z0, dagger(z0))
    assert not is_unitary(proj)


def test_non_bijection_not_unitary():
    assert not is_unitary(rel(II, IV, [(0, 0), (1, 1)]))


@pytest.mark.parametrize("dom, cod", [
    (UNIT, UNIT), (UNIT, II), (II, UNIT), (II, II), (II, FinObject(3)),
    (FinObject(3), II), (FinObject(3), FinObject(3)), (II * II, IV),
])
def test_is_unitary_matches_the_compose_definition(dom, cod):
    # the bijection test against dagger(f) being a two-sided inverse of f
    for f in all_relations(dom, cod):
        fd = dagger(f)
        inverse = compose(fd, f) == identity(dom) and compose(f, fd) == identity(cod)
        assert is_unitary(f) == inverse, f


# -- transpose ------------------------------------------------------------------------

def eta_diag(obj):
    return Relation.from_pairs(
        UNIT, obj * obj, [(0, i * obj.cardinality + i) for i in range(obj.cardinality)]
    )


def test_snake_holds_for_diagonal_cup():
    assert snake_holds(eta_diag(II))
    assert snake_holds(eta_diag(IV))


def test_snake_fails_for_degenerate_cup():
    cup = rel(UNIT, IV * IV, [(0, 0)])
    assert not snake_holds(cup)


def test_transpose_of_identity():
    eta = eta_diag(IV)
    assert transpose_star(identity(IV), eta, eta) == identity(IV)


def test_transpose_of_permutation_is_inverse_graph():
    eta = eta_diag(IV)
    sigma = rel(IV, IV, [(0, 1), (1, 2), (2, 0), (3, 3)])  # 3-cycle
    expected = dagger(sigma)  # for the diagonal cup, transpose = converse graph
    assert transpose_star(sigma, eta, eta) == expected


def test_transpose_is_involutive_exhaustively_on_II():
    eta = eta_diag(II)
    for bits in range(16):
        pairs = [(j, i) for i in range(2) for j in range(2) if bits >> (i * 2 + j) & 1]
        f = rel(II, II, pairs)
        assert transpose_star(transpose_star(f, eta, eta), eta, eta) == f


def test_transpose_rejects_bad_cup():
    bad = rel(UNIT, IV * IV, [(0, 0)])
    with pytest.raises(ValueError):
        transpose_star(identity(IV), bad, eta_diag(IV))


def test_conjugate_against_diagonal_cup_is_identity_operation():
    # with diagonal cups the transpose is the converse, so conjugation fixes f
    eta = eta_diag(IV)
    rng = random.Random(23)
    for _ in range(50):
        f = random_relation(rng, IV, IV)
        assert conjugate_star(f, eta, eta) == f


# -- prepared kernels ------------------------------------------------------------
#
# The closure scan prepares a left operand once and applies it to many right
# operands: `run_composer` for composites, `ProductTable.left` then `table_run`
# for products; `compose` and `tensor` form a single one. Each is checked against the
# pair-set oracle.

III = FinObject(3)
KERNEL_SHAPES = [
    (UNIT, IV),
    (IV, UNIT),  # one row: a single pick
    (IV, IV),
    (IV * IV, IV * IV),
    (II * III, III * II),
    (IV * IV * IV, IV),  # 64-bit rows
]


def one_bit_rows(rng, dom, cod):
    """Each codomain element related to exactly one random domain element."""
    rows = tuple(1 << rng.randrange(dom.cardinality) for _ in range(cod.cardinality))
    return Relation(dom, cod, rows)


def permutation_rows(rng, obj):
    images = list(range(obj.cardinality))
    rng.shuffle(images)
    return Relation(obj, obj, tuple(1 << j for j in images))


def kernel_cases(rng, dom, cod):
    """Left operands of one shape: one-bit rows, empty rows, several bits."""
    one_bit = one_bit_rows(rng, dom, cod)
    cases = [
        one_bit,
        # one empty row among one-bit rows: a zero column among single picks
        Relation(dom, cod, (0,) + one_bit.rows[1:]),
        Relation.empty(dom, cod),
        with_empty_rows(rng, random_relation(rng, dom, cod, 0.5)),
        random_relation(rng, dom, cod, 0.5),
        random_relation(rng, dom, cod, 1.0),
    ]
    if dom == cod:
        cases.append(permutation_rows(rng, dom))
    return cases


@pytest.mark.parametrize("dom, cod", KERNEL_SHAPES, ids=lambda o: str(o))
def test_composer_matches_oracle(dom, cod):
    rng = random.Random(31)
    for g in kernel_cases(rng, dom, cod):
        for source in (UNIT, II, IV):
            for f in (random_relation(rng, source, dom, 0.3), Relation.empty(source, dom)):
                assert compose(g, f) == compose_oracle(g, f)


def row_kind_cases(rng, dom, cod):
    """g with only empty rows, with only one-bit rows, and with empty, one-bit
    and several-bit rows mixed (where the domain has two elements or more)."""
    cases = [Relation.empty(dom, cod), one_bit_rows(rng, dom, cod)]
    if dom.cardinality > 1:
        full = (1 << dom.cardinality) - 1
        kinds = [0, 1 << rng.randrange(dom.cardinality), full]
        cases.append(Relation(dom, cod, tuple(kinds[i % 3] for i in range(cod.cardinality))))
    return cases


# scalars I -> I, states I -> IV^2, and 64 rows of 64 bits
ROW_KIND_SHAPES = [(UNIT, UNIT), (UNIT, IV * IV), (IV * IV * IV, IV * IV * IV)]


@pytest.mark.parametrize("dom, cod", ROW_KIND_SHAPES, ids=lambda o: str(o))
def test_compose_tensor_dagger_match_oracle_on_each_row_kind(dom, cod):
    rng = random.Random(53)
    for g in row_kind_cases(rng, dom, cod):
        assert dagger(g) == dagger_oracle(g)
        for source in (UNIT, IV, dom):
            for f in (random_relation(rng, source, dom, 0.3), one_bit_rows(rng, source, dom)):
                assert compose(g, f) == compose_oracle(g, f)
        for h in (random_relation(rng, UNIT, II, 0.5), random_relation(rng, II, II, 0.5)):
            assert tensor(g, h) == tensor_oracle(g, h)
            assert tensor(h, g) == tensor_oracle(h, g)


def test_compose_refuses_objects_of_equal_size_and_other_factors():
    for g, f in ((identity(IV), identity(II * II)), (identity(II * II), identity(IV))):
        with pytest.raises(ShapeMismatchError):
            compose(g, f)


# Run domains from the unit to rows of 81 bits, wider than a machine word.
RUN_SOURCES = [UNIT, III, IV, FinObject(9), IV * IV, FinObject(5, 5), IV * IV * IV,
               FinObject(9, 9)]


@pytest.mark.parametrize("dom, cod", KERNEL_SHAPES, ids=lambda o: str(o))
def test_run_composer_matches_oracle(dom, cod):
    rng = random.Random(43)
    for g in kernel_cases(rng, dom, cod):
        after = run_composer(g.rows)
        for source in RUN_SOURCES:
            many = [
                random_relation(rng, source, dom, 0.2),
                Relation.empty(source, dom),
                random_relation(rng, source, dom, 1.0),
                one_bit_rows(rng, source, dom),
                with_empty_rows(rng, random_relation(rng, source, dom, 0.2)),
            ]
            # a run of no members has no columns
            for members in ([], many[:1], many):
                columns = list(zip(*[f.rows for f in members]))
                assert after(columns) == [compose_oracle(g, f).rows for f in members]


def two_bit_row(rng, r):
    """r with bits 0 and 1 set in one random row, so `run_composer` ORs two columns."""
    rows = list(r.rows)
    rows[rng.randrange(len(rows))] |= 0b11
    return Relation(r.dom, r.cod, tuple(rows))


def brute_force_reach(moves, start):
    """`start` closed under composing with `moves`, by the pair-set oracle."""
    reached = set(start)
    while True:
        more = {compose_oracle(g, f) for g in moves for f in reached} - reached
        if not more:
            return reached
        reached |= more


@pytest.mark.parametrize("obj", [II, IV], ids=str)
@pytest.mark.parametrize("kind", ["permutations", "relations"])
def test_reachable_matches_a_brute_force_closure(obj, kind):
    rng = random.Random(59)
    for _ in range(6):
        count = rng.randint(1, 3)
        if kind == "permutations":
            moves = [permutation_rows(rng, obj) for _ in range(count)]
        else:
            moves = [two_bit_row(rng, random_relation(rng, obj, obj, 0.3))
                     for _ in range(count)]
        prepared = [run_composer(g.rows) for g in moves]
        for source in (UNIT, II, obj):
            start = [random_relation(rng, source, obj, 0.3) for _ in range(rng.randint(1, 3))]
            expected = {f.rows for f in brute_force_reach(moves, start)}
            assert reachable(prepared, [f.rows for f in start]) == expected


def test_reachable_without_moves_or_start():
    start = [identity(IV).rows]
    assert reachable([], start) == set(start)
    assert reachable([run_composer(swap(II, II).rows)], []) == set()


def test_reachable_stops_at_the_first_row_outside_within():
    # the 4-cycle on IV moves each point state to the next; with the third
    # state outside `within`, the walk takes the first two and stops at it
    cycle = run_composer(Relation.from_pairs(IV, IV, [(j, (j + 1) % 4) for j in range(4)]).rows)
    states = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    assert reachable([cycle], states[:1]) == set(states)
    assert reachable([cycle], states[:1], set(states[:2])) == set(states[:3])
    assert reachable([cycle], states[:1], set(states)) == set(states)


@pytest.mark.parametrize("dom, cod", KERNEL_SHAPES, ids=lambda o: str(o))
def test_tensor_kernel_matches_oracle(dom, cod):
    # one table serves every left relation and right-domain width (1, 4, 16, 6)
    rng = random.Random(41)
    table = ProductTable()
    for f in kernel_cases(rng, dom, cod):
        for g_dom, g_cod in KERNEL_SHAPES[:5]:
            many = [
                random_relation(rng, g_dom, g_cod, 0.3),
                one_bit_rows(rng, g_dom, g_cod),
                Relation.empty(g_dom, g_cod),
                random_relation(rng, g_dom, g_cod, 1.0),
            ]
            getters = table.left(f.rows, g_dom.cardinality)
            assert table_run(getters, list(zip(*[]))) == []
            for members in (many[:1], many):
                columns = list(zip(*[g.rows for g in members]))
                shared = table_run(getters, columns)
                assert shared == [tensor_oracle(f, g).rows for g in members]
                # a second call reads the same int objects from the table
                again = table_run(table.left(f.rows, g_dom.cardinality), columns)
                assert all(map(operator.is_, chain(*again), chain(*shared)))
            for g in many:
                assert tensor(f, g) == tensor_oracle(f, g)


# -- serialization -----------------------------------------------------------------------

def test_json_round_trip_bit_exact():
    r = rel(IV * IV, IV, [(0, 0), (5, 1), (15, 3)])
    blob = json.dumps(relation_to_json(r), sort_keys=True)
    assert relation_from_json(json.loads(blob)) == r
    assert json.dumps(relation_to_json(relation_from_json(json.loads(blob))), sort_keys=True) == blob


def test_json_rejects_unsorted_or_duplicate_pairs():
    with pytest.raises(ValueError):
        relation_from_json({"dom": [4], "cod": [4], "pairs": [[1, 0], [0, 0]]})
    with pytest.raises(ValueError):
        relation_from_json({"dom": [4], "cod": [4], "pairs": [[0, 0], [0, 0]]})


@pytest.mark.parametrize(
    "pairs",
    [[[4, 0]], [[0, 4]], [[0, 0], [1, 7]], [[-1, 0]], [[0, -1]]],
    ids=["dom-high", "cod-high", "late-pair-high", "dom-negative", "cod-negative"],
)
def test_json_rejects_out_of_range_or_negative_pairs(pairs):
    with pytest.raises(ValueError, match="out of range"):
        relation_from_json({"dom": [4], "cod": [4], "pairs": pairs})


@pytest.mark.parametrize(
    "pairs",
    [[[1.7, 0], [2, "3"]], [[2, "3"]], [[True, 0]], [[0, False]], [[0, 1.0]]],
    ids=["float", "string", "true", "false", "integral-float"],
)
def test_json_refuses_pair_entries_that_are_not_integers(pairs):
    with pytest.raises(ValueError, match="is not two integers"):
        relation_from_json({"dom": [4], "cod": [4], "pairs": pairs})


def test_bool_factors_are_refused():
    # True would pass isinstance(n, int) and, being 1, be erased: IV x true = IV
    with pytest.raises(ValueError, match="factors must be integers"):
        FinObject(True, 4)
    with pytest.raises(ValueError, match="malformed relation record"):
        relation_from_json({"dom": [True, 4], "cod": [4, True], "pairs": [[0, 0]]})


def test_least_diff_cell_orders_by_row_then_col():
    a = rel(II, II, [(0, 0), (1, 1)])
    b = rel(II, II, [(1, 0), (1, 1)])
    assert least_diff_cell(a, b) == (0, 0)
    assert least_diff_cell(a, a) is None
