"""The row-wise affine Lagrangian check gives the point-by-point messages.

`lagrangian_defect` works on whole rows (cosets of one kernel, an affine
map on the occupied rows); `oracle.lagrangian_defect_oracle` works on
coordinate tuples. Inputs cover every relation I -> IV and IV -> IV, every
shape up to IV^3 -> IV^3, relations with empty rows, stored morphisms
moved off the class by one point, and affine subspaces that are not
isotropic.
"""

import random

import pytest

from toycat.closure import ClosureConfig, generate_closure
from toycat.models import IV
from toycat.relcore import FinObject, Relation, UNIT
from toycat.suite import spek_generator_symbols
from toycat.symplectic import affine_lagrangian_count, lagrangian_defect

from oracle import all_relations, lagrangian_defect_oracle, random_relation

POWERS = [UNIT, IV, IV * IV, IV * IV * IV]


@pytest.fixture(scope="module")
def cap3_morphisms():
    store = generate_closure(
        spek_generator_symbols(), ClosureConfig(max_arity=3, max_rounds=2)
    )
    return [e.relation for _, e in sorted(store.items.items())]


def affine_subspace(rng, dom: FinObject, cod: FinObject) -> Relation:
    """A random affine subspace with 2^n points, isotropic or not."""
    n = dom.arity + cod.arity
    basis: list[int] = []
    span = {0}
    while len(basis) < n:
        v = rng.getrandbits(2 * n)
        if v not in span:
            basis.append(v)
            span |= {s ^ v for s in span}
    offset = rng.getrandbits(2 * n)
    shift = 2 * cod.arity
    pairs = [((p ^ offset) >> shift, (p ^ offset) & ((1 << shift) - 1)) for p in span]
    return Relation.from_pairs(dom, cod, pairs)


@pytest.mark.parametrize(
    "dom, cod, members", [(UNIT, IV, 7), (IV, IV, 61)], ids=["I-IV", "IV-IV"]
)
def test_every_relation_on_one_system(dom, cod, members):
    # 16 and 65,536 relations; the class counts include the empty relation
    count = 0
    for rel in all_relations(dom, cod):
        defect = lagrangian_defect(rel)
        assert defect == lagrangian_defect_oracle(rel), rel
        count += defect is None
    assert count == members == 1 + affine_lagrangian_count(dom.arity + cod.arity)


@pytest.mark.parametrize("dom", POWERS[:3])
@pytest.mark.parametrize("cod", POWERS[:3])
def test_random_relations_near_2n_points(dom, cod):
    rng = random.Random(dom.arity * 4 + cod.arity)
    n = dom.arity + cod.arity
    density = (1 << n) / (dom.cardinality * cod.cardinality)
    for _ in range(150):
        rel = random_relation(rng, dom, cod, density)
        assert lagrangian_defect(rel) == lagrangian_defect_oracle(rel), rel


def test_affine_subspaces_on_every_shape():
    rng = random.Random(23)
    seen = set()
    for dom in POWERS:
        for cod in POWERS:
            for _ in range(12):
                rel = affine_subspace(rng, dom, cod)
                defect = lagrangian_defect(rel)
                assert defect == lagrangian_defect_oracle(rel), rel
                seen.add(defect is None)
    assert seen == {True, False}


def test_stored_morphisms_and_one_point_moves(cap3_morphisms):
    rng = random.Random(29)
    kinds = set()
    for rel in rng.sample(cap3_morphisms, 300):
        assert lagrangian_defect(rel) is None
        rows = list(rel.rows)
        occupied = [i for i, row in enumerate(rows) if row]
        i = rng.choice(occupied)
        rows[i] &= rows[i] - 1  # drop the least point of one row
        rows[rng.randrange(len(rows))] |= 1 << rng.randrange(rel.dom.cardinality)
        moved = Relation(rel.dom, rel.cod, tuple(rows))
        defect = lagrangian_defect(moved)
        assert defect == lagrangian_defect_oracle(moved), moved
        kinds.add(defect.split(" ", 2)[-1] if defect else None)
    assert len(kinds) >= 3


def test_relations_with_empty_rows(cap3_morphisms):
    # clear about half the rows, then add random points up to 2^n again
    rng = random.Random(31)
    for rel in rng.sample(cap3_morphisms, 200):
        target = sum(row.bit_count() for row in rel.rows)
        rows = [0 if rng.random() < 0.5 else row for row in rel.rows]
        while sum(row.bit_count() for row in rows) < target:
            rows[rng.randrange(len(rows))] |= 1 << rng.randrange(rel.dom.cardinality)
        refilled = Relation(rel.dom, rel.cod, tuple(rows))
        assert lagrangian_defect(refilled) == lagrangian_defect_oracle(refilled), refilled
