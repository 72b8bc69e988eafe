"""Independent set-comprehension semantics for relations.

This is the second route used to cross-check the bit-packed matrix
implementation: relations are plain pair sets over tuple-shaped elements,
and every operation is written as a direct set comprehension. Nothing
here imports the matrix code paths beyond the public data types, except
`first_wins_words_oracle`: it pins the closure's scan order, not its
arithmetic, and calls the public `compose` and `tensor` pair by pair.
`store_tree_oracle` and `store_block_tree_oracle` are the `toycat-store/3`
and `toycat-store/7` files written the plain way, as the dict trees that
`json.dumps` encodes; the `/3` one renders a store for the digests pinned
before the block form. `block_rows` and `with_block_rows` decode a `/7`
block's rows to their values and encode values back, so a test edits rows,
not indices; `hex_indices` and `indices_hex` do the same for the indices
and their hex string, one `format` or `int` call per index.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from toycat.relcore import FinObject, Relation, compose, dagger, tensor


def elements(obj: FinObject) -> list[tuple[int, ...]]:
    """All elements of an object as factor-index tuples (unit: the empty tuple)."""
    return list(itertools.product(*(range(f) for f in obj.factors)))


def flatten(obj: FinObject, element: tuple[int, ...]) -> int:
    idx = 0
    for size, coord in zip(obj.factors, element):
        idx = idx * size + coord
    return idx


def to_pairset(rel: Relation) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    dom_elems = elements(rel.dom)
    cod_elems = elements(rel.cod)
    return {(dom_elems[j], cod_elems[i]) for j, i in rel.pairs}


def from_pairset(
    dom: FinObject,
    cod: FinObject,
    pairs: Iterable[tuple[tuple[int, ...], tuple[int, ...]]],
) -> Relation:
    return Relation.from_pairs(
        dom, cod, [(flatten(dom, a), flatten(cod, b)) for a, b in pairs]
    )


def compose_oracle(g: Relation, f: Relation) -> Relation:
    """g after f by explicit exists-intermediate comprehension."""
    assert f.cod == g.dom
    fp = to_pairset(f)
    gp = to_pairset(g)
    out = {(a, c) for a, b1 in fp for b2, c in gp if b1 == b2}
    return from_pairset(f.dom, g.cod, out)


def tensor_oracle(f: Relation, g: Relation) -> Relation:
    fp = to_pairset(f)
    gp = to_pairset(g)
    out = {(a + c, b + d) for a, b in fp for c, d in gp}
    return from_pairset(f.dom * g.dom, f.cod * g.cod, out)


def dagger_oracle(f: Relation) -> Relation:
    return from_pairset(f.cod, f.dom, {(b, a) for a, b in to_pairset(f)})


def random_pairs(rng, dom: FinObject, cod: FinObject, density: float = 0.5) -> set:
    """A random set of (domain index, codomain index) pairs."""
    return {
        (j, i)
        for j in range(dom.cardinality)
        for i in range(cod.cardinality)
        if rng.random() < density
    }


def random_relation(rng, dom: FinObject, cod: FinObject, density: float = 0.5) -> Relation:
    return Relation.from_pairs(dom, cod, random_pairs(rng, dom, cod, density))


def all_relations(dom: FinObject, cod: FinObject):
    """Every relation dom -> cod (2^(|dom|*|cod|) of them); keep shapes small."""
    nd, nc = dom.cardinality, cod.cardinality
    cells = [(j, i) for j in range(nd) for i in range(nc)]
    for bits in range(1 << (nd * nc)):
        pairs = [cells[k] for k in range(nd * nc) if bits >> k & 1]
        yield Relation.from_pairs(dom, cod, pairs)


# -- comonoid laws by direct quantification -----------------------------------
#
# delta is given as a set of (a, (b, c)) with a in A and (b, c) in A x A,
# epsilon as the subset of A it deletes. No matrix code is involved.

def delta_pairs(delta: Relation) -> set[tuple[int, tuple[int, int]]]:
    n = delta.dom.cardinality
    return {(j, (i // n, i % n)) for j, i in delta.pairs}


def eps_subset(epsilon: Relation) -> set[int]:
    return {j for j, _ in epsilon.pairs}


def law_coassociativity(d: set, n: int) -> bool:
    lhs = {(a, b, c, e) for a, (f, e) in d for (g, (b, c)) in d if g == f}
    rhs = {(a, b, c, e) for a, (b, f) in d for (g, (c, e)) in d if g == f}
    return lhs == rhs


def law_counit_left(d: set, s: set, n: int) -> bool:
    lhs = {(a, b) for a, (e, b) in d if e in s}
    return lhs == {(a, a) for a in range(n)}


def law_counit_right(d: set, s: set, n: int) -> bool:
    lhs = {(a, b) for a, (b, e) in d if e in s}
    return lhs == {(a, a) for a in range(n)}


def law_cocommutativity(d: set, n: int) -> bool:
    return {(a, (c, b)) for a, (b, c) in d} == d


def law_isometry(d: set, n: int) -> bool:
    lhs = {(a, a2) for a, bc in d for (a2, bc2) in d if bc == bc2}
    return lhs == {(a, a) for a in range(n)}


def law_frobenius(d: set, n: int) -> bool:
    # (b,c) ~ (e,g) under delta o mu iff some a copies to both pairs;
    # under (mu x 1) o (1 x delta) iff some f has c ~ (f,g) and e ~ (b,f).
    lhs = {(b, c, e, g) for a, (b, c) in d for (a2, (e, g)) in d if a2 == a}
    rhs = {(b, c, e, g) for (c, (f, g)) in d for (e, (b, f2)) in d if f2 == f}
    return lhs == rhs


def basis_laws_oracle(delta: Relation, epsilon: Relation) -> dict[str, bool]:
    n = delta.dom.cardinality
    d = delta_pairs(delta)
    s = eps_subset(epsilon)
    return {
        "coassociativity": law_coassociativity(d, n),
        "counit_left": law_counit_left(d, s, n),
        "counit_right": law_counit_right(d, s, n),
        "cocommutativity": law_cocommutativity(d, n),
        "isometry": law_isometry(d, n),
        "frobenius": law_frobenius(d, n),
    }


# -- points and complementarity over pair sets ----------------------------------
#
# A state of A is the tuple of the elements it holds, and the states are
# scanned in the order of those tuples. A structure is anything with
# `delta` and `epsilon`; its laws are read through delta_pairs/eps_subset.

def state_members(state: Relation) -> tuple[int, ...]:
    return tuple(i for _, i in state.pairs)


def nonempty_states(n: int) -> list[tuple[int, ...]]:
    return sorted(
        combo for k in range(1, n + 1) for combo in itertools.combinations(range(n), k)
    )


def classical_oracle(structure, members: tuple[int, ...]) -> bool:
    """delta o phi = phi x phi and epsilon o phi = the identity scalar."""
    d = delta_pairs(structure.delta)
    copied = {bc for a, bc in d if a in members}
    return copied == {(b, c) for b in members for c in members} and bool(
        eps_subset(structure.epsilon) & set(members)
    )


def unbiased_oracle(structure, members: tuple[int, ...]) -> bool:
    """delta-dagger o (psi x 1) is the graph of a bijection."""
    n = structure.delta.dom.cardinality
    d = delta_pairs(structure.delta)
    graph = {(x, y) for y, (s, x) in d if s in members}
    images = [{y for x2, y in graph if x2 == x} for x in range(n)]
    return all(len(im) == 1 for im in images) and len({min(im) for im in images}) == n


def complementarity_oracle(a, b) -> tuple:
    """(holds, three bullets, witness members) of definitional complementarity.

    The witness is the first state violating the first failing bullet:
    a classical point of `a` biased for `b`, of `b` biased for `a`, then
    a counit dagger that is not classical for the other structure.
    """
    states = nonempty_states(a.delta.dom.cardinality)
    ab = [s for s in states if classical_oracle(a, s) and not unbiased_oracle(b, s)]
    ba = [s for s in states if classical_oracle(b, s) and not unbiased_oracle(a, s)]
    ua = tuple(sorted(eps_subset(a.epsilon)))
    ub = tuple(sorted(eps_subset(b.epsilon)))
    counit = [u for u, other in ((ua, b), (ub, a)) if not classical_oracle(other, u)]
    witnesses = ab[:1] + ba[:1] + counit[:1]
    return (
        not witnesses,
        not ab,
        not ba,
        not counit,
        witnesses[0] if witnesses else None,
    )


# -- affine Lagrangian membership by brute force -------------------------------
#
# An element e of IV is the coordinate pair (e >> 1, e & 1) over F2; a pair
# of a relation between products of IV is the tuple of the pairs of all its
# systems, domain first. Nothing here uses the bit-vector code paths.

def symplectic_points(rel: Relation) -> set[tuple[tuple[int, int], ...]]:
    assert all(f == 4 for f in rel.dom.factors + rel.cod.factors), "factors must be IV"
    return {
        tuple((e >> 1, e & 1) for e in a + b) for a, b in to_pairset(rel)
    }


def _add(u, v):
    return tuple((a ^ c, b ^ d) for (a, b), (c, d) in zip(u, v))


def _omega(u, v) -> int:
    return sum(a * d + b * c for (a, b), (c, d) in zip(u, v)) % 2


def affine_lagrangian_oracle(rel: Relation) -> bool:
    """Empty, or an isotropic affine subspace with 2^n points on n systems."""
    points = symplectic_points(rel)
    if not points:
        return True
    n = rel.dom.arity + rel.cod.arity
    if len(points) != 2 ** n:
        return False
    base = min(points)
    # the affine span contains every p + q - base; it is the set itself
    # exactly when that adds nothing
    span = {_add(_add(p, q), base) for p in points for q in points}
    if span != points:
        return False
    diffs = [_add(p, base) for p in points]
    return all(_omega(u, v) == 0 for u in diffs for v in diffs)


def lagrangian_defect_oracle(rel: Relation) -> str | None:
    """The message `lagrangian_defect` gives, found point by point."""
    points = symplectic_points(rel)
    if not points:
        return None
    n = rel.dom.arity + rel.cod.arity
    if len(points) != 2 ** n:
        return f"{len(points)} points; an affine Lagrangian graph on {n} systems has {2 ** n}"
    base = min(points)
    if {_add(_add(p, q), base) for p in points for q in points} != points:
        return f"{len(points)} points on {n} systems do not form an affine subspace"
    diffs = [_add(p, base) for p in points]
    if any(_omega(u, v) for u in diffs for v in diffs):
        return f"affine subspace of dimension {n} on {n} systems is not isotropic"
    return None


# -- the closure, round by round -----------------------------------------------
#
# A member is (dom factors, cod factors, frozenset of flat (j, i) pairs).
# Round 1 holds the symbols and their converses; round L holds every
# composite and product of two members whose lengths sum to L, and the
# converse of each, that no earlier round holds. Every pair is visited: no
# index narrows the scan.

def closure_member(rel: Relation) -> tuple:
    return (rel.dom.factors, rel.cod.factors, frozenset(rel.pairs))


def _converse(m: tuple) -> tuple:
    dom, cod, pairs = m
    return (cod, dom, frozenset((i, j) for j, i in pairs))


def _after(g: tuple, f: tuple) -> tuple:
    return (f[0], g[1], frozenset((a, c) for a, b in f[2] for b2, c in g[2] if b == b2))


def _product(f: tuple, g: tuple) -> tuple:
    nd = FinObject(*g[0]).cardinality
    nc = FinObject(*g[1]).cardinality
    pairs = frozenset((a * nd + c, b * nc + d) for a, b in f[2] for c, d in g[2])
    return (f[0] + g[0], f[1] + g[1], pairs)


def closure_rounds_oracle(symbols: dict[str, Relation], cap: int, rounds: int) -> list[set]:
    """The members first reached in each of rounds 1..rounds."""
    first = {closure_member(rel) for rel in symbols.values()}
    out = [first | {_converse(m) for m in first}]
    seen = set(out[0])
    for length in range(2, rounds + 1):
        found = set()
        for la in range(1, length):
            for f in out[la - 1]:
                for g in out[length - la - 1]:
                    if f[0] == g[1]:
                        found.add(_after(f, g))
                    if len(f[0]) + len(g[0]) <= cap and len(f[1]) + len(g[1]) <= cap:
                        found.add(_product(f, g))
        found |= {_converse(m) for m in found}
        out.append(found - seen)
        seen |= found
    return out


def first_wins_words_oracle(
    symbols: dict[str, Relation], cap: int, rounds: int
) -> dict[tuple, tuple[str, int]]:
    """key -> (word, length) by a plain scan in the closure's documented order.

    Round 1 takes the symbols by sorted name, then their converses
    (`name^`). Round L scans left length 1..L-1; within one left length
    every composite comes before every product, and each runs over left
    entries, then right entries, both in key order. A key keeps the first
    candidate found; the new keys are added in key order. Every pair is
    visited and calls `compose` or `tensor`: no index narrows the scan.
    """
    found: dict[tuple, tuple[str, int]] = {}
    by_length: dict[int, list[tuple[Relation, str]]] = {}

    def add(pool: dict[tuple, tuple[Relation, str]], length: int) -> None:
        by_length[length] = [pool[key] for key in sorted(pool)]
        for key, (_, word) in pool.items():
            found[key] = (word, length)

    seeds: dict[tuple, tuple[Relation, str]] = {}
    for name in sorted(symbols):
        seeds.setdefault(symbols[name].key, (symbols[name], name))
    for name in sorted(symbols):
        converse = dagger(symbols[name])
        seeds.setdefault(converse.key, (converse, f"{name}^"))
    add(seeds, 1)
    for length in range(2, rounds + 1):
        pool: dict[tuple, tuple[Relation, str]] = {}

        def offer(rel: Relation, word: str) -> None:
            if rel.key not in found and rel.key not in pool:
                pool[rel.key] = (rel, word)

        for la in range(1, length):
            left, right = by_length[la], by_length[length - la]
            for r1, w1 in left:
                for r2, w2 in right:
                    if r2.cod == r1.dom:
                        offer(compose(r1, r2), f"({w1}) ; ({w2})")
            for r1, w1 in left:
                for r2, w2 in right:
                    if r1.dom.arity + r2.dom.arity <= cap and r1.cod.arity + r2.cod.arity <= cap:
                        offer(tensor(r1, r2), f"({w1}) x ({w2})")
        add(pool, length)
    return found


# -- the store file ----------------------------------------------------------------

def store_tree_oracle(store) -> dict:
    """The `toycat-store/3` file of `store` as a JSON tree, field by field.

    One record per morphism, in key order. `json.dumps(tree, sort_keys=True,
    separators=(",", ":"))` gives the bytes that the `/3` writer wrote; the
    digests pinned on those bytes are checked on this rendering.
    """
    def record(dom_f, cod_f, rows) -> dict:
        return {"dom": list(dom_f), "cod": list(cod_f), "rows": list(rows)}

    return {
        "format": "toycat-store/3",
        "config": {
            "max_arity": store.config.max_arity,
            "max_morphisms": store.config.max_morphisms,
            "max_rounds": store.config.max_rounds,
        },
        "fixpoint": store.fixpoint,
        "rounds_run": store.rounds_run,
        "growth": [[r, n] for r, n in store.growth],
        "symbols": {
            name: record(rel.dom.factors, rel.cod.factors, rel.rows)
            for name, rel in store.symbols.items()
        },
        "morphism_count": len(store.items),
        "morphisms": [
            {**record(*key), "word": e.word, "length": e.length}
            for key, e in sorted(store.items.items())
        ],
    }


def index_digits(entries: int) -> int:
    """The hex digits of each index into a table of `entries` rows: two per
    byte, one byte up to 256 entries, two up to 65,536, else four."""
    return 2 if entries <= 256 else 4 if entries <= 65536 else 8


def hex_indices(text: str, entries: int) -> list[int]:
    """The indices that the `rows` string `text` of a block whose table has
    `entries` rows holds, read `index_digits(entries)` digits at a time."""
    d = index_digits(entries)
    return [int(text[i:i + d], 16) for i in range(0, len(text), d)]


def indices_hex(indices: list[int], entries: int) -> str:
    """The `rows` string of `indices` into a table of `entries` rows: each
    index in `index_digits(entries)` lowercase hex digits, zero-padded."""
    d = index_digits(entries)
    return "".join(format(k, f"0{d}x") for k in indices)


def block_rows(block: dict) -> list[int]:
    """The rows of a `toycat-store/7` block, member after member: each index
    in its `rows` looked up in its `table`."""
    table = block["table"]
    return [table[k] for k in hex_indices(block["rows"], len(table))]


def with_block_rows(block: dict, rows: list) -> dict:
    """`block` with the row values `rows`, encoded the plain way: `table`
    lists each distinct value once, in order of first use, and `rows` holds
    the index of each value in it, as `indices_hex` writes them."""
    table: list = []
    for row in rows:
        if row not in table:
            table.append(row)
    indices = [table.index(row) for row in rows]
    return {**block, "rows": indices_hex(indices, len(table)), "table": table}


def store_block_tree_oracle(store) -> dict:
    """The `toycat-store/7` file of `store` as a JSON tree, field by field.

    The `/3` tree with its morphism records gathered into one block per
    shape, in key order: the block's members' rows one after the other,
    encoded by `with_block_rows`, and their words and lengths; `growth` and
    `morphism_count`, which the lengths give, are dropped. `json.dumps(tree,
    sort_keys=True, separators=(",", ":"))` gives the bytes that
    `store_to_json_str` writes without building the tree.
    """
    tree = store_tree_oracle(store)
    del tree["growth"], tree["morphism_count"]
    blocks: dict[tuple, dict] = {}
    for rec in tree.pop("morphisms"):
        shape = tuple(rec["dom"]), tuple(rec["cod"])
        block = blocks.setdefault(shape, {
            "dom": rec["dom"], "cod": rec["cod"], "rows": [], "words": [], "lengths": [],
        })
        block["rows"] += rec["rows"]
        block["words"].append(rec["word"])
        block["lengths"].append(rec["length"])
    return {**tree, "format": "toycat-store/7",
            "blocks": [with_block_rows(block, block["rows"]) for block in blocks.values()]}


def store_without_member(tree: dict, length: int) -> tuple[dict, dict]:
    """A `toycat-store/7` tree less its first member of word length `length`.

    The member's rows, word and length leave its block, whose rows are
    encoded again, so a table entry only the member used goes too. Returns
    the new tree and the member as a relation record `{"dom", "cod",
    "rows"}`.
    """
    blocks = list(tree["blocks"])
    b, k = next(
        (b, k) for b, block in enumerate(blocks) for k, n in enumerate(block["lengths"])
        if n == length
    )
    block, rows = blocks[b], block_rows(blocks[b])
    n = len(rows) // len(block["lengths"])
    member = {"dom": block["dom"], "cod": block["cod"], "rows": rows[k * n:(k + 1) * n]}
    blocks[b] = with_block_rows({
        **block,
        "words": block["words"][:k] + block["words"][k + 1:],
        "lengths": block["lengths"][:k] + block["lengths"][k + 1:],
    }, rows[:k * n] + rows[(k + 1) * n:])
    return {**tree, "blocks": blocks}, member
