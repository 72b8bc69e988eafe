"""Finite sets and boolean relations: the ambient dagger compact category.

Objects are finite sets presented as ordered products of base factors.
Morphisms are binary relations stored as bit-packed boolean matrices over
the two-element semiring ({0,1}, or, and): composition is boolean matrix
product, the tensor is the cartesian product with row-major index
flattening (first factor most significant), and the dagger is the
relational converse.

All values are immutable after construction and every operation is pure,
so relations can be shared freely, hashed, and used as dictionary keys.

Objects are interned: one `FinObject` instance exists per factor tuple, so
object equality is identity, and copies and pickles give back that
instance. An object's hash is the hash of its factor tuple, which does not
depend on the run, so sets and dicts of relations iterate in the same
order in every process.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "FinObject",
    "Relation",
    "ShapeMismatchError",
    "UNIT",
    "compose",
    "run_composer",
    "reachable",
    "tensor",
    "ProductTable",
    "table_run",
    "bit_indices",
    "dagger",
    "identity",
    "swap",
    "perm_relation",
    "all_permutations",
    "structural_seeds",
    "is_unitary",
    "transpose_star",
    "conjugate_star",
    "snake_holds",
    "scalar_identity",
    "scalar_empty",
    "scalar_kind",
    "relation_to_json",
    "relation_from_json",
    "MAX_RELATION_CELLS",
    "element_labels",
    "format_relation",
]


class ShapeMismatchError(TypeError):
    """Morphisms were combined at incompatible objects."""


_FACTOR_NAMES = {1: "I", 2: "II", 3: "III", 4: "IV", 5: "V", 6: "VI", 8: "VIII"}
_FACTOR_SIZES = {name: n for n, name in _FACTOR_NAMES.items()}


# The one instance of each object, by kept factor tuple (see FinObject.__new__).
_INTERNED: dict[tuple[int, ...], FinObject] = {}


@dataclass(frozen=True, init=False, eq=False)
class FinObject:
    """A finite set given as an ordered product of base factors.

    Factors of size 1 are erased eagerly, so objects related by the unit
    congruence (A x I = I x A = A) are one object; the empty factor list is
    the tensor unit I itself.

    Objects are interned: there is one instance per kept factor tuple, so
    equality is identity. The hash is that of the factor tuple, the same in
    every run.
    """

    factors: tuple[int, ...]

    def __new__(cls, *factors: int) -> "FinObject":
        for n in factors:
            # `type(n) is int` also refuses bools, which are ints to isinstance
            if type(n) is not int or n < 1:
                raise ValueError(f"factors must be integers >= 1, got {factors!r}")
        kept = tuple(n for n in factors if n > 1)
        self = _INTERNED.get(kept)
        if self is not None:
            return self
        card = 1
        for n in kept:
            card *= n
        self = object.__new__(cls)
        object.__setattr__(self, "factors", kept)
        object.__setattr__(self, "_card", card)
        object.__setattr__(self, "_hash", hash(kept))
        # setdefault keeps the first instance stored if two threads race here
        return _INTERNED.setdefault(kept, self)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (FinObject, self.factors)

    @property
    def cardinality(self) -> int:
        return self._card

    @property
    def arity(self) -> int:
        """Number of nontrivial factors (0 for the unit)."""
        return len(self.factors)

    def __mul__(self, other: "FinObject") -> "FinObject":
        return _product(self.factors, other.factors)

    @property
    def name(self) -> str:
        if not self.factors:
            return "I"
        return "x".join(_FACTOR_NAMES.get(f, str(f)) for f in self.factors)

    @classmethod
    def parse(cls, spec: str) -> "FinObject":
        """The inverse of `name`: factors such as IV or 4, joined by x."""
        factors = []
        for part in spec.split("x"):
            part = part.strip()
            if part in _FACTOR_SIZES:
                factors.append(_FACTOR_SIZES[part])
            elif part.isdigit():
                factors.append(int(part))
            else:
                raise ValueError(f"cannot parse object {spec!r}")
        return cls(*factors)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"FinObject{self.factors!r}"


@lru_cache(maxsize=None)
def _product(fa: tuple[int, ...], fb: tuple[int, ...]) -> FinObject:
    return FinObject(*(fa + fb))


UNIT = FinObject()


def element_labels(obj: FinObject) -> list[str]:
    """Display labels for the elements of `obj`.

    Factors of size 4 are shown 1-based (1..4) and all other factors
    0-based, matching the usual presentation of these models; composite
    objects are labelled by tuples in row-major order.
    """
    per_factor = [
        [str(i + 1) for i in range(f)] if f == 4 else [str(i) for i in range(f)]
        for f in obj.factors
    ]
    labels = [""]
    for fac in per_factor:
        labels = [f"{a},{b}" if a else b for a in labels for b in fac]
    if len(obj.factors) > 1:
        return [f"({s})" for s in labels]
    if not obj.factors:
        return ["*"]
    return labels


@dataclass(frozen=True, slots=True)
class Relation:
    """A relation dom -> cod stored as bit-packed rows keyed by codomain index.

    Bit j of rows[i] is set iff element j of the domain is related to
    element i of the codomain.
    """

    dom: FinObject
    cod: FinObject
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.cod.cardinality:
            raise ValueError(
                f"expected {self.cod.cardinality} rows for codomain {self.cod}, "
                f"got {len(self.rows)}"
            )
        full = (1 << self.dom.cardinality) - 1
        for i, row in enumerate(self.rows):
            if row < 0 or row & ~full:
                raise ValueError(f"row {i} has bits outside domain {self.dom}")

    @classmethod
    def _raw(cls, dom: FinObject, cod: FinObject, rows: tuple[int, ...]) -> "Relation":
        """Internal constructor for rows already known to be valid."""
        self = _new_object(cls)
        _set_dom(self, dom)
        _set_cod(self, cod)
        _set_rows(self, rows)
        return self

    @classmethod
    def from_pairs(
        cls, dom: FinObject, cod: FinObject, pairs: Iterable[tuple[int, int]]
    ) -> "Relation":
        """Build from (domain index, codomain index) pairs, 0-indexed and flat.

        Every pair is range-checked, so the rows need no second validation.
        """
        rows = [0] * cod.cardinality
        for j, i in pairs:
            if not (0 <= j < dom.cardinality and 0 <= i < cod.cardinality):
                raise ValueError(f"pair ({j},{i}) out of range for {dom} -> {cod}")
            rows[i] |= 1 << j
        return cls._raw(dom, cod, tuple(rows))

    @classmethod
    def empty(cls, dom: FinObject, cod: FinObject) -> "Relation":
        return cls(dom, cod, (0,) * cod.cardinality)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Sorted (domain index, codomain index) pairs.

        This is the JSON and display form, built on each call; the
        bit-packed rows are the canonical form (see `key`).
        """
        out = []
        for i, row in enumerate(self.rows):
            m = row
            while m:
                b = m & -m
                out.append((b.bit_length() - 1, i))
                m ^= b
        out.sort()
        return tuple(out)

    @property
    def key(self) -> tuple:
        """Canonical hashable key (dom factors, cod factors, rows).

        The bit-packed rows are already canonical, so the key costs no
        conversion; keys order relations by shape, then by rows.
        """
        return (self.dom.factors, self.cod.factors, self.rows)

    def related(self, j: int, i: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def __str__(self) -> str:
        return format_relation(self)


# The slot descriptors set a frozen Relation's fields without its __setattr__.
_new_object = object.__new__
_set_dom = Relation.dom.__set__
_set_cod = Relation.cod.__set__
_set_rows = Relation.rows.__set__


def compose(g: Relation, f: Relation) -> Relation:
    """g after f: the boolean matrix product (exists-intermediate)."""
    if f.cod is not g.dom:
        raise ShapeMismatchError(
            f"cannot compose: inner objects differ "
            f"(first argument has domain {g.dom}, second has codomain {f.cod})"
        )
    rows = []
    frows = f.rows
    for grow in g.rows:
        if not grow & (grow - 1):
            # at most one set bit: a gather, or the empty row
            rows.append(frows[grow.bit_length() - 1] if grow else 0)
            continue
        acc = 0
        m = grow
        while m:
            b = m & -m
            acc |= frows[b.bit_length() - 1]
            m ^= b
        rows.append(acc)
    return Relation._raw(f.dom, g.cod, tuple(rows))


def _or_picked(
    picks: tuple[tuple[int, ...], ...], columns: list[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """Rows of g after each member of a run, from the run's columns, each row
    of g given as the indices of its set bits.

    Column j of the run is a tuple of row j of every member, so row i of
    every composite at once is the OR of the columns that row i of g picks:
    a one-index pick is that column itself, and an empty pick a zero column.
    """
    if not columns:
        return []
    zeros = (0,) * len(columns[0])
    out = []
    for pick in picks:
        if not pick:
            out.append(zeros)
            continue
        acc = columns[pick[0]]
        for j in pick[1:]:
            acc = map(or_, acc, columns[j])
        out.append(acc)
    return list(zip(*out))


# Row values repeat across a build (1,835 distinct in the cap-3 round-4
# build, 4,099 in round 5); with the cache that build's CPU time was 1.21 s,
# without it 1.42 s (medians of 6 in one process, 2-core VM).
@lru_cache(maxsize=1 << 12)
def bit_indices(row: int) -> tuple[int, ...]:
    """Indices of the set bits of `row`, lowest first."""
    out = []
    while row:
        b = row & -row
        out.append(b.bit_length() - 1)
        row ^= b
    return tuple(out)


def run_composer(
    grows: tuple[int, ...],
) -> Callable[[list[tuple[int, ...]]], list[tuple[int, ...]]]:
    """Prepare g for many runs: returns the map columns -> rows of g after each member.

    A run is a list of relations whose codomain is g's domain, given by its
    columns, `list(zip(*rows))` over the members' rows (no columns for a
    run of no members). Row i of every composite is the OR of the columns
    that row i of g picks (`_or_picked`), for rows of any width.
    """
    return partial(_or_picked, tuple(map(bit_indices, grows)))


def reachable(moves: Sequence[Callable], start: Iterable[tuple], within: set | None = None) -> set[tuple]:
    """Every row tuple reached from `start` under `moves`, `start` included.

    The moves are maps prepared by `run_composer`. The walk is breadth
    first, and each frontier goes through every move as one run, its
    columns made once. Given `within`, it stops at the first row outside
    that set, which it returns.
    """
    seen = set(start)
    frontier = list(seen)
    while frontier:
        columns = list(zip(*frontier))
        fresh = []
        for move in moves:
            for rows in move(columns):
                if rows not in seen:
                    seen.add(rows)
                    if within is not None and rows not in within:
                        return seen
                    fresh.append(rows)
        frontier = fresh
    return seen


def tensor(f: Relation, g: Relation) -> Relation:
    """Cartesian product of relations; first factor is most significant.

    Output row (i, k) of f x g is the OR of grow << (j * width) over the set
    bits j of frow = f.rows[i], where grow = g.rows[k] and width is the
    size of g's domain. Since grow < 2^width those copies never overlap,
    so the OR is the single product grow * spread, where the spread of frow
    has bit j moved to bit j * width.
    """
    width = g.dom._card
    spreads = [_spread(frow, width) for frow in f.rows]
    rows = tuple([grow * spread for spread in spreads for grow in g.rows])
    return Relation._raw(
        _product(f.dom.factors, g.dom.factors), _product(f.cod.factors, g.cod.factors), rows
    )


def _spread(frow: int, width: int) -> int:
    spread = 0
    while frow:
        b = frow & -frow
        spread |= 1 << ((b.bit_length() - 1) * width)
        frow ^= b
    return spread


class _Products(dict):
    """Right row -> its product with one left row's spread, made when first asked for."""

    __slots__ = ("spread",)

    def __init__(self, spread: int) -> None:
        self.spread = spread

    def __missing__(self, grow: int) -> int:
        self[grow] = row = grow * self.spread
        return row


class ProductTable(dict):
    """Product row integers shared by every product formed through one table.

    Keyed by (left row, width of the right domain); each entry is the bound
    lookup of a map from a right row to its product row, `grow * spread` as
    in `tensor`, made the first time it is asked for. So all products
    formed through one table hold one int object per (left row, right row,
    width), however many members share it. The table keeps every row it
    has made: its owner drops it when done.
    """

    def left(self, frows: tuple[int, ...], width: int) -> list[Callable[[int], int]]:
        """The lookups for each row of f at the width of g's domain, for `table_run`."""
        out = []
        for frow in frows:
            key = frow, width
            get = self.get(key)
            if get is None:
                get = self[key] = _Products(_spread(frow, width)).__getitem__
            out.append(get)
        return out


def table_run(getters: list[Callable], columns: list[tuple]) -> list[tuple[int, ...]]:
    """Rows of f x g for each member g of a run, from f's `ProductTable.left`
    lookups at the width of its domain: one map of a lookup over column k
    (row k of every member) forms row (i, k) of every product at once."""
    return list(zip(*[map(get, col) for get in getters for col in columns]))


def dagger(f: Relation) -> Relation:
    """The relational converse (matrix transpose)."""
    rows = [0] * f.dom._card
    bit = 1
    for row in f.rows:
        while row:
            b = row & -row
            rows[b.bit_length() - 1] |= bit
            row ^= b
        bit <<= 1
    return Relation._raw(f.cod, f.dom, tuple(rows))


def identity(obj: FinObject) -> Relation:
    return Relation._raw(obj, obj, tuple(1 << i for i in range(obj.cardinality)))


def swap(a: FinObject, b: FinObject) -> Relation:
    """The symmetry a x b -> b x a relating (x,y) to (y,x)."""
    bw = b.cardinality
    aw = a.cardinality
    rows = []
    for y in range(bw):
        for x in range(aw):
            rows.append(1 << (x * bw + y))
    return Relation._raw(a * b, b * a, tuple(rows))


def perm_relation(obj: FinObject, image: Sequence[int]) -> Relation:
    """The graph of the permutation sending index j to image[j]."""
    return Relation.from_pairs(obj, obj, [(j, image[j]) for j in range(obj.cardinality)])


def all_permutations(obj: FinObject) -> tuple[Relation, ...]:
    """All permutations of obj, in lexicographic one-line-notation order."""
    return tuple(
        perm_relation(obj, p) for p in itertools.permutations(range(obj.cardinality))
    )


def structural_seeds(base_factors: Sequence[int], cap: int) -> Iterator[tuple[str, Callable]]:
    """Identities and swaps on every product of at most `cap` base factors.

    `id_<A>` for each such object A, the unit I included, then
    `swap_<A>_<B>` for each pair of nonunit A, B with at most `cap`
    factors together, each name with a call that builds it, when asked.
    Each identity is yielded as soon as its object is made, so a caller
    that stops at an early seed makes no larger object: the objects of
    arity `cap` alone number (base factors)^cap.
    """
    objs = [UNIT]
    yield "id_I", partial(identity, UNIT)
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(cap):
        frontier = [f + (b,) for f in frontier for b in base_factors]
        for f in frontier:
            obj = FinObject(*f)
            objs.append(obj)
            yield f"id_{obj.name}", partial(identity, obj)
    for a in objs:
        for b in objs:
            if a.factors and b.factors and a.arity + b.arity <= cap:
                yield f"swap_{a.name}_{b.name}", partial(swap, a, b)


def is_unitary(f: Relation) -> bool:
    """True iff dagger(f) is a two-sided inverse of f.

    That holds iff f is a bijection: every row has exactly one set bit, no
    two rows share it, and there are as many rows as domain elements.
    """
    rows = f.rows
    return (
        len(rows) == f.dom.cardinality
        and all(row and not row & (row - 1) for row in rows)
        and len(set(rows)) == len(rows)
    )


def scalar_identity() -> Relation:
    return Relation(UNIT, UNIT, (1,))


def scalar_empty() -> Relation:
    return Relation(UNIT, UNIT, (0,))


def scalar_kind(f: Relation) -> str:
    """'identity' or 'empty' for the two scalars I -> I."""
    if f.dom != UNIT or f.cod != UNIT:
        raise ShapeMismatchError(f"not a scalar: {f.dom} -> {f.cod}")
    return "identity" if f.rows[0] else "empty"


def snake_holds(eta: Relation) -> bool:
    """Check both snake (compact closure) equations for a cup I -> A x A."""
    if eta.dom != UNIT:
        return False
    fs = eta.cod.factors
    if len(fs) % 2 or fs[: len(fs) // 2] != fs[len(fs) // 2 :]:
        return False
    a = FinObject(*fs[: len(fs) // 2])
    ida = identity(a)
    cap = dagger(eta)
    left = compose(tensor(cap, ida), tensor(ida, eta))
    right = compose(tensor(ida, cap), tensor(eta, ida))
    return left == ida and right == ida


def transpose_star(f: Relation, eta_a: Relation, eta_b: Relation) -> Relation:
    """Abstract transpose of f: A -> B against cups on A and B.

    Computes (1_A x eta_B†) o (1_A x f x 1_B) o (eta_A x 1_B). Both cups
    must satisfy the snake equations.
    """
    if not snake_holds(eta_a):
        raise ValueError("eta_A does not satisfy the snake equations")
    if not snake_holds(eta_b):
        raise ValueError("eta_B does not satisfy the snake equations")
    a, b = f.dom, f.cod
    if eta_a.cod != a * a or eta_b.cod != b * b:
        raise ShapeMismatchError(
            f"cups do not match morphism signature {a} -> {b}"
        )
    ida, idb = identity(a), identity(b)
    stage1 = tensor(eta_a, idb)
    stage2 = tensor(ida, tensor(f, idb))
    stage3 = tensor(ida, dagger(eta_b))
    return compose(stage3, compose(stage2, stage1))


def conjugate_star(f: Relation, eta_a: Relation, eta_b: Relation) -> Relation:
    """Abstract conjugate of f, the transpose of its dagger."""
    return transpose_star(dagger(f), eta_b, eta_a)


def least_diff_cell(a: Relation, b: Relation) -> tuple[int, int] | None:
    """Lexicographically least (row, col) where two same-shaped relations differ."""
    for i in range(len(a.rows)):
        diff = a.rows[i] ^ b.rows[i]
        if diff:
            return (i, (diff & -diff).bit_length() - 1)
    return None


def relation_to_json(f: Relation) -> dict:
    """Canonical JSON form: sorted 0-indexed flattened pairs."""
    return {
        "dom": list(f.dom.factors),
        "cod": list(f.cod.factors),
        "pairs": [[j, i] for j, i in f.pairs],
    }


# The most cells (domain element, codomain element) that the shape of a
# relation read from JSON or made by a term may span. A relation holds one
# row per codomain element, each as wide as the domain, so a larger shape is
# refused before anything is allocated for it; IV^5 -> IV^5 has this many.
MAX_RELATION_CELLS = 1 << 20


def checked_shape(dom: FinObject, cod: FinObject) -> tuple[FinObject, FinObject]:
    """`(dom, cod)`, or a ValueError when it spans more than `MAX_RELATION_CELLS` cells."""
    cells = dom.cardinality * cod.cardinality
    if cells > MAX_RELATION_CELLS:
        raise ValueError(
            f"shape {dom} -> {cod} spans {cells} cells, "
            f"above MAX_RELATION_CELLS = {MAX_RELATION_CELLS}"
        )
    return dom, cod


def relation_from_json(data: Mapping) -> Relation:
    """Parse the canonical JSON form; rejects unsorted or duplicated pairs.

    Pair entries must be JSON integers: a float, a string or a boolean is
    refused, not converted. A shape of more than `MAX_RELATION_CELLS` cells
    is refused (`checked_shape`) before its rows are allocated.
    """
    try:
        dom, cod = checked_shape(FinObject(*data["dom"]), FinObject(*data["cod"]))
        entries = data["pairs"]
        # `type(x) is int` also refuses bools, which are ints to isinstance
        raw = [(j, i) for j, i in entries if type(j) is int is type(i)]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed relation record: {exc}") from exc
    if len(raw) != len(entries):
        bad = next([j, i] for j, i in entries if not (type(j) is int is type(i)))
        raise ValueError(
            f"malformed relation record: pair entry {bad!r} is not two integers"
        )
    if any(p >= q for p, q in zip(raw, raw[1:])):
        raise ValueError("relation pairs must be sorted and duplicate-free")
    return Relation.from_pairs(dom, cod, raw)


def format_relation(f: Relation) -> str:
    """Human-readable listing, e.g. 'IV -> IVxIV :: 1 ~ {(1,1),(2,2)}; ...'."""
    dom_labels = element_labels(f.dom)
    cod_labels = element_labels(f.cod)
    by_dom: dict[int, list[str]] = {}
    for j, i in f.pairs:
        by_dom.setdefault(j, []).append(cod_labels[i])
    if not by_dom:
        body = "(empty)"
    else:
        parts = []
        for j in sorted(by_dom):
            images = by_dom[j]
            shown = images[0] if len(images) == 1 else "{" + ",".join(images) + "}"
            parts.append(f"{dom_labels[j]} ~ {shown}")
        body = "; ".join(parts)
    return f"{f.dom} -> {f.cod} :: {body}"
