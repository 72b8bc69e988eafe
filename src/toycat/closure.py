"""Compositional closure: generate a sub-dagger-SMC from named generators.

The engine saturates a morphism store under relational composition,
cartesian product, and converse, starting from the generators plus the
identities and symmetries on every object within the arity cap. Work is
stratified by generator-word length: round L combines members whose word
lengths sum to L, so every recorded word is a shortest one.

Within a round the first candidate found for a key wins. The scan runs over
(left length, compose before tensor, left entry, right entry), and each
length's entries sit in key order, so the tie-break is numeric and the
store file is fully deterministic; only the winners' words are formatted.
Converses are made in round 1 only (each seed's `name^`): the dagger
reverses composition and preserves the tensor, so from a converse-closed
store every later round's candidates are converse-closed already, and a
morphism and its converse share a length.

The pair scan computes each candidate's rows without building a
`Relation`; one is built only for rows not seen before, and nearly every
candidate is a duplicate. Each length's entries are kept as runs of one
shape, cut once as they are inserted (a round inserts in key order, so
each shape is one run) and kept for the whole build; the last round that
`max_rounds` allows builds none, as no later round reads them. Each left
entry is prepared once per (round, left length) with the `relcore` kernels,
and both take a right run as its columns (row j of every member, as a
tuple). A run makes them on its first read in a (round, left length) scan,
both sections read them, and they are dropped when that scan ends.
`run_composer` ORs the columns that each row of the left entry picks, so
one call forms every member's composite at once for rows of any width. A
product's rows come from one `ProductTable` per build, keyed by (left row,
width of the right domain), whose entries map each right row to its
product row, made the first time it is needed, so every member of the
build holds one int object per (left row, right row, width); `table_run`
maps each of a left entry's lookups, bound once per width, over each
column. A left run's composites visit only the right runs whose codomain
is its domain, and its products only the runs that fit beside it within
the cap; both lists are found once per left run. Dedup works a run at a
time: `known` holds, per shape, the rows of every stored morphism and of
the round's pool, so a run whose candidates are all known is passed over
with one `set.issuperset` test. Any other run's candidates are each added
to `known` once, and one is new when the set grows. The round's pool
holds, per shape, the new candidates in scan order, so the first for a key
wins and no key tuple is built before insertion, which sorts each shape's
list by rows: within one shape, that is key order. A tuple does not cache
its hash, and an IV^3 -> IV^3 candidate's rows are 64 ints, so each new
candidate's rows are hashed once when pooled and once when stored.

Left-operand rule: the compose section skips a left entry whose word is a
composite `(a) ; (b)` or an identity, and the tensor section one whose
word is a product `(a) x (b)` or the unit scalar. None of their candidates
can win. Composition and the cartesian product are associative on the
nose (an object is its tuple of factors) and identities are units. So
for e1 = a after b, e1 after e2 equals a after (b after e2); b after e2
is stored with length at most len b + len e2, so a after it is known
before the round or is a candidate of the earlier left length len a.
Products go the same way, and id after e and id_I x e are e, stored in
an earlier round. By induction on (round, scan position) each skipped
candidate is a duplicate, so winners, words and store bytes are
unchanged.

Interchange rule: the compose section also drops right operands. Take a
left entry e1 = (a) x (b) and a right entry e2 = (c) x (d) with a.dom ==
c.cod; then b.dom == d.cod, since both split e1.dom == e2.cod. Call x, y
absorbing when the store holds x after y with a length below len x +
len y. If a, c or b, d are absorbing, the scan skips e1 after e2. Proof:
the product is a bifunctor on the nose, so e1 after e2 equals (a after c)
x (b after d). The stratified invariant, which the left-operand rule's
proof uses too, says that after round M every composite and every product
(within the cap) of two entries whose lengths sum to at most M is stored
with a length at most that sum. With L = len e1 + len e2, one factor
composite is stored with a length below its two factors' sum and the
other with a length at most its sum, so their product has a length below
L and was stored before round L. A skipped candidate is thus a duplicate
of a stored morphism, not of a pooled one, so it never wins and skipping
it leaves the pool, the words and the store bytes as they were. The
absorbing test runs on the kernels too: a run's products are put in two
factor tables per split (the arity of c.cod) when the rule first reads
the run, one by left factor and one by right factor, and one
`run_composer` call for x maps the columns of every factor y of a table
at once, each composite's rows looked up under its key; no `Relation` is
built. A product left entry has length 2 or more, so the rule reads a run
of length m in round m + 2 or later, and the runs of the last length a
build scans get no tables. The split already makes the shapes meet, as
x.dom == y.cod. The masks found stay on the run for the whole build, and
the sub-lists they keep for the one (round, left length) scan that reads
the run as a right operand. Keeping a mask is sound: round
L tests x after y only when len x + len y <= L - 2, as the other two
factors have a length of at least 1 each, so by the invariant the store
already holds x after y, and a stored key keeps its length; the answer
cannot change in a later round. The rules go no further: skipping a
candidate that is only a duplicate of one found earlier in the same round,
such as a composite left entry of a product, could move it later in scan
order and change a winning word.

A store file (`toycat-store/5`) holds one block per shape, the hom-set of
its morphisms, in shape order: the shape's factors once, then its
members' rows as one flat list of JSON integers, member after member in
rows order, with their words and lengths. So writing one builds no pairs,
and reading one builds each shape's objects once and a few lists per
shape, not per morphism; `store_from_json` lists what the reader checks.
The file states each count once: a round's growth is the number of
members of its length, derived on load, and the morphism count is the
number of members.
`store_to_json_str` is the one writer. It writes the text of `json.dumps`
with sorted keys and no spaces, but builds no JSON tree: each block is
formatted straight from its members' keys, and each distinct row integer
is turned into decimal once per call (a store holds few distinct rows).
`store_to_json` is the parse of that text.

Objects are capped per side: every domain and codomain in the store, and in
a store file's blocks and symbols, has at most `max_arity` base factors, and
composition never routes through an object above the cap because such
objects never enter the store. Negative membership answers are only
meaningful on a store that reached fixpoint; a store truncated by
`max_rounds` or `max_morphisms` reports "unknown" for anything it does not
contain. A fixpoint is one certificate, at build and at load. A move on a
codomain is a stored permutation of one base factor at one position,
identities elsewhere, or a swap of two equal adjacent factors. (a)
`symbols` holds the seeds, and every symbol and converse is stored; (b)
each orbit of the moves is walked once, from its least member, its
representative, and no walk leaves the store, so every move maps each
member into it; (c) the composite r0 ; r1 and the product r0 x r1 (within
the cap) of two representatives are stored. Each member is g ; r, g a
product of moves, so (g ; r0) x (h ; r1) = (g x h) ; (r0 x r1) and (g ;
r0) ; (h ; r1) = (g ; k) ; (r ; r1), where r0 ; h = (h^ ; r0^)^ = k ; r by
(a) and (b): the store is closed. A build stops at the first round that
adds nothing, is not cut by `max_morphisms` and passes (a) to (c): the
round after M, the last round that adds morphisms, as a closed store grows
no more and by round 2M every pair of members is combined. (d), on load
only: a length-1 word is a symbol, or a symbol's converse, of its member;
a longer word is `(a) ; (b)` or `(a) x (b)` over two stored words whose
lengths add up to its own, and whose members make its member. Symbol names
are term identifiers, so by induction on length each word re-evaluates to
its member with as many atoms as its length, through stored members only:
the store holds nothing outside the closure.

Practical note, on the standard four-element generators: the cap-2
fixpoint holds 28,714 morphisms, and at arity 3 the store provably exceeds
9.2 * 10^7 (the two-local unitaries on three systems alone form a group of
order 92,897,280), far beyond any desk-scale budget; bounded-round runs
are the intended mode there, and they still certify every positive
membership via witness words. Exclusion
without a fixpoint is certified separately, by the invariant in
`toycat.symplectic` applied to a store's `symbols`: it proves the diagonal
copy map lies outside the closure at every cap, while `contains` keeps
answering "unknown" on such a store.
"""

from __future__ import annotations

import gc
import json
import re
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter, lt
from typing import Iterator, Mapping

from .relcore import (
    FinObject,
    ProductTable,
    Relation,
    UNIT,
    compose,
    dagger,
    identity,
    is_unitary,
    reachable,
    run_composer,
    structural_seeds,
    swap,
    table_run,
    tensor,
)
from . import terms

__all__ = [
    "ClosureConfig",
    "GeneratorOutsideCapError",
    "STORE_FORMAT",
    "StoredMorphism",
    "MorphismStore",
    "ContainsResult",
    "generate_closure",
    "contains",
    "census",
    "state_census",
    "StateCensus",
    "store_to_json",
    "store_from_json",
    "load_store",
    "store_to_json_str",
    "evaluate_word",
]


# A store file holds one block per shape, the shapes in order, and each
# block its members' rows as JSON integers in rows order, with their words
# and lengths; the version changes whenever that order, the block form or
# the set of fields does.
STORE_FORMAT = "toycat-store/5"


class GeneratorOutsideCapError(ValueError):
    """A generator's domain or codomain exceeds the configured arity cap."""


@dataclass(frozen=True)
class ClosureConfig:
    """Engine limits.

    max_arity: per-side factor cap on every stored domain and codomain.
    max_morphisms: store size cap; exceeding it aborts the run as non-fixpoint.
    max_rounds: word-length cap (None = run to fixpoint); a round-capped
        store is flagged non-fixpoint.

    Each bound is at least 1. These defaults are the CLI's, and a store
    file's config is checked here as well.
    """

    max_arity: int = 3
    max_morphisms: int = 1_000_000
    max_rounds: int | None = None

    def __post_init__(self) -> None:
        if self.max_arity < 1:
            raise ValueError(f"max_arity must be >= 1, got {self.max_arity}")
        if self.max_morphisms < 1:
            raise ValueError(f"max_morphisms must be >= 1, got {self.max_morphisms}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError(f"max_rounds must be None or >= 1, got {self.max_rounds}")


@dataclass(frozen=True, slots=True)
class StoredMorphism:
    relation: Relation
    word: str
    length: int


# The slot descriptors set a frozen StoredMorphism's fields without its
# __setattr__, as `Relation._raw` does: half the cost of the dataclass
# constructor, paid once per stored or loaded morphism.
_new_object = object.__new__
_set_relation = StoredMorphism.relation.__set__
_set_word = StoredMorphism.word.__set__
_set_length = StoredMorphism.length.__set__


def _stored(rel: Relation, word: str, length: int) -> StoredMorphism:
    """A `StoredMorphism` of fields already known to be valid."""
    entry = _new_object(StoredMorphism)
    _set_relation(entry, rel)
    _set_word(entry, word)
    _set_length(entry, length)
    return entry


@dataclass(frozen=True)
class ContainsResult:
    status: str  # "yes", "no", or "unknown"
    word: str | None = None

    def __bool__(self) -> bool:
        return self.status == "yes"


@dataclass
class MorphismStore:
    """Canonical, deduplicated morphism set with one shortest word each."""

    config: ClosureConfig
    symbols: dict[str, Relation]
    items: dict[tuple, StoredMorphism] = field(default_factory=dict)
    fixpoint: bool = False
    rounds_run: int = 0
    growth: list[tuple[int, int]] = field(default_factory=list)  # (round, new)

    def __len__(self) -> int:
        return len(self.items)

    def get(self, rel: Relation) -> StoredMorphism | None:
        return self.items.get(rel.key)

    def sorted_items(self) -> list[StoredMorphism]:
        return [self.items[k] for k in sorted(self.items)]


def _base_factors(symbols: Mapping[str, Relation]) -> list[int]:
    """The sorted base factors of the symbols' domains and codomains."""
    return sorted({f for rel in symbols.values() for f in rel.dom.factors + rel.cod.factors})


def _seed_symbols(
    generators: Mapping[str, Relation], cap: int
) -> dict[str, Relation]:
    """Generators plus identities and swaps on every object within the cap."""
    symbols = dict(generators)
    for name, make in structural_seeds(_base_factors(generators), cap):
        if name in symbols:
            raise ValueError(f"generator name {name!r} collides with a seed")
        symbols[name] = make()
    return symbols


def _is_identifier(name: str) -> bool:
    """True iff `name` parses as a single atom of the term language."""
    try:
        return terms.parse_term(name) == terms.Atom(name)
    except terms.TermSyntaxError:
        return False


@dataclass
class _Run:
    """The entries of one word length and one shape, in key order.

    `rows[k]` holds the rows of `entries[k]`, and `parts[k]` is `(top, a,
    b)` for its word `(a) op (b)`: `top` is the top operation (`_top`),
    read by the left-operand rule, and a and b are the stored factor
    entries when the word is a product, read by the interchange rule, else
    None. A run is filled by its length's one insertion batch, before any
    scan reads it. Made on the first read in a (round, left length) scan and
    dropped when it ends: `columns`, the kernels' input (`read`), and
    `kept`, which maps a drop mask to `_kept`'s sub-lists. Made on `_kept`'s
    first read and kept for the whole build: `splits` maps a split (the
    arity of c.cod for a member `(c) x (d)`) to two factor tables, by c and
    by d, each `(members, drops)`: `members` maps a factor's id to
    `[factor, mask of the members with it]`, and `drops` maps an entry x's
    id to `_dropped`'s mask for x (module docstring).
    """

    dom: FinObject
    cod: FinObject
    rows: list[tuple[int, ...]] = field(default_factory=list)
    entries: list[StoredMorphism] = field(default_factory=list)
    parts: list[tuple] = field(default_factory=list)
    columns: list[tuple[int, ...]] | None = None
    kept: dict[int, tuple[list, list]] = field(default_factory=dict)
    splits: dict[int, tuple[tuple[dict, dict], ...]] | None = None

    def read(self) -> list[tuple[int, ...]]:
        if self.columns is None:
            self.columns = list(zip(*self.rows))
        return self.columns


# The left-operand rule (module docstring): a left entry whose word has one
# of these tops makes only candidates that an earlier one already found.
_COMPOSE_SKIP = frozenset((";", "id", "unit"))
_TENSOR_SKIP = frozenset(("x", "unit"))
# The `parts` of an entry whose word is not a product, one tuple per top.
_UNSPLIT = {top: (top, None, None) for top in (None, ";", "id", "unit")}

# A pooled candidate's rows, its sort key within its shape.
_first = itemgetter(0)


def _top(rel: Relation, op: str | None) -> str | None:
    """The top operation of an entry's word, for the left-operand rule.

    ";" or "x" for a composite or a product; for a round-1 word, "unit" for
    the identity scalar, "id" for another identity, and None otherwise.
    """
    if op is None and rel == identity(rel.dom):
        return "unit" if rel.dom == UNIT else "id"
    return op


def _dropped(
    items: dict[tuple, StoredMorphism], table: tuple[dict, dict], x: StoredMorphism
) -> int:
    """The mask of the members in a factor table whose factor x absorbs.

    One `run_composer` call for x maps every factor's rows at once, and each
    composite's rows are looked up under its key; the mask is kept in the
    table's `drops`.
    """
    members, drops = table
    mask = drops.get(id(x))
    if mask is None:
        mask = 0
        after = run_composer(x.relation.rows)
        cod = x.relation.cod.factors
        composites = after(list(zip(*[f.relation.rows for f, _ in members.values()])))
        for (f, bits), rows in zip(members.values(), composites):
            found = items.get((f.relation.dom.factors, cod, rows))
            if found is not None and found.length < x.length + f.length:
                mask |= bits
        drops[id(x)] = mask
    return mask


def _kept(
    items: dict[tuple, StoredMorphism], run: _Run, a: StoredMorphism, b: StoredMorphism
) -> tuple[list[tuple[int, ...]], list[StoredMorphism]]:
    """`(columns, entries)` of the members of `run` to compose `(a) x (b)` with, in order.

    a.dom equals c.cod for a member `(c) x (d)` exactly when the splits
    agree, so one split is masked. The factor tables are made on the first
    call for the run. Many left entries of a round share a mask, so each
    sub-list of rows is kept until the scan of the run ends (without that
    the cap-2 round-4 build took 0.21 s, not 0.16 s: median of 7, 2-core
    VM), and transposed on each call.
    """
    if run.splits is None:
        run.splits = {}
        for k, (top, c, d) in enumerate(run.parts):
            if top == "x":
                tables = run.splits.setdefault(c.relation.cod.arity, (({}, {}), ({}, {})))
                for (members, _), f in zip(tables, (c, d)):
                    members.setdefault(id(f), [f, 0])[1] |= 1 << k
    tables = run.splits.get(a.relation.dom.arity)
    if tables is None:
        return run.read(), run.entries
    drop = _dropped(items, tables[0], a) | _dropped(items, tables[1], b)
    if not drop:
        return run.read(), run.entries
    sub = run.kept.get(drop)
    if sub is None:
        picks = [k for k in range(len(run.entries)) if not drop >> k & 1]
        sub = run.kept[drop] = (
            [run.rows[k] for k in picks],
            [run.entries[k] for k in picks],
        )
    return list(zip(*sub[0])), sub[1]


@contextmanager
def _collector_paused():
    """Hold the cyclic garbage collector off during a closure build and while
    a store file is written or read, then hand what the paused code kept to
    the oldest generation.

    A build allocates hundreds of thousands of row tuples, candidates and
    entries, and reading a store builds a key, a `Relation` and a
    `StoredMorphism` per morphism; none of them form cycles, so reference
    counting frees what is dropped. Each allocation counts toward the
    collector's thresholds: with the collector running, the cap-3 round-4
    build ran 1,085 collections for 0.55 s, and reading a store lost a
    fifth of its time to them.

    The handoff: when the pause ends and the collector was on, the young
    generations hold all that the paused code kept, the returned store
    among it, and the first young collections would walk it all (about
    0.25 s after the cap-3 round-4 build, and 35 ms after loading the
    cap-3 round-3 store, on a 2-core VM). `gc.freeze()` moves every
    tracked object into the permanent generation and zeroes the young
    count, and `gc.unfreeze()` moves them all back into the oldest
    generation, each in constant time. They stay collectable: the next
    full collection walks them, as it would have after young ones promoted
    them, and untracks the tuples that hold only ints, as the first young
    collection did before; so that one collection costs more (0.27 s
    against 0.04 s after the cap-3 round-4 build), and a `toycat close`
    run makes none. The handoff is skipped when the process has frozen
    objects of its own, since `gc.unfreeze()` would release those too; the
    collector is then re-enabled as before. A nested pause finds the
    collector off, so only the outermost one hands off. The collector is
    left on or off, and the freeze count, as they were found.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


@_collector_paused()
def generate_closure(
    generators: Mapping[str, Relation],
    config: ClosureConfig = ClosureConfig(),
) -> MorphismStore:
    """Saturate the generators under compose, tensor, and dagger."""
    cap = config.max_arity
    for name, rel in generators.items():
        if not _is_identifier(name):
            raise ValueError(
                f"generator name {name!r} is not a term identifier, "
                "so words over it could not be re-evaluated"
            )
        if rel.dom.arity > cap or rel.cod.arity > cap:
            raise GeneratorOutsideCapError(
                f"generator {name!r} has shape {rel.dom} -> {rel.cod}, "
                f"outside arity cap {cap}"
            )
    symbols = _seed_symbols(generators, cap)
    store = MorphismStore(config=config, symbols=symbols)
    items = store.items

    # runs[L] = the entries with word length L, cut into `_Run`s as they
    # are inserted. known[(dom factors, cod factors)] holds the rows of
    # every stored morphism of that shape and of this round's pool: each
    # candidate is added when it is pooled, round 1's seeds too.
    runs: dict[int, list[_Run]] = {}
    known: defaultdict[tuple, set] = defaultdict(set)
    # the rows of every product candidate, one int object per (left row,
    # right row, width) for the whole build
    products = ProductTable()

    def insert_batch(pool: dict[tuple, list], length: int) -> int:
        """Insert the pool in key order, up to the morphism cap.

        Returns how many were inserted: fewer than the pool holds exactly
        when the cap cut the batch short.

        The pool maps a shape, (dom factors, cod factors), to its new
        candidates in scan order, each `(rows, relation, op, left, right)`:
        the word is `(left) op (right)` over the two entries' words,
        formatted here for the inserted candidates only; a round-1
        candidate has op None and its word as `left`. A shape's rows are
        distinct, so the shapes in sorted order, each sorted by rows, come
        in key order: truncation at the morphism cap is deterministic, and
        each shape's entries form one run. `items[key]` is the one hash of
        a candidate's rows here. A truncated store may lose
        converse-closure and is flagged non-fixpoint.
        """
        before = len(items)
        room = config.max_morphisms - before
        # only a later round reads the runs, and none follows the last one
        scanned = config.max_rounds is None or length < config.max_rounds
        length_runs = runs[length] = []
        for shape in sorted(pool):
            if not room:
                break
            cands = pool[shape]
            cands.sort(key=_first)
            if len(cands) > room:
                cands = cands[:room]
            room -= len(cands)
            dom_f, cod_f = shape
            if scanned:
                rel = cands[0][1]
                run = _Run(rel.dom, rel.cod)
                length_runs.append(run)
            for rows, rel, op, left, right in cands:
                word = left if op is None else f"({left.word}) {op} ({right.word})"
                entry = items[dom_f, cod_f, rows] = _stored(rel, word, length)
                if not scanned:
                    continue
                top = _top(rel, op)
                run.parts.append((top, left, right) if top == "x" else _UNSPLIT[top])
                run.rows.append(rows)
                run.entries.append(entry)
        return len(items) - before

    def pool_new(pool, cands, entries, dom, cod, op, e1) -> None:
        """Pool the candidates of one run whose rows their shape has not seen.

        `cands[k]` holds the rows of `e1 op entries[k]`. A run whose
        candidates are all known costs one set test; otherwise each is
        added to `known` once, and is new when that grows the set. New
        ones join their shape's list in scan order, so the first candidate
        for a key wins. A round-1 seed is pooled as a run of one, with op
        None and its word as e1.
        """
        shape = dom.factors, cod.factors
        seen = known[shape]
        if seen.issuperset(cands):
            return
        found = pool[shape]
        add = seen.add
        n = len(seen)
        for rows, e2 in zip(cands, entries):
            add(rows)
            if len(seen) != n:
                n += 1
                found.append((rows, Relation._raw(dom, cod, rows), op, e1, e2))

    # Round 1: the seeds by sorted name, then the converse of each seed not
    # already there; later rounds need no converse step (see the module
    # docstring).
    names = sorted(symbols)
    seeds = [(symbols[name], name) for name in names]
    seeds += [(dagger(symbols[name]), f"{name}^") for name in names]
    pool: defaultdict[tuple, list] = defaultdict(list)
    for rel, word in seeds:
        pool_new(pool, [rel.rows], [None], rel.dom, rel.cod, None, word)
    overflow = insert_batch(pool, 1) < sum(map(len, pool.values()))
    store.growth.append((1, len(items)))
    store.rounds_run = 1

    # Later rounds: the first candidate found for a key wins; the morphism
    # cap cuts a round short when its pool does not fit, and a closed store
    # (module docstring) ends the build.
    length = 2
    while not overflow:
        if config.max_rounds is not None and length > config.max_rounds:
            break
        pool = defaultdict(list)
        for la in range(1, length):
            left = runs[la]
            right = runs[length - la]
            # compose: e1 after e2 when shapes meet in the middle
            for run1 in left:
                meeting = [
                    (run2, run2.dom, run1.cod) for run2 in right
                    if run2.cod.factors == run1.dom.factors
                ]
                if not meeting:
                    continue
                for e1, (top, a, b) in zip(run1.entries, run1.parts):
                    if top in _COMPOSE_SKIP:
                        continue
                    after = run_composer(e1.relation.rows)
                    for run2, dom, cod in meeting:
                        columns, entries = (
                            _kept(items, run2, a, b) if top == "x" else (run2.read(), run2.entries)
                        )
                        pool_new(pool, after(columns), entries, dom, cod, ";", e1)
            # tensor: any pair whose product stays within the cap; a left
            # entry binds its lookups once per width
            for run1 in left:
                fitting = [
                    (run2, run1.dom * run2.dom, run1.cod * run2.cod) for run2 in right
                    if run1.dom.arity + run2.dom.arity <= cap
                    and run1.cod.arity + run2.cod.arity <= cap
                ]
                if not fitting:
                    continue
                widths = {run2.dom.cardinality for run2, _, _ in fitting}
                for e1, (top, _, _) in zip(run1.entries, run1.parts):
                    if top in _TENSOR_SKIP:
                        continue
                    by_width = {w: products.left(e1.relation.rows, w) for w in widths}
                    for run2, dom, cod in fitting:
                        cands = table_run(by_width[run2.dom.cardinality], run2.read())
                        pool_new(pool, cands, run2.entries, dom, cod, "x", e1)
            # no other left length of this round scans these right runs
            for run2 in right:
                run2.columns = None
                run2.kept.clear()
        added = insert_batch(pool, length)
        overflow = added < sum(map(len, pool.values()))
        store.growth.append((length, added))
        store.rounds_run = length
        if not added and not overflow and next(_check_closed(store), None) is None:
            store.fixpoint = True
            break
        length += 1
    return store


def contains(store: MorphismStore, rel: Relation) -> ContainsResult:
    """Canonical-key membership; negatives require a fixpoint store."""
    entry = store.get(rel)
    if entry is not None:
        return ContainsResult("yes", entry.word)
    return ContainsResult("no" if store.fixpoint else "unknown")


def census(store: MorphismStore) -> list[dict]:
    """Morphism counts per (dom, cod) shape, deterministically ordered."""
    counts: dict[tuple, int] = {}
    for dom_f, cod_f, _ in store.items:
        counts[(dom_f, cod_f)] = counts.get((dom_f, cod_f), 0) + 1
    return [
        {"dom": list(dom_f), "cod": list(cod_f), "count": n}
        for (dom_f, cod_f), n in sorted(counts.items())
    ]


@dataclass(frozen=True)
class StateCensus:
    obj: FinObject
    states: tuple[StoredMorphism, ...]
    orbits: tuple[tuple[Relation, ...], ...]  # under stored permutations of obj

    @property
    def count(self) -> int:
        return len(self.states)


def state_census(store: MorphismStore, obj: FinObject) -> StateCensus:
    """All stored states of `obj`, with orbits under stored permutations.

    One walk over the store picks the states (I -> obj) and the
    endomorphisms of obj; each unitary one is prepared once by
    `run_composer`, and each orbit is one `reachable` walk from its least
    state not yet in an orbit.
    """
    items = store.items
    target = obj.factors
    state_keys: list[tuple] = []
    endo_keys: list[tuple] = []
    for key in items:
        dom_f, cod_f, _ = key
        if cod_f == target:
            if not dom_f:
                state_keys.append(key)
            if dom_f == target:
                endo_keys.append(key)
    states = [items[k] for k in sorted(state_keys)]
    moves = [
        run_composer(items[k].relation.rows)
        for k in endo_keys
        if is_unitary(items[k].relation)
    ]
    remaining = {e.relation.rows for e in states}
    orbits: list[tuple[Relation, ...]] = []
    while remaining:
        orbit = sorted(reachable(moves, [min(remaining)]))
        remaining.difference_update(orbit)
        orbits.append(tuple(Relation._raw(UNIT, obj, rows) for rows in orbit))
    return StateCensus(obj, tuple(states), tuple(orbits))


# -- serialization -------------------------------------------------------------

class _Decimal(dict):
    """Row integer -> its decimal text; each distinct value is converted once."""

    __slots__ = ()

    def __missing__(self, row: int) -> str:
        text = self[row] = str(row)
        return text


def _json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _shape(item: tuple) -> tuple:
    """The (dom factors, cod factors) of an item `(key, entry)` of `store.items`."""
    return item[0][:2]


_rows_of = itemgetter(2)
_length_of = attrgetter("length")
_word_of = attrgetter("word")


@_collector_paused()
def store_to_json_str(store: MorphismStore) -> str:
    """The store file text: one block per shape, the shapes in order.

    The bytes are those of `json.dumps(..., sort_keys=True, separators=(",",
    ":"))` over the file's tree, but the tree is never built. `json.dumps`
    writes the small fields after `blocks`, and each block `{"cod", "dom",
    "lengths", "rows", "words"}` is one f-string written straight from its
    members' rows keys, in key order, so no pairs are built: `rows` holds
    the members' rows one member after the other. A store holds few
    distinct row integers (543 of 1,221,908 in the cap-3 round-3 store), so
    each is converted to decimal once per call, and a block's rows are
    joined once. Words are escaped as `json.dumps` escapes them.
    """
    rest = _json({
        "config": {
            "max_arity": store.config.max_arity,
            "max_morphisms": store.config.max_morphisms,
            "max_rounds": store.config.max_rounds,
        },
        "fixpoint": store.fixpoint,
        "format": STORE_FORMAT,
        "rounds_run": store.rounds_run,
        "symbols": {
            name: {"dom": list(rel.dom.factors), "cod": list(rel.cod.factors),
                   "rows": list(rel.rows)}
            for name, rel in store.symbols.items()
        },
    })
    decimal = _Decimal().__getitem__
    quote = encode_basestring_ascii
    parts = ['{"blocks":[']
    sep = ""
    for (dom_f, cod_f), block in groupby(sorted(store.items.items()), _shape):
        keys, entries = zip(*block)
        parts.append(
            f'{sep}{{"cod":[{",".join(map(decimal, cod_f))}],'
            f'"dom":[{",".join(map(decimal, dom_f))}],'
            f'"lengths":[{",".join(map(decimal, map(_length_of, entries)))}],'
            f'"rows":[{",".join(map(decimal, chain.from_iterable(map(_rows_of, keys))))}],'
            f'"words":[{",".join(map(quote, map(_word_of, entries)))}]}}'
        )
        sep = ","
    parts += ("],", rest[1:])
    return "".join(parts)


@_collector_paused()
def store_to_json(store: MorphismStore) -> dict:
    """The store file as a JSON tree: the parse of `store_to_json_str`."""
    return json.loads(store_to_json_str(store))


def _typed(data: Mapping, name: str, kind):
    """`data[name]`, or a ValueError naming the field when it has the wrong type.

    The type must match exactly, so JSON `true` is not read as the integer 1.
    """
    value = data[name]
    if type(value) not in (kind if isinstance(kind, tuple) else (kind,)):
        raise ValueError(
            f"store file field {name!r} has the wrong type {type(value).__name__}"
        )
    return value


_KINDS = {int: "an integer", str: "a string"}


def _typed_list(data: Mapping, name: str, kind: type, where: str) -> list:
    """The list `data[name]`, each of whose values has exactly the type `kind`.

    One C-level pass over the types checks the list; `where` names the
    record or block in an error.
    """
    values = _typed(data, name, list)
    if not {kind}.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) is not kind)
        raise ValueError(
            f"store file field {name!r} of {where} holds {bad!r}, not {_KINDS[kind]}"
        )
    return values


def _objects(rec, where: str, cap: int) -> tuple[FinObject, FinObject]:
    """The domain and codomain of a symbol record or block `rec`, each of at most `cap` factors.

    `FinObject` refuses a factor that is not exactly an int of at least 1,
    so JSON `true` and 4.0 are refused, not read as 1 and 4.
    """
    if type(rec) is not dict:
        raise ValueError(f"store file {where} is not a JSON object")
    objects = []
    for name in ("dom", "cod"):
        factors = _typed(rec, name, list)
        try:
            objects.append(FinObject(*factors))
        except ValueError as exc:
            raise ValueError(f"store file field {name!r} of {where}: {exc}") from None
    dom, cod = objects
    if dom.arity > cap or cod.arity > cap:
        raise ValueError(f"store file {where} has shape {dom} -> {cod}, outside arity cap {cap}")
    return dom, cod


def _rows(rec, members: int, dom: FinObject, cod: FinObject, where: str) -> list[int]:
    """The `rows` of a symbol record or block of `members` members, checked.

    It holds one row per codomain element for each member, and each row is
    an int in [0, 2**|dom|). Only the list itself is scanned: the count is
    compared with the codomain's size before anything is cut or built by
    it, and the range by bit length, so 2**|dom| is never built.
    """
    rows = _typed_list(rec, "rows", int, where)
    n = cod.cardinality
    if len(rows) != members * n:
        raise ValueError(
            f"store file field 'rows' of {where} has {len(rows)} rows, but {members} "
            f"member(s) on codomain {cod} need {members * n}, one per element"
        )
    if min(rows) < 0 or max(rows).bit_length() > dom.cardinality:
        raise ValueError(
            f"store file field 'rows' of {where} has a row that is negative "
            f"or has bits outside domain {dom}"
        )
    return rows


def _symbol(rec, name, cap: int) -> Relation:
    """The relation of the store file's symbol record `name`, checked."""
    where = f"symbol {name!r}"
    if not _is_identifier(name):
        raise ValueError(f"store file {where} is not a term identifier")
    dom, cod = _objects(rec, where, cap)
    return Relation._raw(dom, cod, tuple(_rows(rec, 1, dom, cod, where)))


@_collector_paused()
def store_from_json(data: Mapping) -> MorphismStore:
    """Build a store from its file form, refusing a malformed field.

    Blocks must come in strictly increasing shape order, each with at least
    one member, as many words and lengths as members, and its members in
    strictly increasing rows order; so a parsed store writes back the same
    bytes and no morphism repeats. No block or symbol may exceed `max_arity`
    on a side, and symbol names are term identifiers. Each block is checked
    with C-level scans of its lists, so the loop per member only builds and
    inserts it. Every length lies in rounds 1 to `rounds_run`, and the
    growth is derived from them, one `(round, members of that length)` pair
    per round; `rounds_run` is at most twice the longest length, as a build
    ends by then (module docstring). The record must fit the config's
    bounds (`_check_fixpoint`), and a `fixpoint` flag the growth too and the
    certificate (`_check_closed`, `_check_words`); nothing is replayed.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a store file holds a JSON object, not {type(data).__name__}")
    found = data.get("format")
    if found != STORE_FORMAT:
        raise ValueError(
            f"unsupported store format {found!r}; expected {STORE_FORMAT!r}"
        )
    per_length: Counter[int] = Counter()
    try:
        cfg = _typed(data, "config", dict)
        config = ClosureConfig(
            max_arity=_typed(cfg, "max_arity", int),
            max_morphisms=_typed(cfg, "max_morphisms", int),
            max_rounds=_typed(cfg, "max_rounds", (int, type(None))),
        )
        symbols = {
            name: _symbol(rec, name, config.max_arity)
            for name, rec in _typed(data, "symbols", dict).items()
        }
        rounds_run = _typed(data, "rounds_run", int)
        store = MorphismStore(
            config=config,
            symbols=symbols,
            fixpoint=_typed(data, "fixpoint", bool),
            rounds_run=rounds_run,
        )
        items = store.items
        last: tuple = ()
        for i, block in enumerate(_typed(data, "blocks", list)):
            where = f"block {i}"
            dom, cod = _objects(block, where, config.max_arity)
            shape = dom.factors, cod.factors
            if not shape > last:
                raise ValueError(
                    f"store file field 'blocks' repeats the shape of block {i - 1} in block {i}"
                    if shape == last else
                    f"store file field 'blocks' lists block {i} out of shape order"
                )
            words = _typed_list(block, "words", str, where)
            lengths = _typed_list(block, "lengths", int, where)
            size = len(words)
            if not size:
                raise ValueError(f"store file {where} has no members")
            if len(lengths) != size:
                raise ValueError(
                    f"store file {where} has {size} words but {len(lengths)} lengths"
                )
            if min(lengths) < 1 or max(lengths) > rounds_run:
                bad = next(n for n in lengths if not 0 < n <= rounds_run)
                raise ValueError(f"store file {where} has length {bad}, not in 1 to {rounds_run}")
            # the count check in `_rows` bounds the codomain by the list's length
            rows = _rows(block, size, dom, cod, where)
            members = list(zip(*[iter(rows)] * cod.cardinality))
            if not all(map(lt, members, members[1:])):
                k = next(k for k in range(1, size) if not members[k - 1] < members[k])
                raise ValueError(
                    f"store file {where} repeats member {k - 1} as member {k}"
                    if members[k - 1] == members[k] else
                    f"store file {where} lists member {k} out of rows order"
                )
            dom_f, cod_f = shape
            for rows_k, word, length in zip(members, words, lengths):
                items[dom_f, cod_f, rows_k] = _stored(Relation._raw(dom, cod, rows_k), word, length)
            per_length.update(lengths)
            last = shape
    except KeyError as exc:
        raise ValueError(f"store file lacks the field {exc.args[0]!r}") from None
    longest = max(per_length, default=0)  # the growth has a pair per round: bound them
    if rounds_run > 2 * longest:
        raise ValueError(
            f"store file field 'rounds_run' is {rounds_run}, but a build stops by round {2 * longest}"
        )
    store.growth = [(r, per_length[r]) for r in range(1, rounds_run + 1)]
    checks = chain(_check_fixpoint(store), _check_closed(store), _check_words(store))
    gap = next(checks if store.fixpoint else _check_fixpoint(store), None)
    if gap is not None:
        flag = "field 'fixpoint' is true, but" if store.fixpoint else "records a run its config bars:"
        raise ValueError(f"store file {flag} {gap}")
    return store


def _check_fixpoint(store: MorphismStore) -> Iterator[str]:
    """Yield what the record says against the bounds and the flag: a build stays within
    `max_rounds` and `max_morphisms`, and a fixpoint's last round follows the last growth."""
    last, max_rounds = max([1] + [r for r, n in store.growth if n]), store.config.max_rounds
    if max_rounds is not None and max_rounds < store.rounds_run:
        yield f"max_rounds {max_rounds} stops the run before round {store.rounds_run}"
    if store.config.max_morphisms < len(store):
        yield f"max_morphisms {store.config.max_morphisms} is below its {len(store)} morphisms"
    if not store.fixpoint:
        return
    if store.rounds_run != last + 1:
        yield f"the last round that added morphisms is {last}, not {store.rounds_run - 1}"


def _check_closed(store: MorphismStore) -> Iterator[str]:
    """Yield each failure of parts (a) to (c) of the module docstring's certificate."""
    items, symbols, cap = store.items, store.symbols, store.config.max_arity

    def holes(shape: tuple, cands: list, what: str) -> Iterator[str]:
        if not known.get(shape, set()).issuperset(cands):
            yield f"{what} in {FinObject(*shape[0])} -> {FinObject(*shape[1])} is not stored"

    # (a), a seed that `symbols` lacks refused unbuilt (no relation equals its
    # name); the converses in the pass that groups the members by shape
    for name, make in structural_seeds(_base_factors(symbols), cap):
        rel = make() if name in symbols else name
        if symbols.get(name) != rel:
            yield f"its symbols lack the seeded {name!r}"
    for name, rel in symbols.items():
        if rel.key not in items:
            yield f"its symbol {name!r} is not stored"
    known, perms = defaultdict(set), defaultdict(list)  # rows per shape, permutations per factor
    for (dom_f, cod_f, rows), entry in items.items():
        if dagger(entry.relation).key not in items:
            yield f"the converse of {entry.word!r} is not stored"
        known[dom_f, cod_f].add(rows)
        if len(dom_f) == 1 and dom_f == cod_f and is_unitary(entry.relation):
            perms[dom_f[0]].append(entry.relation)
    # (b) and one representative per orbit of the moves, its least rows: one
    # walk per orbit, which stops at the first image that is not stored
    reps: dict[tuple, list] = {}
    for shape, seen in known.items():
        run, cod_f, moves, whats = sorted(seen), shape[1], [], []
        for i, f in enumerate(cod_f):
            pair = [swap(FinObject(f), FinObject(f))] if cod_f[i + 1:i + 2] == (f,) else []
            for p in perms[f] + pair:
                left, right = FinObject(*cod_f[:i]), FinObject(*cod_f[i + p.cod.arity:])
                moves.append(run_composer(tensor(tensor(identity(left), p), identity(right)).rows))
                whats.append(f"the image of a member under a move at factor {i}")
        reps[shape], covered = [], set()
        for rows in run:
            if rows not in covered:
                reps[shape].append(rows)
                covered |= reachable(moves, [rows], seen)
        if len(covered) > len(seen):  # a walk left the store: name the first move that does
            columns = list(zip(*run))
            yield next(g for what, move in zip(whats, moves) for g in holes(shape, move(columns), what))
    # (c), a left representative prepared once for each right run, whose columns
    # are made once; the products come from one table, dropped with the check
    products, columns = ProductTable(), {shape: list(zip(*reps1)) for shape, reps1 in reps.items()}
    for (d0, c0), reps0 in reps.items():
        for r0 in reps0:
            after, w0 = run_composer(r0), items[d0, c0, r0].word
            for d1, c1 in reps:
                if c1 == d0:
                    what = f"a composite ({w0}) ; r1 of representatives"
                    yield from holes((d1, c0), after(columns[d1, c1]), what)
                if len(d0 + d1) <= cap and len(c0 + c1) <= cap:
                    cands = table_run(products.left(r0, FinObject(*d1).cardinality), columns[d1, c1])
                    what = f"a product ({w0}) x r1 of representatives"
                    yield from holes((d0 + d1, c0 + c1), cands, what)


def _made(entry: StoredMorphism, symbols: Mapping, by_word: dict) -> Relation | str:
    """The member an entry's word makes of a symbol or two stored halves, or why it makes none."""
    word, length = entry.word, entry.length
    name = word.removesuffix("^")
    if length == 1 and name in symbols:
        return symbols[name] if name == word else dagger(symbols[name])
    for split in re.finditer(r"\) ([;x]) \(", word):  # the halves pick the split
        a, b = by_word.get(word[1:split.start()]), by_word.get(word[split.end():-1])
        if a is None or b is None or word[0] + word[-1] != "()":
            continue
        if a.length + b.length != length:
            return f"its word {word!r} has length {length}, but halves of {a.length} and {b.length}"
        if split[1] == ";" and a.relation.dom is not b.relation.cod:
            return f"its word {word!r} composes halves whose objects do not meet"
        return (compose if split[1] == ";" else tensor)(a.relation, b.relation)
    return f"its word {word!r} is no symbol, converse or (a) op (b) of stored words"


def _check_words(store: MorphismStore) -> Iterator[str]:
    """Yield each failure of part (d), shorter words first: a bad word fails the longer ones."""
    by_word = {entry.word: entry for entry in store.items.values()}
    for key, entry in sorted(store.items.items(), key=lambda item: item[1].length):
        made = _made(entry, store.symbols, by_word)
        if type(made) is str:
            yield made
        elif made.key != key:
            yield f"its word {entry.word!r} evaluates to another morphism"


def load_store(path) -> MorphismStore:
    """Read, parse and build the store file at `path` under one collector pause."""
    with _collector_paused(), open(path) as fh:
        return store_from_json(json.load(fh))


def evaluate_word(store: MorphismStore, word: str) -> Relation:
    """Re-evaluate a witness word against the store's generator symbols."""
    return terms.eval_term(terms.parse_term(word), store.symbols)
