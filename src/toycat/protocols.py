"""Teleportation and dense coding, verified branch by branch.

Given a cup eta and a set of unitaries, the teleportation check builds
each measurement branch explicitly: the effect is the dagger of the
unitarily shifted cup, the post-measurement map is the effect applied
against a fresh copy of the cup, and the classical correction is the
unitary itself. A certificate is valid when every branch's map equals the
dagger of its unitary, the correction undoes it exactly, the effects are
pairwise disjoint, and together they cover every outcome. Dense coding
composes the same ingredients the other way around and demands an exact
identity pattern in the resulting scalar table.

All three checks start from one helper that checks the snake equations of
the cup and returns the identity on its object A. A branch's support, the
subset of A x A its shifted cup reaches, is the single row of that state's
dagger, so disjointness and coverage are bit arithmetic on those masks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .basis import BasisStructure, check_complementary, enumerate_points, lambda_map
from .relcore import (
    FinObject,
    Relation,
    ShapeMismatchError,
    all_permutations,
    compose,
    dagger,
    identity,
    is_unitary,
    reachable,
    relation_to_json,
    run_composer,
    scalar_kind,
    snake_holds,
    swap,
    tensor,
)

__all__ = [
    "ComplementarityRequired",
    "BellBasis",
    "bell_basis",
    "phase_unitaries",
    "phase_pool",
    "BranchSearchResult",
    "find_branch_unitaries",
    "Branch",
    "TeleportationCertificate",
    "check_teleportation",
    "DenseCodingResult",
    "check_dense_coding",
    "measurement_projector",
    "all_unitary_permutations",
]


class ComplementarityRequired(ValueError):
    """The two structures handed to bell_basis are not complementary."""

    def __init__(self, report) -> None:
        super().__init__(f"structures are not complementary: {report.to_json()}")
        self.report = report


@dataclass(frozen=True)
class BellBasis:
    tensor_basis: BasisStructure
    bell_map: Relation


def bell_basis(bx: BasisStructure, bz: BasisStructure) -> BellBasis:
    """Basis structure on A x A and the basis-change map built from a pair.

    The comultiplication is (1 x swap x 1) o (delta_X x delta_Z) with
    counit eps_X x eps_Z; the Bell map is (delta_X-dagger x 1) o (1 x delta_Z).
    Requires the pair to be complementary and re-verifies all six laws on
    the product structure.
    """
    report = check_complementary(bx, bz)
    if not report.holds:
        raise ComplementarityRequired(report)
    a = bx.obj
    ida = identity(a)
    mid = tensor(ida, tensor(swap(a, a), ida))
    delta = compose(mid, tensor(bx.delta, bz.delta))
    epsilon = tensor(bx.epsilon, bz.epsilon)
    product = BasisStructure(a * a, delta, epsilon, name="bell-product")
    if not product.all_laws_hold:
        failed = [r.law for r in product.verified if not r.holds]
        raise AssertionError(f"product structure failed laws: {failed}")
    bell = compose(tensor(dagger(bx.delta), ida), tensor(ida, bz.delta))
    return BellBasis(product, bell)


def phase_unitaries(b: BasisStructure) -> tuple[Relation, ...]:
    """The unitaries the unbiased points of `b` induce, in canonical order."""
    phases = {lambda_map(b, psi) for psi in enumerate_points(b).unbiased}
    return tuple(sorted(phases, key=lambda u: u.key))


def phase_pool(*structures: BasisStructure) -> tuple[Relation, ...]:
    """The phase unitaries of all the structures, closed under composition.

    Every composite is some phase after a shorter one, so the closure is
    the `reachable` walk from the phases with each phase as a move. The
    members come in canonical order; structures on different objects
    raise ShapeMismatchError.
    """
    phases = [u for b in structures for u in phase_unitaries(b)]
    if not phases:
        return ()
    obj = phases[0].dom
    if any(u.dom != obj for u in phases):
        raise ShapeMismatchError("cannot pool phases on different objects")
    moves = [run_composer(u.rows) for u in phases]
    closed = reachable(moves, (u.rows for u in phases))
    return tuple(Relation._raw(obj, obj, rows) for rows in sorted(closed))


def all_unitary_permutations(obj: FinObject) -> tuple[Relation, ...]:
    """Every bijection graph on obj, in canonical order (the widest pool)."""
    return tuple(sorted(all_permutations(obj), key=lambda r: r.key))


@dataclass(frozen=True)
class BranchSearchResult:
    unitaries: tuple[Relation, ...] | None
    coverage: int
    total: int

    @property
    def ok(self) -> bool:
        return self.unitaries is not None


def _cup_identity(eta: Relation) -> Relation:
    """The identity on A for a cup I -> A x A that satisfies the snake equations."""
    if not snake_holds(eta):
        raise ValueError("eta does not satisfy the snake equations")
    return identity(FinObject(*eta.cod.factors[: len(eta.cod.factors) // 2]))


def find_branch_unitaries(eta: Relation, pool: tuple[Relation, ...] | list[Relation]) -> BranchSearchResult:
    """Smallest pool subset whose shifted cups tile A x A.

    Each shifted cup's support has as many points as the cup's (a unitary
    moves points one to one), and `_cup_identity` refuses an empty cup, so
    only subsets of one size can tile. They are scanned in lexicographic
    order over the canonically sorted pool, so the result is
    deterministic; on failure the result reports how much of A x A the
    whole pool can cover.
    """
    ida = _cup_identity(eta)
    for u in pool:
        if not is_unitary(u):
            raise ValueError("pool contains a non-unitary relation")
    pool = sorted(pool, key=lambda r: r.key)
    supports = [dagger(compose(tensor(u, ida), eta)).rows[0] for u in pool]
    total = eta.cod.cardinality
    full = (1 << total) - 1
    size, rest = divmod(total, dagger(eta).rows[0].bit_count())
    if not rest:
        for combo in itertools.combinations(range(len(pool)), size):
            acc = 0
            for idx in combo:
                if acc & supports[idx]:
                    break
                acc |= supports[idx]
            else:
                if acc == full:
                    return BranchSearchResult(tuple(pool[i] for i in combo), total, total)
    union = 0
    for m in supports:
        union |= m
    return BranchSearchResult(None, union.bit_count(), total)


@dataclass(frozen=True)
class Branch:
    unitary: Relation    # also the classical correction
    state: Relation      # (U x 1) o eta
    effect: Relation     # its dagger
    branch_map: Relation  # (effect x 1) o (1 x eta)
    ok: bool


@dataclass(frozen=True)
class TeleportationCertificate:
    eta: Relation
    branches: tuple[Branch, ...]
    disjoint: bool
    coverage_ok: bool

    @property
    def valid(self) -> bool:
        return self.disjoint and self.coverage_ok and all(b.ok for b in self.branches)

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "branch_count": len(self.branches),
            "disjoint": self.disjoint,
            "coverage_ok": self.coverage_ok,
            "eta": relation_to_json(self.eta),
            "branches": [
                {
                    "unitary": relation_to_json(b.unitary),
                    "effect": relation_to_json(b.effect),
                    "branch_map": relation_to_json(b.branch_map),
                    "correction": relation_to_json(b.unitary),
                    "ok": b.ok,
                }
                for b in self.branches
            ],
        }


def check_teleportation(
    eta: Relation, unitaries: tuple[Relation, ...] | list[Relation]
) -> TeleportationCertificate:
    """Build and validate every measurement branch of the protocol."""
    ida = _cup_identity(eta)
    branches = []
    union = 0
    support_total = 0
    for u in unitaries:
        state = compose(tensor(u, ida), eta)
        effect = dagger(state)
        branch_map = compose(tensor(effect, ida), tensor(ida, eta))
        ok = branch_map == dagger(u) and compose(u, branch_map) == ida
        branches.append(Branch(u, state, effect, branch_map, ok))
        union |= effect.rows[0]
        support_total += effect.rows[0].bit_count()
    disjoint = union.bit_count() == support_total
    coverage_ok = union == (1 << eta.cod.cardinality) - 1
    return TeleportationCertificate(eta, tuple(branches), disjoint, coverage_ok)


@dataclass(frozen=True)
class DenseCodingResult:
    ok: bool
    table: tuple[tuple[str, ...], ...]  # table[i][j] = scalar of decode j on encode i

    def to_json(self) -> dict:
        return {"ok": self.ok, "table": [list(row) for row in self.table]}


def check_dense_coding(
    eta: Relation, unitaries: tuple[Relation, ...] | list[Relation]
) -> DenseCodingResult:
    """Decode table: effect_j o (U_i x 1) o eta must be the identity pattern."""
    ida = _cup_identity(eta)
    states = [compose(tensor(u, ida), eta) for u in unitaries]
    effects = [dagger(s) for s in states]
    table = []
    ok = True
    for i, s in enumerate(states):
        row = []
        for j, e in enumerate(effects):
            kind = scalar_kind(compose(e, s))
            row.append(kind)
            expected = "identity" if i == j else "empty"
            if kind != expected:
                ok = False
        table.append(tuple(row))
    return DenseCodingResult(ok, tuple(table))


def measurement_projector(phi: Relation) -> Relation:
    """phi o phi-dagger: projection onto the support of a state."""
    return compose(phi, dagger(phi))
