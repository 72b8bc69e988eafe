"""Basis structures: dagger Frobenius comonoids, point classification, complementarity.

A basis structure on an object A is a cocommutative comonoid
(A, delta: A -> A x A, epsilon: A -> I) that is isometric and satisfies
the Frobenius identity. Verification evaluates each law by explicit
matrix composition and reports the least violating entry on failure.

Each structure classifies the nonempty states of its object once, on first
use, and keeps the result as `points` (classical / unbiased / other). Every
reader of the classes, `enumerate_points` and `check_complementary`
included, goes through `points`, so its enumeration cap holds for all of
them. A state is classical when delta copies it and epsilon deletes it, and
unbiased when `lambda_map`, the endomorphism delta-dagger o (psi x 1) it
induces, is unitary.
Complementarity of two structures on the same object is checked both from
those classes (each one's classical points unbiased for the other, counit
daggers classical crosswise) and by the Hopf-style algebraic laws
(bialgebra plus trivial antipode, in both orientations). In this model
the scalar monoid has only the empty and identity scalars and conjunction
is idempotent, so the "scaled" versions of the Hopf laws collapse to
exact boolean equality; a model with a richer scalar monoid would need
them scaled.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .relcore import (
    FinObject,
    Relation,
    ShapeMismatchError,
    UNIT,
    bit_indices,
    compose,
    dagger,
    identity,
    is_unitary,
    least_diff_cell,
    scalar_identity,
    swap,
    tensor,
)

__all__ = [
    "LawReport",
    "BasisStructure",
    "PointReport",
    "ComplementarityReport",
    "HopfReport",
    "EnumerationCapExceeded",
    "verify_basis_structure",
    "lambda_map",
    "is_classical",
    "is_unbiased",
    "enumerate_points",
    "check_complementary",
    "check_hopf",
    "eta",
    "all_states",
]

# Ceiling on exhaustive point enumeration, checked by `BasisStructure.points`:
# an object of more than 16 elements (65,535 nonempty states) is refused.
POINT_ENUMERATION_CAP = 16


class EnumerationCapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class LawReport:
    law: str
    holds: bool
    witness: tuple[int, int] | None  # least differing (row, col), None when holds

    def to_json(self) -> dict:
        data: dict = {"law": self.law, "holds": self.holds}
        if self.witness is not None:
            data["witness"] = {"row": self.witness[0], "col": self.witness[1]}
        return data


def _law(name: str, lhs: Relation, rhs: Relation) -> LawReport:
    if lhs == rhs:
        return LawReport(name, True, None)
    return LawReport(name, False, least_diff_cell(lhs, rhs))


def verify_basis_structure(
    obj: FinObject, delta: Relation, epsilon: Relation
) -> tuple[LawReport, ...]:
    """Evaluate all six comonoid/Frobenius laws by explicit composition."""
    if delta.dom != obj or delta.cod != obj * obj:
        raise ShapeMismatchError(
            f"delta must be {obj} -> {obj * obj}, got {delta.dom} -> {delta.cod}"
        )
    if epsilon.dom != obj or epsilon.cod != UNIT:
        raise ShapeMismatchError(
            f"epsilon must be {obj} -> I, got {epsilon.dom} -> {epsilon.cod}"
        )
    ida = identity(obj)
    mu = dagger(delta)
    return (
        _law(
            "coassociativity",
            compose(tensor(delta, ida), delta),
            compose(tensor(ida, delta), delta),
        ),
        _law("counit_left", compose(tensor(epsilon, ida), delta), ida),
        _law("counit_right", compose(tensor(ida, epsilon), delta), ida),
        _law("cocommutativity", compose(swap(obj, obj), delta), delta),
        _law("isometry", compose(mu, delta), ida),
        # delta o mu = (mu x 1) o (1 x delta); the other association follows
        # from cocommutativity and symmetry.
        _law(
            "frobenius",
            compose(delta, mu),
            compose(tensor(mu, ida), tensor(ida, delta)),
        ),
    )


@dataclass(frozen=True)
class BasisStructure:
    """An object with comultiplication and counit, plus its lazy law report."""

    obj: FinObject
    delta: Relation
    epsilon: Relation
    name: str = ""

    @cached_property
    def verified(self) -> tuple[LawReport, ...]:
        return verify_basis_structure(self.obj, self.delta, self.epsilon)

    @property
    def all_laws_hold(self) -> bool:
        return all(r.holds for r in self.verified)

    @cached_property
    def points(self) -> PointReport:
        """Every nonempty state of the object, classified exhaustively.

        Raises EnumerationCapExceeded for an object above POINT_ENUMERATION_CAP.
        """
        n = self.obj.cardinality
        if n > POINT_ENUMERATION_CAP:
            raise EnumerationCapExceeded(
                f"{self.obj} has {n} elements; point enumeration is capped at "
                f"{POINT_ENUMERATION_CAP} (2^{POINT_ENUMERATION_CAP} - 1 states)"
            )
        classical: list[Relation] = []
        unbiased: list[Relation] = []
        other: list[Relation] = []
        overlap: list[Relation] = []
        for psi in all_states(self.obj):
            c = is_classical(self, psi)
            u = is_unbiased(self, psi)
            if c and u:
                overlap.append(psi)
            if c:
                classical.append(psi)
            elif u:
                unbiased.append(psi)
            else:
                other.append(psi)
        return PointReport(tuple(classical), tuple(unbiased), tuple(other), tuple(overlap))

    def __repr__(self) -> str:
        label = self.name or "BasisStructure"
        return f"<{label} on {self.obj}>"


def lambda_map(b: BasisStructure, psi: Relation) -> Relation:
    """delta-dagger o (psi x 1), the endomorphism a state induces; `lambda` in the texts."""
    if psi.dom != UNIT or psi.cod != b.obj:
        raise ShapeMismatchError(f"state must be I -> {b.obj}, got {psi.dom} -> {psi.cod}")
    return compose(dagger(b.delta), tensor(psi, identity(b.obj)))


def is_classical(b: BasisStructure, phi: Relation) -> bool:
    """Copied by delta and deleted by epsilon (comonoid homomorphism)."""
    if phi.dom != UNIT or phi.cod != b.obj:
        raise ShapeMismatchError(f"state must be I -> {b.obj}, got {phi.dom} -> {phi.cod}")
    return (
        compose(b.delta, phi) == tensor(phi, phi)
        and compose(b.epsilon, phi) == scalar_identity()
    )


def is_unbiased(b: BasisStructure, psi: Relation) -> bool:
    """The induced endomorphism is unitary."""
    return is_unitary(lambda_map(b, psi))


def all_states(obj: FinObject) -> Iterator[Relation]:
    """All nonempty states I -> obj in canonical (pair-list) order."""
    n = obj.cardinality
    for mask in sorted(range(1, 1 << n), key=bit_indices):
        yield Relation(UNIT, obj, tuple(mask >> i & 1 for i in range(n)))


@dataclass(frozen=True)
class PointReport:
    """Partition of the nonempty states into classical / unbiased / other.

    States satisfying both predicates would appear in `overlap`; for every
    structure in these models that list is empty (verified by tests, not
    assumed).
    """

    classical: tuple[Relation, ...]
    unbiased: tuple[Relation, ...]
    other: tuple[Relation, ...]
    overlap: tuple[Relation, ...]

    @property
    def total(self) -> int:
        return len(self.classical) + len(self.unbiased) + len(self.other)


def enumerate_points(b: BasisStructure) -> PointReport:
    """The point classes of `b` (`b.points`), refusing objects above the enumeration cap."""
    return b.points


@dataclass(frozen=True)
class ComplementarityReport:
    """Per-bullet outcome of the definitional complementarity check."""

    holds: bool
    classical_a_unbiased_b: bool
    classical_b_unbiased_a: bool
    counit_daggers_classical: bool
    witness: Relation | None  # a state violating the first failing bullet

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "bullets": {
                "classical_a_unbiased_b": self.classical_a_unbiased_b,
                "classical_b_unbiased_a": self.classical_b_unbiased_a,
                "counit_daggers_classical": self.counit_daggers_classical,
            },
        }


def _first_biased_classical(a: BasisStructure, b: BasisStructure) -> Relation | None:
    """The first classical point of `a` that is not unbiased for `b`, if any."""
    unbiased = set(b.points.unbiased) | set(b.points.overlap)
    return next((phi for phi in a.points.classical if phi not in unbiased), None)


def check_complementary(a: BasisStructure, b: BasisStructure) -> ComplementarityReport:
    """Definitional complementarity, from both structures' point classes.

    The witness violates the first failing bullet: the first classical
    point of one structure that is biased for the other, else a counit
    dagger that is not classical for the other structure.
    """
    if a.obj != b.obj:
        raise ShapeMismatchError(f"structures live on {a.obj} and {b.obj}")
    ab = _first_biased_classical(a, b)
    ba = _first_biased_classical(b, a)
    ua, ub = dagger(a.epsilon), dagger(b.epsilon)
    counit = next((u for u, s in ((ua, b), (ub, a)) if not is_classical(s, u)), None)
    witness = next((w for w in (ab, ba, counit) if w is not None), None)
    return ComplementarityReport(
        witness is None, ab is None, ba is None, counit is None, witness
    )


@dataclass(frozen=True)
class HopfReport:
    """Bialgebra and trivial-antipode laws, checked in both orientations."""

    holds: bool
    laws: tuple[LawReport, ...]

    def to_json(self) -> dict:
        return {"holds": self.holds, "laws": [r.to_json() for r in self.laws]}


def _bialgebra(
    a: BasisStructure, b: BasisStructure, mid: Relation
) -> tuple[Relation, Relation]:
    """Both sides of the bialgebra law; `mid` is the interchange 1 x swap x 1."""
    mu = dagger(a.delta)
    lhs = compose(b.delta, mu)
    rhs = compose(tensor(mu, mu), compose(mid, tensor(b.delta, b.delta)))
    return lhs, rhs


def _antipode(a: BasisStructure, b: BasisStructure) -> tuple[Relation, Relation]:
    mu = dagger(a.delta)
    unit = dagger(a.epsilon)
    return compose(mu, b.delta), compose(unit, b.epsilon)


def check_hopf(a: BasisStructure, b: BasisStructure) -> HopfReport:
    """Scaled-Hopf complementarity; equality is exact here (see module docstring).

    The algebraic characterisation presupposes enough points; relations
    over finite sets have them by construction (every check here is an
    exhaustive enumeration), so that hypothesis is not verified separately.
    """
    if a.obj != b.obj:
        raise ShapeMismatchError(f"structures live on {a.obj} and {b.obj}")
    ida = identity(a.obj)
    mid = tensor(ida, tensor(swap(a.obj, a.obj), ida))
    laws = (
        _law("bialgebra_ab", *_bialgebra(a, b, mid)),
        _law("antipode_ab", *_antipode(a, b)),
        _law("bialgebra_ba", *_bialgebra(b, a, mid)),
        _law("antipode_ba", *_antipode(b, a)),
    )
    return HopfReport(all(r.holds for r in laws), laws)


def eta(b: BasisStructure) -> Relation:
    """The cup delta o epsilon-dagger induced by a basis structure."""
    if not b.all_laws_hold:
        warnings.warn(
            f"building eta from an unverified structure on {b.obj}", stacklevel=2
        )
    return compose(b.delta, dagger(b.epsilon))

