"""Affine Lagrangian relations over F2: an invariant that bounds Spek.

Read each element e of the four-element set IV as the vector
(e >> 1, e & 1) in F2^2. The row-major flat index of an element of IV^k
(first factor most significant) is then directly a vector in F2^(2k), and
a relation IV^m -> IV^k is a subset of F2^(2n), n = m + k, through
(j, i) -> (j << 2k) | i. The symplectic form is summed over the n systems:

    omega(u, v) = sum_s (u_s.hi * v_s.lo + u_s.lo * v_s.hi)  (mod 2)

A relation is *affine Lagrangian* when its graph is a + L for a linear
subspace L of dimension n on which omega vanishes; such a graph has
exactly 2^n points. The class used here is "empty or affine Lagrangian".

Why it bounds the closure: every Spek seed is in the class (the 24
permutations of IV are exactly the affine symplectic maps of F2^2, and
delta_Z, eps_Z, identities and swaps are checked directly), and the class
is closed under the closure's three operations. Tensor is the direct sum
of graphs; converse swaps the two halves and, over F2, needs no sign
change; a composite of affine Lagrangian relations is either empty or
affine Lagrangian (Comfort & Kissinger 2021, arXiv:2105.06244). So every
morphism generated from the seeds lies in the class, at every arity cap
and every round count, and a target outside the class is never generated.

`exclusion_certificate` packages that argument for one target: it names
every symbol it checked and the target's failing property, and `check()`
re-derives it from the relations it carries. It is a separate status from
a fixpoint: `closure.contains` still answers "no" only on a fixpoint store.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .relcore import FinObject, Relation

__all__ = [
    "CertificateRefused",
    "ExclusionCertificate",
    "affine_lagrangian_count",
    "exclusion_certificate",
    "is_affine_lagrangian",
    "lagrangian_defect",
    "symplectic_form",
]

_LOW_BITS = int("01" * 64, 2)  # the second bit (e & 1) of every system


class CertificateRefused(ValueError):
    """The symbols and target do not support an exclusion certificate."""


def _systems(obj: FinObject) -> int:
    if obj.factors.count(4) != len(obj.factors):
        raise ValueError(f"{obj} is not a product of IV")
    return obj.arity


def _swap_halves(u: int) -> int:
    """Swap the two bits of every system of u."""
    return (u >> 1 & _LOW_BITS) | (u & _LOW_BITS) << 1


def symplectic_form(u: int, v: int) -> int:
    """omega(u, v) for two flat vectors of F2^(2n), summed over systems."""
    return (_swap_halves(u) & v).bit_count() & 1


@lru_cache(maxsize=1 << 16)
def _differences(mask: int) -> int:
    """The set {v ^ v0 : v in mask}, v0 the least element, as a bitmask.

    A set of vectors is given as a bitmask: bit v is set iff v is in it.
    """
    low = (mask & -mask).bit_length() - 1
    diffs = 0
    while mask:
        b = mask & -mask
        diffs |= 1 << ((b.bit_length() - 1) ^ low)
        mask ^= b
    return diffs


@lru_cache(maxsize=1 << 12)
def _affine_set(mask: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """(basis, points) if the vectors in `mask` form an affine set, else None.

    `mask` is nonempty. The points are listed in doubling order: starting
    from [least point], each basis vector v appends [p ^ v for p in the
    list so far], so point 2^t is the least point plus basis vector t.
    """
    low = (mask & -mask).bit_length() - 1
    basis: list[int] = []
    points = [low]
    covered = 1 << low
    while mask != covered:
        rest = mask & ~covered
        v = ((rest & -rest).bit_length() - 1) ^ low
        grown = [p ^ v for p in points]
        for p in grown:
            if not mask >> p & 1:
                return None
            covered |= 1 << p
        basis.append(v)
        points += grown
    return tuple(basis), tuple(points)


@lru_cache(maxsize=1 << 12)
def _occupied_set(occupancy: bytes) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """`_affine_set` of the indices i with occupancy[i] nonzero."""
    return _affine_set(sum(1 << i for i, on in enumerate(occupancy) if on))


def lagrangian_defect(rel: Relation) -> str | None:
    """None if `rel` is empty or affine Lagrangian, else why it is not.

    Raises ValueError if a factor of the domain or codomain is not IV.

    The graph is checked row by row, never point by point. Row i holds
    the points (j, i). A graph a + L is affine iff its nonempty rows are
    cosets of one linear kernel K = {u : (u, 0) in L}, its nonempty row
    indices form an affine set, and the greatest element of row i is an
    affine function of i on that set (the greatest element of a coset of
    K is an affine function of the coset).
    """
    k = _systems(rel.cod)
    n = _systems(rel.dom) + k
    shift = 2 * k
    rows = rel.rows
    count = sum(map(int.bit_count, rows))
    if not count:
        return None
    if count != 1 << n:
        return f"{count} points; an affine Lagrangian graph on {n} systems has {1 << n}"
    not_affine = f"{count} points on {n} systems do not form an affine subspace"
    # With one point per nonempty row, K = {0}.
    if count == len(rows) - rows.count(0):
        kernels = {1}
    else:
        kernels = set(map(_differences, filter(None, rows)))
    if len(kernels) != 1:
        return not_affine
    kernel = _affine_set(kernels.pop())
    index = _occupied_set(bytes(map(bool, rows)))
    if kernel is None or index is None:
        return not_affine
    kernel_basis, _ = kernel
    index_basis, positions = index
    # The greatest elements of the rows, in doubling order, must be what an
    # affine map predicts from the rows at the least index plus each basis
    # vector.
    highs = [rows[i].bit_length() - 1 for i in positions]
    base = highs[0]
    steps = [highs[1 << t] ^ base for t in range(len(index_basis))]
    predicted = [base]
    for step in steps:
        predicted += [p ^ step for p in predicted]
    if predicted != highs:
        return not_affine
    basis = [v << shift for v in kernel_basis]
    basis += [step << shift | e for step, e in zip(steps, index_basis)]
    swapped = [_swap_halves(u) for u in basis]
    if any((ju & v).bit_count() & 1 for idx, ju in enumerate(swapped) for v in basis[idx + 1:]):
        return f"affine subspace of dimension {n} on {n} systems is not isotropic"
    return None


def is_affine_lagrangian(rel: Relation) -> bool:
    """True iff `rel` (between products of IV) is empty or affine Lagrangian."""
    return lagrangian_defect(rel) is None


def affine_lagrangian_count(systems: int) -> int:
    """Nonempty affine Lagrangian subsets of F2^(2n): 2^n * prod (2^i + 1)."""
    count = 1 << systems
    for i in range(1, systems + 1):
        count *= (1 << i) + 1
    return count


@dataclass(frozen=True)
class ExclusionCertificate:
    """`target` lies outside the closure of `symbols`.

    Every symbol is empty or affine Lagrangian, the class is closed under
    compose, tensor and converse, and `defect` is the target's failing
    property, so no word over the symbols evaluates to the target.
    """

    target: Relation
    symbols: tuple[tuple[str, Relation], ...]  # sorted by name
    defect: str

    @property
    def checked(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.symbols)

    def check(self) -> bool:
        """Re-derive the certificate from its relations."""
        try:
            return exclusion_certificate(dict(self.symbols), self.target) == self
        except CertificateRefused:
            return False

    def summary(self) -> str:
        return (
            f"{len(self.symbols)} symbols empty or affine Lagrangian over F2; "
            f"target: {self.defect}"
        )


def exclusion_certificate(
    symbols: Mapping[str, Relation], target: Relation
) -> ExclusionCertificate:
    """Certify that no word over `symbols` evaluates to `target`.

    Raises CertificateRefused when a symbol or the target has a factor
    other than IV, when a symbol is outside the class, or when the target
    is inside it (the invariant then says nothing about it).
    """
    for name in sorted(symbols):
        rel = symbols[name]
        try:
            defect = lagrangian_defect(rel)
        except ValueError as exc:
            raise CertificateRefused(f"symbol {name!r}: {exc}") from None
        if defect is not None:
            raise CertificateRefused(f"symbol {name!r} is outside the class: {defect}")
    try:
        defect = lagrangian_defect(target)
    except ValueError as exc:
        raise CertificateRefused(f"target: {exc}") from None
    if defect is None:
        raise CertificateRefused("target is empty or affine Lagrangian")
    return ExclusionCertificate(
        target, tuple((name, symbols[name]) for name in sorted(symbols)), defect
    )
