"""The concrete named models: the relational qubit on II and Spek on IV.

Spek's three observables are one basis structure, (delta_Z, eps_Z), moved
by the 24 permutations: each sigma gives the conjugate
((sigma x sigma) o delta_Z o sigma^, eps_Z o sigma^). In Rel a basis
structure's counit is fixed by its comultiplication, so the 12 distinct
comultiplications are 12 structures, and their classical points split
them into the families Y, X and Z of four each. The qubit's X' is the
conjugate of X by the flip in the same way. Identities and swaps are the
closure's structural seeds (`relcore.structural_seeds`).

The model data is built, not searched: the properties it is meant to have
(states in the orbit of x0, three families of four verified members, the
counits the unbiased daggers) are checked by `toycat suite` and the tests.

Module data is 0-indexed internally; display follows the usual convention
of labelling the four-element set 1..4 and the two-element set 0..1.
Comments give the 1-based form for the four-element listings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .basis import BasisStructure, eta as basis_eta
from .relcore import (
    FinObject,
    Relation,
    UNIT,
    all_permutations,
    compose,
    dagger,
    element_labels,
    identity,
    perm_relation,
    structural_seeds,
    tensor,
)

__all__ = [
    "II",
    "IV",
    "NamedState",
    "Observable",
    "Model",
    "all_permutations",
    "perm_relation",
    "perm_name",
    "conjugate_delta",
    "conjugate",
    "frel_qubit",
    "spek_generators",
    "spek_states",
    "spek_observables",
    "observable_orbit",
    "spek",
    "ghz",
    "ghz_invariance",
    "bloch_table",
    "get_model",
]

II = FinObject(2)
IV = FinObject(4)


@dataclass(frozen=True)
class NamedState:
    name: str
    state: Relation


@dataclass(frozen=True)
class Observable:
    """A family of basis structures sharing the same classical points."""

    label: str
    family: tuple[BasisStructure, ...]
    classical_points: tuple[Relation, ...]
    representative: BasisStructure


@dataclass(frozen=True)
class Model:
    """A named model: its object, verified structures, states, and term symbols."""

    name: str
    obj: FinObject
    structures: dict[str, BasisStructure]
    states: dict[str, Relation]
    symbols: dict[str, Relation]
    observables: dict[str, Observable]


# -- permutation names ---------------------------------------------------------

def perm_image(rel: Relation) -> list[int]:
    img = [-1] * rel.dom.cardinality
    for j, i in rel.pairs:
        img[j] = i
    return img


def perm_name(rel: Relation) -> str:
    """Cycle-notation name, e.g. sigma_23 or sigma_12_34; identity is id_<obj>."""
    image = perm_image(rel)
    labels = element_labels(rel.dom)
    seen = [False] * len(image)
    cycles = []
    for start in range(len(image)):
        if seen[start] or image[start] == start:
            seen[start] = True
            continue
        cyc = []
        k = start
        while not seen[k]:
            seen[k] = True
            cyc.append(k)
            k = image[k]
        cycles.append(cyc)
    if not cycles:
        return f"id_{rel.dom.name}"
    return "sigma_" + "_".join("".join(labels[k] for k in cyc) for cyc in cycles)


def named_permutations(obj: FinObject) -> dict[str, Relation]:
    return {perm_name(p): p for p in all_permutations(obj)}


def conjugate_delta(delta: Relation, sigma: Relation) -> Relation:
    """(sigma x sigma) o delta o sigma-inverse."""
    return compose(tensor(sigma, sigma), compose(delta, dagger(sigma)))


def conjugate(b: BasisStructure, sigma: Relation, name: str = "") -> BasisStructure:
    """The structure moved by sigma: conjugate delta, counit epsilon o sigma-inverse."""
    return BasisStructure(
        b.obj, conjugate_delta(b.delta, sigma), compose(b.epsilon, dagger(sigma)), name
    )


# -- the relational qubit on II --------------------------------------------------

def _state(obj: FinObject, members: list[int]) -> Relation:
    return Relation.from_pairs(UNIT, obj, [(0, m) for m in members])


@lru_cache(maxsize=None)
def frel_qubit() -> Model:
    """The two-element-set model: structures Z, X and the exchanged variant X'.

    Its observables are Z = {Z} and X = {X, X'}; X' is X conjugated by the flip.
    """
    flat = lambda a, b: a * 2 + b

    delta_z = Relation.from_pairs(
        II, II * II, [(0, flat(0, 0)), (1, flat(1, 1))]
    )
    eps_z = Relation.from_pairs(II, UNIT, [(0, 0), (1, 0)])
    delta_x = Relation.from_pairs(
        II, II * II, [(0, flat(0, 0)), (0, flat(1, 1)), (1, flat(0, 1)), (1, flat(1, 0))]
    )
    eps_x = Relation.from_pairs(II, UNIT, [(0, 0)])

    Z = BasisStructure(II, delta_z, eps_z, name="Z")
    X = BasisStructure(II, delta_x, eps_x, name="X")
    flip = perm_relation(II, [1, 0])
    Xp = conjugate(X, flip, name="X'")

    states = {"z0": _state(II, [0]), "z1": _state(II, [1]), "x0": _state(II, [0, 1])}

    symbols: dict[str, Relation] = {
        "delta_Z": delta_z,
        "eps_Z": eps_z,
        "delta_X": delta_x,
        "eps_X": eps_x,
        "delta_Xp": Xp.delta,
        "eps_Xp": Xp.epsilon,
        **states,
        **{name: make() for name, make in structural_seeds(II.factors, 2)},
        "sigma_01": flip,
        "eta": basis_eta(Z),
        "eta_Z": basis_eta(Z),
        "eta_X": basis_eta(X),
        "eta_Xp": basis_eta(Xp),
    }
    return Model(
        name="frel-qubit",
        obj=II,
        structures={"Z": Z, "X": X, "X'": Xp},
        states=states,
        symbols=symbols,
        observables={
            "Z": Observable("Z", (Z,), Z.points.classical, Z),
            "X": Observable("X", (X, Xp), X.points.classical, X),
        },
    )


# -- Spek generators, states, observables ------------------------------------------

@lru_cache(maxsize=None)
def spek_generators() -> tuple[tuple[Relation, ...], Relation, Relation]:
    """The 24 permutations, the copying relation delta_Z, the deleting eps_Z.

    1-based listing of delta_Z: 1~{(1,1),(2,2)}, 2~{(1,2),(2,1)},
    3~{(3,3),(4,4)}, 4~{(3,4),(4,3)}; eps_Z deletes {1,3}.
    """
    flat = lambda a, b: a * 4 + b
    delta_z = Relation.from_pairs(
        IV,
        IV * IV,
        [
            (0, flat(0, 0)), (0, flat(1, 1)),
            (1, flat(0, 1)), (1, flat(1, 0)),
            (2, flat(2, 2)), (2, flat(3, 3)),
            (3, flat(2, 3)), (3, flat(3, 2)),
        ],
    )
    eps_z = Relation.from_pairs(IV, UNIT, [(0, 0), (2, 0)])
    return all_permutations(IV), delta_z, eps_z


_SPEK_STATE_MEMBERS = {
    # 1-based: z0~{1,2} z1~{3,4} x0~{1,3} x1~{2,4} y0~{1,4} y1~{2,3}
    "z0": [0, 1],
    "z1": [2, 3],
    "x0": [0, 2],
    "x1": [1, 3],
    "y0": [0, 3],
    "y1": [1, 2],
}


@lru_cache(maxsize=None)
def spek_states() -> tuple[NamedState, ...]:
    """The six single-system states; each is a permutation image of x0."""
    return tuple(
        NamedState(name, _state(IV, members)) for name, members in _SPEK_STATE_MEMBERS.items()
    )


@lru_cache(maxsize=None)
def spek_observables() -> dict[str, Observable]:
    """The observables Y, X, Z: the conjugates of (delta_Z, eps_Z), grouped by classical points.

    Conjugates are deduplicated by delta and ordered by delta key; a family
    is labelled from its classical states (z0, z1 give Z) and its members
    are named L[u^] after their counit dagger u. Families come in the order
    of their first members. The representatives are delta_Z and its
    conjugates by sigma(23) (delta_X) and sigma(24) (delta_Y).
    """
    perms, delta_z, eps_z = spek_generators()
    Z = BasisStructure(IV, delta_z, eps_z)
    conjugates: dict[tuple, BasisStructure] = {}
    for sigma in perms:
        b = conjugate(Z, sigma)
        conjugates.setdefault(b.delta.key, b)
    families: dict[tuple[Relation, ...], list[BasisStructure]] = {}
    for key in sorted(conjugates):
        b = conjugates[key]
        families.setdefault(b.points.classical, []).append(b)

    state_name = {ns.state: ns.name for ns in spek_states()}
    named = named_permutations(IV)
    representatives = {
        "Z": delta_z,
        "X": conjugate_delta(delta_z, named["sigma_23"]),
        "Y": conjugate_delta(delta_z, named["sigma_24"]),
    }
    out: dict[str, Observable] = {}
    for points, members in families.items():
        label = state_name[points[0]][0].upper()
        family = tuple(
            BasisStructure(IV, b.delta, b.epsilon, f"{label}[{state_name[dagger(b.epsilon)]}^]")
            for b in members
        )
        rep = next(m for m in family if m.delta == representatives[label])
        out[label] = Observable(label, family, points, rep)
    return out


@lru_cache(maxsize=None)
def observable_orbit() -> dict[tuple[Relation, ...], tuple[Relation, ...]]:
    """{classical-point set -> the family's comultiplications}, in family order."""
    return {
        ob.classical_points: tuple(m.delta for m in ob.family)
        for ob in spek_observables().values()
    }


@lru_cache(maxsize=None)
def spek() -> Model:
    """The Spek model: generators, six states, observables, term symbols."""
    obs = spek_observables()
    states = {ns.name: ns.state for ns in spek_states()}

    symbols: dict[str, Relation] = {}
    for label, ob in obs.items():
        symbols[f"delta_{label}"] = ob.representative.delta
        symbols[f"eps_{label}"] = ob.representative.epsilon
        symbols[f"eta_{label}"] = basis_eta(ob.representative)
    symbols.update(states)
    symbols["eta"] = symbols["eta_Z"]
    symbols.update((name, make()) for name, make in structural_seeds(IV.factors, 3))
    for name, p in named_permutations(IV).items():
        if name != "id_IV":
            symbols[name] = p

    return Model(
        name="spek",
        obj=IV,
        structures={label: ob.representative for label, ob in obs.items()},
        states=states,
        symbols=symbols,
        observables=obs,
    )


def ghz() -> Relation:
    """The three-system state (delta_Z x 1) o eta."""
    _, delta_z, eps_z = spek_generators()
    eta_iv = compose(delta_z, dagger(eps_z))
    return compose(tensor(delta_z, identity(IV)), eta_iv)


def ghz_invariance() -> tuple[str, ...]:
    """Names of the permutations sigma with (sigma x sigma x sigma) o ghz = ghz."""
    g = ghz()
    out = []
    for p in all_permutations(IV):
        if compose(tensor(p, tensor(p, p)), g) == g:
            out.append(perm_name(p))
    return tuple(out)


# -- Bloch-style table ------------------------------------------------------------

_AXES = {"z0": "Z+", "z1": "Z-", "x0": "X+", "x1": "X-", "y0": "Y+", "y1": "Y-"}


def bloch_table(model: Model) -> list[dict]:
    """Rows (state, axis, classical-for, unbiased-for) for a model.

    Each observable contributes its two directions, tested against its
    representative's point classes (the qubit's X' classifies identically
    to X); unbiased includes the overlap, as in `check_complementary`. A
    direction with no state, the qubit's X-, gets an explicit absent row.
    """
    axes = {label: ob.representative.points for label, ob in model.observables.items()}
    rows = []
    for name, axis in _AXES.items():
        if axis[0] not in axes:
            continue
        st = model.states.get(name)
        tested = [] if st is None else sorted(axes)
        rows.append(
            {
                "state": None if st is None else name,
                "axis": axis,
                "classical_for": [a for a in tested if st in axes[a].classical],
                "unbiased_for": [
                    a for a in tested if st in axes[a].unbiased or st in axes[a].overlap
                ],
                "absent": st is None,
            }
        )
    return rows


def get_model(name: str) -> Model:
    key = name.replace("_", "-").lower()
    if key in ("frel-qubit", "qubit"):
        return frel_qubit()
    if key == "spek":
        return spek()
    raise KeyError(f"unknown model {name!r} (expected 'spek' or 'frel-qubit')")
