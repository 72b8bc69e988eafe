"""Spans around the toycat modules' public functions, for the traced run.

The wrappers live here, outside the package.  A wrapper is installed on
every module attribute that holds the original function, because a caller
resolves the name in its own module: ``toycat.closure.compose`` is a
different binding from ``toycat.relcore.compose``.  ``Relation.key`` is a
property and is wrapped on the class.

A span is a row (name, parent, start, end) in arrays kept in memory; the
rows are written to a file when the run ends.  A span's self time is its
duration minus the time its direct children cover.  The four relcore
primitives are split by the larger arity of the objects they touch
(``.a1``, ``.a2``, ``.a3``; scalars count as a1, four or more factors as
a3), and compose and tensor also count the set bits they scan
(``.row_ors``), an exact operation count.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array
from pathlib import Path

PRIMITIVES = ("compose", "tensor", "dagger", "key")
ARITIES = ("a1", "a2", "a3")

# Functions traced as plain spans, by module.
FUNCTIONS = {
    "closure": ("generate_closure", "store_to_json", "store_to_json_str",
                "store_from_json", "contains", "census", "state_census"),
    "terms": ("parse_term", "eval_term"),
    "basis": ("verify_basis_structure", "enumerate_points", "check_complementary", "check_hopf"),
    "protocols": ("phase_unitaries", "find_branch_unitaries",
                  "check_teleportation", "check_dense_coding"),
    "suite": ("qubit_checks", "spek_checks", "closure_checks"),
    "cli": ("main",),
}


def _arity_index(arity: int) -> int:
    return min(max(arity, 1), 3) - 1


def _popcount(rows) -> int:
    return sum(r.bit_count() for r in rows)


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._open: list[list[int]] = []  # [span index, ns covered by children]
        self.totals: dict[int, list[int]] = {}  # name id -> [calls, self ns]
        self.counts: dict[str, int] = {}
        self._installed: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.totals[nid] = [0, 0]
        return nid

    def _enter(self, nid: int) -> list[int]:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._open[-1][0] if self._open else -1)
        self.span_end.append(0)
        frame = [idx, 0]
        self._open.append(frame)
        self.span_start.append(time.perf_counter_ns())
        return frame

    def _exit(self, nid: int, frame: list[int]) -> None:
        end = time.perf_counter_ns()
        idx = frame[0]
        self.span_end[idx] = end
        self._open.pop()
        duration = end - self.span_start[idx]
        if self._open:
            self._open[-1][1] += duration
        total = self.totals[nid]
        total[0] += 1
        total[1] += duration - frame[1]

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span named `name`."""
        nid = self.name_id(name)
        frame = self._enter(nid)
        try:
            yield
        finally:
            self._exit(nid, frame)

    def reset_totals(self) -> None:
        """Start the per-name totals and counters afresh; recorded spans stay."""
        for total in self.totals.values():
            total[0] = total[1] = 0
        self.counts.clear()

    def _count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- wrappers --------------------------------------------------------------

    def _plain(self, label: str, fn):
        nid = self.name_id(label)

        def wrapper(*args, **kwargs):
            frame = self._enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(nid, frame)

        return wrapper

    def _primitive(self, label: str, fn, arity, row_ors=None):
        """Wrap a relcore primitive: span split by arity, optional bit count.

        compose and tensor calls made directly by generate_closure are also
        counted as closure candidates (`closure.pairs`).
        """
        nids = [self.name_id(f"{label}.{a}") for a in ARITIES]
        build = self.name_id("closure.generate_closure")
        counts_pairs = row_ors is not None

        def wrapper(*args):
            nid = nids[_arity_index(arity(*args))]
            if row_ors is not None:
                self._count(f"{label}.row_ors", row_ors(*args))
            if counts_pairs and self._open and self.span_name[self._open[-1][0]] == build:
                self._count("closure.pairs", 1)
            frame = self._enter(nid)
            try:
                return fn(*args)
            finally:
                self._exit(nid, frame)

        return wrapper

    def install(self) -> None:
        """Install every wrapper on every toycat module that binds the original."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "toycat" or n.startswith("toycat.")]
        relcore = sys.modules["toycat.relcore"]
        wrappers = {
            relcore.compose: self._primitive(
                "relcore.compose", relcore.compose,
                lambda g, f: max(f.dom.arity, f.cod.arity, g.cod.arity),
                lambda g, f: _popcount(g.rows),
            ),
            relcore.tensor: self._primitive(
                "relcore.tensor", relcore.tensor,
                lambda f, g: max(f.dom.arity + g.dom.arity, f.cod.arity + g.cod.arity),
                lambda f, g: _popcount(f.rows) * len(g.rows),
            ),
            relcore.dagger: self._primitive(
                "relcore.dagger", relcore.dagger, lambda f: max(f.dom.arity, f.cod.arity)
            ),
        }
        for module_name, functions in FUNCTIONS.items():
            module = sys.modules[f"toycat.{module_name}"]
            for fn_name in functions:
                fn = getattr(module, fn_name)
                wrappers[fn] = self._plain(f"{module_name}.{fn_name}", fn)
        by_id = {id(fn): wrapper for fn, wrapper in wrappers.items()}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in by_id:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, by_id[id(value)])

        key = relcore.Relation.key
        key_fn = self._primitive(
            "relcore.key", key.fget, lambda r: max(r.dom.arity, r.cod.arity)
        )
        self._installed.append((relcore.Relation, "key", key))
        relcore.Relation.key = property(key_fn, doc=key.__doc__)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results ---------------------------------------------------------------

    def per_name(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name since the last reset."""
        return {
            self.names[nid]: (calls, ns / 1e9)
            for nid, (calls, ns) in self.totals.items()
        }

    def write(self, path: Path) -> None:
        """Write the recorded spans: a JSON header line, then the raw arrays.

        The arrays follow the header in the order of its "fields", each
        `count` items of the given typecode in native byte order.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = [self.span_name, self.span_parent, self.span_start, self.span_end]
        header = {
            "fields": ["name", "parent", "start_ns", "end_ns"],
            "typecodes": [c.typecode for c in columns],
            "byteorder": sys.byteorder,
            "count": len(self.span_start),
            "names": self.names,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in columns:
                column.tofile(fh)
