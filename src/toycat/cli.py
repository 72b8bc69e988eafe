"""Command-line surface.

Subcommands: verify, points, complementary, hopf, close, contains, census,
protocol (teleport | densecode), eval, assert, bloch, suite, dump.

Each `cmd_*` returns `(report, text form or None, passed)`. `main` alone
prints it (JSON, or the text form under `--text`) and picks the exit code:
0 pass, 1 check failure, 2 usage, input or output error (a bad argument,
term, relation or store file, or a stdout closed by its reader). Commands
that read a model take `--model`, default `spek`, resolved once in `main`.
Output is byte-stable for identical inputs and flags. `close` takes its
defaults from `ClosureConfig`; `suite spek` builds the cap-3, round-4
store unless `--store` names another.

The parser is built on the first `main` call and reused by every later one
in the process; each call parses into a fresh namespace, and nothing
changes the parser after it is built.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import models as M
from .basis import (
    check_complementary,
    check_hopf,
    enumerate_points,
    eta as basis_eta,
)
from .closure import (
    ClosureConfig,
    census,
    contains,
    generate_closure,
    load_store,
    state_census,
    store_json_chunks,
    store_to_json_str,
)
from .protocols import (
    all_unitary_permutations,
    check_dense_coding,
    check_teleportation,
    find_branch_unitaries,
    phase_pool,
)
from .relcore import (
    FinObject,
    Relation,
    format_relation,
    relation_from_json,
    relation_to_json,
)
from .suite import run_suite, spek_generator_symbols
from .terms import assert_equal, eval_term, parse_term

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _model(name: str) -> M.Model:
    try:
        return M.get_model(name)
    except KeyError as exc:  # reported as its message, not as a quoted key
        raise ValueError(exc.args[0]) from None


def _structure(model: M.Model, label: str):
    if label not in model.structures:
        raise ValueError(f"model {model.name} has structures {sorted(model.structures)}")
    return model.structures[label]


def _state_names(model: M.Model, rels) -> list[str]:
    lookup = {rel: name for name, rel in model.states.items()}
    return sorted(lookup.get(r) or format_relation(r) for r in rels)


def cmd_verify(args):
    model = args.model
    labels = [args.structure] if args.structure else sorted(model.structures)
    report = []
    lines = []
    for label in labels:
        s = _structure(model, label)
        laws = [r.to_json() for r in s.verified]
        report.append({"structure": label, "holds": s.all_laws_hold, "laws": laws})
        status = "ok" if s.all_laws_hold else "FAILED"
        lines.append(f"{label:3} {status}  " + " ".join(
            f"{r['law']}={'y' if r['holds'] else 'N'}" for r in laws
        ))
    return report, "\n".join(lines), all(r["holds"] for r in report)


def cmd_points(args):
    model = args.model
    rep = enumerate_points(_structure(model, args.structure))
    data = {
        "structure": args.structure,
        "classical": _state_names(model, rep.classical),
        "unbiased": _state_names(model, rep.unbiased),
        "other_count": len(rep.other),
        "overlap": _state_names(model, rep.overlap),
    }
    text = (
        f"classical: {', '.join(data['classical'])}\n"
        f"unbiased:  {', '.join(data['unbiased'])}\n"
        f"other:     {data['other_count']} states"
    )
    return data, text, True


def cmd_pair(args):
    """`complementary` and `hopf`: `args.check` is the pair check to run."""
    rep = args.check(_structure(args.model, args.a), _structure(args.model, args.b))
    return rep.to_json(), f"{args.command}: {rep.holds}", rep.holds


def _closure_generators(args) -> dict[str, Relation]:
    if args.generators:
        with open(args.generators) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(
                f"a generator file holds a JSON object, not {type(data).__name__}"
            )
        if "generators" not in data:
            raise ValueError("generator file lacks the field 'generators'")
        gens = data["generators"]
        if not isinstance(gens, dict):
            raise ValueError(
                f"generator file field 'generators' has the wrong type {type(gens).__name__}"
            )
        return {name: relation_from_json(rec) for name, rec in gens.items()}
    return spek_generator_symbols()


def _write_replacing(path: str, chunks) -> None:
    """Write the text `chunks` to a new file beside `path`, then move it over `path`.

    The pieces are written as they come, so the whole text is never held.
    A write that fails (out of memory, a full disk, Ctrl-C) removes the new
    file and leaves an existing `path` as it was, not truncated.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def cmd_close(args):
    gens = _closure_generators(args)
    config = ClosureConfig(
        max_arity=args.max_arity,
        max_morphisms=args.max_morphisms,
        max_rounds=args.max_rounds,
    )
    store = generate_closure(gens, config)
    if not args.out:  # the store string itself is the output, so no report
        sys.stdout.write(store_to_json_str(store))
        return None, None, True
    _write_replacing(args.out, store_json_chunks(store))
    summary = {
        "out": args.out,
        "morphisms": len(store),
        "fixpoint": store.fixpoint,
        "rounds_run": store.rounds_run,
    }
    return summary, None, True


def cmd_contains(args):
    store = load_store(args.store)
    if args.rel:
        with open(args.rel) as fh:
            rel = relation_from_json(json.load(fh))
    else:
        rel = eval_term(parse_term(args.term), args.model.symbols)
    result = contains(store, rel)
    data = {"contains": result.status}
    if result.word:
        data["witness"] = result.word
    text = f"{result.status}" + (f"  {result.word}" if result.word else "")
    return data, text, result.status == "yes"


def cmd_census(args):
    store = load_store(args.store)
    if args.object:
        obj = FinObject.parse(args.object)
        sc = state_census(store, obj)
        data = {
            "object": list(obj.factors),
            "count": sc.count,
            "states": [relation_to_json(e.relation) for e in sc.states],
            "orbits": [
                [relation_to_json(r)["pairs"] for r in orbit] for orbit in sc.orbits
            ],
        }
        text = f"{sc.count} states on {obj}; orbit sizes {[len(o) for o in sc.orbits]}"
        return data, text, True
    rows = census(store)
    data = {"fixpoint": store.fixpoint, "total": len(store), "shapes": rows}
    lines = [f"total {len(store)} (fixpoint={store.fixpoint})"]
    for r in rows:
        dom = FinObject(*r["dom"]).name
        cod = FinObject(*r["cod"]).name
        lines.append(f"  {dom:>10} -> {cod:<10} {r['count']}")
    return data, "\n".join(lines), True


def cmd_protocol(args):
    model = args.model
    eta = basis_eta(model.structures["Z"])
    if args.pool == "perms":
        pool = list(all_unitary_permutations(model.obj))
    else:
        pool = phase_pool(model.structures["Z"], model.structures["X"])
    found = find_branch_unitaries(eta, pool)
    if not found.ok:
        data = {"ok": False, "coverage": found.coverage, "total": found.total}
        return data, f"no branch system: coverage {found.coverage} of {found.total}", False
    if args.what == "teleport":
        cert = check_teleportation(eta, found.unitaries)
        return cert.to_json(), f"valid={cert.valid} branches={len(cert.branches)}", cert.valid
    result = check_dense_coding(eta, found.unitaries)
    text = "\n".join(" ".join(f"{kind:8}" for kind in row) for row in result.table)
    return result.to_json(), text, result.ok


def cmd_eval(args):
    rel = eval_term(parse_term(args.term), args.model.symbols)
    return relation_to_json(rel), format_relation(rel), True


def cmd_assert(args):
    verdict = assert_equal(args.lhs, args.rhs, args.model.symbols)
    text = "equal" if verdict.equal else f"unequal at {verdict.witness}"
    return verdict.to_json(), text, verdict.equal


def cmd_bloch(args):
    rows = M.bloch_table(args.model)
    lines = []
    for r in rows:
        if r["absent"]:
            lines.append(f"{r['axis']:3} (no relational counterpart)")
        else:
            lines.append(
                f"{r['axis']:3} {r['state']:3} classical for {','.join(r['classical_for'])}"
                f" / unbiased for {','.join(r['unbiased_for'])}"
            )
    return rows, "\n".join(lines), True


def cmd_suite(args):
    # only the Spek battery reads the store
    spek_store = args.store and args.name in ("spek", "all")
    _, report = run_suite(args.name, store=load_store(args.store) if spek_store else None)
    lines = [
        f"{'PASS' if chk['passed'] else 'FAIL'} {chk['name']}"
        + (f"  ({chk['detail']})" if chk["detail"] else "")
        for chk in report["checks"]
    ]
    lines.append(f"{report['total'] - report['failures']}/{report['total']} checks passed")
    return report, "\n".join(lines), report["passed"]


def cmd_dump(args):
    symbols = sorted(args.model.symbols.items())
    data = {name: relation_to_json(rel) for name, rel in symbols}
    text = "\n".join(f"{name:16} {format_relation(rel)}" for name, rel in symbols)
    return data, text, True


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toycat",
        description="verification engine for toy categorical quantum mechanics over finite relations",
        epilog="exit codes: 0 pass, 1 check failed, 2 usage, input or output error",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    reads_model = argparse.ArgumentParser(add_help=False)
    reads_model.add_argument(
        "--model", default="spek", help="model to read: spek (default) or frel-qubit"
    )

    def add(name, fn, parents=(), **kwargs):
        p = sub.add_parser(name, parents=list(parents), **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--text", action="store_true",
                       help="human-readable output in place of JSON, where the command has one")
        return p

    p = add("verify", cmd_verify, [reads_model], help="check the basis-structure laws of a model")
    p.add_argument("--structure")

    p = add("points", cmd_points, [reads_model], help="classify all states of a structure")
    p.add_argument("--structure", required=True)

    for name, check, about in (
        ("complementary", check_complementary, "definitional complementarity check"),
        ("hopf", check_hopf, "bialgebra/antipode complementarity check"),
    ):
        p = add(name, cmd_pair, [reads_model], help=about)
        p.set_defaults(check=check)
        p.add_argument("a")
        p.add_argument("b")

    p = add("close", cmd_close, help="generate a compositional closure store")
    p.add_argument("--generators", help="JSON file of named generator relations")
    p.add_argument("--max-arity", type=int, default=ClosureConfig.max_arity)
    p.add_argument("--max-morphisms", type=int, default=ClosureConfig.max_morphisms)
    p.add_argument(
        "--max-rounds",
        type=int,
        default=ClosureConfig.max_rounds,
        help="word-length bound; unbounded, the standard generators reach their "
        "fixpoint in about 30 s at arity 2; at arity 3 it exceeds 9.2e7 morphisms",
    )
    p.add_argument("--out", help="store file to write; without it the store is printed")

    p = add("contains", cmd_contains, [reads_model], help="membership query against a store")
    p.add_argument("--store", required=True)
    query = p.add_mutually_exclusive_group(required=True)
    query.add_argument("--rel", help="relation JSON file")
    query.add_argument("--term", help="term over the model's symbols, in place of a file")

    p = add("census", cmd_census, help="per-shape counts or state census of a store")
    p.add_argument("--store", required=True)
    p.add_argument("--object", help="object like IV or IVxIV for a state census")

    p = add("protocol", cmd_protocol, [reads_model],
            help="teleportation / dense coding certificates")
    p.add_argument("what", choices=["teleport", "densecode"])
    p.add_argument("--pool", choices=["phases", "perms"], default="phases")

    p = add("eval", cmd_eval, [reads_model], help="evaluate a term against a model")
    p.add_argument("term")

    p = add("assert", cmd_assert, [reads_model], help="assert two terms are equal")
    p.add_argument("lhs")
    p.add_argument("rhs")

    add("bloch", cmd_bloch, [reads_model], help="Bloch-direction table of a model")

    p = add("suite", cmd_suite, help="run a verification battery")
    p.add_argument("name", choices=["qubit", "spek", "all"])
    p.add_argument("--store", help="use a prebuilt store for the closure checks")

    add("dump", cmd_dump, [reads_model],
        help="all named relations of a model (--text: one line each)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "model" in args:
            args.model = _model(args.model)
        report, text, passed = args.fn(args)
        if report is not None:
            print(text if args.text and text is not None
                  else json.dumps(report, sort_keys=True, indent=2))
        sys.stdout.flush()
    except (TypeError, ValueError, KeyError, OSError, RecursionError) as exc:
        # RecursionError: a term or JSON file nested deeper than the stack allows
        if isinstance(exc, BrokenPipeError):
            # the reader of stdout has gone: whatever is still buffered goes
            # to devnull, so the interpreter's last flush raises nothing
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # a relation file whose objects are too large to hold, or a store
        # too large to build or write
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
