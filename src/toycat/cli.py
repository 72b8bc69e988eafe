"""Command-line surface.

Subcommands: verify, points, complementary, hopf, close, contains, census,
protocol (teleport | densecode), eval, assert, bloch, suite, dump.

Reports are JSON by default (`--text` switches to aligned tables where one
exists). Exit codes: 0 pass, 1 check failure, 2 usage or type error.
Output is byte-stable across runs for identical inputs and flags. The
closure flags of `close` take their defaults from `ClosureConfig`; `suite
spek` builds the cap-3, round-4 store unless `--store` names another.
"""

from __future__ import annotations

import argparse
import json
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


def _emit(data, text: str | None, as_text: bool) -> None:
    if as_text and text is not None:
        print(text)
    else:
        print(json.dumps(data, sort_keys=True, indent=2))


def _model(name: str) -> M.Model:
    try:
        return M.get_model(name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from exc


def _structure(model: M.Model, label: str):
    if label not in model.structures:
        print(
            f"error: model {model.name} has structures {sorted(model.structures)}",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_USAGE)
    return model.structures[label]


def _state_names(model: M.Model, rels) -> list[str]:
    lookup = {rel: name for name, rel in model.states.items()}
    return sorted(lookup.get(r) or format_relation(r) for r in rels)


def cmd_verify(args) -> int:
    model = _model(args.model)
    labels = [args.structure] if args.structure else sorted(model.structures)
    report = []
    ok = True
    lines = []
    for label in labels:
        s = _structure(model, label)
        laws = [r.to_json() for r in s.verified]
        ok = ok and s.all_laws_hold
        report.append({"structure": label, "holds": s.all_laws_hold, "laws": laws})
        status = "ok" if s.all_laws_hold else "FAILED"
        lines.append(f"{label:3} {status}  " + " ".join(
            f"{r['law']}={'y' if r['holds'] else 'N'}" for r in laws
        ))
    _emit(report, "\n".join(lines), args.text)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_points(args) -> int:
    model = _model(args.model)
    s = _structure(model, args.structure)
    rep = enumerate_points(s)
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
    _emit(data, text, args.text)
    return EXIT_OK


def cmd_complementary(args) -> int:
    model = _model(args.model)
    a = _structure(model, args.a)
    b = _structure(model, args.b)
    rep = check_complementary(a, b)
    _emit(rep.to_json(), f"complementary: {rep.holds}", args.text)
    return EXIT_OK if rep.holds else EXIT_CHECK_FAILED


def cmd_hopf(args) -> int:
    model = _model(args.model)
    a = _structure(model, args.a)
    b = _structure(model, args.b)
    rep = check_hopf(a, b)
    _emit(rep.to_json(), f"hopf: {rep.holds}", args.text)
    return EXIT_OK if rep.holds else EXIT_CHECK_FAILED


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


def cmd_close(args) -> int:
    gens = _closure_generators(args)
    config = ClosureConfig(
        max_arity=args.max_arity,
        max_morphisms=args.max_morphisms,
        max_rounds=args.max_rounds,
    )
    store = generate_closure(gens, config)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(store_to_json_str(store))
        summary = {
            "out": args.out,
            "morphisms": len(store),
            "fixpoint": store.fixpoint,
            "rounds_run": store.rounds_run,
        }
        _emit(summary, None, False)
    else:
        sys.stdout.write(store_to_json_str(store))
    return EXIT_OK


def cmd_contains(args) -> int:
    store = load_store(args.store)
    if args.rel:
        with open(args.rel) as fh:
            rel = relation_from_json(json.load(fh))
    else:
        model = _model(args.model or "spek")
        rel = eval_term(parse_term(args.term), model.symbols)
    result = contains(store, rel)
    data = {"contains": result.status}
    if result.word:
        data["witness"] = result.word
    _emit(data, f"{result.status}" + (f"  {result.word}" if result.word else ""), args.text)
    return EXIT_OK if result.status == "yes" else EXIT_CHECK_FAILED


def cmd_census(args) -> int:
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
        _emit(data, text, args.text)
        return EXIT_OK
    rows = census(store)
    data = {"fixpoint": store.fixpoint, "total": len(store), "shapes": rows}
    lines = [f"total {len(store)} (fixpoint={store.fixpoint})"]
    for r in rows:
        dom = FinObject(*r["dom"]).name
        cod = FinObject(*r["cod"]).name
        lines.append(f"  {dom:>10} -> {cod:<10} {r['count']}")
    _emit(data, "\n".join(lines), args.text)
    return EXIT_OK


def _protocol_pool(model: M.Model, which: str):
    if which == "perms":
        return list(all_unitary_permutations(model.obj))
    return phase_pool(model.structures["Z"], model.structures["X"])


def cmd_protocol(args) -> int:
    model = _model(args.model)
    eta = basis_eta(model.structures["Z"])
    pool = _protocol_pool(model, args.pool)
    found = find_branch_unitaries(eta, pool)
    if not found.ok:
        _emit(
            {"ok": False, "coverage": found.coverage, "total": found.total},
            f"no branch system: coverage {found.coverage} of {found.total}",
            args.text,
        )
        return EXIT_CHECK_FAILED
    if args.what == "teleport":
        cert = check_teleportation(eta, found.unitaries)
        text = f"valid={cert.valid} branches={len(cert.branches)}"
        _emit(cert.to_json(), text, args.text)
        return EXIT_OK if cert.valid else EXIT_CHECK_FAILED
    result = check_dense_coding(eta, found.unitaries)
    text = "\n".join(" ".join(f"{kind:8}" for kind in row) for row in result.table)
    _emit(result.to_json(), text, args.text)
    return EXIT_OK if result.ok else EXIT_CHECK_FAILED


def cmd_eval(args) -> int:
    model = _model(args.model)
    rel = eval_term(parse_term(args.term), model.symbols)
    _emit(relation_to_json(rel), format_relation(rel), args.text)
    return EXIT_OK


def cmd_assert(args) -> int:
    model = _model(args.model)
    verdict = assert_equal(args.lhs, args.rhs, model.symbols)
    text = "equal" if verdict.equal else f"unequal at {verdict.witness}"
    _emit(verdict.to_json(), text, args.text)
    return EXIT_OK if verdict.equal else EXIT_CHECK_FAILED


def cmd_bloch(args) -> int:
    model = _model(args.model)
    rows = M.bloch_table(model)
    lines = []
    for r in rows:
        if r["absent"]:
            lines.append(f"{r['axis']:3} (no relational counterpart)")
        else:
            lines.append(
                f"{r['axis']:3} {r['state']:3} classical for {','.join(r['classical_for'])}"
                f" / unbiased for {','.join(r['unbiased_for'])}"
            )
    _emit(rows, "\n".join(lines), args.text)
    return EXIT_OK


def cmd_suite(args) -> int:
    # only the Spek battery reads the store
    spek_store = args.store and args.name in ("spek", "all")
    store = load_store(args.store) if spek_store else None
    code, report = run_suite(args.name, store=store)
    if args.text:
        for chk in report["checks"]:
            mark = "PASS" if chk["passed"] else "FAIL"
            detail = f"  ({chk['detail']})" if chk["detail"] else ""
            print(f"{mark} {chk['name']}{detail}")
        print(f"{report['total'] - report['failures']}/{report['total']} checks passed")
    else:
        print(json.dumps(report, sort_keys=True, indent=2))
    return code


def cmd_dump(args) -> int:
    model = _model(args.model)
    if args.format == "text":
        for name in sorted(model.symbols):
            print(f"{name:16} {format_relation(model.symbols[name])}")
    else:
        data = {name: relation_to_json(rel) for name, rel in sorted(model.symbols.items())}
        print(json.dumps(data, sort_keys=True, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toycat",
        description="verification engine for toy categorical quantum mechanics over finite relations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--text", action="store_true", help="human-readable output")
        return p

    p = add("verify", cmd_verify, help="check the basis-structure laws of a model")
    p.add_argument("--model", default="spek")
    p.add_argument("--structure")

    p = add("points", cmd_points, help="classify all states of a structure")
    p.add_argument("--model", default="spek")
    p.add_argument("--structure", required=True)

    p = add("complementary", cmd_complementary, help="definitional complementarity check")
    p.add_argument("--model", default="spek")
    p.add_argument("a")
    p.add_argument("b")

    p = add("hopf", cmd_hopf, help="bialgebra/antipode complementarity check")
    p.add_argument("--model", default="spek")
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
        help="word-length bound; unbounded runs on the standard generators "
        "exceed desk scale at arity 2 and above",
    )
    p.add_argument("--out")

    p = add("contains", cmd_contains, help="membership query against a store")
    p.add_argument("--store", required=True)
    query = p.add_mutually_exclusive_group(required=True)
    query.add_argument("--rel", help="relation JSON file")
    query.add_argument("--term", help="term to evaluate instead of a file")
    p.add_argument("--model", help="model for --term resolution")

    p = add("census", cmd_census, help="per-shape counts or state census of a store")
    p.add_argument("--store", required=True)
    p.add_argument("--object", help="object like IV or IVxIV for a state census")

    p = add("protocol", cmd_protocol, help="teleportation / dense coding certificates")
    p.add_argument("what", choices=["teleport", "densecode"])
    p.add_argument("--model", default="spek")
    p.add_argument("--pool", choices=["phases", "perms"], default="phases")

    p = add("eval", cmd_eval, help="evaluate a term against a model")
    p.add_argument("term")
    p.add_argument("--model", default="spek")

    p = add("assert", cmd_assert, help="assert two terms are equal")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--model", default="spek")

    p = add("bloch", cmd_bloch, help="Bloch-direction table of a model")
    p.add_argument("--model", default="spek")

    p = add("suite", cmd_suite, help="run a verification battery")
    p.add_argument("name", choices=["qubit", "spek", "all"])
    p.add_argument("--store", help="use a prebuilt store for the closure checks")

    p = add("dump", cmd_dump, help="emit all named relations of a model")
    p.add_argument("--model", default="spek")
    p.add_argument("--format", choices=["json", "text"], default="json")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (TypeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
