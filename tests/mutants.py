"""Committed mutation checks: each row's mutant must fail the tests it names.

    python3 tests/mutants.py              # every row
    python3 tests/mutants.py ROW_ID ...   # the rows named

A row holds an id, a file under `src/`, an exact old text, the new text
that replaces it, and the pytest node ids that must fail. For each row the
script copies `src/` to a temporary directory, applies the mutation there
and runs pytest on the named node ids against that copy only. A row is

- killed when every named test fails;
- survived when any named test passes;
- stale when its old text is not found exactly once in its file, or
  pytest cannot run the named tests (a node id that no longer exists).

It prints one line per row and exits 1 on any survivor or stale row, so a
mutant that no longer applies is reported, not skipped. Stdlib only; the
file name keeps pytest from collecting it. A change that claims "this
mutation fails a test" adds its row here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CLOSURE = "toycat/closure.py"
RELCORE = "toycat/relcore.py"
TERMS = "toycat/terms.py"
NOT_CLOSED = "tests/test_closure.py::test_the_closure_certificate_refuses_a_store_that_is_not_closed"
MALFORMED = "tests/test_terms_cli.py::test_cli_contains_names_a_malformed_store"
FIXPOINT_FLAG = "tests/test_closure.py::test_fixpoint_stores_load_and_a_contradicted_flag_is_refused"
BOUNDS = "tests/test_closure.py::test_a_store_its_config_could_not_have_built_is_refused"
WALK_STOPS = "tests/test_closure.py::test_a_walk_stops_at_the_first_image_that_is_not_stored"
HUGE_TERM = "tests/test_terms_cli.py::test_cli_eval_refuses_a_huge_subterm_before_allocating"
TENSOR_KERNEL = "tests/test_relcore.py::test_tensor_kernel_matches_oracle"
COMPOSE_KERNEL = "tests/test_relcore.py::test_run_composer_matches_oracle"
DROP_MASKS = "tests/test_closure.py::test_interchange_drop_masks_match_the_oracle"

# (id, file under src/, old text, new text, node ids that must fail)
ROWS = [
    # the stopping rule: an empty round ends the build only with (a) to (c)
    ("engine-fixpoint-without-certificate", CLOSURE,
     "if not added and not overflow and next(_check_closed(store), None) is None:",
     "if not added and not overflow:",
     ["tests/test_closure.py::test_an_empty_round_before_the_last_growth_does_not_end_the_build"]),
    ("growth-rule-twice-the-last-round", CLOSURE,
     "if store.rounds_run != last + 1:",
     "if store.rounds_run != 2 * last:",
     [FIXPOINT_FLAG,
      "tests/test_closure.py::test_the_closure_certificate_accepts_the_fixpoints"]),
    ("growth-rule-max-rounds-at-rounds-run", CLOSURE,
     "if max_rounds is not None and max_rounds < store.rounds_run:",
     "if max_rounds is not None and max_rounds <= store.rounds_run:",
     [FIXPOINT_FLAG]),
    # (d) over the two stored halves
    ("words-ignore-halves-lengths", CLOSURE,
     "if a.length + b.length != length:",
     "if False:",
     [f"{NOT_CLOSED}[halves-lengths]"]),
    ("words-trust-the-halves", CLOSURE,
     'return (compose if split[1] == ";" else tensor)(a.relation, b.relation)',
     "return entry.relation",
     [f"{NOT_CLOSED}[halves-make-another]",
      "tests/test_closure.py::test_a_fixpoint_store_its_generators_do_not_rebuild_is_refused"]),
    ("words-trust-a-symbol", CLOSURE,
     "return symbols[name] if name == word else dagger(symbols[name])",
     "return entry.relation",
     [f"{NOT_CLOSED}[wrong-word]"]),
    ("words-ignore-the-brackets", CLOSURE,
     'if a is None or b is None or word[0] + word[-1] != "()":',
     "if a is None or b is None:",
     [f"{NOT_CLOSED}[halves-unbracketed]"]),
    ("words-skip-the-meet-check", CLOSURE,
     'if split[1] == ";" and a.relation.dom is not b.relation.cod:',
     "if False:",
     [f"{NOT_CLOSED}[halves-do-not-meet]"]),
    ("words-in-key-order", CLOSURE,
     "sorted(store.items.items(), key=lambda item: item[1].length)",
     "store.items.items()",
     [f"{NOT_CLOSED}[wrong-word]"]),
    ("load-skips-the-identifier-check", CLOSURE,
     'if not _is_identifier(name):\n        raise ValueError(f"store file {where} is not',
     'if False:\n        raise ValueError(f"store file {where} is not',
     ["tests/test_terms_cli.py::test_cli_contains_refuses_a_store_symbol_that_is_not_an_identifier[a b]",
      "tests/test_terms_cli.py::test_cli_contains_refuses_a_store_symbol_that_is_not_an_identifier[f^]"]),
    # (a) to (c), each part dropped in turn
    ("closed-skips-the-seeds", CLOSURE,
     "if symbols.get(name) != rel:",
     "if False:",
     [f"{NOT_CLOSED}[seed]"]),
    ("closed-skips-stored-symbols", CLOSURE,
     "if rel.key not in items:",
     "if False:",
     [f"{NOT_CLOSED}[symbol]"]),
    ("closed-skips-converses", CLOSURE,
     "if dagger(entry.relation).key not in items:",
     "if False:",
     [f"{NOT_CLOSED}[cut]",
      "tests/test_terms_cli.py::test_cli_contains_refuses_a_fixpoint_store_missing_a_record"]),
    # (b) as one walk per orbit: a walk that leaves the store fails, and it
    # stops at the first image that is not stored
    ("closed-skips-the-walk-check", CLOSURE,
     "if len(covered) > len(seen):",
     "if False:",
     [f"{NOT_CLOSED}[orbit-member]", f"{NOT_CLOSED}[round-2]"]),
    ("closed-walks-without-a-stop", CLOSURE,
     "covered |= reachable(moves, [rows], seen)",
     "covered |= reachable(moves, [rows])",
     [WALK_STOPS]),
    ("walk-ignores-within", RELCORE,
     "if within is not None and rows not in within:\n                        return seen",
     "if within is not None and rows not in within:\n                        pass",
     ["tests/test_relcore.py::test_reachable_stops_at_the_first_row_outside_within", WALK_STOPS]),
    # (a) looks a seed's name up before it builds the seed
    ("closed-builds-a-missing-seed", CLOSURE,
     "rel = make() if name in symbols else name",
     "rel = make()",
     ["tests/test_closure.py::test_a_seed_the_symbols_lack_is_refused_unbuilt"]),
    ("closed-skips-composites", CLOSURE,
     "yield from holes((d1, c0), after(columns[d1, c1]),",
     "yield from holes((d1, c0), [],",
     [f"{NOT_CLOSED}[composite]"]),
    ("closed-skips-products", CLOSURE,
     "yield from holes((d0 + d1, c0 + c1), cands,",
     "yield from holes((d0 + d1, c0 + c1), [],",
     [f"{NOT_CLOSED}[product]"]),
    # the bounds of the config hold in every store, not only at a fixpoint
    ("load-checks-bounds-only-at-fixpoint", CLOSURE,
     "gap = next(checks if store.fixpoint else _check_fixpoint(store), None)",
     "gap = next(checks, None) if store.fixpoint else None",
     [f"{BOUNDS}[max-rounds]", f"{BOUNDS}[max-morphisms]"]),
    ("load-skips-max-morphisms", CLOSURE,
     "if store.config.max_morphisms < len(store):",
     "if False:",
     [f"{BOUNDS}[max-morphisms]"]),
    # a term's products and composites get the relation file's size rule
    ("terms-skip-the-product-size", TERMS,
     "return checked_shape(ldom * rdom, lcod * rcod)",
     "return ldom * rdom, lcod * rcod",
     [f"{HUGE_TERM}[product]"]),
    ("terms-skip-the-composite-size", TERMS,
     "return checked_shape(idom, ocod)",
     "return idom, ocod",
     [f"{HUGE_TERM}[composite]"]),
    # one product table per build: keyed by width too, and the scan's only
    # source of product rows, formed a column at a time in left row major order
    ("product-table-key-without-width", RELCORE,
     "key = frow, width",
     "key = frow",
     [f"{TENSOR_KERNEL}[IV-IV]", f"{TENSOR_KERNEL}[IVxIV-IVxIV]",
      f"{TENSOR_KERNEL}[IIxIII-IIIxII]", f"{TENSOR_KERNEL}[IVxIVxIV-IV]"]),
    ("scan-multiplies-per-candidate", CLOSURE,
     "cands = table_run(by_width[run2.dom.cardinality], run2.read())",
     "cands = [tuple([grow * get.__self__.spread for get in by_width[run2.dom.cardinality]"
     " for grow in rows]) for rows in run2.rows]",
     ["tests/test_closure.py::test_cap3_round3_members_share_their_row_ints"]),
    ("product-run-transposed", RELCORE,
     "[map(get, col) for get in getters for col in columns]",
     "[map(get, col) for col in columns for get in getters]",
     [f"{TENSOR_KERNEL}[I-IV]", f"{TENSOR_KERNEL}[IV-IV]", f"{TENSOR_KERNEL}[IVxIV-IVxIV]",
      f"{TENSOR_KERNEL}[IIxIII-IIIxII]", f"{TENSOR_KERNEL}[IVxIVxIV-IV]"]),
    # the composite kernel over a run's columns: a one-index pick is that
    # column, not a zero column
    ("composer-zeroes-one-index-picks", RELCORE,
     "        if not pick:\n            out.append(zeros)",
     "        if len(pick) < 2:\n            out.append(zeros)",
     [f"{COMPOSE_KERNEL}[I-IV]", f"{COMPOSE_KERNEL}[IV-I]", f"{COMPOSE_KERNEL}[IV-IV]",
      f"{COMPOSE_KERNEL}[IVxIV-IVxIV]", f"{COMPOSE_KERNEL}[IIxIII-IIIxII]",
      f"{COMPOSE_KERNEL}[IVxIVxIV-IV]",
      "tests/test_relcore.py::test_reachable_matches_a_brute_force_closure[permutations-IV]"]),
    # the interchange rule: x absorbs y only below len x + len y, and its
    # factor tables are made where the rule first reads a run
    ("interchange-absorbs-at-equal-length", CLOSURE,
     "if found is not None and found.length < x.length + f.length:",
     "if found is not None and found.length <= x.length + f.length:",
     [f"{DROP_MASKS}[spek_generator_symbols]", f"{DROP_MASKS}[wide_row_generators]",
      "tests/test_closure.py::test_cap2_round4_spek_store_bytes_are_pinned"]),
    ("interchange-without-factor-tables", CLOSURE,
     "for k, (top, c, d) in enumerate(run.parts):",
     "for k, (top, c, d) in enumerate([]):",
     ["tests/test_closure.py::test_interchange_rule_keeps_firing",
      "tests/test_closure.py::test_factor_tables_are_made_only_for_runs_the_rule_reads[2-4-lengths1]"]),
    # the reader's cap check on blocks and symbols
    ("load-skips-the-cap-check", CLOSURE,
     "if dom.arity > cap or cod.arity > cap:",
     "if False:",
     [f"{MALFORMED}[block-outside-cap]", f"{MALFORMED}[symbol-outside-cap]"]),
    # the growth is derived from lengths within rounds 1 to rounds_run, and
    # rounds_run is at most twice the longest
    ("load-skips-the-length-range", CLOSURE,
     "if min(lengths) < 1 or max(lengths) > rounds_run:",
     "if False:",
     [f"{MALFORMED}[length-outside-rounds]", f"{MALFORMED}[length-zero]"]),
    ("load-skips-the-rounds-bound", CLOSURE,
     "if rounds_run > 2 * longest:",
     "if False:",
     [f"{MALFORMED}[rounds-run-past-twice-the-longest]"]),
    # each seed's identity is yielded as soon as its object is made
    ("seeds-made-before-the-first-yield", RELCORE,
     "        for f in frontier:\n"
     "            obj = FinObject(*f)\n"
     "            objs.append(obj)\n"
     "            yield f\"id_{obj.name}\", partial(identity, obj)",
     "        objs.extend(FinObject(*f) for f in frontier)\n"
     "    for obj in objs[1:]:\n"
     "        yield f\"id_{obj.name}\", partial(identity, obj)",
     ["tests/test_relcore.py::test_structural_seeds_yield_each_identity_as_its_object_is_made",
      "tests/test_closure.py::test_a_raised_max_arity_is_refused_at_its_first_missing_seed"]),
]


def run_row(row) -> tuple[str, str]:
    """`(verdict, detail)` for one row: killed, survived or stale."""
    _, path, old, new, node_ids = row
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / path
        text = target.read_text()
        if text.count(old) != 1:
            return "stale", f"old text found {text.count(old)} times in {path}"
        target.write_text(text.replace(old, new))
        proc = subprocess.run(
            # the ini file's `pythonpath` would put the checkout's src/ first
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             "-o", f"pythonpath={src}", *node_ids],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True,
        )
    if proc.returncode not in (0, 1):
        return "stale", f"pytest exited {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]}"
    failed = {
        line.split(" - ")[0].removeprefix("FAILED ")
        for line in proc.stdout.splitlines() if line.startswith("FAILED ")
    }
    passed = [n for n in node_ids if n not in failed]
    if passed:
        return "survived", "passed: " + ", ".join(passed)
    return "killed", f"{len(node_ids)} test(s) failed"


def main(argv: list[str]) -> int:
    known = {row[0] for row in ROWS}
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"unknown row id(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for row in ROWS:
        if argv and row[0] not in argv:
            continue
        verdict, detail = run_row(row)
        bad += verdict != "killed"
        print(f"{verdict:<8} {row[0]}: {detail}", flush=True)
    print(f"{bad} row(s) survived or stale" if bad else "every mutant killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
