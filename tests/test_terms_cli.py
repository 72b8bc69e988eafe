import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import toycat
from toycat.cli import build_parser, main
from toycat.models import spek
from toycat.relcore import (
    MAX_RELATION_CELLS,
    FinObject,
    Relation,
    ShapeMismatchError,
    compose,
    dagger,
    relation_to_json,
    tensor,
)
from toycat.terms import (
    Atom,
    Compose,
    Dagger,
    Tensor,
    TermSyntaxError,
    UnknownIdentifierError,
    assert_equal,
    eval_term,
    format_term,
    parse_term,
    signature_of,
)

from oracle import store_without_member


@pytest.fixture(scope="module")
def sym():
    return spek().symbols


# -- parsing ------------------------------------------------------------------

def test_precedence_semicolon_loosest():
    t = parse_term("a ; b x c")
    assert t == Compose(Atom("a"), Tensor(Atom("b"), Atom("c")))


def test_dagger_binds_tightest():
    t = parse_term("a ; b^")
    assert t == Compose(Atom("a"), Dagger(Atom("b")))
    t2 = parse_term("(a ; b)^")
    assert t2 == Dagger(Compose(Atom("a"), Atom("b")))


def test_bare_x_is_tensor_but_x0_is_identifier():
    t = parse_term("x0 x x1")
    assert t == Tensor(Atom("x0"), Atom("x1"))


def test_left_associativity():
    assert parse_term("a ; b ; c") == Compose(Compose(Atom("a"), Atom("b")), Atom("c"))
    assert parse_term("a x b x c") == Tensor(Tensor(Atom("a"), Atom("b")), Atom("c"))


def test_syntax_error_carries_position():
    with pytest.raises(TermSyntaxError) as err:
        parse_term("delta_Z ;")
    assert err.value.line == 1
    with pytest.raises(TermSyntaxError):
        parse_term("(delta_Z")
    with pytest.raises(TermSyntaxError):
        parse_term("delta_Z )")
    with pytest.raises(TermSyntaxError):
        parse_term("delta_Z ? z0")


def test_unknown_identifier(sym):
    with pytest.raises(UnknownIdentifierError):
        signature_of(parse_term("nonsense"), sym)


# -- round trips -----------------------------------------------------------------

@st.composite
def terms(draw, depth=0):
    if depth >= 4:
        return Atom(draw(st.sampled_from(["a", "b", "x0", "delta_Z"])))
    kind = draw(st.sampled_from(["atom", "compose", "tensor", "dagger"]))
    if kind == "atom":
        return Atom(draw(st.sampled_from(["a", "b", "x0", "delta_Z"])))
    if kind == "dagger":
        return Dagger(draw(terms(depth=depth + 1)))
    left = draw(terms(depth=depth + 1))
    right = draw(terms(depth=depth + 1))
    return Compose(left, right) if kind == "compose" else Tensor(left, right)


@given(terms())
def test_parse_print_parse_round_trip(t):
    assert parse_term(format_term(t)) == t


# -- typing and evaluation ----------------------------------------------------------

def test_eta_from_generators(sym):
    eta = eval_term(parse_term("delta_Z ; eps_Z^"), sym)
    assert eta == sym["eta"]


def test_separable_two_system_state(sym):
    verdict = assert_equal("delta_Z ; z0", "z0 x z0", sym)
    assert verdict.equal


def test_projection_term(sym):
    rel = eval_term(parse_term("z0 ; z0^"), sym)
    assert rel == compose(sym["z0"], dagger(sym["z0"]))


def test_type_error_names_both_objects(sym):
    with pytest.raises(ShapeMismatchError) as err:
        eval_term(parse_term("z0 ; delta_Z"), sym)
    message = str(err.value)
    assert "I" in message and "IVxIV" in message


def test_signature_mismatch_in_assert(sym):
    with pytest.raises(ShapeMismatchError):
        assert_equal("z0", "delta_Z", sym)


def test_assert_unequal_carries_witness(sym):
    verdict = assert_equal("delta_X", "delta_Z", sym)
    assert not verdict.equal
    assert verdict.witness is not None
    i, j = verdict.witness
    assert sym["delta_X"].related(j, i) != sym["delta_Z"].related(j, i)


def test_snake_as_term(sym):
    verdict = assert_equal("(eta^ x id_IV) ; (id_IV x eta)", "id_IV", sym)
    assert verdict.equal


# -- CLI ----------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_eval_json(capsys):
    code, out, _ = run_cli(capsys, "eval", "delta_Z ; z0", "--model", "spek")
    assert code == 0
    data = json.loads(out)
    assert data["pairs"] == [[0, 0], [0, 1], [0, 4], [0, 5]]


def test_cli_eval_type_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "eval", "z0 ; delta_Z", "--model", "spek")
    assert code == 2
    assert "IVxIV" in err


def test_cli_assert_equal_and_unequal(capsys):
    code, out, _ = run_cli(capsys, "assert", "delta_Z ; z0", "z0 x z0", "--model", "spek")
    assert code == 0 and json.loads(out)["equal"]
    code, out, _ = run_cli(capsys, "assert", "delta_X", "delta_Z", "--model", "spek")
    assert code == 1
    data = json.loads(out)
    assert not data["equal"] and "witness" in data


def test_cli_verify_and_points(capsys):
    code, out, _ = run_cli(capsys, "verify", "--model", "frel-qubit")
    assert code == 0
    report = json.loads(out)
    assert {r["structure"] for r in report} == {"X", "X'", "Z"}
    code, out, _ = run_cli(capsys, "points", "--model", "spek", "--structure", "Z")
    assert code == 0
    data = json.loads(out)
    assert data["classical"] == ["z0", "z1"]
    assert data["unbiased"] == ["x0", "x1", "y0", "y1"]


def test_cli_complementary_and_hopf_exit_codes(capsys):
    assert run_cli(capsys, "complementary", "Z", "X", "--model", "frel-qubit")[0] == 0
    assert run_cli(capsys, "complementary", "Z", "Z", "--model", "frel-qubit")[0] == 1
    assert run_cli(capsys, "hopf", "Z", "X", "--model", "frel-qubit")[0] == 0
    assert run_cli(capsys, "hopf", "Z", "Z", "--model", "frel-qubit")[0] == 1


def test_cli_bloch_rows(capsys):
    code, out, _ = run_cli(capsys, "bloch", "--model", "spek")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    code, out, _ = run_cli(capsys, "bloch", "--model", "frel-qubit")
    rows = json.loads(out)
    assert rows[-1]["absent"]


def test_cli_protocol_teleport(capsys):
    code, out, _ = run_cli(capsys, "protocol", "teleport", "--model", "frel-qubit")
    assert code == 0
    cert = json.loads(out)
    assert cert["valid"] and cert["branch_count"] == 2
    code, out, _ = run_cli(capsys, "protocol", "densecode", "--model", "spek")
    assert code == 0
    table = json.loads(out)["table"]
    assert len(table) == 4


def test_cli_dump_formats(capsys):
    code, out, _ = run_cli(capsys, "dump", "--model", "frel-qubit")
    assert code == 0
    data = json.loads(out)
    assert "delta_Z" in data and "eta" in data
    code, out, _ = run_cli(capsys, "dump", "--model", "frel-qubit", "--text")
    assert code == 0 and "delta_Z" in out and not out.startswith("{")


def test_cli_close_contains_census(tmp_path, capsys):
    store_path = str(tmp_path / "store.json")
    code, out, _ = run_cli(
        capsys, "close", "--max-arity", "3", "--max-rounds", "2", "--out", store_path
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "contains", "--store", store_path,
        "--term", "delta_Z ; eps_Z^", "--model", "spek",
    )
    assert code == 0
    assert json.loads(out)["contains"] == "yes"
    code, out, _ = run_cli(capsys, "census", "--store", store_path)
    assert code == 0
    data = json.loads(out)
    assert data["total"] > 0
    code, out, _ = run_cli(capsys, "census", "--store", store_path, "--object", "IV")
    assert json.loads(out)["count"] >= 6


def test_cli_output_byte_stable(capsys):
    _, out1, _ = run_cli(capsys, "eval", "delta_Z", "--model", "spek")
    _, out2, _ = run_cli(capsys, "eval", "delta_Z", "--model", "spek")
    assert out1 == out2
    _, bloch1, _ = run_cli(capsys, "bloch", "--model", "spek")
    _, bloch2, _ = run_cli(capsys, "bloch", "--model", "spek")
    assert bloch1 == bloch2


def test_cli_suite_qubit_passes(capsys):
    code, out, _ = run_cli(capsys, "suite", "qubit")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] and report["failures"] == 0


def test_cli_suite_qubit_does_not_read_the_store(tmp_path, capsys):
    # the qubit battery uses no store, so a malformed one must not matter
    path = tmp_path / "store.json"
    path.write_text(json.dumps({"format": "toycat-store/5"}))
    expected = run_cli(capsys, "suite", "qubit")
    assert run_cli(capsys, "suite", "qubit", "--store", str(path)) == expected
    assert expected[0] == 0


def test_cli_close_refuses_a_generator_above_the_arity_cap(tmp_path, capsys):
    store_path = str(tmp_path / "store.json")
    code, _, err = run_cli(
        capsys, "close", "--max-arity", "1", "--max-rounds", "2", "--out", store_path
    )
    assert code == 2  # delta_Z does not fit at arity 1: usage/type error
    assert "arity cap 1" in err


@pytest.mark.parametrize("flag", ["--max-arity", "--max-rounds", "--max-morphisms"])
def test_cli_close_refuses_a_bound_below_one(tmp_path, capsys, flag):
    store_path = tmp_path / "store.json"
    code, out, err = run_cli(capsys, "close", flag, "0", "--out", str(store_path))
    assert code == 2 and out == ""
    assert flag[2:].replace("-", "_") in err
    assert "Traceback" not in err
    assert not store_path.exists()


def test_cli_close_stdout_is_the_out_file(tmp_path, capsys):
    path = tmp_path / "store.json"
    flags = ("close", "--max-arity", "2", "--max-rounds", "2")
    code, out, _ = run_cli(capsys, *flags)
    assert code == 0
    assert run_cli(capsys, *flags, "--out", str(path))[0] == 0
    assert out == path.read_text()


def test_cli_unknown_model_names_the_known_ones(capsys):
    code = main(["verify", "--model", "foo"])
    err = capsys.readouterr().err
    assert code == 2
    assert "'foo'" in err and "'spek'" in err and "'frel-qubit'" in err


@pytest.mark.parametrize("argv", [["verify", "--structure", "W"], ["points", "--structure", "W"],
                                  ["complementary", "Z", "W"], ["hopf", "W", "Z"]],
                         ids=["verify", "points", "complementary", "hopf"])
def test_cli_unknown_structure_names_the_known_ones(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: model spek has structures ['X', 'Y', 'Z']\n"


def test_cli_dump_has_no_format_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dump", "--format", "text"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def run_captured(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `main(argv)`, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error or -h
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Each call leaves an option or default that the next one must not inherit.
SEQUENCE = [
    ["verify", "--model", "frel-qubit", "--structure", "Z"],
    ["verify"],
    ["protocol", "teleport", "--pool", "perms", "--model", "frel-qubit"],
    ["protocol", "teleport"],
    ["contains", "--term", "x"],
    ["-h"],
    ["verify", "--model", "nope"],
    ["eval", "delta_Z ; z0", "--text"],
    ["eval", "delta_Z ; z0"],
]


def test_cli_calls_in_one_process_match_calls_on_a_fresh_parser():
    in_sequence = [run_captured(argv) for argv in SEQUENCE]
    for argv, got in zip(SEQUENCE, in_sequence):
        build_parser.cache_clear()
        assert got == run_captured(argv), argv
    codes = [code for code, _, _ in in_sequence]
    assert codes == [0, 0, 0, 0, 2, 0, 2, 0, 0]
    assert [r["structure"] for r in json.loads(in_sequence[1][1])] == ["X", "Y", "Z"]
    assert json.loads(in_sequence[3][1])["branch_count"] == 4
    assert json.loads(in_sequence[8][1])["pairs"] == [[0, 0], [0, 1], [0, 4], [0, 5]]


def test_cli_builds_the_parser_once(monkeypatch):
    assert run_captured(["eval", "z0"])[0] == 0  # the first call may build it
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_captured(["verify", "--structure", "Z"])[0] == 0
    assert built == []


DEEP = "<deep-json>"  # stands for a file of 100,000 nested '['


# Python 3.11 overflows from 247 parentheses, 991 compositions and 992
# daggers on; ten times as deep overflows on 3.10 to 3.13 alike.
@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "(" * 2470 + "z0" + ")" * 2470],
        ["eval", "sigma_12 ; " * 9910 + "sigma_12"],
        ["eval", "x0" + "^" * 9920],
        ["contains", "--store", DEEP, "--term", "z0"],
    ],
    ids=["parentheses", "compose-chain", "daggers", "json-store"],
)
def test_cli_deep_input_exits_2(tmp_path, capsys, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, *[str(deep) if a == DEEP else a for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def run_child(argv: list[str], env=os.environ, **kwargs) -> subprocess.CompletedProcess:
    """`main(argv)` in a fresh interpreter that imports this checkout's toycat."""
    src = str(Path(toycat.__file__).parents[1])
    cli = "import sys; from toycat.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", cli, *argv], env={**env, "PYTHONPATH": src},
                          text=True, timeout=60, **kwargs)


def _limit_address_space():
    # 1.5 GB: ample for the interpreter, far too little for 2**40 rows
    resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))


@pytest.mark.parametrize("command", ["contains", "close"])
def test_cli_huge_codomain_exits_2(tmp_path, command):
    # Never run without the address-space limit: the rows would not fit in memory.
    huge = tmp_path / "huge.json"
    rel = {"dom": [4], "cod": [1 << 40], "pairs": [[0, 0]]}
    if command == "contains":
        store = tmp_path / "store.json"
        assert main(["close", "--max-arity", "2", "--max-rounds", "1", "--out", str(store)]) == 0
        huge.write_text(json.dumps(rel))
        argv = ["contains", "--store", str(store), "--rel", str(huge)]
    else:
        huge.write_text(json.dumps({"generators": {"f": rel}}))
        argv = ["close", "--generators", str(huge), "--out", str(tmp_path / "out.json")]
    child = run_child(argv, preexec_fn=_limit_address_space, capture_output=True)
    assert child.returncode == 2 and child.stdout == ""
    assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1
    assert "Traceback" not in child.stderr


@pytest.mark.parametrize("command", ["dump", "close"])
def test_cli_closed_stdout_exits_2(tmp_path, command):
    # dump prints its report in `main`; close without --out writes the store itself
    if command == "dump":
        argv = ["dump", "--model", "spek"]
    else:
        gens = tmp_path / "gens.json"
        gens.write_text(json.dumps({"generators": {"f": {"dom": [2], "cod": [2],
                                                         "pairs": [[0, 1], [1, 0]]}}}))
        argv = ["close", "--generators", str(gens), "--max-arity", "1"]
    # buffered stdout, so a small output fails only when it is flushed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the first write
    try:
        child = run_child(argv, env=env, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert child.returncode == 2
    assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1
    assert "Traceback" not in child.stderr


def run_quiet(argv: list[str]) -> tuple[int, str]:
    """(exit code, stderr) of `main(argv)`, with stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code: int, err: str) -> None:
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


# atoms on I and IV only, so a term with at most one tensor stays within IV^2
TERM_PIECES = st.lists(
    st.sampled_from(["z0", "x1", "y0^", "eps_Z", "sigma_12", "id_IV", "id_I", "nope",
                     ";", "^", "(", ")", " ", "\n"]),
    max_size=12,
).map("".join)


@settings(deadline=None)
@given(left=TERM_PIECES, tensor=st.booleans(), right=TERM_PIECES)
def test_cli_eval_fuzz_exits_0_1_or_2(left, tensor, right):
    assert_clean_exit(*run_quiet(["eval", left + (" x " if tensor else "") + right]))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    assert run_quiet(["close", "--max-arity", "2", "--max-rounds", "1",
                      "--out", str(path / "store.json")])[0] == 0
    return path


# JSON values whose integers and lists are small enough that any object
# built from them is at most IV^2
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(-2, 4) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=2),
    max_leaves=6,
)
FACTORS = st.lists(st.integers(0, 4), max_size=2)
PAIRS = st.sets(st.tuples(st.integers(-1, 16), st.integers(-1, 16)), max_size=6).map(
    lambda ps: [list(p) for p in sorted(ps)]
)
RELATION = st.fixed_dictionaries(
    {"dom": FACTORS | JUNK, "cod": FACTORS | JUNK, "pairs": PAIRS | st.lists(JUNK, max_size=3)}
)


@settings(deadline=None)
@given(data=RELATION | JUNK)
def test_cli_contains_fuzz_exits_0_1_or_2(fuzz_dir, data):
    rel = fuzz_dir / "rel.json"
    rel.write_text(json.dumps(data))
    store = str(fuzz_dir / "store.json")
    assert_clean_exit(*run_quiet(["contains", "--store", store, "--rel", str(rel)]))


def _field_paths(value, path=()):
    """The path of every field and list entry inside a JSON value."""
    if isinstance(value, dict):
        entries = value.items()
    elif isinstance(value, list):
        entries = enumerate(value)
    else:
        return
    for key, inner in entries:
        yield path + (key,)
        yield from _field_paths(inner, path + (key,))


MISSING = object()
# a wrong type, a bool, a small or negative int, or the field removed
FIELD_VALUES = (
    st.just(MISSING) | st.booleans() | st.integers(-3, 4)
    | st.sampled_from([None, 1.5, "", "IV", [], {}, [1], {"dom": []}])
)


@settings(deadline=None)
@given(data=st.data(), value=FIELD_VALUES, term=st.sampled_from(["sigma_12", "delta_Z"]))
def test_cli_contains_store_fuzz_exits_0_1_or_2(fuzz_dir, data, value, term):
    blob = json.loads((fuzz_dir / "store.json").read_text())
    by_depth: dict[int, list[tuple]] = {}
    for path in _field_paths(blob):
        by_depth.setdefault(len(path), []).append(path)
    # a depth first, so the few top-level fields are drawn as often as rows
    path = data.draw(st.sampled_from(by_depth[data.draw(st.sampled_from(sorted(by_depth)))]))
    *parents, last = path
    node = blob
    for key in parents:
        node = node[key]
    if value is MISSING:
        del node[last]
    else:
        node[last] = value
    store = fuzz_dir / "mutated.json"
    store.write_text(json.dumps(blob))
    assert_clean_exit(
        *run_quiet(["contains", "--store", str(store), "--term", term, "--model", "spek"])
    )


@pytest.mark.parametrize("query", [[], ["--rel", "r.json", "--term", "sigma_12"]],
                         ids=["neither", "both"])
def test_cli_contains_takes_exactly_one_of_rel_and_term(capsys, query):
    with pytest.raises(SystemExit) as exc:
        main(["contains", "--store", "store.json", *query])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "--rel" in err and "--term" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("factors", [(), (2,), (3,), (4, 4), (2, 3, 4), (8, 5, 6)])
def test_cli_census_object_parses_the_names_it_prints(tmp_path, capsys, factors):
    from toycat.relcore import FinObject

    store_path = tmp_path / "store.json"
    code, _, _ = run_cli(
        capsys, "close", "--max-arity", "2", "--max-rounds", "1", "--out", str(store_path)
    )
    assert code == 0
    name = FinObject(*factors).name
    code, out, _ = run_cli(capsys, "census", "--store", str(store_path), "--object", name)
    assert code == 0
    assert json.loads(out)["object"] == list(factors)


def test_cli_census_refuses_an_object_it_cannot_parse(tmp_path, capsys):
    store_path = tmp_path / "store.json"
    code, _, _ = run_cli(
        capsys, "close", "--max-arity", "2", "--max-rounds", "1", "--out", str(store_path)
    )
    assert code == 0
    code, out, err = run_cli(capsys, "census", "--store", str(store_path), "--object", "bogus")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'bogus'" in err


def test_cli_contains_rejects_version_1_store(tmp_path, capsys):
    store_path = tmp_path / "old.json"
    code, _, _ = run_cli(
        capsys, "close", "--max-arity", "2", "--max-rounds", "1", "--out", str(store_path)
    )
    assert code == 0
    blob = json.loads(store_path.read_text())
    assert blob["format"] == "toycat-store/5"
    for old in ("toycat-store/1", "toycat-store/2", "toycat-store/3", "toycat-store/4"):
        store_path.write_text(json.dumps({**blob, "format": old}))
        code, out, err = run_cli(
            capsys, "contains", "--store", str(store_path), "--term", "sigma_12", "--model", "spek"
        )
        assert code == 2 and out == ""
        assert f"'{old}'" in err and "'toycat-store/5'" in err
        assert "Traceback" not in err


def _with_block(blob, index, **fields):
    """`blob` with block `index` updated by `fields` (None deletes one)."""
    blocks = list(blob["blocks"])
    block = {**blocks[index], **fields}
    blocks[index] = {k: v for k, v in block.items() if v is not None}
    return {**blob, "blocks": blocks}


# Block 3 of the cap-2 round-1 store: its 24 permutations of IV, 4 rows each.
ENDO = 3


def _endomorphisms(blob):
    """Block ENDO, checked to be the IV -> IV block."""
    block = blob["blocks"][ENDO]
    assert block["dom"] == block["cod"] == [4] and len(block["words"]) == 24
    return block


def _with_row(blob, row):
    """`blob` with the first row of block ENDO replaced by `row`."""
    return _with_block(blob, ENDO, rows=[row, *_endomorphisms(blob)["rows"][1:]])


def _with_members(blob, order):
    """`blob` with block ENDO holding its members at the indices `order`."""
    block = _endomorphisms(blob)
    return _with_block(
        blob, ENDO,
        rows=[r for k in order for r in block["rows"][4 * k:4 * k + 4]],
        words=[block["words"][k] for k in order],
        lengths=[block["lengths"][k] for k in order],
    )


def _split(blob):
    """`blob` with block ENDO cut into two blocks of one shape."""
    block = _endomorphisms(blob)
    first = {**block, "rows": block["rows"][:4], "words": block["words"][:1],
             "lengths": block["lengths"][:1]}
    rest = {**block, "rows": block["rows"][4:], "words": block["words"][1:],
            "lengths": block["lengths"][1:]}
    blocks = blob["blocks"]
    return {**blob, "blocks": [*blocks[:ENDO], first, rest, *blocks[ENDO + 1:]]}


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda blob: [], "JSON object, not list"),
        (lambda blob: {k: v for k, v in blob.items() if k != "config"}, "lacks the field 'config'"),
        (lambda blob: {**blob, "config": [1]}, "field 'config' has the wrong type list"),
        (
            lambda blob: _with_block(blob, 0, words=[17]),
            "field 'words' of block 0 holds 17, not a string",
        ),
        # bool("false") is true: read loosely, this store would claim a fixpoint
        (lambda blob: {**blob, "fixpoint": "false"}, "field 'fixpoint' has the wrong type str"),
        # a length outside the rounds run, and more rounds than a build with
        # these lengths runs, which bounds the growth derived from them
        (lambda blob: _with_block(blob, 0, lengths=[2]), "block 0 has length 2, not in 1 to 1"),
        (lambda blob: _with_block(blob, 0, lengths=[0]), "block 0 has length 0, not in 1 to 1"),
        (
            lambda blob: {**blob, "rounds_run": 3, "config": {**blob["config"], "max_rounds": None}},
            "field 'rounds_run' is 3, but a build stops by round 2",
        ),
        # JSON true is an int to isinstance; read loosely, each would stand for 1
        (lambda blob: {**blob, "rounds_run": True}, "field 'rounds_run' has the wrong type bool"),
        (
            lambda blob: {**blob, "config": {**blob["config"], "max_arity": True}},
            "field 'max_arity' has the wrong type bool",
        ),
        (
            lambda blob: {**blob, "config": {**blob["config"], "max_rounds": True}},
            "field 'max_rounds' has the wrong type bool",
        ),
        (
            lambda blob: _with_block(blob, 0, lengths=[True]),
            "field 'lengths' of block 0 holds True, not an integer",
        ),
        (
            lambda blob: {**blob, "config": {**blob["config"], "max_rounds": 0}},
            "max_rounds must be None or >= 1",
        ),
        (lambda blob: _with_block(blob, 0, rows=None), "lacks the field 'rows'"),
        (lambda blob: _with_block(blob, 0, rows="0,0"), "field 'rows' has the wrong type str"),
        (
            lambda blob: _with_block(blob, ENDO, rows=_endomorphisms(blob)["rows"][:-1]),
            "field 'rows' of block 3 has 95 rows, but 24 member(s) on codomain IV need 96",
        ),
        (
            lambda blob: _with_row(blob, -1),
            "field 'rows' of block 3 has a row that is negative",
        ),
        (
            lambda blob: _with_row(blob, 16),
            "field 'rows' of block 3 has a row that is negative or has bits outside domain IV",
        ),
        (lambda blob: _with_row(blob, 1.0), "field 'rows' of block 3 holds 1.0, not an integer"),
        (lambda blob: _with_row(blob, True), "field 'rows' of block 3 holds True, not an integer"),
        (lambda blob: _with_row(blob, "1"), "field 'rows' of block 3 holds '1', not an integer"),
        # (1, 4) == (True, 4) and (4,) == (4.0,) as dict keys: a shape seen
        # with dom [1, 4] or [4] must not let [True, 4] or [4.0] through
        (
            lambda blob: {**blob, "blocks": [
                {**block, "dom": [flag, *block["dom"]]}
                for block, flag in zip(blob["blocks"][ENDO:ENDO + 2], (1, True))
            ]},
            "field 'dom' of block 1: factors must be integers",
        ),
        (
            lambda blob: {**blob, "blocks": [
                {**block, "dom": [factor, *block["dom"]]}
                for block, factor in zip(blob["blocks"][ENDO:ENDO + 2], (4, 4.0))
            ]},
            "field 'dom' of block 1: factors must be integers",
        ),
        (
            lambda blob: {**blob, "blocks": [blob["blocks"][1], blob["blocks"][0],
                                             *blob["blocks"][2:]]},
            "field 'blocks' lists block 1 out of shape order",
        ),
        (
            lambda blob: {**blob, "blocks": [blob["blocks"][0], *blob["blocks"]]},
            "field 'blocks' repeats the shape of block 0 in block 1",
        ),
        # the block form: its lists' counts, its members' order, its shape
        (
            lambda blob: _with_block(blob, 0, lengths=[1, 1]),
            "block 0 has 1 words but 2 lengths",
        ),
        (
            lambda blob: _with_block(blob, 0, words=["id_I", "id_I"]),
            "block 0 has 2 words but 1 lengths",
        ),
        (
            lambda blob: _with_block(blob, ENDO, rows=_endomorphisms(blob)["rows"] + [1, 2, 4, 8]),
            "field 'rows' of block 3 has 100 rows, but 24 member(s) on codomain IV need 96",
        ),
        (lambda blob: _with_block(blob, 0, words="id_I"), "field 'words' has the wrong type str"),
        (lambda blob: _with_block(blob, 0, lengths=1), "field 'lengths' has the wrong type int"),
        (lambda blob: _with_block(blob, 0, lengths=None), "lacks the field 'lengths'"),
        (
            lambda blob: _with_block(blob, 0, rows=[], words=[], lengths=[]),
            "block 0 has no members",
        ),
        (lambda blob: _split(blob), "field 'blocks' repeats the shape of block 3 in block 4"),
        (lambda blob: {**blob, "blocks": [[]]}, "block 0 is not a JSON object"),
        (lambda blob: {**blob, "blocks": {}}, "field 'blocks' has the wrong type dict"),
        (
            lambda blob: _with_members(blob, [1, 0, *range(2, 24)]),
            "block 3 lists member 1 out of rows order",
        ),
        (
            lambda blob: _with_members(blob, [0, 1, 1, *range(3, 24)]),
            "block 3 repeats member 1 as member 2",
        ),
        # objects far too large to hold: only counts and bit lengths are compared
        (
            lambda blob: _with_block(blob, 1, cod=[10**12]),
            "field 'rows' of block 1 has 4 rows, but 1 member(s) on codomain "
            "1000000000000 need 1000000000000",
        ),
        (
            lambda blob: _with_block(blob, 2, dom=[10**12], rows=[-1]),
            "field 'rows' of block 2 has a row that is negative or has bits outside "
            "domain 1000000000000",
        ),
        # shapes above the file's own arity cap, which no build of it can store:
        # the IV -> I block moved to IV^7 -> I, its rows still in range
        (
            lambda blob: {**blob, "blocks": sorted(
                ({**block, "dom": [4] * 7} if (block["dom"], block["cod"]) == ([4], []) else block
                 for block in blob["blocks"]),
                key=lambda block: (block["dom"], block["cod"]),
            )},
            "store file block 6 has shape IVxIVxIVxIVxIVxIVxIV -> I, outside arity cap 2",
        ),
        (
            lambda blob: {**blob, "symbols": {
                **blob["symbols"], "wide": {"dom": [4, 4, 4], "cod": [], "rows": [1]},
            }},
            "store file symbol 'wide' has shape IVxIVxIV -> I, outside arity cap 2",
        ),
    ],
    ids=["list", "no-config", "config-list", "word-int", "fixpoint-str",
         "length-outside-rounds", "length-zero", "rounds-run-past-twice-the-longest",
         "rounds-run-true",
         "max-arity-true", "max-rounds-true", "length-true", "max-rounds-zero",
         "rows-missing", "rows-str", "rows-short", "row-negative", "row-outside-domain",
         "row-float", "row-bool", "row-str", "dom-true-after-1", "dom-float-after-int",
         "out-of-order", "repeated",
         "lengths-long", "words-long", "rows-long", "words-str", "lengths-int",
         "lengths-missing", "empty-block", "shape-split", "block-list", "blocks-dict",
         "members-out-of-order", "member-repeated", "cod-huge", "dom-huge",
         "block-outside-cap", "symbol-outside-cap"],
)
def test_cli_contains_names_a_malformed_store(tmp_path, capsys, mangle, message):
    store_path = tmp_path / "store.json"
    code, _, _ = run_cli(
        capsys, "close", "--max-arity", "2", "--max-rounds", "1", "--out", str(store_path)
    )
    assert code == 0
    store_path.write_text(json.dumps(mangle(json.loads(store_path.read_text()))))
    code, out, err = run_cli(
        capsys, "contains", "--store", str(store_path), "--term", "sigma_12", "--model", "spek"
    )
    assert code == 2 and out == ""
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["a b", "f^"])
def test_cli_contains_refuses_a_store_symbol_that_is_not_an_identifier(tmp_path, capsys, name):
    # a length-1 word must be one atom or its converse, so no symbol may be
    # named like a term; a store that is not a fixpoint is refused too
    store_path = tmp_path / "store.json"
    code, _, _ = run_cli(
        capsys, "close", "--max-arity", "2", "--max-rounds", "1", "--out", str(store_path)
    )
    assert code == 0
    blob = json.loads(store_path.read_text())
    symbols = {**blob["symbols"], name: blob["symbols"]["sigma_12"]}
    store_path.write_text(json.dumps({**blob, "symbols": symbols}))
    code, out, err = run_cli(
        capsys, "contains", "--store", str(store_path), "--term", "sigma_12", "--model", "spek"
    )
    assert code == 2 and out == ""
    assert err == f"error: store file symbol {name!r} is not a term identifier\n"


def test_cli_contains_refuses_a_fixpoint_flag_its_growth_contradicts(tmp_path, capsys):
    # a cap-2 round-2 store: delta_X is in Spek, but not of length 2 or less
    store_path = tmp_path / "store.json"
    code, _, _ = run_cli(
        capsys, "close", "--max-arity", "2", "--max-rounds", "2", "--out", str(store_path)
    )
    assert code == 0
    query = ("contains", "--store", str(store_path), "--term", "delta_X", "--model", "spek")
    code, out, _ = run_cli(capsys, *query)
    assert json.loads(out)["contains"] == "unknown"
    blob = json.loads(store_path.read_text())
    for config in (blob["config"], {**blob["config"], "max_rounds": None}):
        store_path.write_text(json.dumps({**blob, "config": config, "fixpoint": True}))
        code, out, err = run_cli(capsys, *query)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'fixpoint' is true" in err and "Traceback" not in err


def test_cli_contains_refuses_a_fixpoint_store_missing_a_record(tmp_path, capsys):
    # the arity-1 fixpoint: the permutations of IV and eps_Z, from the dump
    code, out, _ = run_cli(capsys, "dump", "--model", "spek")
    assert code == 0
    symbols = json.loads(out)
    gens = {n: r for n, r in symbols.items() if n.startswith("sigma_") or n == "eps_Z"}
    (tmp_path / "gens.json").write_text(json.dumps({"generators": gens}))
    store_path = tmp_path / "store.json"
    code, _, _ = run_cli(capsys, "close", "--generators", str(tmp_path / "gens.json"),
                         "--max-arity", "1", "--out", str(store_path))
    assert code == 0
    full = tmp_path / "full.json"
    full.write_text(json.dumps({"dom": [4], "cod": [4],
                                "pairs": [[j, i] for j in range(4) for i in range(4)]}))
    code, out, _ = run_cli(capsys, "contains", "--store", str(store_path), "--rel", str(full))
    assert code == 1 and json.loads(out)["contains"] == "no"
    # one length-4 member deleted, and its round's count and the total lowered
    cut, deleted = store_without_member(json.loads(store_path.read_text()), 4)
    rel = tmp_path / "deleted.json"
    rel.write_text(json.dumps(relation_to_json(
        Relation(FinObject(*deleted["dom"]), FinObject(*deleted["cod"]), tuple(deleted["rows"]))
    )))
    code, out, _ = run_cli(capsys, "contains", "--store", str(store_path), "--rel", str(rel))
    assert code == 0 and json.loads(out)["contains"] == "yes"
    store_path.write_text(json.dumps(cut))
    code, out, err = run_cli(capsys, "contains", "--store", str(store_path), "--rel", str(rel))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'fixpoint' is true, but the converse of " in err
    assert "Traceback" not in err


def test_cli_close_rejects_a_generator_name_that_is_not_an_identifier(tmp_path, capsys):
    gens = {
        "generators": {
            "not-gate": {"dom": [2], "cod": [2], "pairs": [[0, 1], [1, 0]]},
        }
    }
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(gens))
    code, out, err = run_cli(capsys, "close", "--generators", str(path), "--max-arity", "1")
    assert code == 2 and out == ""
    assert "'not-gate'" in err
    assert "Traceback" not in err


def test_cli_close_refuses_a_generator_named_like_a_seed(tmp_path, capsys):
    gens = {"generators": {"id_IV": {"dom": [4], "cod": [4], "pairs": [[0, 1], [1, 0]]}}}
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(gens))
    code, out, err = run_cli(capsys, "close", "--generators", str(path), "--max-arity", "1")
    assert code == 2 and out == ""
    assert err == "error: generator name 'id_IV' collides with a seed\n"


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "JSON object, not list"),
        ({"generators": []}, "field 'generators' has the wrong type list"),
        ({}, "lacks the field 'generators'"),
    ],
    ids=["list", "generators-list", "no-generators"],
)
def test_cli_close_names_a_malformed_generator_file(tmp_path, capsys, data, message):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "close", "--generators", str(path), "--max-arity", "1")
    assert code == 2 and out == ""
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "pairs", [[[1.7, 0], [2, "3"]], [[True, 0]]], ids=["float-and-string", "bool"]
)
def test_cli_contains_refuses_a_relation_with_non_integer_entries(tmp_path, capsys, pairs):
    store_path = tmp_path / "store.json"
    code, _, _ = run_cli(
        capsys, "close", "--max-arity", "2", "--max-rounds", "1", "--out", str(store_path)
    )
    assert code == 0
    rel_path = tmp_path / "rel.json"
    rel_path.write_text(json.dumps({"dom": [4], "cod": [4], "pairs": pairs}))
    code, out, err = run_cli(capsys, "contains", "--store", str(store_path), "--rel", str(rel_path))
    assert code == 2 and out == ""
    assert "is not two integers" in err
    assert "Traceback" not in err


def test_cli_contains_refuses_a_bool_factor(tmp_path, capsys):
    store_path = tmp_path / "store.json"
    code, _, _ = run_cli(
        capsys, "close", "--max-arity", "2", "--max-rounds", "1", "--out", str(store_path)
    )
    assert code == 0
    rel_path = tmp_path / "rel.json"
    rel_path.write_text(json.dumps({"dom": [True, 4], "cod": [4, True], "pairs": [[0, 0]]}))
    code, out, err = run_cli(capsys, "contains", "--store", str(store_path), "--rel", str(rel_path))
    assert code == 2 and out == ""
    assert "factors must be integers" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("dom, cod", [([4], [10**12]), ([10**12], [4])], ids=["cod", "dom"])
def test_cli_contains_refuses_a_huge_relation_before_allocating(tmp_path, capsys, dom, cod):
    # 10**12 rows, or rows of 10**12 bits: the shape's cell count is refused
    # before any row is allocated, so no MemoryError is raised and caught
    store_path = tmp_path / "store.json"
    code, _, _ = run_cli(
        capsys, "close", "--max-arity", "2", "--max-rounds", "1", "--out", str(store_path)
    )
    assert code == 0
    rel_path = tmp_path / "rel.json"
    rel_path.write_text(json.dumps({"dom": dom, "cod": cod, "pairs": [[0, 0]]}))
    code, out, err = run_cli(capsys, "contains", "--store", str(store_path), "--rel", str(rel_path))
    assert code == 2 and out == ""
    assert err == (
        "error: malformed relation record: shape "
        f"{FinObject(*dom)} -> {FinObject(*cod)} spans 4000000000000 cells, "
        f"above MAX_RELATION_CELLS = {MAX_RELATION_CELLS}\n"
    )


@pytest.mark.parametrize(
    "term",
    ["id_IVxIVxIV x id_IVxIVxIV x id_IVxIVxIV",
     "(z0 x z0 x z0 x z0 x z0 x z0) ; (eps_Z x eps_Z x eps_Z x eps_Z x eps_Z x eps_Z)"],
    ids=["product", "composite"],
)
def test_cli_eval_refuses_a_huge_subterm_before_allocating(capsys, monkeypatch, term):
    # IV^6 -> IV^6, the first subterm over the cap in both, is refused as a
    # relation file's shape is; the evaluator is never reached
    monkeypatch.setattr(toycat.terms, "_eval", None)
    code, out, err = run_cli(capsys, "eval", term, "--model", "spek")
    assert code == 2 and out == ""
    assert err == (
        "error: shape IVxIVxIVxIVxIVxIV -> IVxIVxIVxIVxIVxIV spans 16777216 cells, "
        f"above MAX_RELATION_CELLS = {MAX_RELATION_CELLS}\n"
    )


def test_cli_close_out_file_holds_the_store_string(tmp_path, capsys):
    from toycat.closure import load_store, store_to_json_str

    path = tmp_path / "store.json"
    code, _, _ = run_cli(
        capsys, "close", "--max-arity", "2", "--max-rounds", "2", "--out", str(path)
    )
    assert code == 0
    assert path.read_text() == store_to_json_str(load_store(path))


@pytest.mark.parametrize("failure", [MemoryError, KeyboardInterrupt])
def test_cli_close_out_keeps_the_old_file_when_the_writer_fails(
    tmp_path, capsys, monkeypatch, failure
):
    import toycat.cli

    def failing(store):
        raise failure

    path = tmp_path / "store.json"
    path.write_text("the old store")
    monkeypatch.setattr(toycat.cli, "store_to_json_str", failing)
    argv = ("close", "--max-arity", "2", "--max-rounds", "1", "--out", str(path))
    if failure is MemoryError:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err == "error: out of memory\n"
    else:
        with pytest.raises(failure):
            run_cli(capsys, *argv)
    assert path.read_text() == "the old store"


def test_cli_suite_negative_control_with_injected_diagonal(tmp_path, capsys):
    # a store seeded with the diagonal copy map must fail the exclusion check
    import toycat.models as M
    from toycat.closure import ClosureConfig, generate_closure, store_to_json
    from toycat.relcore import Relation
    from toycat.suite import spek_generator_symbols

    gens = dict(spek_generator_symbols())
    gens["delta_oplus"] = Relation.from_pairs(
        M.IV, M.IV * M.IV, [(i, i * 4 + i) for i in range(4)]
    )
    store = generate_closure(gens, ClosureConfig(max_arity=3, max_rounds=2))
    path = tmp_path / "injected.json"
    path.write_text(json.dumps(store_to_json(store)))
    code, out, _ = run_cli(capsys, "suite", "spek", "--store", str(path))
    assert code == 1
    report = json.loads(out)
    failures = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "closure.delta_oplus_excluded" in failures
    oplus_detail = [
        c["detail"] for c in report["checks"] if c["name"] == "closure.delta_oplus_excluded"
    ][0]
    assert "unexpectedly present" in oplus_detail
