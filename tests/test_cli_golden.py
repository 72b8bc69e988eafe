"""Pinned CLI output: stdout digest and exit code of each command.

`tests/cli_golden.json` holds, per command line, the sha256 of its stdout
and its exit code. A change that is meant to keep behaviour must keep every
entry; one that changes output on purpose updates the entries it names.
The order of Spek's observable families prints nowhere, so it is pinned
here directly.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from toycat.cli import main
from toycat.closure import load_store
from toycat.models import observable_orbit, spek

from oracle import store_tree_oracle

GOLDEN = Path(__file__).with_name("cli_golden.json")
STORE = "<cap2-r3-store>"  # stands for the store path in a command key
REL = "<sigma-24-rel>"  # stands for the path of a relation file holding sigma_24
SIGMA_24 = {"dom": [4], "cod": [4], "pairs": [[0, 0], [1, 3], [2, 2], [3, 1]]}

MODELS = {"spek": ("X", "Y", "Z"), "frel-qubit": ("X", "X'", "Z")}


def golden_commands() -> list[list[str]]:
    """Every pinned command line, each once as JSON and once with --text."""
    base: list[list[str]] = []
    for model, labels in MODELS.items():
        m = ["--model", model]
        base += [["verify", *m], ["bloch", *m], ["dump", *m]]
        base += [["points", *m, "--structure", s] for s in labels]
        for a, b in itertools.product(labels, repeat=2):
            base += [["complementary", *m, a, b], ["hopf", *m, a, b]]
        for what in ("teleport", "densecode"):
            base += [["protocol", what, *m, "--pool", pool] for pool in ("phases", "perms")]
    base += [["suite", "qubit"], ["suite", "spek", "--store", STORE]]
    base += [["eval", t] for t in ("delta_Z ; z0", "sigma_12 x z0^", "z0 ; delta_Z")]
    base += [["assert", "delta_Z ; z0", "z0 x z0"], ["assert", "delta_X", "delta_Z"]]
    # yes, then unknown: an IVxIV -> IVxIV map that round 3 has not reached
    for term in ("delta_Z ; eps_Z^",
                 "(delta_Z ; delta_X^) ; (delta_Y ; delta_Z^) ; (delta_X ; delta_Y^)"):
        base.append(["contains", "--store", STORE, "--term", term])
    base.append(["contains", "--store", STORE, "--rel", REL])
    base += [["census", "--store", STORE, *obj]
             for obj in ([], ["--object", "IV"], ["--object", "IVxIV"])]
    return [argv + flag for argv in base for flag in ([], ["--text"])]


def run_golden(capsys, paths: dict[str, str]) -> dict[str, dict]:
    """{command key: {"exit", "sha256"}} for every pinned command.

    `paths` maps each placeholder (STORE, REL) to the file it stands for.
    """
    out = {}
    for argv in golden_commands():
        try:
            code = main([paths.get(a, a) for a in argv])
        except SystemExit as exc:  # an argparse usage error
            code = exc.code
        stdout = capsys.readouterr().out
        out[" ".join(argv)] = {
            "exit": code,
            "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        }
    return out


@pytest.fixture(scope="module")
def cap2_r3_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "cap2_r3.json"
    assert main(["close", "--max-arity", "2", "--max-rounds", "3", "--out", str(path)]) == 0
    return path


def test_cli_output_matches_the_pinned_digests(capsys, cap2_r3_store):
    capsys.readouterr()
    pinned = json.loads(GOLDEN.read_text())
    rel = cap2_r3_store.with_name("sigma_24.json")
    rel.write_text(json.dumps(SIGMA_24))
    got = run_golden(capsys, {STORE: str(cap2_r3_store), REL: str(rel)})
    # the `/3` rendering of the store read back from the file pins the
    # digest taken before the block form; the file's own bytes are `/5`
    v3 = json.dumps(store_tree_oracle(load_store(cap2_r3_store)), sort_keys=True,
                    separators=(",", ":"))
    got["store bytes: close --max-arity 2 --max-rounds 3"] = {
        "exit": 0,
        "sha256": hashlib.sha256(v3.encode()).hexdigest(),
    }
    got["store file toycat-store/5: close --max-arity 2 --max-rounds 3"] = {
        "exit": 0,
        "sha256": hashlib.sha256(cap2_r3_store.read_bytes()).hexdigest(),
    }
    assert sorted(got) == sorted(pinned)
    changed = {key: got[key] for key in pinned if got[key] != pinned[key]}
    assert not changed, f"{len(changed)} of {len(pinned)} outputs changed: {changed}"


def test_spek_family_and_member_order_is_pinned():
    # the first passing member pair of criterion 4 and `spek.complementary.*`
    # depends on this order
    obs = spek().observables
    assert [(label, [m.name for m in ob.family]) for label, ob in obs.items()] == [
        ("Y", ["Y[z0^]", "Y[x0^]", "Y[x1^]", "Y[z1^]"]),
        ("X", ["X[z0^]", "X[y0^]", "X[y1^]", "X[z1^]"]),
        ("Z", ["Z[x0^]", "Z[y0^]", "Z[y1^]", "Z[x1^]"]),
    ]
    assert [ob.representative.name for ob in obs.values()] == ["Y[x0^]", "X[z0^]", "Z[x0^]"]
    assert list(observable_orbit()) == [ob.classical_points for ob in obs.values()]
