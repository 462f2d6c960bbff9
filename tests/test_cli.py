"""Tests for the manifest-driven CLI harness."""

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import random
import re

import numpy as np
import pytest

from closurelab import cli
from closurelab.cli import (
    Manifest,
    ManifestError,
    _csv_text,
    _json_texts,
    _Table,
    canonical_json,
    run,
    selftest,
)
from closurelab.tensor import SimpleSet


def test_manifest_rejects_unknown_keys():
    with pytest.raises(ManifestError, match="unknown manifest keys"):
        Manifest.from_dict({"command": "scenarios", "typo": 1})
    with pytest.raises(ManifestError, match="unknown command"):
        Manifest.from_dict({"command": "frobnicate"})
    with pytest.raises(ManifestError, match="unknown budget keys"):
        Manifest.from_dict({"command": "scenarios", "budgets": {"nope": 1}})


def test_closedness_exact_exit_and_payload(tmp_path, capsys):
    out = tmp_path / "mid.json"
    code = cli.main(
        [
            "closedness",
            "--n", "7",
            "--set-kind", "middle-layers",
            "--generators", "basis",
            "--mode", "exact",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["payload"]["report"]["eta_num"] == 4
    assert doc["payload"]["report"]["eta_den"] == 7
    assert doc["payload"]["spectral_eta_num"] == 4
    assert doc["payload"]["manifest"]["command"] == "closedness"
    assert doc["meta"]["tool"] == "closurelab"


def test_payload_deterministic_across_runs(tmp_path):
    args = [
        "closedness",
        "--n", "8",
        "--set-kind", "random",
        "--generators", "random",
        "--mode", "exact",
        "--seed", "99",
    ]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert d1["payload"] == d2["payload"]
    assert d1["meta"]["payload_hash"] == d2["meta"]["payload_hash"]
    assert canonical_json(d1["payload"]) == canonical_json(d2["payload"])
    # rerun to the same path: the full manifest hash is also stable
    assert cli.main(args + ["--out", str(out1)]) == 0
    d1b = json.loads(out1.read_text())
    assert d1b["meta"]["manifest_hash"] == d1["meta"]["manifest_hash"]
    assert d1b["meta"]["payload_hash"] == d1["meta"]["payload_hash"]


def test_budget_refusal_exit_3():
    assert cli.main(["spectrum", "--n", "30", "--set-kind", "random"]) == 3


def test_budget_override_via_manifest(tmp_path, monkeypatch):
    """A manifest's budgets bind in both directions, for its own run only."""
    spectrum_n10 = {"n": 10, "set": {"kind": "random", "size": 100}}
    cases = [  # (command, params, budgets, exit code)
        ("spectrum", spectrum_n10, {"max_group_exponent": 9}, 3),
        ("spectrum", spectrum_n10, {}, 0),  # the cap of 9 ended with its run
        ("simple-set", {"shape": [5, 5], "k": 1}, {"max_group_exponent": 25}, 0),
        ("forcing-pipeline", {"shape": [4, 4]}, {"witness_budget": 1024}, 3),
        ("forcing-pipeline", {"shape": [3, 7]}, {}, 0),  # a 2^21 agreement profile
        ("forcing-pipeline", {"shape": [3, 7]}, {"max_group_exponent": 20}, 3),
        ("spectrum", spectrum_n10, {"witness_budget": None}, 1),  # not an integer
        ("scenarios", {}, {"max_samples": "many"}, 1),
    ]
    path = tmp_path / "m.json"
    for command, params, budgets, code in cases:
        manifest = {"command": command, "params": params, "budgets": budgets, "seed": 2000,
                    "output": {"path": str(tmp_path / "out.json")}}
        path.write_text(json.dumps(manifest))
        assert cli.main([command, "--manifest", str(path)]) == code, (command, budgets)
        if (command, code) == ("forcing-pipeline", 0):
            assert json.loads((tmp_path / "out.json").read_text())["payload"]["verified"] is True

    # the environment is no budget source
    monkeypatch.setenv("CLOSURELAB_BUDGET_EXP", "9")
    assert cli.main(["spectrum", "--n", "10", "--out", str(tmp_path / "env.json")]) == 0


@pytest.mark.parametrize("n", [14, 16])
def test_dense_bogolyubov_is_verified_above_n13(n, tmp_path):
    # the unclipped fourth power of a dense set's spectrum leaves int64 from n = 14
    out = tmp_path / "bog.json"
    assert cli.main(["bogolyubov", "--n", str(n), "--seed", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["verified"] is True
    assert payload["set_size"] == 1 << (n - 1)


def test_csv_output_rfc4180_with_meta_sidecar(tmp_path):
    out = tmp_path / "compat.csv"
    code = cli.main(
        [
            "counterexample",
            "--mode", "compatibility",
            "--ns", "36",
            "--samples", "500",
            "--seed", "4",
            "--out", str(out),
            "--format", "csv",
        ]
    )
    assert code == 0
    raw = out.read_bytes()
    assert b"\r\n" in raw
    header = raw.split(b"\r\n")[0].decode()
    assert header == "n,constant,estimate,ci_lo,ci_hi"
    meta = json.loads((tmp_path / "compat.csv.meta.json").read_text())
    assert meta["meta"]["version"]


def test_spectrum_csv_rows(tmp_path):
    out = tmp_path / "spec.csv"
    code = cli.main(
        [
            "spectrum",
            "--n", "4",
            "--set-kind", "layers",
            "--lo", "0",
            "--hi", "1",
            "--out", str(out),
            "--format", "csv",
        ]
    )
    assert code == 0
    lines = out.read_bytes().rstrip(b"\r\n").split(b"\r\n")
    assert lines[0] == b"r,coefficient"
    assert len(lines) == 17  # header + 16 coefficients
    assert lines[1] == b"0,5"  # coeff at r=0 is |A| = 5


def test_forcing_pipeline_cli(tmp_path):
    out = tmp_path / "fp.json"
    code = cli.main(
        [
            "forcing-pipeline",
            "--shape", "4", "4",
            "--delta", "1/2",
            "--seed", "1000",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["payload"]["verified"] is True
    assert "u_codim" in doc["payload"]["measured"]


def test_simple_set_and_lsystem_commands(tmp_path):
    assert cli.main(["simple-set", "--shape", "3", "3", "--k", "1", "--seed", "2",
                     "--out", str(tmp_path / "ss.json")]) == 0
    doc = json.loads((tmp_path / "ss.json").read_text())
    assert doc["payload"]["membership_check"] is True

    assert cli.main(["lsystem", "--shape", "3", "3", "--delta", "1/2", "--seed", "3",
                     "--out", str(tmp_path / "ls.json")]) == 0
    doc = json.loads((tmp_path / "ls.json").read_text())
    assert doc["payload"]["verified"] is True


def test_simple_set_membership_check_runs_to_16_cells(tmp_path, monkeypatch):
    def simple_set(shape, seed):
        out = tmp_path / "ss.json"
        code = cli.main(["simple-set", "--shape", *map(str, shape), "--k", "1",
                         "--seed", str(seed), "--out", str(out)])
        return code, json.loads(out.read_text())["payload"]

    code, payload = simple_set((4, 4), 5)
    assert (code, payload["membership_check"], payload["size"]) == (0, True, 256)
    # too many cells to check every tensor: reported as not run
    code, payload = simple_set((4, 5), 5)
    assert (code, payload["membership_check"]) == (0, None)

    # the (4,4) check really runs: a membership test that drops one member fails it
    real = SimpleSet.members

    def drop_one(self, data):
        inside = real(self, data)
        inside[np.flatnonzero(inside)[:1]] = False
        return inside

    monkeypatch.setattr(SimpleSet, "members", drop_one)
    code, payload = simple_set((4, 4), 5)
    assert (code, payload["membership_check"]) == (2, False)


def test_concentration_command(tmp_path):
    out = tmp_path / "conc.json"
    code = cli.main(
        [
            "counterexample",
            "--mode", "concentration",
            "--n", "100",
            "--w", "10",
            "--threshold", "98/100",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["payload"]["count"] == sum(
        row["multiplicity"] for row in doc["payload"]["rows"]
    )


def test_scenarios_command_exit_zero(tmp_path):
    out = tmp_path / "scen.json"
    assert cli.main(["scenarios", "--seed", "7", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["payload"]["all_passed"] is True


def test_selftest_passes_and_detects_faults(monkeypatch, capsys):
    report = selftest(seed=1)
    assert report["all_ok"]

    import closurelab.spectral as spectral

    real = spectral._butterfly

    def corrupted(a):
        out = real(a)
        out[-1] += 2
        return out

    monkeypatch.setattr(spectral, "_butterfly", corrupted)
    code = cli.main(["selftest", "--seed", "1"])
    assert code == 2


def test_selftest_deterministic():
    assert selftest(seed=5) == selftest(seed=5)


def test_run_verification_failure_exit_2(tmp_path):
    # scenarios with a translate fixture cannot fail; force a failing command
    # through a pipeline manifest with an unachievable density instead
    manifest = Manifest.from_dict(
        {
            "command": "forcing-pipeline",
            "params": {"shape": [3, 3], "delta": "1/2", "pairs": 3},
            "seed": 1,
        }
    )
    assert run(manifest, quiet=True) == 2


@pytest.mark.parametrize("command, params, code, message", [
    ("lsystem", {"delta": "0"}, 1, "error: delta 0 is outside (0, 1]"),
    ("lsystem", {"delta": "3/2"}, 1, "error: delta 3/2 is outside (0, 1]"),
    ("forcing-pipeline", {"delta": "3/2"}, 1, "error: delta 3/2 is outside (0, 1]"),
    ("forcing-pipeline", {"delta": -0.5}, 1, "error: delta -1/2 is outside (0, 1]"),
    ("forcing-pipeline", {"shape": [2, 2, 2]}, 1, "error: shape (2, 2, 2) is not 2-dimensional"),
    ("forcing-pipeline", {"pairs": 3}, 2,
     "verification failure: 3 factor tuples are below density 1/2 of 2^6"),
    ("forcing-pipeline", {"pairs": -1}, 1, "error: -1 distinct factor tuples do not fit in 2^6"),
    ("lsystem", {"tuples": 65}, 1, "error: 65 distinct factor tuples do not fit in 2^6"),
], ids=["lsystem-delta-0", "lsystem-delta-3_2", "pipeline-delta-3_2", "pipeline-delta-negative",
        "pipeline-shape-3d", "pipeline-too-few-pairs", "pipeline-negative-pairs",
        "lsystem-too-many-tuples"])
def test_forcing_input_errors_name_the_bad_value(command, params, code, message, capsys):
    manifest = Manifest.from_dict({"command": command, "params": {"shape": [3, 3], **params}})
    assert run(manifest) == code
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("argv", [
    ["counterexample", "--mode", "compatibility", "--ns", "36", "--samples", "0"],
    ["closedness", "--n", "6", "--mode", "sampled", "--samples", "0"],
], ids=["compatibility", "closedness"])
def test_zero_samples_exit_1_with_one_line(argv, capsys):
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: samples must be >= 1\n"


@pytest.mark.parametrize("mode, message", [
    ("exact", "error: A and B must be nonempty\n"),
    ("sampled", "error: B must be nonempty: its masses sum to 0\n"),
], ids=["exact", "sampled"])
def test_empty_generator_multiset_exit_1_with_one_line(mode, message, capsys):
    params = {"n": 6, "mode": mode, "generators": {"kind": "basis", "support": 0}}
    assert run(Manifest.from_dict({"command": "closedness", "params": params})) == 1
    assert capsys.readouterr().err == message


def test_io_error_exit_1(tmp_path):
    manifest = Manifest.from_dict(
        {
            "command": "scenarios",
            "output": {"path": str(tmp_path / "missing" / "deep" / "x.json")},
        }
    )
    assert run(manifest, quiet=True) == 1
    # an explicit set element outside F2^4 is a validation error, not a traceback
    manifest = Manifest.from_dict(
        {"command": "closedness", "params": {"n": 4, "set": {"kind": "explicit", "elements": ["ff"]}}}
    )
    assert run(manifest, quiet=True) == 1


# strings json must escape, and the walk's sentinel separators inside strings
_TRICKY_STRINGS = ["", "a", 'q"uote', "back\\slash", "nul\x00x", "sep\x01y", "new\nline",
                   "tab\t", "\u00e9 \u00fcn\u00ef", "\u6f22\u5b57", "}\x00{", "{", "}\x01", "\ud800"]


def _random_scalar(rnd: random.Random):
    pick = rnd.randrange(5)
    if pick == 0:
        return rnd.randint(-(10**20), 10**20)
    if pick == 1:
        return rnd.choice([rnd.random() * 10 ** rnd.randint(-30, 30), math.nan, math.inf,
                           -math.inf, 0.0, -0.0, 1e16, -2.5])
    if pick == 2:
        return rnd.choice([True, False, None])
    return rnd.choice(_TRICKY_STRINGS)


def _random_document(rnd: random.Random, depth: int = 0):
    """Scalars, lists, tuples, tables of flat or nested rows, str- and int-keyed dicts."""
    pick = rnd.random()
    if depth > 3 or pick < 0.25:
        return _random_scalar(rnd)
    if pick < 0.4:
        return [_random_scalar(rnd) for _ in range(rnd.randint(0, 5))]
    if pick < 0.6:  # a table; rows may differ in keys, be empty or hold a nested value
        keys = ["r", "coefficient", "a", 'k"', "\u00e9"]
        return [
            {key: _random_scalar(rnd) if rnd.random() < 0.9 else _random_document(rnd, depth + 1)
             for key in rnd.sample(keys, rnd.randint(0, 3))}
            for _ in range(rnd.randint(0, 4))
        ]
    if pick < 0.7:
        return {rnd.choice([1, 2, 3]): _random_document(rnd, depth + 1)
                for _ in range(rnd.randint(0, 3))}
    if pick < 0.8:
        return tuple(_random_document(rnd, depth + 1) for _ in range(rnd.randint(0, 3)))
    return {rnd.choice(_TRICKY_STRINGS): _random_document(rnd, depth + 1)
            for _ in range(rnd.randint(0, 4))}


def _assert_walk_matches_json(obj, depth=0):
    canon, indented = _json_texts(obj, depth)
    assert canon == json.dumps(obj, sort_keys=True, separators=(",", ":"))
    expected = json.dumps(obj, sort_keys=True, indent=1).replace("\n", "\n" + " " * depth)
    assert indented == expected, repr(obj)


def test_json_texts_match_json_dumps():
    cases = [
        1, -2.5, math.nan, math.inf, -math.inf, True, None, "x\x00\n\"\\\u00e9",
        [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], {}], [{"a": 1}, {}],
        [1, 2.5, "s", None, True, math.nan],
        [{"r": "00", "coefficient": 3}, {"r": "10", "coefficient": -1}],
        [{"b": 1, "a": 2}, {"c": "}\x00{"}],  # rows with differing keys
        [{"a": 1}, {"a": [1, 2]}],  # a nested value
        [{"a": 1}, {"a": {"b": 2}}],
        [{"a": 1}, 2, "x"],
        {1: "a", 2: [1, 2]}, {"a": {1: {"b": [1]}}}, {True: 1}, {"x": (1, (2, 3))},
        {"z": [{"q": 1.0}], "a": {"nested": [[1, [2, {"k": None}]]]}},
    ]
    for obj in cases:
        for depth in (0, 1, 3):
            _assert_walk_matches_json(obj, depth)
    rnd = random.Random(20260811)
    for _ in range(3000):
        _assert_walk_matches_json(_random_document(rnd), rnd.randint(0, 2))


def test_json_texts_raise_like_json_dumps():
    for obj in ({"a": object()}, [{"a": 1}, {"b": object()}], {1: "a", "b": 2}):
        with pytest.raises(TypeError):
            json.dumps(obj, sort_keys=True, indent=1)
        with pytest.raises(TypeError):
            _json_texts(obj)


def _first_differing_line(got: str, want: str) -> tuple[int, str | None, str | None] | None:
    """None for equal texts, else (line number, got line, wanted line) at the first difference.

    Reporting one line keeps a failing comparison of a ~30 KB payload fast,
    where pytest's own diff of the two strings takes minutes.
    """
    if got == want:
        return None
    pairs = itertools.zip_longest(got.splitlines(True), want.splitlines(True))
    return next((number, a, b) for number, (a, b) in enumerate(pairs, 1) if a != b)


@pytest.mark.parametrize("command, params", [
    ("closedness", {"n": 8}),
    ("closedness", {"n": 8, "mode": "sampled", "samples": 2000}),
    ("spectrum", {"n": 1}),
    ("spectrum", {"n": 5}),
    ("spectrum", {"n": 9, "set": {"kind": "layers", "lo": 2, "hi": 4}}),
    ("bogolyubov", {"n": 8}),
    ("forcing-pipeline", {"shape": [3, 3]}),
    ("simple-set", {"shape": [2, 3], "k": 1}),
    ("lsystem", {"shape": [3, 3]}),
    ("counterexample", {"mode": "compatibility", "ns": [36], "samples": 500}),
    ("counterexample", {"mode": "concentration", "n": 20, "w": 4}),
    ("scenarios", {"two_layer_ns": [5], "third_n": 9, "translate_n": 9, "window_n": 9,
                   "window_m": 7}),
])
def test_stdout_is_indented_sorted_json_with_canonical_hash(command, params, capsys):
    code = run(Manifest.from_dict({"command": command, "params": params, "seed": 3}))
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code in (0, 2)
    assert _first_differing_line(out, json.dumps(doc, sort_keys=True, indent=1) + "\n") is None
    assert doc["meta"]["payload_hash"] == hashlib.sha256(
        canonical_json(doc["payload"]).encode()).hexdigest()


def test_csv_sidecar_and_selftest_are_indented_sorted_json(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--n", "3", "--out", str(out), "--format", "csv"]) == 0
    sidecar = (tmp_path / "spec.csv.meta.json").read_text()
    doc = json.loads(sidecar)
    assert sidecar == json.dumps(doc, sort_keys=True, indent=1) + "\n"
    assert doc["payload_sans_rows"]["n"] == 3 and "rows" not in doc["payload_sans_rows"]
    capsys.readouterr()
    assert cli.main(["selftest", "--seed", "2"]) == 0
    printed = capsys.readouterr().out
    assert printed == json.dumps(json.loads(printed), sort_keys=True, indent=1) + "\n"


def test_table_texts_and_csv_match_its_rows():
    """A table writes exactly what its list of row dicts would, keys sorted."""
    rnd = random.Random(11)
    big = 1 << 12
    odd = [math.nan, math.inf, -math.inf, -0.0, 0.0, True, False, None, 2**63, -(2**64) - 1,
           10**30, 1e300, -2.5]
    tables = [
        _Table(r=["0"], coefficient=[5]),
        _Table(r=[format(i, "03x") for i in range(big)],
               coefficient=[rnd.randint(-big, big) for _ in range(big)]),
        _Table(**{"s": _TRICKY_STRINGS, "}\x00{": _TRICKY_STRINGS[::-1],
                  'k"': list(range(len(_TRICKY_STRINGS)))}),
        _Table(value=odd, name=[repr(v) for v in odd]),
        _Table(only=odd),
    ]
    for table in tables:
        rows = [dict(zip(table, values)) for values in zip(*table.values())]
        assert len(rows) == len(next(iter(table.values())))
        for depth in range(4):
            canon, indented = _json_texts(table, depth)
            assert canon == json.dumps(rows, sort_keys=True, separators=(",", ":"))
            expected = json.dumps(rows, sort_keys=True, indent=1)
            assert indented == expected.replace("\n", "\n" + " " * depth)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(table), lineterminator="\r\n")
        writer.writeheader()
        writer.writerows(rows)
        assert _csv_text(table) == buf.getvalue()
    empty = _Table(r=[], coefficient=[])
    assert not empty and _json_texts(empty, 2) == ("[]", "[]")


def test_spectrum_payload_hash_pinned(capsys):
    """How the rows are written must not change the payload bytes."""
    assert run(Manifest.from_dict({"command": "spectrum", "params": {"n": 9}, "seed": 3})) == 0
    assert json.loads(capsys.readouterr().out)["meta"]["payload_hash"] == (
        "d8b13862a58c82bd4ef1bfa916bd6f495fe6d7e94ef104bac723f2859e5d413e")


# flags that keep a subcommand's default run small, or give it a required value
_SMALL_RUN = {
    "closedness": ["--n", "8"],
    "spectrum": ["--n", "6"],
    "bogolyubov": ["--n", "8"],
    "forcing-pipeline": ["--shape", "3", "3"],
    "lsystem": ["--shape", "3", "3"],
    "counterexample": ["--samples", "1000", "--n", "20", "--w", "4"],
}


def test_every_subcommand_and_choice_exits_with_a_clean_error(capsys):
    """Each subcommand at its defaults and once per choice of each flag: the
    exit code is a documented one, and no error is a bare key name."""
    subcommands = next(action for action in cli._parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    for command, sub in subcommands.choices.items():
        base = [command, *_SMALL_RUN.get(command, [])]
        argvs = [base] + [[*base, action.option_strings[0], choice]
                          for action in sub._actions for choice in action.choices or ()]
        for argv in argvs:
            code = cli.main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), argv
            assert not re.search(r"^error: '[^']*'$", err, re.M), (argv, err)


def test_rank_one_generators_from_flags(capsys):
    args = ["closedness", "--n", "16", "--generators", "rank-one", "--mode", "exact", "--seed", "4"]
    assert cli.main(args) == 1
    assert "--dims" in capsys.readouterr().err
    assert cli.main([*args, "--dims", "4", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["manifest"]["params"]["generators"] == {"kind": "rank-one", "dims": [4, 4]}
    assert doc["payload"]["generators_total"] == 16 * 16  # x (x) y over F2^4 x F2^4
    assert cli.main(["closedness", "--generators", "basis"]) == 1
    assert capsys.readouterr().err == "error: missing parameter 'n'\n"


@pytest.mark.parametrize("raw", [
    "[1]", '{"seed": null}', '{"seed": "x"}', '{"budgets": 5}', '{"output": 5}',
], ids=["not-an-object", "seed-null", "seed-str", "budgets-int", "output-int"])
def test_manifest_type_errors_exit_cleanly(raw, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(raw)
    assert cli.main(["scenarios", "--manifest", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("raw", [
    {"command": "forcing-pipeline", "params": {"shape": 4}},
    {"command": "closedness", "params": {"n": 6, "set": [1, 2]}},
    {"command": "counterexample", "params": {"ns": 36}},
    {"command": "closedness", "params": {"n": 6, "generators": 5}},
], ids=["shape-int", "set-list", "ns-int", "generators-int"])
def test_malformed_parameter_types_exit_1_with_one_line(raw, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(raw))
    assert cli.main([raw["command"], "--manifest", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, err


@pytest.mark.parametrize("argv, message", [
    ("spectrum --n 6 --lo 1 --hi 2", "set kind 'random' does not read ['hi', 'lo']"),
    ("spectrum --n 7 --set-kind middle-layers --set-size 9",
     "set kind 'middle-layers' does not read ['size']"),
    ("closedness --n 16 --dims 4 4", "multiset kind 'basis' does not read ['dims']"),
], ids=["random-lo-hi", "middle-layers-size", "basis-dims"])
def test_set_and_generator_kinds_refuse_keys_they_do_not_read(argv, message, capsys):
    assert cli.main(argv.split()) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("params, set_size, generators_total", [
    ({"n": 5, "set": {"kind": "middle-layers"}}, 20, 5),
    ({"n": 6, "set": {"kind": "layers", "lo": 1, "hi": 2}}, 21, 6),
    ({"n": 6, "set": {"kind": "random", "size": 9}}, 9, 6),
    ({"n": 6, "set": {"kind": "explicit", "elements": ["3", "5"]}}, 2, 6),
    ({"n": 6, "generators": {"kind": "basis", "support": 0b111}}, 32, 3),
    ({"n": 6, "generators": {"kind": "rank-one", "dims": [2, 3], "nonzero": True}}, 32, 21),
    ({"n": 6, "generators": {"kind": "random", "support_size": 4, "max_mult": 1}}, 32, 4),
    ({"n": 6, "generators": {"kind": "explicit", "pairs": [["3", 2], ["5", 1]]}}, 32, 3),
], ids=["middle-layers", "layers", "random-set", "explicit-set", "basis", "rank-one",
        "random-generators", "explicit-generators"])
def test_every_set_and_generator_kind_reads_the_keys_it_declares(
    params, set_size, generators_total, capsys
):
    assert run(Manifest.from_dict({"command": "closedness", "params": params})) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert (payload["set_size"], payload["generators_total"]) == (set_size, generators_total)


@pytest.mark.parametrize("epsilon, code", [("1", 1), ("2", 1), ("-1/32", 1), ("0", 0)])
def test_forcing_pipeline_refuses_epsilon_outside_0_1(epsilon, code, capsys):
    assert cli.main(["forcing-pipeline", "--shape", "3", "3", f"--epsilon={epsilon}"]) == code
    err = capsys.readouterr().err
    assert err == (f"error: epsilon {epsilon} is outside [0, 1)\n" if code else "")


def _flag_manifest(monkeypatch, argv) -> dict:
    """The manifest ``argv`` builds, captured where ``main`` hands it to ``run``."""
    captured = []
    monkeypatch.setattr(cli, "run", lambda manifest: captured.append(manifest) or 0)
    assert cli.main(argv) == 0
    (manifest,) = captured
    return manifest.to_dict()


@pytest.mark.parametrize("argv, params", [
    ("closedness --n 8 --set-kind layers --lo 1 --hi 3 --set-size 5 --generators rank-one "
     "--dims 2 4 --mode sampled --samples 100",
     {"n": 8, "set": {"kind": "layers", "lo": 1, "hi": 3, "size": 5},
      "generators": {"kind": "rank-one", "dims": [2, 4]}, "mode": "sampled", "samples": 100}),
    ("spectrum --n 6 --set-kind layers --lo 1 --hi 2 --set-size 4",
     {"n": 6, "set": {"kind": "layers", "lo": 1, "hi": 2, "size": 4}}),
    ("bogolyubov --n 8 --set-size 17", {"n": 8, "set": {"kind": "random", "size": 17}}),
    ("forcing-pipeline --shape 3 3 --delta 3/4 --epsilon 1/16 --rank-threshold 2",
     {"shape": [3, 3], "delta": "3/4", "epsilon": "1/16", "rank_threshold": 2}),
    ("simple-set --shape 2 2 2 --k 2", {"shape": [2, 2, 2], "k": 2}),
    ("lsystem --shape 3 3 --delta 3/4", {"shape": [3, 3], "delta": "3/4"}),
    ("counterexample --mode concentration --ns 36 49 --c 0.2 --samples 100 --n 20 --w 4 "
     "--threshold 9/10",
     {"mode": "concentration", "ns": [36, 49], "c": 0.2, "samples": 100, "n": 20, "w": 4,
      "threshold": "9/10"}),
    ("scenarios", {}),
    ("closedness --n 8 --set-size 9", {"n": 8, "set": {"size": 9}}),
    ("closedness --n 16 --dims 4 4", {"n": 16, "generators": {"dims": [4, 4]}}),
], ids=["closedness", "spectrum", "bogolyubov", "forcing-pipeline", "simple-set", "lsystem",
        "counterexample", "scenarios", "set-size-without-kind", "dims-alone"])
def test_flags_write_the_keys_they_name(argv, params, monkeypatch):
    manifest = _flag_manifest(monkeypatch, [*argv.split(), "--seed", "3", "--format", "csv"])
    assert manifest == {"command": argv.split()[0], "params": params, "seed": 3, "budgets": {},
                        "output": {"format": "csv"}}


def test_flags_replace_a_manifest_mapping_as_a_whole(tmp_path, monkeypatch):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"command": "closedness", "seed": 2, "params": {
        "n": 6, "set": {"kind": "layers", "lo": 1, "hi": 2}, "generators": {"kind": "basis"}}}))
    manifest = _flag_manifest(monkeypatch, ["closedness", "--manifest", str(path),
                                            "--set-kind", "random"])
    assert manifest["params"] == {"n": 6, "set": {"kind": "random"},
                                  "generators": {"kind": "basis"}}
    assert manifest["seed"] == 2


def test_bogolyubov_set_size_names_the_int_type(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogolyubov", "--set-size", "x"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --set-size: invalid int value: 'x'\n")
