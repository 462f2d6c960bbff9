"""Tests for the manifest-driven CLI harness."""

import json

import numpy as np
import pytest

from closurelab import cli
from closurelab.cli import Manifest, ManifestError, canonical_json, run, selftest
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
        ("spectrum", spectrum_n10, {"witness_budget": None}, 1),  # not an integer
        ("scenarios", {}, {"max_samples": "many"}, 1),
    ]
    path = tmp_path / "m.json"
    for command, params, budgets, code in cases:
        manifest = {"command": command, "params": params, "budgets": budgets,
                    "output": {"path": str(tmp_path / "out.json")}}
        path.write_text(json.dumps(manifest))
        assert cli.main([command, "--manifest", str(path)]) == code, (command, budgets)

    # the environment is no budget source
    monkeypatch.setenv("CLOSURELAB_BUDGET_EXP", "9")
    assert cli.main(["spectrum", "--n", "10", "--out", str(tmp_path / "env.json")]) == 0


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


def test_io_error_exit_1(tmp_path):
    manifest = Manifest.from_dict(
        {
            "command": "scenarios",
            "output": {"path": str(tmp_path / "missing" / "deep" / "x.json")},
        }
    )
    assert run(manifest, quiet=True) == 1
