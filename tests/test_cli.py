import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from ddwl import cli, srings, suite
from ddwl.cli import main
from reference import from_text

DATA = pathlib.Path(__file__).parent / "data"


def test_build_writes_text_digraph(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["build", "3", "1", "--out", str(out)]) == 0
    g = from_text(out.read_text())
    assert g.n == 27
    assert set(g.arcs.sum(axis=1).tolist()) == {9}
    legend = capsys.readouterr().out
    assert "index(x, y, z)" in legend


def test_build_q9(tmp_path, capsys):
    out = tmp_path / "g9.txt"
    assert main(["build", "9", "2", "--out", str(out)]) == 0
    g = from_text(out.read_text())
    assert g.n == 729
    assert set(g.arcs.sum(axis=1).tolist()) == {81}
    legend = capsys.readouterr().out
    assert '"modulus": [1, 0]' in legend  # t**2 + 1


def test_build_loopless(tmp_path):
    out = tmp_path / "g.txt"
    assert main(["build", "3", "1", "--loopless", "--out", str(out)]) == 0
    g = from_text(out.read_text())
    assert not g.arcs.diagonal().any()


def test_build_rejects_even_and_composite_q(tmp_path, capsys):
    assert main(["build", "4", "0", "--out", str(tmp_path / "x.txt")]) == 2
    assert main(["build", "15", "0", "--out", str(tmp_path / "x.txt")]) == 2
    assert main(["build", "3", "7", "--out", str(tmp_path / "x.txt")]) == 2
    capsys.readouterr()


def test_build_respects_env_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DDWL_MAX_Q", "3")
    assert main(["build", "5", "1", "--out", str(tmp_path / "x.txt")]) == 2
    capsys.readouterr()


def test_verify_fast_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["verify", "3", "--suite", "fast", "--no-timings", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True
    assert report["q"] == 3
    assert "timings" not in report
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(set(names), key=names.index)  # each check appears once
    assert all(c["status"] in ("pass", "fail", "undetermined") for c in report["checks"])
    capsys.readouterr()


def test_verify_byte_identical_reports(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "3", "--suite", "fast", "--no-timings", "--out", str(a)])
    main(["verify", "3", "--suite", "fast", "--no-timings", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_verify_rejects_non_prime_power(capsys):
    assert main(["verify", "15"]) == 2
    capsys.readouterr()


def test_verify_usage_errors_exit_2(monkeypatch, capsys):
    assert main(["verify", "13"]) == 2                  # over the default cap of 11
    monkeypatch.setenv("DDWL_MAX_Q", "eleven")
    assert main(["verify", "3"]) == 2
    assert "DDWL_MAX_Q" in capsys.readouterr().err


_COMMANDS = [
    ["build", "3", "1", "--out"],
    ["verify", "9", "--suite", "fast", "--no-timings", "--out"],
    ["wl", "3", "1", "--tensor-out"],
    ["iso", "3", "--out"],
    ["design", "3", "1", "--out"],
]


@pytest.mark.parametrize("argv", _COMMANDS, ids=[a[0] for a in _COMMANDS])
@pytest.mark.parametrize("where", ["missing-directory", "directory", "empty"])
def test_unwritable_output_is_a_usage_error_before_any_work(argv, where, tmp_path, monkeypatch, capsys):
    """An output that cannot be opened, or an empty path (neither standard
    output nor the default file), exits 2 with an error line, before the
    suite runs or the group is built, and leaves no file behind."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "run_suite", spy)
    monkeypatch.setattr(cli, "Construction", spy)
    monkeypatch.chdir(tmp_path)
    targets = {"missing-directory": tmp_path / "absent" / "x.json", "directory": tmp_path}
    target = targets.get(where, "")
    before = sorted(tmp_path.rglob("*"))
    assert main(argv + [str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and str(target) in err
    assert calls == []
    assert sorted(tmp_path.rglob("*")) == before


def test_build_default_path_is_checked_before_any_work(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cay_q3_i1.txt").mkdir()
    monkeypatch.setattr(cli, "Construction", None)   # any use would raise
    assert main(["build", "3", "1"]) == 2
    assert "cay_q3_i1.txt: it is a directory" in capsys.readouterr().err


def test_verify_failed_check_exits_1(tmp_path, monkeypatch, capsys):
    def broken(ring):
        raise srings.NotAnSRing("cells are not closed under products")

    monkeypatch.setattr(srings, "structure_constants", broken)
    out = tmp_path / "r.json"
    assert main(["verify", "3", "--suite", "fast", "--out", str(out)]) == 1
    failed = {c["name"] for c in json.loads(out.read_text())["checks"] if c["status"] == "fail"}
    assert failed == {
        "structure_constants", "tensor_identities", "wl_closure", "algebraic_automorphisms"
    }
    capsys.readouterr()


def test_verify_honours_env_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DDWL_MAX_Q", "13")
    monkeypatch.setattr(suite, "REGISTRY", suite.REGISTRY[:1])
    out = tmp_path / "r.json"
    assert main(["verify", "13", "--suite", "fast", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["q"] == 13 and [c["name"] for c in report["checks"]] == ["field_axioms"]
    capsys.readouterr()


@pytest.mark.parametrize(
    "q, suite_name",
    [
        pytest.param(3, "full", id="full"),
        pytest.param(3, "fast", id="fast"),
        # uint32 keys (extension rank 657) and non-trivial isomorphism searches
        pytest.param(5, "full", id="q5-full"),
    ],
)
def test_verify_q3_report_matches_the_committed_bytes(q, suite_name, tmp_path, capsys):
    """A change to a report changes tests/data/verify_q<q>_<suite>.json in the
    same diff; regenerate with
    `ddwl verify <q> --suite <suite> --no-timings --out tests/data/verify_q<q>_<suite>.json`."""
    out = tmp_path / "r.json"
    assert main(["verify", str(q), "--suite", suite_name, "--no-timings", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"verify_q{q}_{suite_name}.json").read_bytes()
    capsys.readouterr()


def test_wl_tensor_export(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(["wl", "3", "1", "--tensor-out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["rank"] == 5
    assert sorted(payload["valencies"]) == [1, 2, 8, 8, 8]
    entries = payload["tensor"]
    assert all(len(e) == 4 and e[3] > 0 for e in entries)
    assert entries == sorted(entries)
    capsys.readouterr()


WL_SHA256 = {
    "3 1": "abb1b44d57a3437e37236aa4fe21b32d53b58e1d8961ca4dcd997d39df6488b4",
    "5 1": "8a80e8b804768e2f94ee6ba0310a61d46e2628183a4599deb987c5b297a376dd",
    "5 2": "bf56a4e1661beecba38f8bdaf2cfbbe73fa60e989d5a7cbb352b79936916cacd",
    "5 2 --loopless": "d68632b6f49e071e792336e505c628bc5eb330ccfcd7cb1b42baa7022593e9db",
    "7 2": "ce613a76c24edb62ec7dd95a8b849c44955ea6d76164b35fdcf160781e7395be",
    "7 2 --loopless": "7ed0fce9a8f6d3cb2899d5c8edc9dd612e7e17681b55faa4574f186f1fb1d40d",
    "9 1": "6e6c81cbfd239b6eacead82a670cd9316c14250392161346fa47355893858bc6",
}


@pytest.mark.parametrize("args", sorted(WL_SHA256))
def test_wl_tensor_pinned(args, tmp_path, capsys):
    """`ddwl wl q i --tensor-out` byte for byte: the rank, the valencies and
    every (r, s, t, count) row of the closure's intersection tensor, in order."""
    out = tmp_path / "t.json"
    assert main(["wl", *args.split(), "--tensor-out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WL_SHA256[args]
    capsys.readouterr()


def test_iso_command(tmp_path, capsys):
    out = tmp_path / "iso.json"
    assert main(["iso", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["labels"] == [1, 2]
    assert payload["exact"] is True
    assert payload["classes"] == 1
    wit = payload["witnesses"]["1,2"]
    assert wit["type"] == "isomorphic" and len(wit["mapping"]) == 27
    assert wit["nodes"] > 0 and wit["detail"] == ""
    capsys.readouterr()


ISO_SHA256 = {
    5: "d0708a402959c05bcb154c83ded70a456a6834298b110a7c354c81fc17c97363",
    7: "80aeef0528d13f56dfac3ee844b3006dbe5dd03013740ee9edfb87f98508436c",
}


@pytest.mark.parametrize("q", sorted(ISO_SHA256))
def test_iso_command_pinned(q, tmp_path, capsys):
    """`ddwl iso q` byte for byte: the class verdicts, every witness mapping
    and every node count of the search."""
    out = tmp_path / "iso.json"
    assert main(["iso", str(q), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ISO_SHA256[q]
    capsys.readouterr()


def test_iso_q7_matches_the_committed_bytes(tmp_path, capsys):
    """`ddwl iso 7` byte for byte: every witness mapping and node count of the
    search; regenerate with `ddwl iso 7 --out tests/data/iso_q7.json`."""
    out = tmp_path / "iso.json"
    assert main(["iso", "7", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "iso_q7.json").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv", [["verify", "5", "--no-timings"], ["verify", "4"]], ids=["verify-5", "usage-error"]
)
def test_python_m_ddwl_runs_the_command_line(argv, capsys):
    """`python -m ddwl` in a fresh interpreter prints and exits as `cli.main`."""
    root = pathlib.Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "ddwl", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=600,
    )
    code = main(argv)
    want = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr) == (code, want.out, want.err)


VERIFY_SHA256 = {
    (5, "fast"): "0d3e256604c35003539b0d7fe0f5ea8396810c46470493e541869ac0c9096432",
    (7, "full"): "79c5fd128175e4edbbf874baf49c5a654de8fa47e24aab0fb7fac66fc884f6a0",
    (9, "fast"): "e90fd3f253d1c24785c0cfb3b1b0dd2a7bf104ac5f42c128911f5dfeb67eac34",
    (11, "fast"): "bd2c31223f9d1e5e49da26c9b4ae435b2c0ed0053109ecf08633d754abbe11d3",
    (13, "fast"): "2488cb77a084d2e71cda72b023c446d47b389669c448f3f4003f83a68c808789",
}


@pytest.mark.parametrize("q, suite_name", sorted(VERIFY_SHA256))
def test_verify_report_pinned(q, suite_name, tmp_path, monkeypatch, capsys):
    """`DDWL_MAX_Q=13 ddwl verify q --suite <suite> --no-timings` byte for
    byte, past the committed reports: every verdict and every reported count."""
    monkeypatch.setenv("DDWL_MAX_Q", "13")
    out = tmp_path / "r.json"
    args = ["verify", str(q), "--suite", suite_name, "--no-timings", "--out", str(out)]
    assert main(args) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_SHA256[q, suite_name]
    capsys.readouterr()


def test_design_command(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert main(["design", "5", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload == {
        "crit_holds": True,
        "det_A_nonzero": True,
        "i": 3,
        "pairs_checked": 15625,
        "q": 5,
    }
    capsys.readouterr()


def test_design_command_pinned(tmp_path, capsys):
    """`ddwl design 11 3` byte for byte."""
    out = tmp_path / "d.json"
    assert main(["design", "11", "3", "--out", str(out)]) == 0
    want = "f6b6fecb30d2a9ce2d3d16f0dadd90e0412e705d87c104f17548145625425137"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want
    capsys.readouterr()


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "ddwl" in capsys.readouterr().out
