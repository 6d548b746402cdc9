"""Golden reports: `extract --json` and `verify --json` must reproduce, byte
for byte, the reports recorded in tests/golden (see tests/golden/README.md)."""

import json
from pathlib import Path

import pytest

from charform.cli import main
from charform.fields import parse_field
from charform.linalg import Mat
from charform.quaternions import Quat
from charform.serialize import descriptor_from_json, descriptor_to_json

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name for p in (GOLDEN / "expected").glob("*.json"))
VERIFY_CASES = sorted(p.name for p in (GOLDEN / "verify").glob("*.json"))
DESCRIPTORS = sorted(p.name for p in (GOLDEN / "descriptors").glob("*.json"))


@pytest.mark.parametrize("name", CASES)
def test_extract_report_is_byte_identical(name, capsys):
    stem, seed = name[: -len(".json")].rsplit(".seed", 1)
    descriptor = GOLDEN / "descriptors" / f"{stem}.json"
    rc = main(["extract", "--input", str(descriptor), "--json", "--seed", seed])
    assert capsys.readouterr().out == (GOLDEN / "expected" / name).read_text()
    assert rc == 0


@pytest.mark.parametrize("name", VERIFY_CASES)
def test_verify_report_is_byte_identical(name, capsys):
    expected = (GOLDEN / "verify" / name).read_text()
    header = json.loads(expected)
    argv = ["verify", "--suite", header["suite"], "--field", header["field"]]
    argv += ["--trials", str(header["trials"]), "--json", "--seed", str(header["seed"])]
    rc = main(argv)
    assert capsys.readouterr().out == expected
    assert rc == 0


def test_the_benchmark_verify_batches_are_pinned():
    # verify at 50 trials makes the batch sizes of the verify-suites workload
    for name in ("gf2k3.trials50.json", "ratfunc_gf2.trials50.json"):
        assert name in VERIFY_CASES
        assert json.loads((GOLDEN / "verify" / name).read_text())["trials"] == 50


@pytest.mark.parametrize("name", DESCRIPTORS)
def test_descriptor_json_round_trip(name):
    # the benchmark tracer rebuilds descriptors through this round trip
    obj = json.loads((GOLDEN / "descriptors" / name).read_text())
    out = descriptor_to_json(descriptor_from_json(obj))
    # every value is written back as read; the field text gains its defaults
    assert parse_field(out["field"]) is parse_field(obj["field"])
    assert out == {**obj, "field": out["field"]}
    assert descriptor_to_json(descriptor_from_json(out)) == out


# one descriptor of each kind; the index2 one runs over the etale ring
ONE_OF_EACH_KIND = [
    "split_symp_gf2",
    "index2_symp_ratfunc_gf2_etale",
    "unitary_exchange_gf2",
    "unitary_etale_gf2k2",
    "orthogonal_gf2",
]


def test_the_runtime_builds_no_mat_and_no_quat(monkeypatch, capsys):
    # elements are payload tuples: Mat and Quat are for the tracer and the oracles
    def refuse(self, *args):
        raise AssertionError(f"the runtime built a {type(self).__name__}")

    monkeypatch.setattr(Mat, "__init__", refuse)
    monkeypatch.setattr(Quat, "__init__", refuse)
    for stem in ONE_OF_EACH_KIND:
        descriptor = GOLDEN / "descriptors" / f"{stem}.json"
        rc = main(["extract", "--input", str(descriptor), "--json", "--seed", "0"])
        assert capsys.readouterr().out == (GOLDEN / "expected" / f"{stem}.seed0.json").read_text()
        assert rc == 0
    for field in ("gf2", "ratfunc:gf2:t"):
        assert main(["verify", "--suite", "all", "--field", field, "--trials", "2"]) == 0
        assert "FAIL" not in capsys.readouterr().out
