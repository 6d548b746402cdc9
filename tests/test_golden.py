"""Golden reports: `extract --json` and `verify --json` must reproduce, byte
for byte, the reports recorded in tests/golden (see tests/golden/README.md)."""

import json
from pathlib import Path

import pytest

from charform.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name for p in (GOLDEN / "expected").glob("*.json"))
VERIFY_CASES = sorted(p.name for p in (GOLDEN / "verify").glob("*.json"))


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
