"""Golden extraction reports: `extract --json` must reproduce, byte for byte,
the reports recorded in tests/golden/expected (see tests/golden/README.md)."""

from pathlib import Path

import pytest

from charform.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name for p in (GOLDEN / "expected").glob("*.json"))


@pytest.mark.parametrize("name", CASES)
def test_extract_report_is_byte_identical(name, capsys):
    stem, seed = name[: -len(".json")].rsplit(".seed", 1)
    descriptor = GOLDEN / "descriptors" / f"{stem}.json"
    rc = main(["extract", "--input", str(descriptor), "--json", "--seed", seed])
    assert capsys.readouterr().out == (GOLDEN / "expected" / name).read_text()
    assert rc == 0
