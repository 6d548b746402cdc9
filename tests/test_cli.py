"""CLI surface tests: descriptor parsing, report determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from charform import cli
from charform.cli import main
from charform.errors import ParseError
from charform.fields import GF2, gf2k, ratfunc
from charform.forms import form
from charform.serialize import (
    descriptor_from_json,
    descriptor_to_json,
    fe_from_json,
    fe_to_json,
    form_from_json,
    form_to_json,
)

F4 = gf2k(2)
R2 = ratfunc(GF2)


def write_descriptor(tmp_path, obj, name="desc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


SPLIT = {"kind": "split_symp", "field": "gf2"}
ORTH = {"kind": "orthogonal", "field": "gf2", "gram": ["0x1", "0x1", "0x1", "0x1"]}
UNIT = {"kind": "unitary_exchange", "field": "gf2"}
INDEX2_RF = {
    "kind": "index2_symp",
    "field": "ratfunc:gf2:t",
    "quaternion": {
        "a": {"num": ["0x0", "0x1"], "den": ["0x1"]},
        "b": {"num": ["0x0", "0x1"], "den": ["0x1"]},
    },
    "h": [
        {"num": ["0x1"], "den": ["0x1"]},
        {"num": ["0x0", "0x1"], "den": ["0x1"]},
        {"num": ["0x1", "0x1"], "den": ["0x1"]},
    ],
}


def test_element_json_round_trip():
    for x in F4.elements():
        assert fe_from_json(F4, fe_to_json(x)) == x
    t = R2.t
    for x in (R2.zero, R2.one, t, (t + R2.one) / (t * t)):
        assert fe_from_json(R2, fe_to_json(x)) == x


def test_form_json_round_trip():
    q = form(R2, [(R2.one, R2.t)], [R2.t])
    assert form_from_json(form_to_json(q)) == q


def test_descriptor_json_round_trip():
    desc = descriptor_from_json(INDEX2_RF)
    again = descriptor_from_json(descriptor_to_json(desc))
    assert again.kind == "index2_symp"
    assert again.us == desc.us
    assert again.quat.a == desc.quat.a and again.quat.b == desc.quat.b


def test_descriptor_json_rejects_malformed():
    with pytest.raises(ParseError):
        descriptor_from_json({"kind": "nope", "field": "gf2"})
    with pytest.raises(ParseError):
        descriptor_from_json({"kind": "index2_symp", "field": "gf2"})
    with pytest.raises(ParseError):
        descriptor_from_json({"kind": "orthogonal", "field": "gf2", "gram": ["0x1"]})


@pytest.mark.parametrize(
    "c, message",
    [
        ({"num": ["0x3"], "den": ["0x1"]}, "coefficient 0x3 out of range"),
        ({"num": ["-0x1"], "den": ["0x1"]}, "coefficient -0x1 out of range"),
        ({"num": ["0x1"], "den": ["0x0"]}, "zero denominator"),
        ({"num": ["0x1"], "den": []}, "zero denominator"),
        # a string is not a coefficient list, nor are the keys of an object
        ({"num": "11", "den": "1"}, "num and den must be lists"),
        ({"num": {"0x1": 0}, "den": ["1"]}, "num and den must be lists"),
        ({"num": ["0x1"], "den": ["0x1"], "deg": 0}, "the keys num and den only"),
        ({"num": ["0x1"]}, "the keys num and den only"),
        ({"num": ["+1"], "den": ["0x1"]}, "coefficient '+1' is not a hex number"),
        ({"num": [1], "den": ["0x1"]}, "coefficient 1 is not a hex number"),
        (["0x1"], "the keys num and den only"),
    ],
)
def test_extract_malformed_ratfunc_element_is_exit_2(c, message, tmp_path, capsys):
    gram = [{"num": ["0x1"], "den": ["0x1"]}] * 4
    obj = {"kind": "unitary_etale", "field": "ratfunc:gf2:t", "c": c, "gram": gram}
    path = write_descriptor(tmp_path, obj)
    assert main(["extract", "--input", path, "--json"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert f"error: bad field element {c!r}" in captured.err
    assert message in captured.err


@pytest.mark.parametrize(
    "obj, message",
    [
        (
            {"kind": "unitary_etale", "field": "gf2", "c": "0x0", "gram": ["0x1"] * 4},
            "the center parameter c must be outside the Artin-Schreier image",
        ),
        (
            {"kind": "orthogonal", "field": "gf2", "gram": ["0x1", "0x0", "0x1", "0x1"]},
            "Gram coefficients must be nonzero",
        ),
        (
            {"kind": "index2_symp", "field": "gf2", "quaternion": {"a": "0x1", "b": "0x0"},
             "h": ["0x1"] * 3},
            "the slot b of [a,b) must be nonzero",
        ),
        (
            {"kind": "index2_symp", "field": "gf2", "quaternion": {"a": "0x1", "b": "0x1"},
             "h": ["0x1", "0x0", "0x1"]},
            "Gram coefficients must be nonzero",
        ),
        ({"kind": "orthogonal", "field": "gf2", "gram": 5}, "gram must be a list"),
        ({"kind": "orthogonal", "field": "gf2", "gram": None}, "gram must be a list"),
        (
            {"kind": "index2_symp", "field": "gf2", "quaternion": "x", "h": ["0x1"] * 3},
            "quaternion must be an object",
        ),
        ({"kind": "split_symp", "field": 5}, "bad field descriptor 5"),
        (
            {"kind": "split_symp", "field": "gf2", "gram": 5},
            "split_symp descriptor has unexpected keys: gram",
        ),
        (
            {"kind": "unitary_etale", "field": "gf2", "c": "0x1", "gram": ["0x1"] * 4,
             "grma": ["0x1"] * 4},
            "unitary_etale descriptor has unexpected keys: grma",
        ),
        (
            {"kind": "index2_symp", "field": "gf2",
             "quaternion": {"a": "0x1", "b": "0x1", "c": "0x1"}, "h": ["0x1"] * 3},
            "quaternion has unexpected keys: c",
        ),
        *(
            (
                {"kind": "orthogonal", "field": "gf2k:3", "gram": [x, "0x1", "0x1", "0x1"]},
                f"bad field element {x!r}: element {x!r} is not a hex number",
            )
            for x in (" 0x3", "0x_3", "+3", "\uff13", "3\n", 3)
        ),
        (
            {"kind": "orthogonal", "field": "gf2k:3", "gram": ["-0x0", "0x1", "0x1", "0x1"]},
            "bad field element '-0x0': element -0x0 out of range",
        ),
        *((obj, "descriptor must be a JSON object") for obj in ([], "x", None)),
    ],
    ids=[
        "split_center", "zero_gram", "zero_slot_b", "zero_h",
        "gram_number", "gram_null", "quaternion_string", "field_number",
        "split_extra_key", "etale_misspelt_key", "quaternion_extra_slot",
        "element_padded", "element_separated", "element_signed", "element_fullwidth",
        "element_newline", "element_number", "element_minus_zero",
        "descriptor_list", "descriptor_string", "descriptor_null",
    ],
)
def test_extract_invalid_descriptor_is_exit_2(obj, message, tmp_path, capsys):
    path = write_descriptor(tmp_path, obj)
    assert main(["extract", "--input", path]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert f"error: {message}" in captured.err


def test_describe_output(tmp_path, capsys):
    path = write_descriptor(tmp_path, SPLIT)
    assert main(["describe", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "Symd dim 28" in out and "4/8/8/8" in out
    path = write_descriptor(tmp_path, ORTH, "orth.json")
    assert main(["describe", "--input", path]) == 0
    assert "Sym dim 10" in capsys.readouterr().out


def test_main_builds_the_parser_once(tmp_path, capsys):
    path = write_descriptor(tmp_path, SPLIT)
    assert main(["describe", "--input", path]) == 0
    assert main(["describe", "--input", path, "--json"]) == 0
    assert cli.build_parser() is cli.build_parser() and cli.build_parser.cache_info().misses == 1


def test_importing_the_cli_builds_no_parser_and_no_skeleton():
    # both are built on first use, so importing the CLI builds neither
    code = (
        "import charform.cli as c, charform.involutions as i; "
        "print(c.build_parser.cache_info().currsize, i._skeleton.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    out = subprocess.run([sys.executable, "-B", "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "0"]


def test_describe_malformed_json_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert main(["describe", "--input", str(path)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_extract_deterministic_reports(tmp_path, capsys):
    path = write_descriptor(tmp_path, UNIT)
    assert main(["extract", "--input", path, "--seed", "5", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["extract", "--input", path, "--seed", "5", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical
    report = json.loads(first)
    assert report["seed"] == 5
    assert report["dims"] == [4, 4, 4, 4]
    assert all(c["result"] == "true" for c in report["checks"])


def test_extract_symplectic_report_shape(tmp_path, capsys):
    path = write_descriptor(tmp_path, SPLIT)
    assert main(["extract", "--input", path, "--case", "symplectic", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["case"] == "symplectic"
    assert len(report["pi3"]["blocks"]) == 4
    assert len(report["pi5"]["blocks"]) == 16


def test_extract_case_mismatch_is_exit_2(tmp_path, capsys):
    path = write_descriptor(tmp_path, SPLIT)
    assert main(["extract", "--input", path, "--case", "orthogonal"]) == 2


@pytest.mark.parametrize(
    "command, seed",
    [("extract", "11"), ("extract", "abc"), ("verify", "abc")],
    ids=["extract", "extract_not_integer", "verify_not_integer"],
)
def test_extract_env_seed(command, seed, tmp_path, capsys, monkeypatch):
    path = write_descriptor(tmp_path, UNIT)
    monkeypatch.setenv("CHARFORM_SEED", seed)
    argv = ["extract", "--input", path] if command == "extract" else ["verify", "--suite", "fields"]
    rc = main(argv + ["--json"])
    captured = capsys.readouterr()
    if seed.isdigit():
        assert rc == 0 and json.loads(captured.out)["seed"] == int(seed)
    else:
        assert rc == 2 and not captured.out
        assert "error: CHARFORM_SEED must be an integer, not 'abc'" in captured.err


def test_verify_exit_codes(capsys):
    assert main(["verify", "--suite", "fields", "--field", "gf2k:2", "--trials", "50"]) == 0
    out = capsys.readouterr().out
    assert "PASS fields.axioms" in out


@pytest.mark.parametrize("suite", ["fields", "unitary", "orthogonal"])
def test_verify_ratfunc_suite_passes(suite, capsys):
    assert main(["verify", "--suite", suite, "--field", "ratfunc:gf2:t", "--trials", "50"]) == 0


@pytest.mark.parametrize(
    "field",
    [
        "gf2k:2:0x7:junk",
        "gf2k:3:0xb:",
        "gf2k:2:-0x7",
        "ratfunc:gf2:",
        "gf2k: 2",
        "gf2k:+2",
        "gf2k:2:0x_7",
        "gf2k:\uff12",
        "ratfunc:gf2: t",
        " gf2k:2",
        "gf2k:2\n",
        "\tratfunc:gf2:t",
        "ratfunc: gf2k:2:t",
        "ratfunc:gf2 :t",
    ],
)
@pytest.mark.parametrize("command", ["extract", "verify"])
def test_malformed_field_is_exit_2(command, field, tmp_path, capsys):
    if command == "extract":
        argv = ["extract", "--input", write_descriptor(tmp_path, {**UNIT, "field": field})]
    else:
        argv = ["verify", "--suite", "fields", "--field", field]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith(f"error: bad field descriptor {field!r}")


def test_verify_zero_trials_vacuous(capsys):
    assert main(["verify", "--suite", "fields", "--trials", "0"]) == 0
    err = capsys.readouterr().err
    assert "vacuous" in err


def test_verify_json_deterministic(capsys):
    args = ["verify", "--suite", "quaternions", "--field", "gf2k:3", "--seed", "3",
            "--trials", "40", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert first == capsys.readouterr().out


def test_orthogonal_extract_report(tmp_path, capsys):
    path = write_descriptor(tmp_path, ORTH)
    rc = main(["extract", "--input", path, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0  # unknowns warn, they do not fail
    assert report["phi"]["diag"] and len(report["phi"]["diag"]) == 6
    assert len(report["pi3"]["diag"]) == 8


def test_index2_ratfunc_extract_wire_level(tmp_path, capsys):
    # the closed-form hermitian example through the JSON surface
    path = write_descriptor(tmp_path, INDEX2_RF)
    rc = main(["extract", "--input", path, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["case"] == "symplectic" and report["dims"] == [4, 8, 8, 8]
    names = {c["name"]: c["result"] for c in report["checks"]}
    assert names["pi3_matches_closed_form"] == "true"
    assert report["a1"] == {"num": ["0x1"], "den": ["0x1"]}
