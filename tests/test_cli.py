"""End-to-end command line checks, including exit codes and round trips."""

import json

import pytest

from bundlehunt.cli import (
    EXIT_GENERICITY_EXHAUSTED,
    EXIT_INVALID_REQUEST,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_UNSUPPORTED_CASE,
    EXIT_VERIFICATION_FAILED,
    main,
)
from bundlehunt import serialize
from bundlehunt.qbundle import cohomology_table, square_window


@pytest.fixture
def cert_path(tmp_path):
    path = tmp_path / "cert.json"
    rc = main(
        [
            "hunt",
            "--alpha",
            "1/3",
            "--beta",
            "0",
            "--gamma",
            "2",
            "--rank",
            "3",
            "--seed",
            "3",
            "--window",
            "4",
            "--out",
            str(path),
        ]
    )
    assert rc == EXIT_OK
    return path


def test_hunt_writes_expected_certificate(cert_path):
    data = json.loads(cert_path.read_text())
    assert data["params"] == {"alpha": "1/3", "beta": "0", "gamma": "2", "rank": 3}
    assert data["F"] == [0, -1, -1]
    assert data["F1"] == [-7]
    assert data["F2"] == [2, 2]
    assert data["swapped"] is False
    assert data["shift"] == [0, 0]
    assert data["verified_window"] == 4
    assert data["table_digest"]["natural"] is True


def test_hunt_exit_codes(tmp_path, capsys):
    assert (
        main(["hunt", "--alpha", "1/2", "--beta", "0", "--gamma", "-1", "--rank", "2"])
        == EXIT_INVALID_REQUEST
    )
    assert (
        main(["hunt", "--alpha", "0", "--beta", "1", "--gamma", "1", "--rank", "2"])
        == EXIT_UNSUPPORTED_CASE
    )
    assert (
        main(["hunt", "--alpha", "0", "--beta", "0", "--gamma", "1", "--rank", "1"])
        == EXIT_INVALID_REQUEST
    )
    assert (
        main(
            [
                "hunt",
                "--alpha",
                "1/3",
                "--beta",
                "0",
                "--gamma",
                "2",
                "--rank",
                "3",
                "--bound",
                "0",
                "--resamples",
                "2",
            ]
        )
        == EXIT_GENERICITY_EXHAUSTED
    )
    capsys.readouterr()


def test_verify_round_trip(cert_path, capsys):
    assert main(["verify", "--cert", str(cert_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verifies" in out


def test_verify_detects_tampering(cert_path, tmp_path, capsys):
    data = json.loads(cert_path.read_text())
    # tamper one eta coefficient so the cocycle degenerates at a twist
    data["eta0"] = [[[], []]]
    data["eta1"] = [[[], []]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", "--cert", str(bad)]) == EXIT_VERIFICATION_FAILED
    err = capsys.readouterr().err
    assert "genericity" in err


def test_table_csv_contains_expected_row(cert_path, capsys):
    assert main(["table", "--cert", str(cert_path), "--window", "2", "--format", "csv"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n,m,h0,h1,h2,chi,region"
    assert "0,0,0,6,0,-6,H1R" in out.splitlines()


def test_table_json_round_trip(cert_path, capsys):
    assert main(["table", "--cert", str(cert_path), "--window", "3", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    reparsed = serialize.table_from_json(payload)
    cert = serialize.certificate_from_json(json.loads(cert_path.read_text()))
    in_memory = cohomology_table(cert.desc, square_window(3))
    assert reparsed == in_memory


def test_table_text_format(cert_path, capsys):
    assert main(["table", "--cert", str(cert_path), "--window", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "m\\n" in out and "6h1" in out


def test_split_command(tmp_path, capsys):
    mfile = tmp_path / "m.json"
    mfile.write_text(
        json.dumps(
            {
                "variable": "z",
                "entries": [
                    [[[4, "1"]], [[2, "1"]]],
                    [[], [[0, "1"]]],
                ],
            }
        )
    )
    assert main(["split", "--matrix", str(mfile)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "[-2, -2]"
    # [[1, z^3], [0, 1]] glues O + O; its sections reach degree 3
    mfile.write_text(
        json.dumps({"variable": "z", "entries": [[[[0, "1"]], [[3, "1"]]], [[], [[0, "1"]]]]})
    )
    assert main(["split", "--matrix", str(mfile)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "[0, 0]"


def test_split_rejects_non_bundle(tmp_path, capsys):
    mfile = tmp_path / "m.json"
    mfile.write_text(
        json.dumps(
            {"variable": "z", "entries": [[[[0, "1"]], [[0, "1"]]], [[[0, "1"]], [[0, "1"]]]]}
        )
    )
    assert main(["split", "--matrix", str(mfile)]) == EXIT_INVALID_REQUEST
    capsys.readouterr()


def test_ext_classify_command(tmp_path, capsys):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"f1": [-4], "f2": [0], "entries": [[[[2, "1"]]]]}))
    assert main(["ext-classify", "--cocycle", str(cfile)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "[-2, -2] (HN-top: true)"
    cfile.write_text(json.dumps({"f1": [-4], "f2": [0], "entries": [[[]]]}))
    assert main(["ext-classify", "--cocycle", str(cfile)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "[0, -4] (HN-top: false)"


def test_parse_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["verify", "--cert", str(missing)]) == EXIT_PARSE_ERROR
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["split", "--matrix", str(bad)]) == EXIT_PARSE_ERROR
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"f1": [-4], "f2": [0], "entries": [[[[9, "1"]]]]}))
    # exponent 9 violates the support window
    assert main(["ext-classify", "--cocycle", str(wrong)]) == EXIT_PARSE_ERROR
    capsys.readouterr()


def test_certificate_json_schema_round_trip(cert_path):
    data = json.loads(cert_path.read_text())
    cert = serialize.certificate_from_json(data)
    again = serialize.certificate_to_json(cert)
    assert again == data


def _assert_parse_error(argv, capsys):
    assert main(argv) == EXIT_PARSE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and err.count("\n") == 1, err


def test_malformed_inputs_are_parse_errors(cert_path, tmp_path, capsys):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"f1": ["x"], "f2": [2], "entries": []}))
    _assert_parse_error(["ext-classify", "--cocycle", str(cfile)], capsys)
    cfile.write_text(json.dumps({"f1": [-4], "f2": [0], "entries": 7}))
    _assert_parse_error(["ext-classify", "--cocycle", str(cfile)], capsys)

    bad_cert = tmp_path / "bad_cert.json"
    for key, value in [
        ("F", "zz"),
        ("seed", "x"),
        ("shift", "ab"),
        ("swapped", "no"),
        ("table_digest", 5),
        ("genericity", {"n=1": [["a"]]}),
        # JSON numbers that are not integers are refused, never truncated
        ("seed", "0"),
        ("resamples", 1.5),
        ("verified_window", 6.7),
        ("shift", [0, 0.5]),
        ("table_digest", {"window": 6.0, "cells": 169}),
        ("table_digest", {"window": 6, "cells": True}),
        ("genericity", {"n=1": [[1.5, 0, 0, 0]]}),
    ]:
        data = json.loads(cert_path.read_text())
        data[key] = value
        bad_cert.write_text(json.dumps(data))
        _assert_parse_error(["verify", "--cert", str(bad_cert)], capsys)
    for rank in (3.9, True, "3"):
        data = json.loads(cert_path.read_text())
        data["params"]["rank"] = rank
        bad_cert.write_text(json.dumps(data))
        _assert_parse_error(["verify", "--cert", str(bad_cert)], capsys)
    cells = [{"n": 0, "m": 0, "h0": 1.0, "h1": 0, "h2": 0, "chi": 1, "region": "H0R"}]
    with pytest.raises(serialize.ParseError):
        serialize.table_from_json({"window": [0, 0, 0, 0], "cells": cells})

    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps({"variable": "z", "entries": [[[[0, "1"]], [[1, "1"]]]]}))
    _assert_parse_error(["split", "--matrix", str(mfile)], capsys)
    # a non-integer exponent is refused, not truncated
    mfile.write_text(
        json.dumps({"variable": "z", "entries": [[[[0, "1"]], [[1.7, "1"]]], [[], [[0, "1"]]]]})
    )
    _assert_parse_error(["split", "--matrix", str(mfile)], capsys)
