"""End-to-end command line checks, including exit codes and round trips."""

import contextlib
import functools
import io
import json
import os
import tempfile
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from bundlehunt.hunter import HuntRequest, hunt
from bundlehunt.qbundle import HilbertParams, cohomology_table, square_window


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


def _assert_exit(argv, code, capsys):
    """main(argv) returns code and prints one line on stderr, returned."""
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    return err


def _assert_parse_error(argv, capsys):
    assert _assert_exit(argv, EXIT_PARSE_ERROR, capsys).startswith("parse error: ")


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
        ("table_digest", {"window": 4, "cells": 81, "natural": "yes"}),
        ("table_digest", {"window": 4, "cells": 81, "region_counts": {"H1R": 40.0}}),
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


def test_negative_windows_are_refused(cert_path, tmp_path, capsys):
    for argv in (
        ["verify", "--cert", str(cert_path), "--window", "-3"],
        ["table", "--cert", str(cert_path), "--window", "-2"],
    ):
        assert _assert_exit(argv, EXIT_INVALID_REQUEST, capsys).startswith("invalid-request: ")
    bad = tmp_path / "bad.json"
    for key, value in [("verified_window", -1), ("table_digest", {"window": -1, "cells": 0})]:
        data = json.loads(cert_path.read_text())
        data[key] = value
        bad.write_text(json.dumps(data))
        _assert_parse_error(["verify", "--cert", str(bad)], capsys)


def test_verify_checks_what_the_certificate_states(cert_path, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    data = json.loads(cert_path.read_text())
    # the n=1 block cut to one row that states rank 0
    m, _, rows, cols = data["genericity"]["n=1"][0]
    data["genericity"]["n=1"] = [[m, 0, rows, cols]]
    bad.write_text(json.dumps(data))
    err = _assert_exit(["verify", "--cert", str(bad)], EXIT_VERIFICATION_FAILED, capsys)
    assert "genericity" in err
    for field, value in [("cells", 7), ("natural", False), ("region_counts", {"H1R": 81})]:
        data = json.loads(cert_path.read_text())
        data["table_digest"][field] = value
        bad.write_text(json.dumps(data))
        err = _assert_exit(["verify", "--cert", str(bad)], EXIT_VERIFICATION_FAILED, capsys)
        assert "digest" in err and field in err
        # the digest describes its own window only
        assert main(["verify", "--cert", str(bad), "--window", "2"]) == EXIT_OK
        capsys.readouterr()


# -- fuzzing every file reader and window flag --------------------------------------

def _json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)


# small numbers only, so that every fuzzed input stays cheap to compute
SMALL_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-6, 6)
    | st.floats(-6, 6)
    | st.sampled_from(["", "0", "1", "-1/2", "3/4", "1/0", "x", "w", "z", "H1R"])
    | st.text(max_size=3),
    _json_containers,
    max_leaves=6,
)


def _mutate(data, doc):
    """doc with one subtree nudged, replaced or deleted, drawn with hypothesis."""
    if isinstance(doc, (dict, list)) and doc and data.draw(st.integers(0, 5)):
        if isinstance(doc, dict):
            key = data.draw(st.sampled_from(sorted(doc)))
            if data.draw(st.integers(0, 5)) == 0:
                return {k: v for k, v in doc.items() if k != key}
            return {**doc, key: _mutate(data, doc[key])}
        i = data.draw(st.integers(0, len(doc) - 1))
        return doc[:i] + [_mutate(data, doc[i])] + doc[i + 1 :]
    if isinstance(doc, int) and not isinstance(doc, bool) and data.draw(st.booleans()):
        return doc + data.draw(st.integers(-2, 2))
    return data.draw(SMALL_JSON)


@functools.lru_cache(maxsize=1)
def _fuzz_documents():
    """Valid documents for every reader: certificate, cocycle, matrix."""
    cert = hunt(HuntRequest(HilbertParams(F(1, 2), F(1, 2), F(1, 4), 2), verify_window=2))
    return {
        "cert": json.loads(serialize.dump_json(serialize.certificate_to_json(cert))),
        "cocycle": {"f1": [-4], "f2": [0], "entries": [[[[1, "1"], [2, "-1/2"]]]]},
        "matrix": {"variable": "z", "entries": [[[[1, "1"]], [[2, "1"]]], [[], [[-1, "1"]]]]},
    }


DOCUMENTED_EXITS = (
    EXIT_OK,
    EXIT_INVALID_REQUEST,
    EXIT_UNSUPPORTED_CASE,
    EXIT_GENERICITY_EXHAUSTED,
    EXIT_VERIFICATION_FAILED,
    EXIT_PARSE_ERROR,
)
READERS = [
    ("split", "--matrix", "matrix"),
    ("ext-classify", "--cocycle", "cocycle"),
    ("verify", "--cert", "cert"),
    ("table", "--cert", "cert"),
]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_cli_readers_end_in_a_documented_exit_code(data):
    command, flag, kind = data.draw(st.sampled_from(READERS))
    doc = _fuzz_documents()[kind]
    how = data.draw(st.sampled_from(["mutate", "mutate", "mutate", "valid", "text"]))
    if how == "text":
        text = data.draw(st.text(max_size=20))
    else:
        text = json.dumps(_mutate(data, doc) if how == "mutate" else doc)
    flags = []
    if command in ("verify", "table"):
        window = data.draw(st.none() | st.integers(-3, 2).map(str) | st.sampled_from(["x", ""]))
        if window is not None:
            flags += ["--window", window]
    if command == "table":
        flags += ["--format", data.draw(st.sampled_from(["text", "csv", "json"]))]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, flag, path, *flags])
    message = err.getvalue()
    assert code in DOCUMENTED_EXITS, (command, flags, text, message)
    if code == EXIT_OK:
        assert message == ""
    else:
        assert message.count("\n") == 1 and message.strip(), message
