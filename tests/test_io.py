"""CSV + JSON-sidecar round trips and the parse errors that name their line."""

import json

import numpy as np
import pytest

from kplane import (
    AxiSymField,
    ProfileFormatError,
    RadialProfile,
    read_field,
    read_profile,
    sidecar_path,
    write_field,
    write_profile,
    write_trace,
)


def sample_profile():
    r = np.geomspace(0.01, 100.0, 40)
    return RadialProfile(3, r, (1.0 + r**2) ** -1.5, 3.0)


def test_sidecar_path():
    assert str(sidecar_path("runs/prof.csv")).endswith("runs/prof.json")


def test_profile_round_trip_exact(tmp_path):
    f = sample_profile()
    path = tmp_path / "prof.csv"
    write_profile(path, f)
    g = read_profile(path)
    assert g.d == f.d
    assert g.tail_exponent == f.tail_exponent
    # the reading between nodes travels with the data
    mid = np.sqrt(f.radii[:-1] * f.radii[1:])
    assert np.array_equal(g.evaluate(mid), f.evaluate(mid))
    # 17 significant digits make the float round trip exact
    assert np.array_equal(g.radii, f.radii)
    assert np.array_equal(g.values, f.values)


def test_profile_sidecar_contents(tmp_path):
    f = sample_profile()
    path = tmp_path / "prof.csv"
    write_profile(path, f)
    with open(sidecar_path(path)) as fh:
        header = json.load(fh)
    assert header == {"d": 3, "tail_exponent": 3.0, "interp": "linear-log-r"}


def test_profile_sidecar_rejects_other_interpolation(tmp_path):
    path = tmp_path / "prof.csv"
    write_profile(path, sample_profile())
    side = sidecar_path(path)
    header = json.loads(side.read_text())
    header["interp"] = "cubic"
    side.write_text(json.dumps(header))
    with pytest.raises(ProfileFormatError, match="prof.json.*unsupported interpolation 'cubic'"):
        read_profile(path)


def test_field_round_trip_exact(tmp_path):
    rho = np.array([0.25, 0.75, 1.25])
    s = np.array([-0.75, -0.25, 0.25, 0.75])
    values = np.arange(12.0).reshape(3, 4) / 7.0
    g = AxiSymField(3, rho, s, values, tail_exponent=4.5)
    path = tmp_path / "field.csv"
    write_field(path, g)
    back = read_field(path)
    assert back.d == 3 and back.tail_exponent == 4.5
    assert np.array_equal(back.rho, rho)
    assert np.array_equal(back.s, s)
    assert np.array_equal(back.values, values)


def test_missing_sidecar(tmp_path):
    path = tmp_path / "prof.csv"
    path.write_text("r,value\n1.0,2.0\n")
    with pytest.raises(ProfileFormatError, match="missing sidecar"):
        read_profile(path)


def test_invalid_sidecar_json(tmp_path):
    path = tmp_path / "prof.csv"
    path.write_text("r,value\n1.0,2.0\n")
    sidecar_path(path).write_text("{not json")
    with pytest.raises(ProfileFormatError, match="invalid JSON"):
        read_profile(path)


def test_sidecar_missing_key(tmp_path):
    path = tmp_path / "prof.csv"
    path.write_text("r,value\n1.0,2.0\n")
    sidecar_path(path).write_text('{"d": 3}')
    with pytest.raises(ProfileFormatError, match="missing key 'tail_exponent'"):
        read_profile(path)


def good_sidecar(path):
    sidecar_path(path).write_text('{"d": 3, "tail_exponent": 4.0}')


def test_empty_file(tmp_path):
    path = tmp_path / "prof.csv"
    path.write_text("")
    good_sidecar(path)
    with pytest.raises(ProfileFormatError, match="empty file"):
        read_profile(path)


def test_bad_header(tmp_path):
    path = tmp_path / "prof.csv"
    path.write_text("radius,val\n1.0,2.0\n")
    good_sidecar(path)
    with pytest.raises(ProfileFormatError, match="line 1: expected header r,value"):
        read_profile(path)


def test_wrong_column_count_names_line(tmp_path):
    path = tmp_path / "prof.csv"
    path.write_text("r,value\n1.0,2.0\n2.0,3.0,4.0\n")
    good_sidecar(path)
    with pytest.raises(ProfileFormatError, match="line 3: expected 2 fields"):
        read_profile(path)


def test_non_numeric_names_line(tmp_path):
    path = tmp_path / "prof.csv"
    path.write_text("r,value\n1.0,2.0\n2.0,oops\n")
    good_sidecar(path)
    with pytest.raises(ProfileFormatError, match="line 3: non-numeric"):
        read_profile(path)


def test_non_finite_names_line(tmp_path):
    path = tmp_path / "prof.csv"
    path.write_text("r,value\n1.0,inf\n")
    good_sidecar(path)
    with pytest.raises(ProfileFormatError, match="line 2: non-finite"):
        read_profile(path)


def test_no_data_rows(tmp_path):
    path = tmp_path / "prof.csv"
    path.write_text("r,value\n")
    good_sidecar(path)
    with pytest.raises(ProfileFormatError, match="no data rows"):
        read_profile(path)


def test_invalid_profile_content_wrapped(tmp_path):
    # radii out of order parse fine but fail profile validation; the reader
    # re-raises as a format error naming the file
    path = tmp_path / "prof.csv"
    path.write_text("r,value\n2.0,1.0\n1.0,1.0\n")
    good_sidecar(path)
    with pytest.raises(ProfileFormatError, match="strictly increasing"):
        read_profile(path)


def test_incomplete_field_grid(tmp_path):
    path = tmp_path / "field.csv"
    path.write_text(
        "rho,s,value\n0.5,-0.5,1.0\n0.5,0.5,1.0\n1.5,-0.5,1.0\n"
    )
    good_sidecar(path)
    with pytest.raises(ProfileFormatError, match="do not fill"):
        read_field(path)


def test_write_trace(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(path, [0.5, 0.25], [1.1, 1.2], [2.0, 2.0])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,distance,ratio,norm"
    assert lines[1].startswith("0,0.5")
    assert lines[2].startswith("1,0.25")
    assert len(lines) == 3


def test_write_trace_json_round_trip(tmp_path):
    # a .json path gets one object of four lists; floats come back exactly
    path = tmp_path / "trace.json"
    distances = np.array([0.5, 1.0 / 3.0, 2.0e-5 / 7.0])
    ratios = np.array([1.1, 1.2, np.nextafter(1.3, 2.0)])
    norms = np.array([2.0, 2.0 * (1 + 1e-16), 1.9999999999999998])
    write_trace(path, distances, ratios, norms)
    text = path.read_text()
    assert text.startswith('{\n  "n": [') and text.endswith("}\n")
    trace = json.loads(text)
    assert list(trace) == ["n", "distance", "ratio", "norm"]
    assert trace["n"] == [0, 1, 2]
    for key, want in (("distance", distances), ("ratio", ratios), ("norm", norms)):
        np.testing.assert_array_equal(np.array(trace[key]), want)
