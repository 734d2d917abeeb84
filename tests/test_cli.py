import json

import numpy as np
import pytest

import cliffspec as cs
from cliffspec.cli import main

from conftest import random_operator


def write_operator(path, matrix, n=1):
    T = cs.CliffordOperator.from_real_matrix(matrix, n=n)
    with open(path, "w") as fh:
        json.dump(cs.operator_to_dict(T), fh)
    return T


def test_parse_valid_operator(tmp_path):
    path = tmp_path / "op.json"
    write_operator(path, [[1.0, 0.0], [0.0, -2.0]])
    T = cs.parse_operator_file(path)
    assert (T.n, T.m) == (1, 2)


def test_parse_wrong_coefficient_count(tmp_path):
    path = tmp_path / "bad.json"
    obj = {"n": 1, "m": 2, "matrix": [[[1.0, 0.0], [0.0, 0.0, 9.0]],
                                      [[0.0, 0.0], [1.0, 0.0]]]}
    path.write_text(json.dumps(obj))
    with pytest.raises(cs.SchemaError) as err:
        cs.parse_operator_file(path)
    assert "matrix[0][1]" in str(err.value)


def test_parse_non_square(tmp_path):
    path = tmp_path / "bad.json"
    obj = {"n": 1, "m": 2, "matrix": [[[1.0, 0.0]], [[0.0, 0.0]]]}
    path.write_text(json.dumps(obj))
    with pytest.raises(cs.SchemaError) as err:
        cs.parse_operator_file(path)
    assert "square" in str(err.value)


def test_operator_roundtrip_bitwise(rng, tmp_path):
    T = random_operator(rng, 2, 3)
    path = tmp_path / "op.json"
    with open(path, "w") as fh:
        json.dump(cs.operator_to_dict(T), fh)
    back = cs.parse_operator_file(path)
    assert np.array_equal(back.coeffs, T.coeffs)


def test_vector_roundtrip(rng, tmp_path):
    v = cs.ModuleVector(2, 3, rng.standard_normal((3, 4)))
    path = tmp_path / "v.json"
    path.write_text(json.dumps(cs.vector_to_dict(v)))
    back = cs.parse_vector_file(path)
    assert np.array_equal(back.coeffs, v.coeffs)


def test_heatmap_format(tmp_path):
    op = tmp_path / "op.json"
    write_operator(op, [[1.0, 0.0], [0.0, -2.0]])
    out = tmp_path / "scan.csv"
    code = main(["spectrum", "--operator", str(op),
                 "--grid=-3,3,0,1,25,5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,y,sigma_min"
    data_rows = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data_rows) == 25 * 5
    assert all(len(row.split(",")) == 3 for row in data_rows)
    block = [l for l in lines if l.startswith("# detections ")]
    assert len(block) == 1
    detections = json.loads(block[0][len("# detections "):])["detections"]
    assert sorted((d["x"], d["y"]) for d in detections) == [(-2.0, 0.0), (1.0, 0.0)]


def test_heatmap_empty_region(tmp_path):
    op = tmp_path / "op.json"
    write_operator(op, [[1.0]])
    out = tmp_path / "scan.csv"
    assert main(["spectrum", "--operator", str(op),
                 "--grid", "2,3,0,0.5,9,5", "--out", str(out)]) == 0
    block = [l for l in out.read_text().splitlines() if l.startswith("# detections ")]
    assert json.loads(block[0][len("# detections "):])["detections"] == []


def test_bisect_exit_codes(tmp_path):
    op = tmp_path / "op.json"
    write_operator(op, [[1.0, 0.0], [0.0, -2.0]])
    out = tmp_path / "report.json"
    assert main(["bisect", "--operator", str(op), "--omega", "0.3",
                 "--out", str(out)]) == 0

    sphere = tmp_path / "sphere.json"
    with open(sphere, "w") as fh:
        json.dump({"n": 1, "m": 1, "matrix": [[[0.0, 1.0]]]}, fh)
    assert main(["bisect", "--operator", str(sphere), "--omega", "0.3",
                 "--out", str(out)]) == 1


def test_parse_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "o.json"
    assert main(["bisect", "--operator", str(bad), "--omega", "0.3",
                 "--out", str(out)]) == 2


@pytest.mark.parametrize("text", [
    '{"n": 1, "m": 1, "matrix": [[[NaN, 0.0]]]}',
    '{"n": 1, "m": 1, "matrix": [[[Infinity, 0.0]]]}',
    '{"n": 1, "m": 0, "matrix": []}',
    '{"n": 1, "m": 1, "matrix": [[[1e308, 0.0]]]}',
], ids=["nan", "infinity", "m0", "huge"])
def test_bisect_rejects_malformed_operator(tmp_path, capsys, text):
    op = tmp_path / "op.json"
    op.write_text(text)
    out = tmp_path / "o.json"
    assert main(["bisect", "--operator", str(op), "--omega", "0.3",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("coeff", [1e308, 1e6])
def test_spectrum_rejects_huge_operator(tmp_path, capsys, coeff):
    # the default grid would need more nodes than it allows (inf at 1e308)
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"n": 1, "m": 1, "matrix": [[[coeff, 0.0]]]}))
    assert main(["spectrum", "--operator", str(op), "--out", str(tmp_path / "s.csv")]) == 2
    assert "--grid" in capsys.readouterr().err


def test_calc_subcommand(tmp_path):
    op = tmp_path / "op.json"
    write_operator(op, [[1.0, 0.0], [0.0, 2.0]])
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"name": "regularizer"}))
    out = tmp_path / "res.json"
    assert main(["calc", "--operator", str(op), "--function", str(fn),
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    got = cs.operator_from_dict(payload)
    assert np.allclose(cs.rho_matrix(got), np.diag([0.5, 0.5, 0.4, 0.4]), atol=1e-6)
    assert payload["trunc_err"] >= 0.0
    assert payload["disc_err"] >= 0.0


def test_frame_subcommand(tmp_path):
    op = tmp_path / "op.json"
    write_operator(op, [[1.0, 0.0], [0.0, -2.0]])
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"name": "regularizer"}))
    out = tmp_path / "frame.json"
    assert main(["frame", "--operator", str(op), "--g", str(g),
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["T"]["cLower"] == pytest.approx(1.0, abs=1e-5)
    assert payload["Tstar"]["dUpper"] == pytest.approx(1.0, abs=1e-5)
    assert "grid" in payload


def test_verify_deterministic_and_exit_codes(tmp_path):
    op = tmp_path / "op.json"
    write_operator(op, [[1.0]])
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", "--operator", str(op), "--seed", "7",
                 "--nodes", "500", "--out", str(out1)]) == 0
    assert main(["verify", "--operator", str(op), "--seed", "7",
                 "--nodes", "500", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["report_version"] == 1
    assert report["seed"] == 7
    assert report["passed"] is True
    assert all(r["pass"] for r in report["records"])


def test_verify_short_circuits_on_sphere_spectrum(tmp_path):
    sphere = tmp_path / "sphere.json"
    with open(sphere, "w") as fh:
        json.dump({"n": 1, "m": 1, "matrix": [[[0.0, 1.0]]]}, fh)
    out = tmp_path / "r.json"
    assert main(["verify", "--operator", str(sphere), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["passed"] is False
    skipped = [s for s in report["stages"] if s["status"] == "skipped"]
    assert skipped and all("reason" in s for s in skipped)


def test_unwritable_output_path(tmp_path):
    op = tmp_path / "op.json"
    write_operator(op, [[1.0]])
    missing = tmp_path / "no-such-dir" / "scan.csv"
    assert main(["spectrum", "--operator", str(op), "--out", str(missing)]) == 2


def test_verify_custom_functions(tmp_path):
    op = tmp_path / "op.json"
    write_operator(op, [[1.0]])
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"name": "regularizer"}))
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"name": "rational",
                             "params": {"num": [1.0], "den": [1.0],
                                        "bounded": True}}))
    out = tmp_path / "r.json"
    assert main(["verify", "--operator", str(op), "--g", str(g),
                 "--function", str(f), "--nodes", "500", "--out", str(out)]) == 0


def test_parse_vector_positional_error(tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"n": 1, "m": 2,
                                "entries": [[1.0, 0.0], [1.0]]}))
    with pytest.raises(cs.SchemaError) as err:
        cs.parse_vector_file(path)
    assert "entries[1]" in str(err.value)


@pytest.mark.parametrize("spec", [
    {"name": "e_alpha"},
    {"name": "rational", "params": {"num": [1]}},
    {"name": "rational", "params": {"num": ["one"], "den": [1.0]}},
    {"name": "regularizer", "params": {"theta": "wide"}},
], ids=["e_alpha-no-alpha", "rational-no-den", "num-not-numeric", "theta-not-numeric"])
def test_calc_rejects_malformed_function_spec(tmp_path, capsys, spec):
    op = tmp_path / "op.json"
    write_operator(op, [[1.0]])
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps(spec))
    assert main(["calc", "--operator", str(op), "--function", str(fn),
                 "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("grid", ["a,1,0,1,3,3", "-1,1,0,1,nan,3", "nan,1,0,1,3,3"],
                         ids=["x-not-numeric", "nx-nan", "x-nan"])
def test_spectrum_rejects_malformed_grid(tmp_path, capsys, grid):
    op = tmp_path / "op.json"
    write_operator(op, [[1.0]])
    assert main(["spectrum", "--operator", str(op), f"--grid={grid}",
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_jobs_default_ignores_environment(monkeypatch):
    from cliffspec.cli import build_parser

    monkeypatch.setenv("CLIFFSPEC_JOBS", "3")
    args = build_parser().parse_args(["verify", "--operator", "op.json", "--out", "r.json"])
    assert args.jobs == 1
