import json
import math
import time

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


def test_verify_rejects_theta_below_omega(tmp_path, capsys):
    op = tmp_path / "op.json"
    write_operator(op, [[1.0]])
    assert main(["verify", "--operator", str(op), "--omega", "0.3", "--theta", "0.2",
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "theta=0.2" in err and "omega=0.3" in err


@pytest.mark.parametrize("args, needle", [
    (["--seed", "-1"], "seed=-1"),
    (["--jobs", "0"], "jobs=0"),
    (["--jobs", "-1"], "jobs=-1"),
    (["--phi", "0.2"], "contour angle phi=0.2 outside (omega, theta)"),
], ids=["seed-negative", "jobs-zero", "jobs-negative", "phi-below-omega"])
def test_verify_rejects_bad_arguments_before_any_work(tmp_path, capsys, args, needle):
    op = tmp_path / "op.json"
    write_operator(op, [[1.0, 0.0], [0.0, -2.0]])
    out = tmp_path / "r.json"
    assert main(["verify", "--operator", str(op), "--out", str(out)] + args) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_calc_refuses_an_engine_beyond_the_memory_cap(tmp_path, capsys):
    op = tmp_path / "op.json"
    write_operator(op, [[1.0, 0.0], [0.0, -2.0]])
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"name": "regularizer"}))
    start = time.perf_counter()
    assert main(["calc", "--operator", str(op), "--function", str(fn),
                 "--nodes", "1000000000", "--out", str(tmp_path / "r.json")]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "2000000002 stored nodes" in err and "D = 4" in err and "GiB" in err


def test_calc_at_d256_runs_in_blocks(tmp_path):
    # n = 6, m = 4: rho(Q_s)^-1 at D = 256 would need 2.1 GB over the
    # contour, the 32 x 32 spinor block 66 MB
    n, m = 6, 4
    a = np.random.default_rng(3).standard_normal((m, m, 1 << n))
    h = cs.CliffordOperator(n, m, a) + cs.CliffordOperator(n, m, a).adjoint()
    rho_h = cs.rho_matrix(h)
    T = h * (1.0 / np.linalg.norm(rho_h, 2)) + cs.CliffordOperator.identity(n, m) * 2.0
    op = tmp_path / "op.json"
    op.write_text(json.dumps(cs.operator_to_dict(T)))
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"name": "regularizer"}))
    out = tmp_path / "r.json"
    assert main(["calc", "--operator", str(op), "--function", str(fn),
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    lam, v = np.linalg.eigh(cs.rho_matrix(T))
    f = cs.regularizer(math.pi / 4)
    want = (v * f.eval_complex(lam).real) @ v.T
    gap = np.linalg.norm(cs.rho_matrix(cs.operator_from_dict(payload)) - want, 2)
    assert gap <= payload["trunc_err"] + payload["disc_err"] + 1e-9


@pytest.mark.parametrize("command", ["bisect", "calc", "verify"])
@pytest.mark.parametrize("n, m", [(3, 1), (4, 1), (3, 2)])
def test_finite_operator_with_overflowing_blocks_exits_2(tmp_path, capsys, command, n, m):
    # every coefficient is finite, but a spinor block entry sums 2^n of them
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"n": n, "m": m, "matrix": [[[1e308] * (1 << n)] * m] * m}))
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"name": "regularizer"}))
    extra = {"bisect": ["--omega", "0.3"], "calc": ["--function", str(fn)], "verify": []}
    assert main([command, "--operator", str(op), "--out", str(tmp_path / "r.json")]
                + extra[command]) == 2
    assert "spinor blocks of rho are not finite" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0,1,0,1,1000000000000,1", "0,1,0,1,4097,4097"],
                         ids=["1e12x1", "4097x4097"])
def test_spectrum_explicit_grid_obeys_the_scan_cap(tmp_path, capsys, grid):
    op = tmp_path / "op.json"
    write_operator(op, [[1.0]])
    assert main(["spectrum", "--operator", str(op), f"--grid={grid}",
                 "--out", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert "exceeds 16777216 nodes" in err and "--grid" in err


@pytest.mark.parametrize("command, flag", [("calc", "--function"), ("frame", "--g")])
def test_theta_below_omega_is_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                      command, flag):
    def certify(*args, **kwargs):
        raise AssertionError("certified before checking theta")

    monkeypatch.setattr("cliffspec.cli.check_bisectorial", certify)
    op = tmp_path / "op.json"
    write_operator(op, [[1.0]])
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"name": "regularizer"}))
    assert main([command, "--operator", str(op), flag, str(fn), "--omega", "1.0",
                 "--theta", "0.9", "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "theta=0.9 must lie in (omega, pi/2) with omega=1.0" in err
    assert "phi" not in err


def _assert_frame_stage_refused(tmp_path, capsys, monkeypatch, command, args):
    # n = 6, m = 8: the engine fits, but one 802-value family at D = 512 is
    # 1.7 GB and the frame stage holds several; certifying raises, so a
    # missing refusal fails at once instead of allocating
    def certify(*_):
        raise AssertionError("certification started before the memory refusal")

    monkeypatch.setattr("cliffspec.cli.check_bisectorial", certify)
    monkeypatch.setattr("cliffspec.suite.check_bisectorial", certify)
    op = tmp_path / "op.json"
    op.write_text(json.dumps(cs.operator_to_dict(cs.CliffordOperator.identity(6, 8))))
    start = time.perf_counter()
    assert main([command, "--operator", str(op), "--out", str(tmp_path / "r.json")]
                + args) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "frame stage at D = 512" in err and "GiB" in err


def test_verify_refuses_a_frame_stage_beyond_the_memory_cap(tmp_path, capsys, monkeypatch):
    _assert_frame_stage_refused(tmp_path, capsys, monkeypatch, "verify", [])


def test_frame_refuses_a_frame_stage_beyond_the_memory_cap(tmp_path, capsys, monkeypatch):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"name": "regularizer"}))
    _assert_frame_stage_refused(tmp_path, capsys, monkeypatch, "frame", ["--g", str(g)])


def test_bisect_refuses_an_operator_whose_q_overflows(tmp_path, capsys):
    # |s|^2 = (1e4 ||T||)^2 is finite, but T^2 - 2 s0 T + |s|^2 is not
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"n": 1, "m": 1, "matrix": [[[1.3407e150, 0.0]]]}))
    assert main(["bisect", "--operator", str(op), "--omega", "0.3",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "Q_s overflows" in capsys.readouterr().err
