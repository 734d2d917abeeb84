import json
import math
import time

import numpy as np
import pytest

import cliffspec as cs
from cliffspec.cli import build_parser, main
from cliffspec.quadratic import check_frame_memory

from conftest import contour_report, full_c_phi_table, random_operator


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


def test_bisect_of_a_non_injective_operator_keeps_exit_and_table(tmp_path):
    # sigma_min = 0, and no warning (pytest would turn it into an error):
    # certified, with every C the closed form sqrt 2 / sin phi for the
    # self-adjoint diag(1, 0), and for [[1, 1], [0, 0]], which has no series
    # tail below the band, the maximum of all 800 samples of its angle
    phis = cs.RaySampling().resolved_phis(0.3)
    op = tmp_path / "op.json"
    out = tmp_path / "report.json"
    for rows, source in (([[1.0, 0.0], [0.0, 0.0]], "self_adjoint_bound"),
                         ([[1.0, 1.0], [0.0, 0.0]], "sampled")):
        T = write_operator(op, rows)
        assert main(["bisect", "--operator", str(op), "--omega", "0.3",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert not report["injective"] and report["certified"]
        assert report["c_phi_source"] == source
        expected = (full_c_phi_table(T, phis) if source == "sampled"
                    else [(phi, math.sqrt(2.0) / math.sin(phi)) for phi in phis])
        assert [tuple(row) for row in report["c_phi_table"]] == list(expected)


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


@pytest.mark.parametrize("phi", [None, "0.75", "0.3"],
                         ids=["default-phi", "second-angle", "below-every-angle"])
@pytest.mark.parametrize("spec", [{"name": "regularizer"}, {"name": "rational", "params": {
    "num": [1.0, 0.0, 0.0], "den": [1.0, 0.0, 1.0], "bounded": True}}], ids=["decay", "hinf"])
def test_calc_certifies_only_the_angle_it_reads(tmp_path, monkeypatch, phi, spec):
    op, fn = tmp_path / "op.json", tmp_path / "f.json"
    write_operator(op, [[1.0, 1.0], [0.0, -2.0]])
    fn.write_text(json.dumps(spec))
    args = ["calc", "--operator", str(op), "--function", str(fn)]
    _assert_one_angle_and_engine(tmp_path, monkeypatch,
                                 args + (["--phi", phi] if phi else []),
                                 float(phi) if phi else math.pi / 6)


@pytest.mark.parametrize("theta", [None, "1.2382", "0.338"],
                         ids=["default-phi", "second-angle", "below-every-angle"])
def test_frame_certifies_only_the_angle_it_reads(tmp_path, monkeypatch, theta):
    # frame's contour angle is phi = (omega + theta) / 2: 0.524, 0.750, 0.300
    op, fn = tmp_path / "op.json", tmp_path / "g.json"
    write_operator(op, [[1.0, 1.0], [0.0, -2.0]])
    fn.write_text(json.dumps({"name": "regularizer"}))
    args = ["frame", "--operator", str(op), "--g", str(fn)]
    _assert_one_angle_and_engine(tmp_path, monkeypatch,
                                 args + (["--theta", theta] if theta else []),
                                 0.5 * (math.pi / 12 + float(theta or math.pi / 4)))


def _certificates_and_engines(monkeypatch):
    """Lists that fill with the (angles, report) of every certificate and
    the (engine, report) of every engine built while the patch holds."""
    certificates, engines = [], []
    check_bisectorial, build = cs.check_bisectorial, cs.ContourEngine.__init__

    def certify(T, omega, sampling=cs.RaySampling()):
        certificates.append((sampling.resolved_phis(omega), check_bisectorial(T, omega, sampling)))
        return certificates[-1][1]

    def recording_build(self, T, report, *rest):
        build(self, T, report, *rest)
        engines.append((self, report))

    for module in (cs.cli, cs.calculus, cs.quadratic, cs.suite):
        if hasattr(module, "check_bisectorial"):
            monkeypatch.setattr(module, "check_bisectorial", certify)
    monkeypatch.setattr(cs.ContourEngine, "__init__", recording_build)
    return certificates, engines


def _assert_one_angle_and_engine(tmp_path, monkeypatch, args, phi):
    # one certificate, at exactly the contour angle and the lower edge of its
    # strip, and one engine, whose C are that certificate's C at both: the
    # engine samples nothing itself
    certificates, engines = _certificates_and_engines(monkeypatch)
    assert main(args + ["--out", str(tmp_path / "out.json")]) == 0
    [(phis, report)] = certificates
    [(engine, engine_report)] = engines
    assert engine.phi == pytest.approx(phi, rel=1e-12)
    assert phis == (engine.phi - engine.strip, engine.phi) and engine_report is report
    assert engine.c_phi == report.c_at(engine.phi)
    assert engine.c_strip == report.c_at(engine.phi - engine.strip)


def test_calc_of_a_self_adjoint_operator_reads_the_closed_form_at_phi(tmp_path, monkeypatch):
    # diag(1, -2) at the default angles: C = sqrt 2 / sin(pi/6), not the
    # closed form at the largest default angle below phi (sqrt 2 / sin 0.480)
    op, fn = tmp_path / "op.json", tmp_path / "f.json"
    write_operator(op, [[1.0, 0.0], [0.0, -2.0]])
    fn.write_text(json.dumps({"name": "regularizer"}))
    _, engines = _certificates_and_engines(monkeypatch)
    assert main(["calc", "--operator", str(op), "--function", str(fn),
                 "--out", str(tmp_path / "out.json")]) == 0
    [(engine, _)] = engines
    assert engine.basis is not None
    assert engine.c_phi == pytest.approx(math.sqrt(2.0) / math.sin(math.pi / 6), rel=1e-12)


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
    # on the Jordan block T* != T: T*'s frame from the blocks B^H of T's
    # family against T*'s own certificate, engine and family, within the
    # claimed errors of both (errors of the quadratic form, so of c^2, d^2)
    T = write_operator(op, [[1.0, 1.0], [0.0, 1.0]])
    assert main(["frame", "--operator", str(op), "--g", str(g),
                 "--out", str(out)]) == 0
    star = json.loads(out.read_text())["Tstar"]
    t_star = T.adjoint()
    direct = cs.frame_bounds(cs.regularizer(math.pi / 4), t_star, report=contour_report(t_star))
    tol = sum(star["errorEstimates"].values()) + direct.combined_error
    assert abs(star["cLower"] ** 2 - direct.c_lower ** 2) <= tol
    assert abs(star["dUpper"] ** 2 - direct.d_upper ** 2) <= tol
    assert np.abs(np.array(star["thetaEigenvalues"]) - direct.eigenvalues).max() <= tol


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
    assert report["report_version"] == 7
    assert report["contour"]["basis"]["path"] == "eigen"
    assert 0.0 <= report["contour"]["basis"]["residual"] < 1e-12
    assert report["seed"] == 7
    assert report["passed"] is True
    assert all(r["pass"] for r in report["records"])


@pytest.mark.parametrize("nodes, angles, contour", [
    (None, [], {"nodes": 1045, "stride": 2}),
    ("500", [], {"nodes": 1045, "stride": 2}),
    ("3000", ["--omega", "1.0", "--theta", "1.2"], {"nodes": 3129, "stride": 3}),
], ids=["default", "nodes-500", "strip-0.097-nodes-3000"])
def test_verify_and_frame_echo_the_lattice_contour(tmp_path, nodes, angles, contour):
    # --nodes bounds the contour step, and the contour follows the frame
    # grid at the smallest stride whose rule error is at most 1e-10: at the
    # default angles the grid takes every second of its 400 steps and the
    # contour stride 2 (the step of stride 1 on all 400), with --nodes 500
    # too, on the contour of all 400, which a coarser grid never coarsens;
    # 3 in the strip a = 0.097 of omega = 1, theta = 1.2 (6e-9 at
    # stride 2), where the grid keeps all 400 steps too
    op = tmp_path / "op.json"
    write_operator(op, [[1.0]])
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"name": "regularizer"}))
    extra = (["--nodes", nodes] if nodes else []) + angles
    runs = {"verify": ["--g", str(g)], "frame": ["--g", str(g)]}
    for command, args in runs.items():
        out = tmp_path / f"{command}.json"
        assert main([command, "--operator", str(op), "--out", str(out)] + args + extra) == 0
        echo = json.loads(out.read_text())["contour"]
        assert {k: echo[k] for k in contour} == contour
        assert 30.0 <= echo["u_max"] < 30.0 + 60.0 / (echo["nodes"] - 1) * 2


@pytest.mark.parametrize("nodes", [[], ["--nodes", "500"]], ids=["default", "nodes-500"])
@pytest.mark.parametrize("matrix, angles", [
    ([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-2.0, 0.0]]], []),
    ([[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], []),
    ([[[1.0, 1.0]]], ["--omega", "0.9", "--theta", "1.2"]),
], ids=["diag", "jordan", "1+e1"])
def test_frame_and_verify_give_the_same_frames(tmp_path, matrix, angles, nodes):
    # both take the family of g on one grid, lattice contour and engine, so
    # frame's T, T* and contour are those of verify to the bit
    op, g = tmp_path / "op.json", tmp_path / "g.json"
    op.write_text(json.dumps({"n": 1, "m": len(matrix), "matrix": matrix}))
    g.write_text(json.dumps({"name": "regularizer"}))
    outs = {}
    for command in ("frame", "verify"):
        out = tmp_path / f"{command}.json"
        args = [command, "--operator", str(op), "--g", str(g), "--out", str(out)]
        assert main(args + angles + nodes) in (0, 1)
        outs[command] = json.loads(out.read_text())
    frame, verify = outs["frame"], outs["verify"]
    assert {"T": frame["T"], "Tstar": frame["Tstar"]} == verify["frames"]["regularizer"]
    assert frame["contour"] == {k: verify["contour"][k] for k in ("nodes", "u_max", "stride")}


def test_run_settings_default_to_the_configs():
    # calc, frame and verify take each default from its one definition
    suite, contour = cs.SuiteConfig(), cs.ContourConfig()
    required = {"calc": ["--function", "f.json"], "frame": ["--g", "g.json"], "verify": []}
    for command, extra in required.items():
        args = build_parser().parse_args([command, "--operator", "op.json", "--out", "o.json"]
                                         + extra)
        assert (args.omega, args.theta) == (suite.omega, suite.theta)
        assert args.nodes == suite.contour_nodes == contour.nodes
        assert getattr(args, "phi", None) == suite.phi == contour.phi
        if command == "verify":
            assert args.seed == suite.seed


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
    {"name": "regularizer", "params": {"theta": 0.3}},
    # the decay constant of f(t s) holds |t|^alpha and |t|^-alpha, beyond
    # the double range here: inf, whose truncation claim is refused
    {"name": "scaled", "params": {"t": 1e200, "inner": {
        "name": "product", "params": {"factors": [{"name": "regularizer"}] * 2}}}},
    {"name": "scaled", "params": {"t": 1e-200, "inner": {
        "name": "product", "params": {"factors": [{"name": "regularizer"}] * 2}}}},
    # f_ab's decay constant holds a ** -alpha (b ** alpha), beyond the double
    # range here: inf, whose truncation claim is refused
    {"name": "f_ab", "params": {"a": 1e-320, "b": 1, "inner": {"name": "regularizer"}}},
    {"name": "f_ab", "params": {"a": 1, "b": 1e200, "inner": {
        "name": "product", "params": {"factors": [{"name": "regularizer"}] * 2}}}},
], ids=["e_alpha-no-alpha", "rational-no-den", "num-not-numeric", "theta-not-numeric",
        "theta-numeric", "scaled-huge-t", "scaled-tiny-t", "f_ab-tiny-a", "f_ab-huge-b"])
def test_calc_rejects_malformed_function_spec(tmp_path, capsys, monkeypatch, spec):
    # each is refused before any profile is evaluated: an f_ab whose C_alpha
    # is inf has an infinite truncation claim at every t, and profiling its
    # 10^4 panel nodes at each contour node took seconds before the refusal
    def profiled(*_):
        raise AssertionError("profiled a function whose claim is refused")

    monkeypatch.setattr(cs.ContourEngine, "_windows", profiled)
    op = tmp_path / "op.json"
    write_operator(op, [[1.0]])
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps(spec))
    start = time.perf_counter()
    assert main(["calc", "--operator", str(op), "--function", str(fn),
                 "--out", str(tmp_path / "r.json")]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command, flag", [
    ("calc", "--function"), ("verify", "--function"), ("verify", "--g"),
])
@pytest.mark.parametrize("params, reason", [
    ({"num": [1.0], "den": [1.0, -3.0], "bounded": True}, "pole at 3,"),
    ({"num": [1.0], "den": [1.0, -3.0]}, "pole at 3,"),
    ({"num": [1.0, 0.0], "den": [1.0]}, "numerator has degree 1"),
    ({"num": [1.0, 0.0], "den": [1.0], "bounded": True}, "numerator has degree 1"),
], ids=["pole", "pole-unmarked", "growth", "growth-marked"])
def test_a_rational_no_sample_set_can_bound_is_refused(tmp_path, capsys, command, flag,
                                                       params, reason):
    # sampling gave the pole at 3 a sup of 224.7 and s one of 1e4, and calc and
    # verify exited 0 on diag(1, -2) with wrong values and tiny claims
    op, fn = tmp_path / "op.json", tmp_path / "f.json"
    write_operator(op, [[1.0, 0.0], [0.0, -2.0]])
    fn.write_text(json.dumps({"name": "rational", "params": params}))
    out = tmp_path / "r.json"
    assert main([command, "--operator", str(op), flag, str(fn), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err
    if command == "verify":
        label = f"{flag[2]}=rational({params['num']}/{params['den']}): "
        assert err.startswith("error: " + label)
    assert not out.exists()


_ONE = {"name": "rational", "params": {"num": [1.0], "den": [1.0], "bounded": True}}


@pytest.mark.parametrize("command, flag", [("calc", "--function"), ("verify", "--function")])
@pytest.mark.parametrize("spec, reason", [
    ({"name": "product", "params": {"factors": [
        _ONE, {"name": "rational", "params": {"num": [1.0, 0.0], "den": [1.0]}}]}},
     "numerator has degree 1, its denominator 0"),
    ({"name": "scaled", "params": {"t": 2.0, "inner": {
        "name": "rational", "params": {"num": [1.0], "den": [1.0, -3.0]}}}},
     "pole at 1.5,"),
], ids=["product-growth", "scaled-pole"])
def test_a_product_or_scaling_of_rationals_is_refused_as_a_rational(tmp_path, capsys, command,
                                                                     flag, spec, reason):
    # their sampled sup norms (1e4 for s) gave calc exit 0 on diag(1, -2) with
    # diag(0.333, -1.167), and diag(-0.077, -0.308) where 1 / (2 s - 3) is
    # diag(-1, -0.143)
    op, fn = tmp_path / "op.json", tmp_path / "f.json"
    write_operator(op, [[1.0, 0.0], [0.0, -2.0]])
    fn.write_text(json.dumps(spec))
    out = tmp_path / "r.json"
    assert main([command, "--operator", str(op), flag, str(fn), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, inner", [
    ("calc", "--function", {"name": "rational", "params": {
        "num": [1.0, 0.0, 0.0], "den": [1.0, 0.0, 1.0], "bounded": True}}),
    ("verify", "--g", {"name": "regularizer"}),
], ids=["calc-function", "verify-g"])
@pytest.mark.parametrize("t", [1e155, -1e-155])
def test_a_scaling_beyond_the_normal_range_is_refused(tmp_path, capsys, command, flag,
                                                      inner, t):
    # the scaled coefficients hold t^2 next to 1, which no power of two brings
    # into the normal double range together
    op, fn = tmp_path / "op.json", tmp_path / "f.json"
    write_operator(op, [[1.0, 0.0], [0.0, -2.0]])
    fn.write_text(json.dumps({"name": "scaled", "params": {"t": t, "inner": inner}}))
    out = tmp_path / "r.json"
    assert main([command, "--operator", str(op), flag, str(fn), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"the scaling by t={t:g} has a coefficient" in err
    assert not out.exists()


def test_verify_takes_a_g_with_coefficients_near_1e200(tmp_path):
    # s / (1 + s^2) given times 1e200: its products g g and e g g, read by the
    # inequality records, are formed from coefficients normalized to [1, 2)
    op, g = tmp_path / "op.json", tmp_path / "g.json"
    write_operator(op, [[1.0, 0.0], [0.0, -2.0]])
    g.write_text(json.dumps({"name": "rational", "params": {
        "num": [1e200, 0.0], "den": [1e200, 0.0, 1e200], "alpha": 1.0}}))
    assert main(["verify", "--operator", str(op), "--g", str(g),
                 "--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("num, alpha", [([1.0, 0.0], 400.0), ([1.0, 0.0], 1e308),
                                        ([1e308, 0.0], 1.0)])
def test_a_decay_constant_that_overflows_is_refused_without_warnings(tmp_path, capsys,
                                                                     num, alpha):
    # the weighted sup of s / (1 + s^2) overflowed with numpy RuntimeWarnings
    # (errors under this suite) and a message "constant grows from nan to nan"
    op, fn = tmp_path / "op.json", tmp_path / "f.json"
    write_operator(op, [[1.0, 0.0], [0.0, -2.0]])
    fn.write_text(json.dumps({"name": "rational",
                              "params": {"num": num, "den": [1.0, 0.0, 1.0], "alpha": alpha}}))
    assert main(["calc", "--operator", str(op), "--function", str(fn),
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflows on the sample set" in err
    assert "nan" not in err and "inf" not in err


@pytest.mark.parametrize("spec, message", [
    ({"name": "rational", "params": [1.0]}, "function 'rational': 'params' must be"),
    ({"name": "product", "params": {"factors": [{"name": "rational", "params": [1.0]}]}},
     "function 'rational': 'params' must be"),
    ({"name": "product", "params": {"factors": [1.0]}}, "function spec must be a dict"),
], ids=["params-not-an-object", "nested-params-not-an-object", "factor-not-an-object"])
def test_verify_refuses_a_malformed_spec_with_a_message(tmp_path, capsys, spec, message):
    # the spec's label was formed before the spec was checked, and ended in a traceback
    op, fn = tmp_path / "op.json", tmp_path / "g.json"
    write_operator(op, [[1.0, 0.0], [0.0, -2.0]])
    fn.write_text(json.dumps(spec))
    assert main(["verify", "--operator", str(op), "--g", str(fn),
                 "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.startswith("error: " + message)


def test_verify_names_the_g_whose_decay_certificate_it_refuses(tmp_path, capsys):
    op, fn = tmp_path / "op.json", tmp_path / "g.json"
    write_operator(op, [[1.0, 0.0], [0.0, -2.0]])
    fn.write_text(json.dumps({"name": "rational",
                              "params": {"num": [1.0], "den": [1.0], "alpha": 1.0}}))
    assert main(["verify", "--operator", str(op), "--g", str(fn),
                 "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: g=rational([1.0]/[1.0]): no stable decay of order alpha=1.0: ")


_E_ALPHA_1 = {"name": "e_alpha", "params": {"alpha": 1.0}}


@pytest.mark.parametrize("command, flag, spec, message", [
    ("verify", "--g", {"name": "rational", "params": {"num": [1.0, 0.0], "den": [1.0, 0.0, 1.0]}},
     "g=rational([1.0, 0.0]/[1.0, 0.0, 1.0]): a g needs a decay certificate"),
    ("verify", "--g", {"name": "scaled", "params": {"t": 1e155, "inner": {"name": "regularizer"}}},
     "g=scaled(1e+155,regularizer): the scaling by t=1e+155 has a coefficient beyond"),
    # scale_function's other kinds: C_alpha |t|^-alpha overflows to inf
    ("verify", "--g", {"name": "scaled", "params": {"t": 1e-320, "inner": _E_ALPHA_1}},
     "frames stage, g=scaled(1e-320,e_alpha(1.0)): the claimed error is not finite (C_alpha inf)"),
    ("calc", "--function", {"name": "scaled", "params": {"t": 1e-320, "inner": _E_ALPHA_1}},
     "the claimed error is not finite (C_alpha inf)"),
], ids=["verify-rational-no-alpha", "verify-scaled-huge-t", "verify-scaled-tiny-t-e_alpha",
        "calc-scaled-tiny-t-e_alpha"])
def test_a_refused_function_is_named(tmp_path, capsys, command, flag, spec, message):
    op, fn = tmp_path / "op.json", tmp_path / "g.json"
    write_operator(op, [[1.0, 0.0], [0.0, -2.0]])
    fn.write_text(json.dumps(spec))
    assert main([command, "--operator", str(op), flag, str(fn),
                 "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.startswith("error: " + message)


def _f_ab(a, b):
    return {"name": "f_ab", "params": {"a": a, "b": b, "inner": {"name": "regularizer"}}}


@pytest.mark.parametrize("operator, command, flag, spec, message", [
    ("diag", "verify", "--g", _f_ab(1e-160, 1e-150),
     "frames stage, g=f_ab(1e-160,1e-150,regularizer): the claimed error is not finite"),
    ("diag", "frame", "--g", _f_ab(1e-160, 1e-150), "the claimed error is not finite"),
    ("jordan", "verify", "--g", _f_ab(1e-160, 1e-150),
     "frames stage, g=f_ab(1e-160,1e-150,regularizer): the claimed error is not finite"),
    ("jordan", "frame", "--g", _f_ab(1e-160, 1e-150), "the claimed error is not finite"),
    ("diag", "verify", "--g", {"name": "e_alpha", "params": {"alpha": 0.02}},
     "inequalities stage, g=e_alpha(0.02): non-finite function value"),
    ("jordan", "calc", "--function", _f_ab(1e290, 1e300),
     "non-finite function value on the contour"),
], ids=["verify-diag-grid-m", "frame-diag-grid-m", "verify-jordan-grid-m", "frame-jordan-grid-m",
        "verify-f0-infty", "calc-contour-profile"])
def test_an_overflow_is_refused_without_warnings(tmp_path, capsys, operator, command, flag,
                                                 spec, message):
    # under this suite's warnings as errors: the grid's M of a g whose C_alpha
    # (2e160 here) squared overflows (a traceback with exit 1 on the eigen
    # path, inf * 0 on the dense one), f0_infty's profile beyond |t| = 1e154,
    # and the f_ab profile's t z on the contour each overflowed with a
    # RuntimeWarning.  The windows are narrow in log t, so the profiles are
    # cheap; the workflow runs f_ab(1e-200, 1e200) and f_ab(1e-300, 1e300),
    # which take the same routes at about 30 times the cost
    op, fn = tmp_path / "op.json", tmp_path / "g.json"
    write_operator(op, {"diag": [[1.0, 0.0], [0.0, -2.0]], "jordan": [[1.0, 1.0], [0.0, 1.0]]}
                   [operator])
    fn.write_text(json.dumps(spec))
    assert main([command, "--operator", str(op), flag, str(fn),
                 "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.startswith("error: " + message)


def test_a_claim_that_is_not_finite_is_printed_as_a_float(tmp_path, capsys):
    # the claims on T = 1e-310 are inf, which the message printed as
    # np.float64(inf): the frames' window tails, first, since the grid's
    # window 1e25 to 1e35 (``default_quad_grid`` floors ||T|| at 1e-30)
    # leaves the spectrum out, and then the two-step calculus's
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"n": 1, "m": 1, "matrix": [[[1e-310, 0]]]}))
    assert main(["verify", "--operator", str(op), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "discretization inf" in err and "np." not in err


@pytest.mark.parametrize("command, flag", [
    ("calc", "--function"), ("frame", "--g"), ("verify", "--g"), ("verify", "--function"),
])
@pytest.mark.parametrize("spec", [
    {"name": "regularizer", "params": {"theta": 0.3}},
    {"name": "f_ab", "params": {"a": 0.5, "b": 2.0, "inner": {
        "name": "regularizer", "params": {"theta": 0.3}}}},
], ids=["own", "nested"])
def test_a_function_spec_takes_the_angle_of_the_run(tmp_path, capsys, command, flag, spec):
    # the contour angle comes from --theta and --phi alone: a spec that sets
    # its own theta, at any depth, is refused before any certificate
    op, fn = tmp_path / "op.json", tmp_path / "f.json"
    write_operator(op, [[1.0, 1.0], [0.0, 1.0]])
    fn.write_text(json.dumps(spec))
    out = tmp_path / "r.json"
    assert main([command, "--operator", str(op), flag, str(fn), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--theta" in err
    assert not out.exists()


@pytest.mark.parametrize("grid", ["a,1,0,1,3,3", "-1,1,0,1,nan,3", "nan,1,0,1,3,3"],
                         ids=["x-not-numeric", "nx-nan", "x-nan"])
def test_spectrum_rejects_malformed_grid(tmp_path, capsys, grid):
    op = tmp_path / "op.json"
    write_operator(op, [[1.0]])
    assert main(["spectrum", "--operator", str(op), f"--grid={grid}",
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_rejects_theta_below_omega(tmp_path, capsys):
    op = tmp_path / "op.json"
    write_operator(op, [[1.0]])
    assert main(["verify", "--operator", str(op), "--omega", "0.3", "--theta", "0.2",
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "theta=0.2" in err and "omega=0.3" in err


@pytest.mark.parametrize("args, needle", [
    (["--seed", "-1"], "seed=-1"),
    (["--phi", "0.2"], "contour angle phi=0.2 outside (omega, theta)"),
], ids=["seed-negative", "phi-below-omega"])
def test_verify_rejects_bad_arguments_before_any_work(tmp_path, capsys, args, needle):
    op = tmp_path / "op.json"
    write_operator(op, [[1.0, 0.0], [0.0, -2.0]])
    out = tmp_path / "r.json"
    assert main(["verify", "--operator", str(op), "--out", str(out)] + args) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_verify_refuses_an_operator_whose_values_overflow_their_gram(tmp_path, capsys):
    # at diag(1e-300, -2e-300) the hinf values reach 1e282, whose A^H A
    # overflows; the frame grid's window (1e25 to 1e35, ``default_quad_grid``
    # floors ||T|| at 1e-30) leaves the spectrum out, and the frames of the
    # regularizer, whose lower bound is 0, are refused on their infinite
    # window tails before the inequality stage refused that zero bound
    op = tmp_path / "op.json"
    write_operator(op, [[1e-300, 0.0], [0.0, -2e-300]])
    assert main(["verify", "--operator", str(op), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: frames stage, g=regularizer: the claimed error is not finite")


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


def _refused(n, m, n_g):
    try:
        check_frame_memory(cs.CliffordOperator.identity(n, m), 400, n_g)
    except cs.ArgumentError:
        return True
    return False


def _assert_frame_stage_refused(tmp_path, capsys, monkeypatch, command, args, n_g, m):
    # at n = 3 the estimate refuses m and not m - 1: the engine of m still
    # fits or is refused only after certifying, which raises here, so a
    # missing refusal fails at once instead of allocating
    assert _refused(3, m, n_g) and not _refused(3, m - 1, n_g)

    def certify(*_):
        raise AssertionError("certification started before the memory refusal")

    monkeypatch.setattr("cliffspec.cli.check_bisectorial", certify)
    monkeypatch.setattr("cliffspec.suite.check_bisectorial", certify)
    op = tmp_path / "op.json"
    op.write_text(json.dumps(cs.operator_to_dict(cs.CliffordOperator.identity(3, m))))
    start = time.perf_counter()
    assert main([command, "--operator", str(op), "--out", str(tmp_path / "r.json")]
                + args) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"frame stage at D = {m << 3} with {n_g} g" in err and "GiB" in err


def test_verify_refuses_a_frame_stage_beyond_the_memory_cap(tmp_path, capsys, monkeypatch):
    _assert_frame_stage_refused(tmp_path, capsys, monkeypatch, "verify", [], 3, 55)


def test_frame_refuses_a_frame_stage_beyond_the_memory_cap(tmp_path, capsys, monkeypatch):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"name": "regularizer"}))
    _assert_frame_stage_refused(tmp_path, capsys, monkeypatch, "frame", ["--g", str(g)], 1, 65)


def test_frame_refuses_a_g_without_decay_before_any_certificate(tmp_path, capsys, monkeypatch):
    # as verify does: named, with the hint to give alpha, before T is
    # certified or an engine built
    op, g = tmp_path / "op.json", tmp_path / "g.json"
    write_operator(op, [[1.0, 0.0], [0.0, -2.0]])
    g.write_text(json.dumps({"name": "rational", "params": {"num": [1, 0], "den": [1, 0, 1]}}))

    def refuse(*args, **kwargs):
        raise AssertionError("frame certified T")
    monkeypatch.setattr(cs.cli, "check_bisectorial", refuse)
    assert main(["frame", "--operator", str(op), "--g", str(g),
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: g=rational([1, 0]/[1, 0, 1]): a g needs a decay certificate")
    assert "give each rational in it an 'alpha'" in err


@pytest.mark.parametrize("command, flag", [("calc", "--function"), ("frame", "--g"),
                                           ("verify", "--g")])
def test_f_ab_with_an_infinite_bound_exits_2(tmp_path, capsys, command, flag):
    # JSON 1e400 parses to inf, which the f_ab quadrature grid cannot take
    op = tmp_path / "op.json"
    write_operator(op, [[1.0, 0.0], [0.0, -2.0]])
    fn = tmp_path / "f.json"
    fn.write_text('{"name": "f_ab", "params": {"a": 1e-3, "b": 1e400, '
                  '"inner": {"name": "regularizer"}}}')
    assert main([command, "--operator", str(op), flag, str(fn),
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    # verify and frame name the g they refuse
    label = "g=f_ab(0.001,inf,regularizer): " if command != "calc" else ""
    assert err.startswith(f"error: {label}need 0 < a <= b < inf") and "Traceback" not in err


def test_verify_with_a_vanishing_parameter_integral_exits_2(tmp_path, capsys):
    # f_ab at a = b is 0, so the integral of e g^2 that the constant of the
    # sup-norm domination divides by is 0 too: that constant is inf, and the
    # frame lower bound of 0 is refused
    op = tmp_path / "op.json"
    write_operator(op, [[1.0, 0.0], [0.0, -2.0]])
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"name": "f_ab", "params": {"a": 1, "b": 1,
                                                        "inner": {"name": "regularizer"}}}))
    assert main(["verify", "--operator", str(op), "--g", str(g),
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: inequalities stage, g=f_ab(1,1,regularizer)")


def test_verify_refuses_a_parameter_integral_grid_beyond_the_node_cap(tmp_path, capsys):
    # the integral of g^2 dt/t for g = e_alpha(1e-12), of decay 2e-12, would
    # take 1e15 grid nodes; it is refused before any is allocated
    op = tmp_path / "op.json"
    write_operator(op, [[1.0, 0.0], [0.0, -2.0]])
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"name": "e_alpha", "params": {"alpha": 1e-12}}))
    assert main(["verify", "--operator", str(op), "--g", str(g),
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: inequalities stage, g=e_alpha(1e-12): ")
    assert "alpha=2e-12" in err and "grid nodes" in err


def test_bisect_refuses_an_operator_whose_q_overflows(tmp_path, capsys):
    # |s|^2 = (1e4 ||T||)^2 is finite, but T^2 - 2 s0 T + |s|^2 is not
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"n": 1, "m": 1, "matrix": [[[1.3407e150, 0.0]]]}))
    assert main(["bisect", "--operator", str(op), "--omega", "0.3",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "Q_s overflows" in capsys.readouterr().err


def test_verify_with_a_zero_frame_lower_bound_exits_2(tmp_path, capsys):
    # at omega = 1e-300 the frame of the regularizer has c_lower = 0, which
    # the frame ratio bound would divide by; C_phi = sqrt 2 / sin(5e-201) =
    # 2.8e200 makes the frame's claimed truncation error overflow first, so
    # the frames stage refuses it before the records are reached
    op = tmp_path / "op.json"
    write_operator(op, [[1.0, 0.0], [0.0, -2.0]])
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"name": "regularizer"}))
    assert main(["verify", "--operator", str(op), "--g", str(g), "--omega", "1e-300",
                 "--theta", "1e-200", "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "g=regularizer" in err
    assert "frames stage" in err and "not finite" in err


def test_verify_refuses_a_record_whose_bound_is_not_finite(tmp_path, capsys):
    # g(s) = f(1e100 s) has C_alpha = 1.4e100: the frame claims stay finite,
    # but the square-kernel bound, which squares C_alpha^2, overflows, and
    # would pass any lhs (at theta = 1e-155, where C_theta = 1.4e155 made it
    # overflow, the frames' rule error in the strip a = 2.4e-156 is already
    # infinite, and refused first)
    op = tmp_path / "op.json"
    write_operator(op, [[1.0, 0.0], [0.0, -2.0]])
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"name": "scaled", "params": {"t": 1e100,
                                                          "inner": {"name": "regularizer"}}}))
    assert main(["verify", "--operator", str(op), "--g", str(g),
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: inequalities stage, g=scaled(1e+100,regularizer): ")
    assert "composition_square_kernel" in err and "not finite" in err


def test_verify_refuses_a_calculus_constant_of_zero(tmp_path, capsys):
    # f_ab(2, 2) vanishes, so does every f(T), and the c of
    # dyadic_splitting_upper on a non-self-adjoint T, the largest
    # ||f(T)|| / ||f||_inf, is 0: refused, where each record would fail on
    # an operator that satisfies it
    op = tmp_path / "op.json"
    write_operator(op, [[1.0, 1.0], [0.0, 1.0]])
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"name": "f_ab", "params": {"a": 2, "b": 2,
                                                         "inner": {"name": "regularizer"}}}))
    assert main(["verify", "--operator", str(op), "--function", str(fn),
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: inequalities stage, g=regularizer: ")
    assert "dyadic_splitting_upper[g=regularizer] takes c = 0" in err
