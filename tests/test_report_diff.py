import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"


def _tool():
    spec = importlib.util.spec_from_file_location("report_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root, reports):
    for name, report in reports.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report))
    return root


REPORT = {
    "passed": True,
    "records": [{"name": "a", "lhs": 1.0, "rhs": 2.0, "pass": True},
                {"name": "b", "lhs": 3.0, "rhs": 4.0, "pass": True}],
    "bisector": {"certified": True, "c_phi_table": [[0.1, 2.0], [0.2, 2.5]]},
    "contour": {"nodes": 802},
}


def test_identical_trees_report_no_change(tmp_path, capsys):
    old = _tree(tmp_path / "old", {"w/outputs/r.json": REPORT, "w/inputs/i.json": [1, 2]})
    new = _tree(tmp_path / "new", {"w/outputs/r.json": REPORT, "w/inputs/i.json": [1, 2]})
    assert _tool().main([str(old), str(new)]) == 0
    assert capsys.readouterr().out == "no change in 2 file(s)\n"


def test_moved_values_and_verdicts_are_listed_per_path(tmp_path, capsys):
    moved = json.loads(json.dumps(REPORT))
    moved["records"][0]["lhs"] = 1.5
    moved["records"][1]["lhs"] = 3.0000003
    moved["records"][1]["pass"] = False
    moved["passed"] = False
    moved["bisector"]["certified"] = False
    moved["contour"]["rule"] = "trapezoid"
    old = _tree(tmp_path / "old", {"w/r.json": REPORT, "w/gone.json": {}})
    new = _tree(tmp_path / "new", {"w/r.json": moved})
    assert _tool().main([str(old), str(new)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "w/gone.json: only in old",
        "w/r.json: records[*].lhs: 2 moved, largest abs 0.5 at records[a].lhs, "
        "largest rel 0.333 at records[a].lhs, largest of scale 0.167 (scale 3)",
        "w/r.json: VERDICT bisector.certified: True -> False",
        "w/r.json: contour.rule: only in new",
        "w/r.json: VERDICT passed: True -> False",
        "w/r.json: VERDICT records[b].pass: True -> False",
    ]


def test_two_files_and_unreadable_input(tmp_path, capsys):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"x": 1.0}))
    new.write_text(json.dumps({"x": 1.0 + 2.0 ** -52}))
    assert _tool().main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.startswith("new.json: x: 1 moved, largest abs 2.22e-16")
    new.write_text("{not json")
    assert _tool().main([str(old), str(new)]) == 2
    assert _tool().main([str(old), str(tmp_path)]) == 2
