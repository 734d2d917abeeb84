import importlib.util
import json
import re
from pathlib import Path

import cliffspec as cs
from cliffspec import suite

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "stage_times.py"


def _tool():
    spec = importlib.util.spec_from_file_location("stage_times", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _diag(tmp_path):
    op = tmp_path / "diag.json"
    T = cs.CliffordOperator.from_real_matrix([[1.0, 0.0], [0.0, -2.0]], n=1)
    op.write_text(json.dumps(cs.operator_to_dict(T)))
    return op


def test_every_stage_is_timed_and_printed(tmp_path, capsys):
    tool = _tool()
    wrapped = {name: getattr(suite, name) for _, module, names in tool.STAGES
               if module == "suite" for name in names}
    assert tool.main([str(ROOT), str(_diag(tmp_path)), "--calls", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    rows, under = rows[:-1], rows[-1]
    assert len(rows) == len(tool.STAGES)
    for (label, _, _), row in zip(tool.STAGES, rows):
        match = re.fullmatch(rf"{re.escape(label)} +([\d.]+) +([\d.]+)%", row)
        assert match and float(match[1]) > 0.0, row
    assert rows[0].endswith(" 100.0%")
    # the contour of the timed calls: diag(1, -2) takes stride 1 at the defaults
    assert under == "contour: nodes 1045, stride 1, basis.path eigen"
    # the wrappers are taken off again
    assert all(getattr(suite, name) is fn for name, fn in wrapped.items())


def test_a_missing_tree_name_or_input_is_refused(tmp_path, capsys, monkeypatch):
    tool = _tool()
    assert tool.main([str(tmp_path), str(_diag(tmp_path))]) == 2
    assert "no src/cliffspec" in capsys.readouterr().err
    assert tool.main([str(ROOT), str(tmp_path / "none.json"), "--calls", "1"]) == 2
    assert "none.json" in capsys.readouterr().err
    monkeypatch.delattr(suite, "f0_infty")
    assert tool.main([str(ROOT), str(_diag(tmp_path)), "--calls", "1"]) == 2
    assert "has no cliffspec.suite.f0_infty" in capsys.readouterr().err
