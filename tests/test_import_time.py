import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "import_time.py"


def _tool():
    spec = importlib.util.spec_from_file_location("import_time", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_tree_against_itself(capsys):
    assert _tool().main([str(ROOT), str(ROOT), "--pairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for name, line in zip(("old", "new"), lines):
        assert re.fullmatch(rf"{name} .*: median [\d.]+ ms, IQR [\d.]+ ms over 2 imports", line)
    assert re.fullmatch(r"new faster in [012] of 2 pairs \(\d+%\)", lines[2])


def test_a_tree_without_the_package_is_refused(tmp_path, capsys):
    assert _tool().main([str(tmp_path), str(ROOT), "--pairs", "1"]) == 2
    assert "no src/cliffspec" in capsys.readouterr().err
