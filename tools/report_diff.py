"""Field-by-field difference of two cliffspec reports, or of two trees of them.

    python3 tools/report_diff.py OLD.json NEW.json
    python3 tools/report_diff.py OLD_OUT_DIR NEW_OUT_DIR    # e.g. two perfbench out/ trees

In a tree every ``*.json`` file is compared with the file at the same
relative path in the other tree.  A JSON path is written with its list
indices as ``[*]``, so all the records of a report share ``records[*].lhs``;
for each such path that moved, the tool prints how many numbers moved and
the largest absolute and relative change, each with the concrete path where
it happened (a list item that has a "name" is named by it), and the largest
absolute change over the path's scale: the largest finite |value| under the
path in either report.  A rounding-level move of a cancellation residue reads
large relative to itself but small against its path's scale.  Every changed
``pass``, ``passed`` or ``certified`` is printed on its own line, as is every
other change that is not a number: a string, a missing key or a list of
another length.

Exit codes: 0 nothing moved, 1 something moved, 2 unreadable input.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

VERDICTS = ("pass", "passed", "certified")


def _leaves(value, path=()):
    """(path, leaf) pairs of a JSON value; a path step is a key or a list index."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    else:
        yield path, value


def _render(path, root, generic=False):
    """``a.b[3].c`` (``[*]`` with ``generic``); a list item with a "name" shows that name."""
    out, node = "", root
    for step in path:
        if isinstance(step, int):
            name = node[step].get("name") if isinstance(node[step], dict) else None
            out += "[*]" if generic else f"[{name if name is not None else step}]"
        else:
            out += f".{step}" if out else str(step)
        node = node[step]
    return out


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(old, new):
    """Differences of two JSON values: (per generic path: [count, (abs, where),
    (rel, where), scale], a list of lines for verdicts and other changes)."""
    old_leaves, new_leaves = dict(_leaves(old)), dict(_leaves(new))
    moved, lines, scales = {}, [], {}
    for leaves, root in ((old_leaves, old), (new_leaves, new)):
        for path, x in leaves.items():
            if _is_number(x) and math.isfinite(x):
                key = _render(path, root, generic=True)
                scales[key] = max(scales.get(key, 0.0), abs(x))
    for path in sorted(old_leaves.keys() | new_leaves.keys(), key=str):
        if path not in new_leaves or path not in old_leaves:
            side, root = ("old", old) if path in old_leaves else ("new", new)
            lines.append(f"{_render(path, root)}: only in {side}")
            continue
        a, b = old_leaves[path], new_leaves[path]
        if _is_number(a) and _is_number(b):
            if a == b or (math.isnan(a) and math.isnan(b)):
                continue
            diff = abs(b - a)
            if math.isnan(diff):    # a nan on one side only
                diff = math.inf
            scale = max(abs(a), abs(b))
            rel = diff / scale if math.isfinite(scale) else math.inf
            where, key = _render(path, new), _render(path, new, generic=True)
            entry = moved.setdefault(key, [0, (0.0, where), (0.0, where), scales.get(key, 0.0)])
            entry[0] += 1
            entry[1] = max(entry[1], (diff, where))
            entry[2] = max(entry[2], (rel, where))
        elif a != b or type(a) is not type(b):
            tag = "VERDICT " if path and path[-1] in VERDICTS else ""
            lines.append(f"{tag}{_render(path, new)}: {a!r} -> {b!r}")
    return moved, lines


def _pairs(old, new):
    """(label, old file, new file) for two files or two trees; None for a missing side."""
    if old.is_file() and new.is_file():
        return [(new.name, old, new)]
    if old.is_dir() and new.is_dir():
        names = sorted({p.relative_to(root).as_posix() for root in (old, new)
                        for p in root.rglob("*.json")})
        return [(n, old / n if (old / n).is_file() else None,
                 new / n if (new / n).is_file() else None) for n in names]
    raise ValueError("give two JSON files or two directories")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        pairs = _pairs(Path(argv[0]), Path(argv[1]))
        loaded = [(label, *(json.loads(p.read_text()) if p else None for p in (a, b)))
                  for label, a, b in pairs]
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    changed = 0
    for label, old, new in loaded:
        if old is None or new is None:
            print(f"{label}: only in {'new' if old is None else 'old'}")
            changed += 1
            continue
        moved, lines = compare(old, new)
        for path, (count, (diff, at_abs), (rel, at_rel), scale) in moved.items():
            of_scale = diff / scale if scale else math.inf
            print(f"{label}: {path}: {count} moved, largest abs {diff:.3g} at {at_abs}, "
                  f"largest rel {rel:.3g} at {at_rel}, "
                  f"largest of scale {of_scale:.3g} (scale {scale:.3g})")
        for line in lines:
            print(f"{label}: {line}")
        changed += len(moved) + len(lines)
    if not changed:
        print(f"no change in {len(loaded)} file(s)")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
