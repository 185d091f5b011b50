"""The largest change per field between two sets of run records.

    python tests/record_diff.py OLD NEW

OLD and NEW are two JSON records written by the CLI, or two output
directories.  In directories, the records (`*.json`, not `*.meta.json`)
and the profile plot files (`*.dat`) are paired by relative path.  For each
numeric field it prints the largest absolute and relative change and how
many values changed; list positions are merged, so `points[].theta`
covers every point of a record, and a plot file's columns are merged over
the files of its directory.  Fields whose other values differ, and files,
keys or list entries present on one side only, are listed after the
table.  Last, every regular file of the two directories but the metadata
files and temporaries (records, CSV files, plot files, cache `.prof`
entries) is paired by relative path: the pairs whose bytes differ and the
files on one side only are listed, and a count line ends the report.  It
states record changes and is not a gate: it exits 0 whatever it finds,
and 2 on a usage error.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np


class Changes:
    def __init__(self):
        self.numeric = {}  # field -> [values, changed, largest absolute, largest relative]
        self.other = []  # one line per non-numeric or structural difference
        self.paired = 0  # files present on both sides
        self.differing = []  # relative paths of the pairs whose bytes differ
        self.one_sided = []  # one line per file present on one side only

    def number(self, field, old, new):
        row = self.numeric.setdefault(field, [0, 0, 0.0, 0.0])
        row[0] += 1
        if old == new or (math.isnan(old) and math.isnan(new)):
            return
        gap = abs(new - old)
        row[1] += 1
        row[2] = max(row[2], gap)
        row[3] = max(row[3], gap / abs(old) if old else math.inf)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _walk(old, new, field, changes):
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            sub = f"{field}.{key}"
            if key not in old or key not in new:
                changes.other.append(f"{sub}: only in {'new' if key not in old else 'old'}")
            else:
                _walk(old[key], new[key], sub, changes)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            changes.other.append(f"{field}: {len(old)} entries, now {len(new)}")
        for a, b in zip(old, new):
            _walk(a, b, field + "[]", changes)
    elif _is_number(old) and _is_number(new):
        changes.number(field, float(old), float(new))
    elif old != new:
        changes.other.append(f"{field}: {old!r} -> {new!r}")


def _label(rel: Path) -> str:
    """`verify-th2` for `verify-th2-<hash>.json`; `profiles/*.dat` for a plot file under `profiles-<hash>`."""
    if rel.suffix == ".dat":
        return f"{rel.parent.name.rsplit('-', 1)[0]}/*.dat"
    return rel.stem.rsplit("-", 1)[0]


def _compare_file(old: Path, new: Path, label: str, changes):
    if old.suffix == ".dat":
        header = old.read_text().splitlines()[0].lstrip("# ").split()
        a, b = np.loadtxt(old, ndmin=2), np.loadtxt(new, ndmin=2)
        if a.shape != b.shape:
            changes.other.append(f"{label}: shape {a.shape}, now {b.shape}")
            return
        for col, name in enumerate(header):
            for x, y in zip(a[:, col], b[:, col]):
                changes.number(f"{label}:{name}", float(x), float(y))
    else:
        _walk(json.loads(old.read_text()), json.loads(new.read_text()), label, changes)


def _is_record(path: Path) -> bool:
    return path.suffix == ".dat" or (path.suffix == ".json" and not path.name.endswith(".meta.json"))


def _files(root: Path) -> set:
    """Every regular file under ``root`` but the metadata files and the writers' temporaries, by relative path."""
    return {p.relative_to(root) for p in root.rglob("*")
            if p.is_file() and not p.name.endswith((".meta.json", ".tmp"))}


def diff(old: Path, new: Path) -> Changes:
    changes = Changes()
    if old.is_file() and new.is_file():
        _compare_file(old, new, _label(Path(old.name)), changes)
        pairs = [(old, new, Path(old.name))]
    else:
        old_set, new_set = _files(old), _files(new)
        changes.one_sided = [f"{rel}: only in {'old' if rel in old_set else 'new'}" for rel in sorted(old_set ^ new_set)]
        pairs = [(old / rel, new / rel, rel) for rel in sorted(old_set & new_set)]
        for a, b, rel in pairs:
            if _is_record(rel):
                _compare_file(a, b, _label(rel), changes)
    changes.paired = len(pairs)
    changes.differing = [rel for a, b, rel in pairs if a.read_bytes() != b.read_bytes()]
    return changes


def report(changes: Changes) -> str:
    lines = ["| field | values | changed | largest abs. change | largest rel. change |", "| --- | --- | --- | --- | --- |"]
    same = 0
    for field, (count, changed, gap, rel) in sorted(changes.numeric.items()):
        if changed:
            lines.append(f"| `{field}` | {count} | {changed} | {gap:.2e} | {rel:.2e} |")
        else:
            same += 1
    lines.append(f"\n{same} numeric fields unchanged, {len(lines) - 2} changed.")
    if changes.other:
        lines.append("Other differences:")
        lines.extend(f"- {line}" for line in changes.other)
    lines.extend(f"- {rel}: bytes differ" for rel in changes.differing)
    lines.extend(f"- {line}" for line in changes.one_sided)
    lines.append(f"{len(changes.differing)} of {changes.paired} paired files differ in bytes, "
                 f"{len(changes.one_sided)} on one side only.")
    return "\n".join(lines)


def main(argv) -> int:
    paths = [Path(a) for a in argv]
    if len(paths) != 2 or not all(p.exists() and (p.is_dir() or _is_record(p)) for p in paths):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = paths
    if old.is_file() != new.is_file():
        print("OLD and NEW must both be files or both be directories", file=sys.stderr)
        return 2
    print(report(diff(old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
