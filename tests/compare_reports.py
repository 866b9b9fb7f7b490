"""Compare two report directories cell by cell.

    python tests/compare_reports.py OLD NEW [--bound X]

For each file of either directory it prints, per column of a CSV file and
per value of a JSON file such as ``metadata.json``, the largest gap
|new - old| / (1 + |old|) over the numeric cells and how many cells
differ.  A CSV cell is numeric when it parses as a float; a JSON value is
numeric when it is a number.  Any other file is compared by its bytes.
It exits 1 when a file is on one side only, a header, a row count, a
JSON key or a text cell differs, non-finite cells are in different
places, or a gap exceeds ``--bound`` (default 0, so that without it any
numeric difference fails), and 0 otherwise.  It uses only the standard
library and numpy; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np


def _value(cell: str):
    """A CSV cell as a float, or the cell itself when it is text."""
    try:
        return float(cell)
    except ValueError:
        return cell


def _leaves(value, at: str = ""):
    """(path, value) for each leaf of a JSON tree; numbers as floats."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{at}/{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{at}[{i}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield at, float(value)
    else:
        yield at, json.dumps(value)


def compare_values(old: list, new: list) -> tuple[float, int, list[str]]:
    """(largest gap, differing cells, problems) of two aligned value lists:
    floats are compared by their gap, anything else as text."""
    texts = [i for i, (a, b) in enumerate(zip(old, new)) if isinstance(a, str) or isinstance(b, str)]
    problems = [f"text cell {i}: {old[i]!r} -> {new[i]!r}" for i in texts if old[i] != new[i]]
    differ = len(problems)
    numeric = sorted(set(range(len(old))) - set(texts))
    a, b = np.array([old[i] for i in numeric], float), np.array([new[i] for i in numeric], float)
    finite = np.isfinite(a) & np.isfinite(b)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    for i in np.flatnonzero(~finite & ~same):
        problems.append(f"non-finite cell {numeric[i]}: {a[i]!r} -> {b[i]!r}")
    with np.errstate(over="ignore"):
        gaps = np.abs(b[finite] - a[finite]) / (1.0 + np.abs(a[finite]))
    return float(np.max(gaps, initial=0.0)), differ + int(np.sum(~same)), problems


def _csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    return (rows[0], rows[1:]) if rows else ([], [])


def compare_file(old: Path, new: Path, bound: float) -> tuple[list[str], bool]:
    """Report lines for one file present on both sides, and whether it passes."""
    name = new.name
    if name.endswith(".csv"):
        (head_a, rows_a), (head_b, rows_b) = _csv(old), _csv(new)
        if head_a != head_b:
            return [f"{name}: header differs: {head_a} -> {head_b}"], False
        if len(rows_a) != len(rows_b) or any(len(r) != len(head_a) for r in rows_a + rows_b):
            return [f"{name}: rows differ: {len(rows_a)} -> {len(rows_b)}"], False
        columns = [
            (f"{name}:{col}", [_value(r[j]) for r in rows_a], [_value(r[j]) for r in rows_b])
            for j, col in enumerate(head_a)
        ]
    elif name.endswith(".json"):
        leaves_a = dict(_leaves(json.loads(old.read_text(encoding="utf-8"))))
        leaves_b = dict(_leaves(json.loads(new.read_text(encoding="utf-8"))))
        if leaves_a.keys() != leaves_b.keys():
            return [f"{name}: keys differ: {sorted(leaves_a.keys() ^ leaves_b.keys())}"], False
        columns = [(f"{name}:{key}", [value], [leaves_b[key]]) for key, value in leaves_a.items()]
    else:
        same = old.read_bytes() == new.read_bytes()
        return [f"{name}: bytes {'equal' if same else 'differ'}"], same
    lines, ok = [], True
    for label, a, b in columns:
        gap, differ, problems = compare_values(a, b)
        lines.append(f"{label}  max gap {gap:.3g}  differing {differ}/{len(a)}")
        lines += [f"  {p}" for p in problems]
        ok &= not problems and gap <= bound
    return lines, ok


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--bound", type=float, default=0.0, help="largest accepted gap (default 0)")
    args = parser.parse_args(argv)
    names = sorted({p.name for d in (args.old, args.new) for p in d.iterdir() if p.is_file()})
    ok = True
    for name in names:
        old, new = args.old / name, args.new / name
        if not (old.is_file() and new.is_file()):
            print(f"{name}: only in {args.old if old.is_file() else args.new}")
            ok = False
            continue
        lines, passed = compare_file(old, new, args.bound)
        print("\n".join(lines))
        ok &= passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
