"""Compare two output trees of ``tools/ref_outputs.py`` value by value.

Usage, from the repository root:

    python3 tools/ref_gaps.py DIR_A DIR_B

For every CSV under either directory (paths relative to it), prints one
``gap  path  column`` line per numeric column: the largest relative gap
|a - b| / max(|a|, |b|) over the column's rows.  Equal values, nan against
nan included, have gap 0, so byte-identical files print 0 everywhere; a
value that is nan on one side only has gap inf.  Columns with a
non-numeric cell (names of quantities or checks) are compared as text and
print only when they differ.  The exit status is 1 if a CSV is present on
one side only or two CSVs differ in header or row count.
"""

from __future__ import annotations

import csv
import math
import os
import sys


def csv_files(root: str) -> set[str]:
    """Paths of the CSV files under ``root``, relative to it."""
    found = set()
    for base, _, names in os.walk(root):
        found.update(os.path.relpath(os.path.join(base, name), root)
                     for name in names if name.endswith(".csv"))
    return found


def read(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def relative_gap(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    # nan or inf on one side only makes the quotient nan
    gap = abs(a - b) / max(abs(a), abs(b))
    return gap if math.isfinite(gap) else math.inf


def column_gap(cells_a: list[str], cells_b: list[str]) -> float | None:
    """The largest relative gap of a numeric column; None for text."""
    try:
        pairs = [(float(a), float(b)) for a, b in zip(cells_a, cells_b)]
    except ValueError:
        return None
    return max((relative_gap(a, b) for a, b in pairs), default=0.0)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    dir_a, dir_b = argv
    files_a, files_b = csv_files(dir_a), csv_files(dir_b)
    problems = [f"only in {d}: {p}" for d, only in ((dir_a, files_a - files_b),
                                                   (dir_b, files_b - files_a))
                for p in sorted(only)]
    for path in sorted(files_a & files_b):
        header_a, rows_a = read(os.path.join(dir_a, path))
        header_b, rows_b = read(os.path.join(dir_b, path))
        if header_a != header_b or len(rows_a) != len(rows_b):
            problems.append(f"{path}: header or row count differs")
            continue
        for j, column in enumerate(header_a):
            cells_a, cells_b = [r[j] for r in rows_a], [r[j] for r in rows_b]
            gap = column_gap(cells_a, cells_b)
            if gap is not None:
                print(f"{gap:.3g}  {path}  {column}")
            elif cells_a != cells_b:
                print(f"differs  {path}  {column}")
    for line in problems:
        print(f"FAIL  {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
