"""Say which numbers moved between two artifact trees.

    python tools/artifact_diff.py DIR_A DIR_B

Walks every JSON and CSV file under DIR_A and DIR_B (as
`tools/artifact_digest.py --out` writes them) and prints one line per
relative path, sorted:

    PATH  moved M of N  max_rel R  max_rel(|x|>1e-12) S

N counts the numeric leaves of a JSON file (every int or float, a complex
`[re, im]` pair as two) or the numeric cells of a CSV file; M of them differ.
A move's relative size is |a - b| / max(|a|, |b|); R is the largest, and S
the largest among leaves with max(|a|, |b|) > 1e-12, so rounding residue near
zero does not hide a move of a real number.  A file on one side only, or whose
non-numeric content (keys, strings, nulls, shape) differs, is reported as
such.  Exits 0 when nothing moved, else 1.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

SMALL = 1e-12


def leaves(path: Path) -> tuple:
    """(numbers, rest) of a JSON or CSV artifact: its numeric leaves in
    document order, and everything else, for an exact comparison."""
    text = path.read_text()
    numbers, rest = [], []
    if path.suffix == ".json":
        def walk(x):
            if isinstance(x, (int, float)) and not isinstance(x, bool):
                numbers.append(float(x))
            elif isinstance(x, dict):
                rest.append(sorted(x))
                for key in sorted(x):
                    walk(x[key])
            elif isinstance(x, list):
                rest.append(len(x))
                for item in x:
                    walk(item)
            else:
                rest.append(x)

        walk(json.loads(text))
        return numbers, rest
    for row in csv.reader(line for line in text.splitlines() if not line.startswith("#")):
        rest.append(len(row))
        for cell in row:
            try:
                numbers.append(float(cell))
            except ValueError:
                rest.append(cell)
    return numbers, rest


def compare(a: Path, b: Path) -> dict:
    """{moved, total, max_rel, max_rel_big, same_rest} for one file pair."""
    (num_a, rest_a), (num_b, rest_b) = leaves(a), leaves(b)
    same_rest = rest_a == rest_b and len(num_a) == len(num_b)
    moved, max_rel, max_rel_big = 0, 0.0, 0.0
    for x, y in zip(num_a, num_b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        moved += 1
        scale = max(abs(x), abs(y))
        rel = abs(x - y) / scale
        max_rel = max(max_rel, rel)
        if scale > SMALL:
            max_rel_big = max(max_rel_big, rel)
    return {"moved": moved, "total": len(num_a), "max_rel": max_rel,
            "max_rel_big": max_rel_big, "same_rest": same_rest}


def diff(dir_a, dir_b) -> dict:
    """Relative path -> compare(...) for every JSON or CSV file under both
    trees, or "only in A" / "only in B" for a file under one of them."""
    files = [{p.relative_to(d).as_posix() for p in Path(d).rglob("*")
              if p.suffix in (".json", ".csv")} for d in (dir_a, dir_b)]
    out = {}
    for rel in sorted(files[0] | files[1]):
        if rel not in files[1]:
            out[rel] = "only in A"
        elif rel not in files[0]:
            out[rel] = "only in B"
        else:
            out[rel] = compare(Path(dir_a, rel), Path(dir_b, rel))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", metavar="DIR_A")
    parser.add_argument("dir_b", metavar="DIR_B")
    args = parser.parse_args(argv)
    status = 0
    for rel, r in diff(args.dir_a, args.dir_b).items():
        if isinstance(r, str):
            print(f"{rel}  {r}")
            status = 1
            continue
        note = "" if r["same_rest"] else "  non-numeric content differs"
        print(f"{rel}  moved {r['moved']} of {r['total']}  max_rel {r['max_rel']:.3g}"
              f"  max_rel(|x|>{SMALL:g}) {r['max_rel_big']:.3g}{note}")
        if r["moved"] or not r["same_rest"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
