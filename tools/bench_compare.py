#!/usr/bin/env python3
"""Compare two sets of BENCH_*.json files, or check one set's gates.

    tools/bench_compare.py BASE NEW
    tools/bench_compare.py --check [PATH ...]

A PATH (and BASE, NEW) is a BENCH_*.json file or a directory whose
BENCH_*.json files are read; files pair up by name, and two files given
as BASE and NEW pair up whatever their names.

BASE NEW prints one line per numeric field of every paired file (its
dotted path, the base and new values, and the relative change), then one
line per gate. A gate is a `gate_pass` or `gates_pass` field. It exits 1
when a gate that held in BASE is false or missing in NEW, including when
NEW lacks a file BASE has.

--check prints every gate of the files (the repository root's when no
PATH is given) and exits 1 when one is false, or when a file does not
parse.
"""

import argparse
import json
import math
import pathlib
import sys

GATE_KEYS = ("gate_pass", "gates_pass")


def bench_files(path):
    """Maps file name -> path for a BENCH_*.json file or a directory."""
    p = pathlib.Path(path)
    if p.is_dir():
        return {f.name: f for f in sorted(p.glob("BENCH_*.json"))}
    if not p.is_file():
        raise SystemExit(f"bench_compare: no such file or directory: {path}")
    return {p.name: p}


def flatten(value, prefix=""):
    """Yields (dotted path, leaf) for every leaf of a JSON value."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from flatten(sub, f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from flatten(sub, f"{prefix}[{i}]")
    else:
        yield prefix, value


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def gates(doc):
    """Maps dotted path -> value for every gate field of a document."""
    return {path: v for path, v in flatten(doc) if path.rsplit(".", 1)[-1] in GATE_KEYS}


def gate_text(v):
    return "missing" if v is None else json.dumps(v)


def load(path):
    with open(path) as f:
        return json.load(f)


def change(base, new):
    if base == new:
        return "0.0%"
    if base == 0 or not math.isfinite(base) or not math.isfinite(new):
        return "n/a"
    return f"{(new - base) / abs(base) * 100.0:+.1f}%"


def compare(base_path, new_path):
    base_files, new_files = bench_files(base_path), bench_files(new_path)
    if pathlib.Path(base_path).is_file() and pathlib.Path(new_path).is_file():
        base_files = dict.fromkeys(new_files, base_files.popitem()[1])  # two files pair up
    failed = False
    for name in sorted(base_files.keys() | new_files.keys()):
        if name not in new_files:
            print(f"{name}: missing from NEW")
            for path, v in gates(load(base_files[name])).items():
                if v is True:
                    print(f"  gate {path}: true -> missing  FAIL")
                    failed = True
            continue
        if name not in base_files:
            print(f"{name}: new file")
            continue
        base_doc, new_doc = load(base_files[name]), load(new_files[name])
        base_leaves, new_leaves = dict(flatten(base_doc)), dict(flatten(new_doc))
        print(f"{name}:")
        for path, b in base_leaves.items():
            n = new_leaves.get(path)
            if is_number(b) and is_number(n):
                print(f"  {path}: {b:.6g} -> {n:.6g} ({change(b, n)})")
        for path in new_leaves.keys() - base_leaves.keys():
            if is_number(new_leaves[path]):
                print(f"  {path}: new field {new_leaves[path]:.6g}")
        base_gates, new_gates = gates(base_doc), gates(new_doc)
        for path in sorted(base_gates.keys() | new_gates.keys()):
            b, n = base_gates.get(path), new_gates.get(path)
            flipped = b is True and n is not True
            failed |= flipped
            print(f"  gate {path}: {gate_text(b)} -> {gate_text(n)}"
                  f"{'  FAIL' if flipped else ''}")
    return 1 if failed else 0


def check(paths):
    files = {}
    for path in paths:
        files.update(bench_files(path))
    if not files:
        raise SystemExit("bench_compare: no BENCH_*.json files found")
    failed = False
    for name, path in sorted(files.items()):
        try:
            doc = load(path)
        except (OSError, json.JSONDecodeError) as e:
            print(f"{name}: unreadable ({e})  FAIL")
            failed = True
            continue
        file_gates = gates(doc)
        if not file_gates:
            print(f"{name}: no gates")
        for gate, v in sorted(file_gates.items()):
            ok = v is True
            failed |= not ok
            print(f"{name}: {gate} = {json.dumps(v)}{'' if ok else '  FAIL'}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true",
                        help="check the gates of one set of files")
    parser.add_argument("paths", nargs="*")
    args = parser.parse_args()
    if args.check:
        root = pathlib.Path(__file__).resolve().parent.parent
        return check(args.paths or [root])
    if len(args.paths) != 2:
        parser.error("expected BASE and NEW (or --check)")
    return compare(*args.paths)


if __name__ == "__main__":
    sys.exit(main())
