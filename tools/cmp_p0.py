#!/usr/bin/env python3
"""Compare two flatdd_batch result files whose p0 values may differ.

    python3 tools/cmp_p0.py --precision f64 NEW.jsonl PARENT.jsonl

For a manifest whose outputs a commit changes on purpose (a new fusion
grouping reorders floating-point work): every line must be byte-equal
after its "p0" value is blanked, and each p0 must be within 1e-12
relative of the parent's at f64, or 1e-6 absolute at f32. Files that are
byte-identical fail too: the manifest then no longer changes and belongs
back under a plain `cmp`. Prints the largest p0 change; exits 1 on any
failure.
"""

import argparse
import re
import sys

P0 = re.compile(r'"p0":([^,}]*)')


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--precision", choices=["f64", "f32"], required=True)
    ap.add_argument("new")
    ap.add_argument("parent")
    args = ap.parse_args()
    with open(args.new, "rb") as f:
        new = f.read()
    with open(args.parent, "rb") as f:
        parent = f.read()
    if new == parent:
        print(f"{args.new}: byte-identical to the parent; compare it with cmp")
        return 1
    new_lines = new.decode().splitlines()
    parent_lines = parent.decode().splitlines()
    if len(new_lines) != len(parent_lines):
        print(f"{args.new}: {len(new_lines)} lines, parent has {len(parent_lines)}")
        return 1
    worst = 0.0
    failed = False
    for k, (a, b) in enumerate(zip(new_lines, parent_lines), start=1):
        if P0.sub('"p0":_', a) != P0.sub('"p0":_', b):
            print(f"line {k}: differs outside p0\n  new:    {a}\n  parent: {b}")
            failed = True
            continue
        pa, pb = P0.search(a), P0.search(b)
        if pa is None or pa.group(1) == pb.group(1):
            continue
        try:
            x, y = float(pa.group(1)), float(pb.group(1))
        except ValueError:
            print(f"line {k}: p0 {pa.group(1)} vs parent {pb.group(1)}")
            failed = True
            continue
        if args.precision == "f64":
            delta = abs(x - y) / max(abs(y), sys.float_info.min)
            bound = 1e-12
        else:
            delta = abs(x - y)
            bound = 1e-6
        worst = max(worst, delta)
        if not delta <= bound:
            print(f"line {k}: p0 {x!r} vs parent {y!r}, change {delta:.3g} > {bound:g}")
            failed = True
    kind = "relative" if args.precision == "f64" else "absolute"
    print(f"{args.new}: largest p0 change {worst:.3g} ({kind})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
