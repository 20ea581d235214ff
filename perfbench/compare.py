#!/usr/bin/env python3
"""Compare stamped perfbench results of two builds, metric by metric.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json ...

Each file is a record perfbench/run.py wrote under
$CARGO_TARGET_DIR/perfbench/results/. All files must hold the same workload
and trace mode, and their stamps must agree on the machine and build
(cores, build type, compiler); otherwise the comparison is refused with
exit code 2. The git hash and source digest are printed, not compared:
they are what differs between the two sides.
"""

import argparse
import json
import statistics
import sys

MACHINE_KEYS = ("cores", "build_type", "compiler")


def load(paths):
    return [json.load(open(path)) for path in paths]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    base, new = load(args.base), load(args.new)
    records = base + new

    first = records[0]
    for record in records[1:]:
        for key in ("workload", "trace"):
            if record[key] != first[key]:
                print(f"refused: {key} differs ({first[key]} vs "
                      f"{record[key]})", file=sys.stderr)
                return 2
        for key in MACHINE_KEYS:
            if record["stamp"][key] != first["stamp"][key]:
                print(f"refused: stamp {key} differs "
                      f"({first['stamp'][key]} vs {record['stamp'][key]})",
                      file=sys.stderr)
                return 2

    for side, group in (("base", base), ("new", new)):
        builds = sorted({(r["stamp"]["git"], r["stamp"]["source_sha256"][:12])
                         for r in group})
        print(f"{side}: {len(group)} runs, builds {builds}")
    print(f"{'metric':36s} {'base median':>14s} {'new median':>14s} "
          f"{'new/base':>9s}")
    for name, metric in first["result"]["metrics"].items():
        b = statistics.median(r["result"]["metrics"][name]["value"]
                              for r in base)
        n = statistics.median(r["result"]["metrics"][name]["value"]
                              for r in new)
        ratio = f"{n / b:9.3f}" if b else f"{'-':>9s}"
        print(f"{name:36s} {b:14.6g} {n:14.6g} {ratio} {metric['unit']}")
    for side, group in (("base", base), ("new", new)):
        failed = sum(r["result"]["failed"] for r in group)
        attempted = sum(r["result"]["attempted"] for r in group)
        print(f"{side} failed {failed} of {attempted} attempted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
