"""Record the reference outputs that every benchmark operation is checked against.

Usage, from the root of the repository:

    PYTHONPATH=src python3 perfbench/make_reference.py [WORKLOAD ...]

Runs every input any seed can draw (the 45 grid instances, the ladder, each
coordinate permutation of each pool cone, every CLI call) once and writes
the sha256 of its canonical output to ``perfbench/reference.json``.  Run it
only at a commit whose outputs are known to be right: later commits must
reproduce these digests byte for byte.
"""

import json
import sys

import torfan

import workloads


def main(names) -> int:
    try:
        reference = workloads.load_reference()
    except FileNotFoundError:
        reference = {}
    for name in names:
        workload = workloads.WORKLOADS[name]()
        workload.setup(torfan, 0)
        table = {}
        for op in workload.variants():
            result = op.run()
            problems = op.check(result)
            if problems:
                print(f"{name}: {op.key}: {problems}; not recorded", file=sys.stderr)
                return 1
            table[op.key] = workloads.digest(op.output(result))
            print(f"{name}: {op.key}", file=sys.stderr)
        reference[name] = dict(sorted(table.items()))
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(workloads.WORKLOADS)))
