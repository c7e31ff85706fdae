"""Record the output digests that benchmark runs are compared against.

Usage (from the root of a checkout, against its own src/):

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs every scan and geometry operation once and the first ROUNDS rounds of
the query stream at the default seed 0, checks each output, and writes
reference.json: sha256 prefixes of each operation's exit code and output,
keyed by a sha256 prefix of the operation.  Re-record only for a commit that
changes the program's output on purpose.
"""

from __future__ import annotations

import json
import sys

import worker

ROUNDS = 8


def main() -> int:
    runner = worker.Runner({})
    units = next(worker.scan_workload()) + next(worker.geometry_workload())
    units += next(worker.query_workload(seed=0, rounds_per_pass=ROUNDS))
    digests = {}
    for unit in units:
        for op in runner.run_unit(unit):
            digests[worker.key_digest(op.key)] = op.digest
    if runner.failures:
        for line in runner.failures:
            print(f"FAILED {line}", file=sys.stderr)
        return 1
    with open(worker.REFERENCE, "w") as fh:
        recorded = {"query_seed": 0, "query_rounds": ROUNDS, "digests": digests}
        json.dump(recorded, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} operations to {worker.REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
