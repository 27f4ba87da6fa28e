"""Record the SHA-256 of every digest-checked CLI output into expected.json.

Run from the repository root, at a commit whose CLI output is the reference:

    python3 perfbench/record.py

The benchmark's correctness gate then requires byte-identical output.  Only
re-record when a change is meant to alter a report.  Each workload is set up
with seed 0; the digest-checked operations do not read the seed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import rep  # puts src/ and this directory on sys.path
import workloads


def main() -> int:
    if not workloads.EXPECTED_PATH.exists():
        workloads.EXPECTED_PATH.write_text("{}\n")
    recorded: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory(dir=rep.HERE) as work:
        for workload in workloads.WORKLOADS:
            state: dict = {}
            digests = {}
            for op in workloads.build(workload, 0, Path(work)):
                if op.argv is None:
                    continue
                res = rep.run_op(op, state)
                if res.code != 0:
                    print(f"{op.name}: exit {res.code}\n{res.stderr}", file=sys.stderr)
                    return 1
                digests[op.name] = workloads.digest(res.stdout)
            recorded[workload] = digests
    workloads.EXPECTED_PATH.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote {workloads.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
