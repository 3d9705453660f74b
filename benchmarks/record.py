"""Record the expected output of every benchmark call into expected.json.

    python3 benchmarks/record.py

Runs every call of every workload, at both sizes, once for each seed of
the pool, and writes the summaries the benchmark checks against.  The
recorded values are the reference: re-record only at a commit whose
outputs are trusted, and treat a value that moves as a finding to
explain, not a number to refresh.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402  (needs the source path above)


def main():
    expected = {}
    for size in workloads.PROFILES:
        expected[size] = {}
        for name in workloads.WORKLOADS:
            for call in workloads.Workload(name, 0, size).every_call():
                expected[size][call.key] = call.summarize(call.run())
            print(f"{size}/{name}: recorded", flush=True)
    workloads.EXPECTED_PATH.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
