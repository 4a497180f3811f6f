"""Record the golden T-TAXOGEN row digests the ``tables`` workload checks.

Usage (from the root of a checkout)::

    python3 perfbench/make_golden.py

Regenerates the table cold for every table seed the workload uses and
writes ``perfbench/golden_tables.json``. Run it only when the program's
table output is meant to change.
"""

from __future__ import annotations

import json
import sys

import common
import tables


def main() -> int:
    golden = {}
    for seed in range(tables.GOLDEN_SEEDS):
        run = common.Run("golden", seed, trace=False)
        try:
            stdout, seconds = tables.cli(run.env, "taxogen", "--jobs",
                                          str(tables.JOBS), "--seed",
                                          str(seed))
        finally:
            run.close()
        rows, _, _ = tables.parse_rows(stdout)
        golden[str(seed)] = tables.rows_digest(rows)
        print(f"seed {seed}: {golden[str(seed)]} ({seconds:.1f}s)",
              file=sys.stderr)
    tables.GOLDEN_FILE.write_text(json.dumps(golden, indent=2,
                                             sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
