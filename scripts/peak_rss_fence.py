#!/usr/bin/env python3
"""Fails when a single-cell run's peak RSS is above a limit.

    python3 scripts/peak_rss_fence.py OUT_DIR LIMIT_MIB

OUT_DIR is the `--out-dir` of one `cmpsim-cli run`; its one host
profile, `OUT_DIR/host/*.json`, carries the process's `peak_rss_bytes`.
Exits 1 naming both figures when the peak is above LIMIT_MIB MiB.
"""

import glob
import json
import sys


def main():
    out_dir, limit_mib = sys.argv[1], float(sys.argv[2])
    (profile,) = glob.glob(f"{out_dir}/host/*.json")
    rss = json.load(open(profile))["peak_rss_bytes"]
    limit = int(limit_mib * 2**20)
    print(f"{profile}: peak_rss_bytes {rss} ({rss / 2**20:.1f} MiB), limit {limit}")
    if rss > limit:
        sys.exit(f"peak RSS {rss} bytes exceeds {limit}")


if __name__ == "__main__":
    main()
