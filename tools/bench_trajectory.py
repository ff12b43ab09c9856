#!/usr/bin/env python3
"""Print each scenario's wall time across the checked-in BENCH snapshots.

Usage:
    tools/bench_trajectory.py [SNAPSHOT.json ...]

With no arguments it reads bench/baselines/BENCH_*.json in numeric order.
Each row is one scenario, each column one snapshot's "wall_seconds" ("-"
where the snapshot lacks the scenario), so a perf change recorded as a new
snapshot shows next to every earlier one.

Snapshots may add or drop scenarios, but a scenario present in several
must have the same deterministic block in all of them: simulated outputs do
not move with host speed. Each snapshot is checked against the first one
that holds the scenario, key by key, exactly.

Exit status: 0 = consistent, 1 = a shared scenario's deterministic block
differs (or a schema mismatch), 2 = usage / unreadable input.
"""

import glob
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_compare import flatten, load  # noqa: E402

BASELINE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "baselines")


def snapshot_key(path):
    m = re.search(r"(\d+)", os.path.basename(path))
    return (int(m.group(1)) if m else -1, path)


def main(argv):
    if any(a in ("-h", "--help") for a in argv[1:]):
        print(__doc__)
        return 0
    paths = argv[1:] or sorted(glob.glob(os.path.join(BASELINE_DIR, "BENCH_*.json")),
                               key=snapshot_key)
    if not paths:
        print("error: no BENCH snapshots found", file=sys.stderr)
        return 2
    labels = [os.path.splitext(os.path.basename(p))[0] for p in paths]
    snapshots = [load(p) for p in paths]

    names = []
    for snap in snapshots:
        names.extend(n for n in snap if n not in names)

    failures = 0
    for name in names:
        ref_label, ref = None, None
        for label, snap in zip(labels, snapshots):
            if name not in snap:
                continue
            det = flatten(snap[name]["deterministic"])
            if ref is None:
                ref_label, ref = label, det
                continue
            keys = sorted(set(ref) | set(det))
            drifted = [k for k in keys if ref.get(k, "<missing>") != det.get(k, "<missing>")]
            if drifted:
                failures += 1
                k = drifted[0]
                print(f"FAIL {name}: {label} disagrees with {ref_label} on "
                      f"{len(drifted)} deterministic key(s), first {k}: "
                      f"{ref.get(k, '<missing>')!r} vs {det.get(k, '<missing>')!r}")

    width = max(len("scenario"), max(len(n) for n in names))
    cols = [max(len(label), 9) for label in labels]
    print(f"{'scenario':<{width}}  " + "  ".join(f"{l:>{c}}" for l, c in zip(labels, cols)))
    for name in names:
        cells = []
        for snap, c in zip(snapshots, cols):
            cell = f"{snap[name]['noisy']['wall_seconds']:.3f}" if name in snap else "-"
            cells.append(f"{cell:>{c}}")
        print(f"{name:<{width}}  " + "  ".join(cells))

    if failures:
        print(f"\n{failures} scenario(s) with disagreeing deterministic blocks")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
