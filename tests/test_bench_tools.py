#!/usr/bin/env python3
"""ctest gate for the benchmark/profiling Python tooling.

Run from the repo root (ctest sets WORKING_DIRECTORY) with two env vars
pointing at built binaries:

  NICWARP_BENCH_RUNNER  — build/bench/bench_runner
  NICWARP_SWEEP_CLI     — build/examples/sweep_cli

Checks:
  1. bench_runner --filter=smoke emits a BENCH document that survives a
     real-JSON-parser round-trip with the expected schema and metrics;
  2. bench_compare.py passes that document against the checked-in baseline
     and, crucially, exits non-zero once a regression is injected;
  3. the generated trace-schema manifest (tools/trace_schema.json) matches
     what the built sweep_cli emits — the C++ enums and the Python tools
     cannot drift apart silently;
  4. bench_trajectory.py tabulates the checked-in snapshots, tolerates
     added and dropped scenarios, and exits non-zero when two snapshots
     disagree on a shared scenario's deterministic block.
"""

import json
import os
import subprocess
import sys
import tempfile

REPO = os.getcwd()
BENCH_RUNNER = os.environ.get("NICWARP_BENCH_RUNNER", "build/bench/bench_runner")
SWEEP_CLI = os.environ.get("NICWARP_SWEEP_CLI", "build/examples/sweep_cli")
COMPARE = os.path.join(REPO, "tools", "bench_compare.py")
TRAJECTORY = os.path.join(REPO, "tools", "bench_trajectory.py")
BASELINE = os.path.join(REPO, "bench", "baselines", "BENCH_0001.json")
MANIFEST = os.path.join(REPO, "tools", "trace_schema.json")

REQUIRED_METRICS = [
    "completed", "sim_seconds", "committed_events", "events_processed",
    "rollbacks", "committed_rate_per_sim_sec", "rollback_efficiency",
    "gvt_estimations", "gvt_latency_us", "wire_packets", "nic_drops",
    "filtered_antis", "signature", "latency_enabled", "lat_delivery_us",
    "lat_commit_us",
]


def run(cmd, **kw):
    return subprocess.run(cmd, capture_output=True, text=True, **kw)


def check(ok, msg):
    status = "ok" if ok else "FAIL"
    print(f"[{status}] {msg}")
    if not ok:
        sys.exit(1)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        # 1. schema round-trip through a real JSON parser.
        out = os.path.join(tmp, "bench_smoke.json")
        r = run([BENCH_RUNNER, "--filter=smoke", f"--out={out}"])
        check(r.returncode == 0, f"bench_runner --filter=smoke (rc={r.returncode})")
        with open(out) as f:
            doc = json.load(f)
        check(doc["type"] == "nicwarp-bench" and doc["schema_version"] == 2,
              "BENCH document type/schema_version")
        check(len(doc["scenarios"]) == 2, "smoke filter selects 2 scenarios")
        for s in doc["scenarios"]:
            missing = [m for m in REQUIRED_METRICS if m not in s["deterministic"]]
            check(not missing, f"{s['name']}: all metrics present {missing or ''}")
            check("wall_seconds" in s["noisy"], f"{s['name']}: wall time recorded")
        check("max_rss_kb" in doc["rusage"], "rusage block present")
        reserialized = json.loads(json.dumps(doc))
        check(reserialized == doc, "JSON round-trip is lossless")

        # 2a. the fresh run matches the checked-in baseline bit-exactly.
        # Wall time is NOT gated here: this test runs under `ctest -j` on a
        # saturated machine, where smoke wall times routinely blow any sane
        # band. The controlled wall-clock gates live in CI's sequential
        # bench steps (smoke at 10x, micro at 1.5x).
        r = run([sys.executable, COMPARE, BASELINE, out, "--wall-tolerance=1000"])
        check(r.returncode == 0,
              f"bench_compare vs baseline (rc={r.returncode})\n{r.stdout}{r.stderr}")

        # 2b. an injected regression must flip the gate to non-zero.
        doc["scenarios"][0]["deterministic"]["committed_events"] += 1
        bad = os.path.join(tmp, "bench_regressed.json")
        with open(bad, "w") as f:
            json.dump(doc, f)
        r = run([sys.executable, COMPARE, BASELINE, bad])
        check(r.returncode != 0, "bench_compare flags the injected regression")
        check("committed_events" in r.stdout, "failure names the regressed metric")

        # 2c. ...and a tolerance wide enough to cover it passes again.
        r = run([sys.executable, COMPARE, BASELINE, bad,
                 "--tolerance=0.01", "--wall-tolerance=1000"])
        check(r.returncode == 0, "tolerance band suppresses the small diff")

        # 3. manifest sync: generated schema == checked-in schema.
        r = run([SWEEP_CLI, "--print-trace-schema"])
        check(r.returncode == 0, "sweep_cli --print-trace-schema")
        with open(MANIFEST) as f:
            on_disk = json.load(f)
        check(json.loads(r.stdout) == on_disk,
              "tools/trace_schema.json matches the built binary "
              "(regenerate with: sweep_cli --print-trace-schema)")

        # 4. perf trajectory across snapshots.
        r = run([sys.executable, TRAJECTORY])
        check(r.returncode == 0,
              f"bench_trajectory over the checked-in snapshots (rc={r.returncode})\n"
              f"{r.stdout}{r.stderr}")
        check("BENCH_0001" in r.stdout and "smoke/raid" in r.stdout,
              "trajectory table names snapshots and scenarios")
        with open(BASELINE) as f:
            base = json.load(f)
        later = json.loads(json.dumps(base))
        dropped = later["scenarios"].pop()["name"]
        added = json.loads(json.dumps(later["scenarios"][0]))
        added["name"] = "smoke/added"
        later["scenarios"].append(added)
        later["scenarios"][0]["noisy"]["wall_seconds"] = 123.0
        first = os.path.join(tmp, "BENCH_0001.json")
        second = os.path.join(tmp, "BENCH_0002.json")
        for path, d in ((first, base), (second, later)):
            with open(path, "w") as f:
                json.dump(d, f)
        r = run([sys.executable, TRAJECTORY, first, second])
        check(r.returncode == 0,
              f"added/dropped scenarios and wall changes pass (rc={r.returncode})\n{r.stdout}")
        rows = {line.split()[0]: line.split()[1:] for line in r.stdout.splitlines()[1:]}
        check(rows[dropped][1] == "-" and rows["smoke/added"][0] == "-",
              "absent scenarios print '-'")
        check(rows[base["scenarios"][0]["name"]][1] == "123.000",
              "each column holds that snapshot's wall_seconds")
        later["scenarios"][1]["deterministic"]["signature"] += 1
        with open(second, "w") as f:
            json.dump(later, f)
        r = run([sys.executable, TRAJECTORY, first, second])
        check(r.returncode == 1, "a drifted deterministic key fails the trajectory")
        check(f"FAIL {later['scenarios'][1]['name']}" in r.stdout
              and "signature" in r.stdout, "failure names the scenario and key")

    print("all bench-tool checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
