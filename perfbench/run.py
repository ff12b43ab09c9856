#!/usr/bin/env python3
"""Host-time benchmark for the Time-Warp simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/twbench from the sources under src/, runs one workload for S
seconds, checks every run's simulated outputs, prints a table of metrics and,
as the last line, one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
"""

import argparse
import copy
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
FINGERPRINTS = HERE / "fingerprints.json"

WORKLOADS = ("phold", "police_cancel", "raid_mattern_lossy", "phold_sharded")
# The src/ modules, in layering order.
MODULES = ("core", "sim", "hw", "firmware", "comm", "warped", "models",
           "profile", "harness")
# Sampled sub-layers: metric prefix -> (module, source file stem).
SUBLAYERS = {
    "core.stats": ("core", "stats"),
    "core.small_fn": ("core", "small_fn"),
    "sim.engine": ("sim", "engine"),
    "sim.server": ("sim", "server"),
    "sim.shard_sync": ("sim", "shard_sync"),
    "warped.lp": ("warped", "lp"),
    "firmware.cancel": ("firmware", "cancel_firmware"),
    "hw.packet_pool": ("hw", "packet_pool"),
}
# A split with more unattributed samples than this is not a split: the build
# lost its line info or the unwinder failed.
UNATTRIBUTED_LIMIT = 0.10
# The benchmark binary gets this long; run.py must exit within 180 s.
TWBENCH_TIMEOUT_S = 165


class BenchError(Exception):
    pass


# ---- build and run ----

def build():
    """Builds twbench (RelWithDebInfo) under .bench_build/ and returns its path."""
    if not (ROOT / "src" / "harness" / "experiment.hpp").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append([cmake, "-S", str(HERE), "-B", str(BUILD), *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append([cmake, "--build", str(BUILD), "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                tail = log_path.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return BUILD / "twbench"


def run_twbench(exe, workload, seed, seconds, traced):
    """Runs one twbench process and returns its raw JSON report."""
    out = BUILD / f"raw-{workload}-{seed}-{'traced' if traced else 'untraced'}.json"
    out.unlink(missing_ok=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--traced", "1" if traced else "0",
           "--out", str(out)]
    try:
        proc = subprocess.run(cmd, timeout=TWBENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"twbench did not finish within {TWBENCH_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"twbench exited with code {proc.returncode}")
    return json.loads(out.read_text())


# ---- output check ----

def fingerprint_problem(raw, recorded):
    """Why the warm-up fingerprints cannot be trusted, or None.

    Each instance is checked against a differently configured reference run
    of the same model and seed, which must commit the same events; seeds with
    recorded fingerprints must also reproduce them exactly.
    """
    for i, (warm, ref) in enumerate(zip(raw["warmup"], raw["reference"])):
        if not warm["completed"]:
            return f"instance {i}: the warm-up run did not complete"
        if (warm["committed"], warm["signature"]) != (ref["committed"], ref["signature"]):
            return f"instance {i}: the reference configuration committed different events"
    want = recorded.get(raw["workload"], {}).get(str(raw["seed"]))
    if want is not None and want != raw["warmup"]:
        return f"fingerprints {raw['warmup']} differ from the recorded {want}"
    return None


def run_failures(raw, recorded):
    """One flag per timed run: True when its outputs fail the check."""
    problem = fingerprint_problem(raw, recorded)
    return [bool(problem or r["error"] or r["fingerprint"] != raw["warmup"][r["instance"]])
            for r in raw["reps"]]


# ---- stack-sample attribution ----

def symbolize(exe, offsets):
    """Maps each file offset to the source files of its inline chain, innermost first."""
    if not offsets:
        return {}
    proc = subprocess.run(["addr2line", "-e", str(exe), "-i", "-a"],
                          input="".join(f"{o:x}\n" for o in offsets),
                          capture_output=True, text=True, check=True)
    chains, cur = {}, None
    for line in proc.stdout.splitlines():
        if line.startswith("0x"):
            cur = chains.setdefault(int(line, 16), [])
        elif cur is not None:
            cur.append(line.rsplit(":", 1)[0])
    return chains


def attribute(exe, src_root, stacks):
    """Charges each sample to the innermost frame that lies under src/<module>/.

    Returns {"<module>": n, "<module>/<stem>": n, ..., "unattributed": n}.
    Library frames (offset 0) and the benchmark's own frames are skipped, so
    their time goes to the nearest src/ caller.
    """
    chains = symbolize(exe, sorted({o for st in stacks for o in st if o}))
    counts = {}
    for stack in stacks:
        where = None
        for off in stack:
            for path in chains.get(off, ()) if off else ():
                if path.startswith(src_root) and "/" in path[len(src_root):]:
                    module, _, rest = path[len(src_root):].partition("/")
                    where = (module, rest.rsplit("/", 1)[-1].split(".")[0])
                    break
            if where:
                break
        if where is None:
            counts["unattributed"] = counts.get("unattributed", 0) + 1
        else:
            for key in (where[0], f"{where[0]}/{where[1]}"):
                counts[key] = counts.get(key, 0) + 1
    return counts


# ---- metrics ----

def median(values):
    return statistics.median(values) if values else 0.0


def per_event(seconds, committed):
    return seconds / committed * 1e6 if committed else 0.0


def end_to_end(raw, ok_reps):
    """The --trace 0 metrics: (name, value, unit, basis) rows."""
    n = len(ok_reps)
    return [
        ("host_us_per_committed_event",
         median([per_event(r["run_wall_s"], r["fingerprint"]["committed"]) for r in ok_reps]),
         "us", f"median of {n} runs"),
        ("cpu_us_per_committed_event",
         median([per_event(r["run_cpu_s"], r["fingerprint"]["committed"]) for r in ok_reps]),
         "us", f"median of {n} runs"),
        ("setup_s", median(raw["setup_s"]), "s",
         f"median of {len(raw['setup_s'])} builds"),
        ("peak_rss_mb", raw["peak_rss_kb"] / 1024.0, "MiB", "VmHWM of the untraced process"),
    ]


def exact_counts(rep):
    """The counts a traced run must reproduce exactly."""
    return {k: rep[k] for k in ("fingerprint", "allocs", "tasks", "shard_rounds",
                                "pool_peak", "counters")}


def first_traced(raw):
    """The first traced run of each instance, in instance order."""
    first = {}
    for r in raw["reps"]:
        if r["traced"]:
            first.setdefault(r["instance"], r)
    return [first[i] for i in sorted(first)]


def counts_differ(raw):
    ref = {r["instance"]: exact_counts(r) for r in first_traced(raw)}
    return any(exact_counts(r) != ref[r["instance"]] for r in raw["reps"] if r["traced"])


def split_problem(counts, total):
    if total == 0:
        return "no stack samples were taken"
    share = counts.get("unattributed", 0) / total
    if share > UNATTRIBUTED_LIMIT:
        return (f"{share:.0%} of samples have no src/ frame (limit "
                f"{UNATTRIBUTED_LIMIT:.0%}): the build lacks line info or unwinding failed")
    return None


def per_layer(raw, counts):
    """The --trace 1 metrics: (name, value, unit, basis) rows."""
    traced = [r for r in raw["reps"] if r["traced"]]
    cpu_us = per_event(sum(r["run_cpu_s"] for r in traced),
                       sum(r["fingerprint"]["committed"] for r in traced))
    total = sum(r["samples"] for r in traced)

    def sampled(name, key):
        n = counts.get(key, 0)
        return (f"{name}.us_per_committed_event", cpu_us * n / total if total else 0.0,
                "us", f"{n} of {total} samples")

    rows = [("traced_cpu_us_per_committed_event", cpu_us, "us", f"{total} samples")]
    rows += [sampled(m, m) for m in MODULES]
    rows += [sampled(name, f"{m}/{stem}") for name, (m, stem) in SUBLAYERS.items()]
    rows.append(sampled("unattributed", "unattributed"))
    # Exact counts: one traced run per instance, summed over the instances.
    firsts = first_traced(raw)
    committed = sum(r["fingerprint"]["committed"] for r in firsts)
    processed = sum(r["fingerprint"]["processed"] for r in firsts)
    tasks = [sum(shard) for shard in zip(*(r["tasks"] for r in firsts))]
    exact = f"exact, {len(firsts)} instances"

    def per_committed(values):
        return sum(values) / committed

    rows += [
        ("sampler.samples", total, "count",
         f"{raw['samples']['dropped']} dropped, {raw['samples']['unwind_misses']} not unwound"),
        ("core.allocs_per_committed_event", per_committed(r["allocs"] for r in firsts),
         "count", exact),
        ("sim.tasks_per_committed_event", per_committed(tasks), "count", exact),
        ("harness.shard_rounds_per_committed_event",
         per_committed(r["shard_rounds"] for r in firsts), "count", exact),
        ("harness.shard_task_imbalance", max(tasks) / (sum(tasks) / len(tasks)), "ratio",
         exact),
        ("warped.rollback_efficiency", committed / processed, "ratio", exact),
        ("hw.wire_packets_per_committed_event",
         per_committed(r["counters"].get("net.packets", 0) for r in firsts), "count", exact),
        ("hw.retransmits_per_committed_event",
         per_committed(r["counters"].get("nic.retransmits", 0) for r in firsts), "count",
         exact),
        ("hw.pool_peak_slots", max(sum(r["pool_peak"]) for r in firsts), "count",
         f"exact, largest of {len(firsts)} instances"),
    ]
    spans = raw["spans"]
    for name in ("build_testbed", "extract_result"):
        durs = [s["dur_us"] * 1e-6 for s in spans if s["name"] == f"harness.{name}"]
        rows.append((f"harness.{name}_s", median(durs), "s", f"median of {len(durs)} spans"))
    # Runs come in pairs on one instance: untraced, then traced.
    reps = raw["reps"]
    ratios = [b["run_wall_s"] / a["run_wall_s"] for a, b in zip(reps[0::2], reps[1::2])]
    rows.append(("tracing_overhead", median(ratios) - 1.0, "ratio",
                 f"median of {len(ratios)} traced/untraced pairs"))
    return rows


# ---- reporting ----

def print_table(title, rows):
    print(title)
    width = max(len(r[0]) for r in rows)
    for name, value, unit, basis in rows:
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<6} {basis}")


def measure(workload, seed, seconds, trace):
    exe = build()
    recorded = json.loads(FINGERPRINTS.read_text())
    raw = run_twbench(exe, workload, seed, seconds, trace)
    failures = run_failures(raw, recorded)
    problem = fingerprint_problem(raw, recorded)
    if problem is None and any(failures):
        problem = f"{sum(failures)} runs differ from the warm-up fingerprint"
    problems = [problem] if problem else []
    ok = [r for r, bad in zip(raw["reps"], failures) if not bad and not r["traced"]]
    print(f"workload {workload} seed {seed}: fingerprints {raw['warmup']}")

    if trace:
        if counts_differ(raw):
            problems.append("exact counts differ between traced runs of one instance")
        counts = attribute(exe, raw["src_root"], raw["samples"]["stacks"])
        problem = split_problem(counts, sum(r["samples"] for r in raw["reps"] if r["traced"]))
        if problem:
            raise BenchError(problem)
        rows = per_layer(raw, counts)
        print_table("per-layer metrics (traced run)", rows)
    else:
        rows = end_to_end(raw, ok)
        print_table("end-to-end metrics (untraced runs)", rows)
    for p in problems:
        print(f"OUTPUT CHECK FAILED: {p}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": len(raw["reps"]),
        "failed": sum(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }
    print(json.dumps(result))


# ---- self-test ----

def self_test():
    """Checks the output check, the exact counts and the sampler at a small input."""
    exe = build()
    recorded = json.loads(FINGERPRINTS.read_text())
    results = []

    def check(what, ok):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {what}")

    raw = run_twbench(exe, "phold", 23, 1.0, False)
    check("phold seed 23 reproduces its recorded fingerprints",
          "23" in recorded["phold"] and not any(run_failures(raw, recorded)))
    altered = copy.deepcopy(recorded)
    altered["phold"]["23"][0]["sim_s"] += 1e-9
    check("altering one recorded value fails every run",
          all(run_failures(raw, altered)))

    runs = [run_twbench(exe, "phold_sharded", 23, 2.0, True) for _ in range(2)]
    check("traced phold_sharded runs of one instance, within and across two processes, "
          "give identical allocation, task, shard-round and counter totals",
          not any(counts_differ(raw) for raw in runs) and
          [exact_counts(r) for r in first_traced(runs[0])] ==
          [exact_counts(r) for r in first_traced(runs[1])])

    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    for i, raw in enumerate(runs):
        counts = attribute(exe, raw["src_root"], raw["samples"]["stacks"])
        total = sum(r["samples"] for r in raw["reps"] if r["traced"])
        check(f"run {i}: {total} samples, {counts.get('unattributed', 0)} unattributed, "
              f"within the {UNATTRIBUTED_LIMIT:.0%} limit", split_problem(counts, total) is None)
        rows = per_layer(raw, counts)
        parts = {f"{m}.us_per_committed_event" for m in (*MODULES, "unattributed")}
        layer_sum = sum(v for n, v, *_ in rows if n in parts)
        check(f"run {i}: module times sum to the traced CPU time per event",
              math.isclose(layer_sum, rows[0][1], rel_tol=1e-9))
        check(f"run {i}: every per-layer metric is reported, each sampled one with "
              "its sample count",
              names <= {n for n, *_ in rows} and
              all(re.fullmatch(r"\d+ of \d+ samples", basis) for n, _, _, basis in rows
                  if n.endswith(".us_per_committed_event")))

    stripped = BUILD / "twbench.stripped"
    subprocess.run(["objcopy", "--strip-debug", str(exe), str(stripped)], check=True)
    raw = runs[0]
    counts = attribute(stripped, raw["src_root"], raw["samples"]["stacks"])
    check("a build without line info fails the split check",
          split_problem(counts, sum(r["samples"] for r in raw["reps"] if r["traced"]))
          is not None)
    return all(results)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return 0 if self_test() else 1
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        if args.seed < 0 or args.seconds <= 0:
            parser.error("--seed must be >= 0 and --seconds > 0")
        measure(args.workload, args.seed, args.seconds, args.trace == 1)
        return 0
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
