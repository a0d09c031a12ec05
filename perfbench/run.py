#!/usr/bin/env python3
"""The campaign benchmark: see WORKLOADS.md next to this file.

    python3 perfbench/run.py --workload sweep|repeat|fleet --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  It builds the benchmark and the `repro`
shard worker from source (`cargo build --release`, into $CARGO_TARGET_DIR
or perfbench/target), then runs iterations of the workload for --seconds
seconds.  Each iteration is a fresh process that makes the timed set-up
call, then the timed campaign, and checks the archive.  An untraced run
reports the end-to-end metrics; a traced run (--trace 1) alternates
untraced and traced iterations and reports the per-layer metrics plus the
tracing overhead.  Metrics are medians over the run's iterations.

Before the result, one line carries the details: the machine and cache
stamp, the archive digest and every iteration.  The last line of standard
output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ("sweep", "repeat", "fleet")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
ITERATION_TIMEOUT_S = 150
CACHE_STATE = "set-up warm (recognizer, detectors, filter designs), Prepare cold"
END_TO_END = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """A failure that must end the run without a result."""


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))


def cargo(command, target, *extra):
    args = ["cargo", command, "--offline", "--release", "--quiet",
            "--manifest-path", MANIFEST, "--target-dir", target, *extra]
    # Cargo's own output goes to stderr: stdout belongs to the result.
    if subprocess.run(args, stdout=sys.stderr).returncode != 0:
        raise BenchError(f"`{' '.join(args)}` failed")


def build(target):
    """Builds the shard worker and the benchmark; returns their paths."""
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        raise BenchError(f"no program sources under {ROOT}")
    cargo("build", target, "-p", "ivc-bench", "--bin", "repro")
    cargo("build", target, "--bin", "ivc-perfbench")
    release = os.path.join(target, "release")
    return os.path.join(release, "ivc-perfbench"), os.path.join(release, "repro")


def build_id(paths):
    """Content hash of the built binaries: digests are comparable only
    between runs of the same build."""
    sha = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            sha.update(f.read())
    return sha.hexdigest()[:16]


def stamp():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    head = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        head = git.stdout.strip() or head
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "rustc": rustc,
            "git_head": head, "cache_state": CACHE_STATE}


def iterate(binaries, workload, seed, size, traced, scratch):
    """One iteration in a fresh process; its JSON line, or None if it failed."""
    binary, repro = binaries
    args = [binary, "--workload", workload, "--seed", str(seed), "--size", size,
            "--trace", "1" if traced else "0", "--repro", repro, "--scratch", scratch]
    # A session of its own, so a timeout stops the shard workers too.
    child = subprocess.Popen(args, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print(f"{workload} seed {seed}: iteration timed out", file=sys.stderr)
        return None
    if child.returncode != 0:
        return None
    return json.loads(out.strip().splitlines()[-1])


class Ledger:
    """Archive digests by (build, workload, seed, size), kept in the target
    directory: every run of one workload and seed must produce one digest,
    and `fleet` must produce `sweep`'s."""

    def __init__(self, path, build):
        self.path, self.build = path, build
        try:
            with open(path) as f:
                self.digests = json.load(f)
        except (OSError, ValueError):
            self.digests = {}

    def key(self, workload, seed, size):
        return f"{self.build}:{workload}:{seed}:{size}"

    def get(self, workload, seed, size):
        return self.digests.get(self.key(workload, seed, size))

    def record(self, workload, seed, size, digest):
        """Records a first digest; False if it contradicts an earlier one."""
        known = self.digests.setdefault(self.key(workload, seed, size), digest)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.digests, f, indent=0, sort_keys=True)
        os.replace(tmp, self.path)
        return known == digest


def measure(binaries, ledger, workload, seed, size, seconds, trace, scratch):
    """Runs iterations for `seconds`; returns (result, details)."""
    iterations, attempted, failed = [], 0, 0

    def run_one(name, traced):
        nonlocal attempted, failed
        it = iterate(binaries, name, seed, size, traced, scratch)
        if it is None:
            attempted, failed = attempted + 1, failed + 1
            return None
        attempted += it["trials"]
        failed += it["trials"] - it["records"]
        if it["check_error"] is not None:
            print(f"{name} seed {seed}: {it['check_error']}", file=sys.stderr)
            failed += 1
        elif not ledger.record(name, seed, size, it["digest"]):
            print(f"{name} seed {seed}: digest {it['digest']} differs from the earlier "
                  f"{ledger.get(name, seed, size)}", file=sys.stderr)
            failed += 1
        return it

    start = time.monotonic()
    while True:
        traced = trace and len(iterations) % 2 == 1
        it = run_one(workload, traced)
        if it is None:
            break
        iterations.append(it)
        kinds = {i["traced"] for i in iterations}
        if time.monotonic() - start >= seconds and (not trace or len(kinds) == 2):
            break
    # `fleet` must reproduce the in-process archive of the same spec.
    if workload == "fleet" and iterations:
        if ledger.get("sweep", seed, size) is None:
            run_one("sweep", False)
        if ledger.get("sweep", seed, size) != ledger.get("fleet", seed, size):
            print(f"fleet seed {seed}: archive differs from sweep's", file=sys.stderr)
            failed += 1

    def median(name, its):
        return statistics.median(it[name] for it in its) if its else 0.0

    untraced = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    if not trace:
        values = {"trials_per_s": median("trials_per_s", untraced),
                  "setup_s": median("setup_s", iterations),
                  "peak_rss_mb": median("peak_rss_mb", iterations)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        layers = {}
        for it in traced:
            for layer in it["layers"]:
                layers.setdefault(layer["name"], (layer["unit"], []))[1].append(layer["value"])
        metrics = {name: {"value": statistics.median(values), "unit": unit}
                   for name, (unit, values) in layers.items()}
        plain = median("trials_per_s", untraced)
        with_trace = median("trials_per_s", traced)
        metrics["trace.untraced_trials_per_s"] = {"value": plain, "unit": "1/s"}
        metrics["trace.traced_trials_per_s"] = {"value": with_trace, "unit": "1/s"}
        metrics["trace.overhead_frac"] = {
            "value": 1.0 - with_trace / plain if plain else 0.0, "unit": "ratio"}
        metrics["failed_frac"] = {"value": failed / max(attempted, 1), "unit": "ratio"}
    for name, metric in metrics.items():
        if not NAME.match(name) or not UNIT.match(metric["unit"]):
            raise BenchError(f"metric '{name}' with unit '{metric['unit']}' breaks the naming rules")

    result = {"correct": failed == 0 and bool(iterations), "attempted": max(attempted, 1),
              "failed": failed, "metrics": metrics}
    details = {"workload": workload, "seed": seed, "size": size, "stamp": stamp(),
               "digest": iterations[0]["digest"] if iterations else None,
               "iterations": [{k: v for k, v in it.items() if k != "layers"}
                              for it in iterations]}
    return result, details


def self_test(binaries, ledger, target, scratch):
    """Spec determinism (the crate's unit tests), then a tiny dry run of
    every workload, traced and untraced, whose metrics must pass the output
    check and match BENCHMARK.json's names and units."""
    cargo("test", target)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    for workload in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = measure(binaries, ledger, workload, 1, "tiny", 0, trace, scratch)
            if not result["correct"]:
                raise BenchError(f"{workload} dry run failed its output check: {result}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared[section]}
            if got != want:
                raise BenchError(f"{workload} {section} metrics differ from BENCHMARK.json: "
                                 f"extra {sorted(set(got.items()) - set(want.items()))}, "
                                 f"missing {sorted(set(want.items()) - set(got.items()))}")
            print(f"self-test: {workload} trace={int(trace)} ok", file=sys.stderr)
    print("self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        target = target_dir()
        binaries = build(target)
        state = os.path.join(target, "perfbench")
        os.makedirs(state, exist_ok=True)
        ledger = Ledger(os.path.join(state, "digests.json"), build_id(binaries))
        if args.self_test:
            self_test(binaries, ledger, target, os.path.join(state, "self-test"))
            return 0
        scratch = os.path.join(state, f"{args.workload}-seed{args.seed}")
        result, details = measure(binaries, ledger, args.workload, args.seed, "full",
                                  args.seconds, bool(args.trace), scratch)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
