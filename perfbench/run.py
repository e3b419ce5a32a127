#!/usr/bin/env python3
"""The repo benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py compare OLD.json NEW.json
    python3 perfbench/run.py test

Run from the repository root. The program and the libraries it links are
built in Release under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). A run prints the program's report and, as its last
line, the result object {"correct", "attempted", "failed", "metrics"}; the
full record, keyed by host and build, goes to <build>/records/. `compare`
refuses records whose keys differ. `test` runs the benchmark's own tests.
perfbench/spec.json describes the workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(HERE, "spec.json")
# A run that hangs is killed, and fails, before three minutes are up.
RUN_TIMEOUT_S = 175
KEY_FIELDS = ("worker_threads", "hardware_threads", "cpu_model", "compiler",
              "build_type")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    """Configures once and builds `targets`; returns the build directory."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        generated = ("build.ninja", "Makefile")
        if not any(os.path.exists(os.path.join(out, g)) for g in generated):
            cmd = ["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_quiet(cmd)
        run_quiet(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    return out


def run_quiet(cmd):
    """Runs a build step with its output on stderr; exits 1 if it fails."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(1)


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.stderr.write("perfbench: unknown workload %r (have %s)\n"
                         % (args.workload, ", ".join(names)))
        return 2
    out = build(["perfbench"])
    records = os.path.join(out, "records")
    os.makedirs(records, exist_ok=True)
    record = os.path.join(records, "%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--record", record]
    pins = spec["pinned_final_hash"]
    if args.seed == pins["seed"]:
        cmd += ["--expect-hash", pins["hashes"][args.workload]]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write("perfbench: no result line\n")
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.write("record: %s\n" % os.path.relpath(record, ROOT))
    sys.stdout.write(json.dumps(result) + "\n")
    return proc.returncode


def key_mismatches(old, new):
    """Fields that make two records incomparable (empty when comparable)."""
    diffs = []
    for field in ("workload", "trace", "seconds"):
        if old.get(field) != new.get(field):
            diffs.append(field)
    old_key, new_key = old.get("key", {}), new.get("key", {})
    for field in KEY_FIELDS:
        if field not in old_key or old_key.get(field) != new_key.get(field):
            diffs.append("key." + field)
    return diffs


def compare(args):
    with open(args.old) as f:
        old = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    diffs = key_mismatches(old, new)
    if diffs:
        for field in diffs:
            sys.stdout.write("key mismatch: %s: %r vs %r\n" % (
                field, lookup(old, field), lookup(new, field)))
        sys.stdout.write("refusing to compare records with different keys\n")
        return 1
    directions = {m["name"]: m["better"] for m in load_spec()["metrics"]}
    old_m = dict(old["result"]["metrics"], **old.get("reported", {}))
    new_m = dict(new["result"]["metrics"], **new.get("reported", {}))
    for name, value in old_m.items():
        if name not in new_m:
            continue
        a, b = value["value"], new_m[name]["value"]
        change = (b - a) / a if a else 0.0
        sys.stdout.write("%-44s %14.6g -> %14.6g %s %+.1f%% (%s is better)\n"
                         % (name, a, b, value["unit"], 100 * change,
                            directions.get(name, "n/a")))
    return 0


def lookup(record, field):
    if field.startswith("key."):
        return record.get("key", {}).get(field[4:])
    return record.get(field)


def self_test(_args):
    out = build(["perfbench", "perfbench_test"])
    status = subprocess.run([os.path.join(out, "perfbench_test")]).returncode
    tests = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s",
         os.path.join(HERE, "tests"), "-p", "test_*.py"],
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    return status or tests.returncode


def main(argv):
    if argv and argv[0] in ("compare", "test"):
        parser = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "compare":
            parser.add_argument("old")
            parser.add_argument("new")
            return compare(parser.parse_args(argv[1:]))
        return self_test(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
