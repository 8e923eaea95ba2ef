#!/usr/bin/env python3
"""Run one benchmark workload in a fresh process and print its result.

    python3 perfbench/run.py --workload explore-raw --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Builds the benchmark executable with
dune, runs it, checks that it printed exactly the metrics BENCHMARK.json
declares (end-to-end with --trace 0, per-layer with --trace 1), adds
provenance (core count, commit, source digest) and prints, as the last
line, one JSON object with the keys correct, attempted, failed and
metrics.  Any failed build or check exits non-zero without a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/src/main.exe"
EXE = os.path.join("_build", "default", "perfbench", "src", "main.exe")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("dune is not on PATH")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune_command() + ["build", "--root", ".", TARGET]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed (exit %d)" % r.returncode)


def source_digest():
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    files = ["dune-project"]
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for f in sorted(filenames):
                if f == "dune" or f.endswith((".ml", ".mli", ".py")):
                    files.append(os.path.join(dirpath, f))
    for f in files:
        with open(f, "rb") as fh:
            h.update(f.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                           timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    os.chdir(ROOT)

    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload, 2)
    if args.seconds < 1:
        die("--seconds must be at least 1", 2)

    build()
    t0 = time.time()
    try:
        r = subprocess.run([EXE, "--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)],
                           capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run timed out after %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        die("run failed (exit %d)" % r.returncode)
    lines = r.stdout.strip().splitlines()
    if len(lines) < 2:
        die("run printed no result")
    try:
        result = json.loads(lines[-1])
        prov = json.loads(lines[0])["provenance"]
    except (ValueError, KeyError) as e:
        die("unreadable output: %s" % e)

    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("result has keys %s" % sorted(result))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        die("run reported a failed check")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        die("metrics differ from BENCHMARK.json: missing %s, extra %s, unit %s"
            % (missing, extra, wrong))
    if not args.trace:
        zero = sorted(k for k, v in result["metrics"].items() if v["value"] <= 0)
        if zero:
            die("end-to-end metrics not positive: %s" % zero)

    prov.update({
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "wall_s": round(time.time() - t0, 3),
    })
    print(json.dumps({"provenance": prov}))
    for line in lines[1:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
