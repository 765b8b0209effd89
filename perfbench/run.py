#!/usr/bin/env python3
"""Build and run the tsuru benchmark; print one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload metro --seed 1 --seconds 10 --trace 0

The Rust benchmark in this directory is built in release mode (into
$CARGO_TARGET_DIR when set), run once, and its last stdout line is passed
through with the benchmark process's peak resident memory added as the
`peak_rss_mib` metric on untraced runs. Exits non-zero without a result
line when the workspace sources are missing or the build or run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def build():
    """Build the benchmark binary and return its path."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST, "--message-format=json-render-diagnostics"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg["target"]["name"] == "perfbench":
            return msg["executable"]
    return None


def check_metrics(metrics, kind):
    """Describe how `metrics` differs from BENCHMARK.json's `kind` list, or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = {m["name"]: m["unit"] for m in json.load(f)[kind]}
    reported = {name: m["unit"] for name, m in metrics.items()}
    if reported != declared:
        diff = sorted(set(reported.items()) ^ set(declared.items()))
        return f"reported {kind} metrics differ from BENCHMARK.json: {diff}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["metro", "drills", "chaos"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isdir(os.path.join(ROOT, "crates")):
        return fail(f"no workspace sources next to {HERE}; run from a full checkout")
    exe = build()
    if exe is None:
        return fail("build failed")

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    out = child.stdout.read()
    child.stdout.close()
    # wait4 reaps the child and returns its own resource usage, so the
    # peak memory is the benchmark's, not the build's.
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        return fail(f"benchmark exited with {child.returncode}", 1)

    lines = out.strip().splitlines()
    if not lines:
        return fail("benchmark printed no result", 1)
    result = json.loads(lines[-1])
    if args.trace == 0:
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mib"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MiB"}
    problem = check_metrics(result["metrics"], "per_layer" if args.trace else "end_to_end")
    if problem:
        return fail(problem, 1)
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
