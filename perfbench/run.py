#!/usr/bin/env python3
"""Build and run the FedSZ repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds `perfbench/` (a cargo
package of its own that depends on the workspace crates by path) in release
mode into $CARGO_TARGET_DIR (default `.bench_build`), runs one workload and
passes its output through. The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

`--workload all` runs every workload, untraced and traced (or only the mode
`--trace` names), prints each result, and ends with one combined result
whose metric names are prefixed by `<workload>/`.

Exit code 0 only when a well-formed result was printed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["uplink-resnet50", "aggregate-resnet50", "fl-round-tcp"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

ROOT = Path(__file__).resolve().parent.parent


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def target_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Release-build the benchmark; cargo's output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if proc.returncode != 0:
        log(f"build failed with exit code {proc.returncode}")
        return None
    exe = target_dir() / "release" / "fedsz-perfbench"
    return exe if exe.is_file() else None


def source_rev():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "target" not in p.relative_to(ROOT).parts)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def parse_result(line):
    try:
        r = json.loads(line)
    except ValueError:
        return None
    if not isinstance(r, dict) or set(r) != RESULT_KEYS:
        return None
    return r


def run_one(exe, workload, seed, seconds, trace, rev):
    """Run one workload; returns its parsed result or None."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(target_dir() / "perfbench-out"), "--rev", rev]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        log(f"{workload}: exited with code {proc.returncode}")
        return None
    result = parse_result(lines[-1])
    if result is None:
        log(f"{workload}: last line is not a result")
        return None
    for line in lines:
        print(line, flush=True)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.workload != "all" and args.trace is None:
        ap.error("--trace is required for a single workload")

    exe = build()
    if exe is None:
        return 1
    rev = source_rev()
    if args.workload != "all":
        result = run_one(exe, args.workload, args.seed, args.seconds, args.trace, rev)
        return 0 if result is not None else 1

    traces = [args.trace] if args.trace is not None else [0, 1]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        for t in traces:
            r = run_one(exe, w, args.seed, args.seconds, t, rev)
            if r is None:
                return 1
            combined["correct"] = combined["correct"] and r["correct"]
            combined["attempted"] += r["attempted"]
            combined["failed"] += r["failed"]
            for name, m in r["metrics"].items():
                combined["metrics"][f"{w}/{name}"] = m
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
