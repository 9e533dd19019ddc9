#!/usr/bin/env python3
"""Builds and runs the AudioFile repository benchmark.

    python3 perfbench/run.py --workload rpc --seed 1 --seconds 30 --trace 0

Run from the repository root. The measuring program (perfbench/afperf.cc)
is compiled from the repository's own sources into $CARGO_TARGET_DIR
(default .bench_build) on first use. --workload all runs every workload in
turn. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is non-zero when an
output check failed. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["rpc", "mix-stream", "bulk-tcp"]
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type
RUN_TIMEOUT_S = 170

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the measuring program; returns its path."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "afperf", "-j", "3"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "afperf"


def first_line(cmd):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
        return r.stdout.strip().splitlines()[0] if r.returncode == 0 and r.stdout else None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """sha256 over the sources the program is built from (a checkout
    without git still identifies itself)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and p.suffix in (".cc", ".h", ".txt", ".py", ".json"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def provenance():
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = None
    cache = build_dir() / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = first_line([line.split("=", 1)[1], "--version"])
    commit = None
    if (ROOT / ".git").exists():
        commit = first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "build_type": BUILD_TYPE,
        "compiler": compiler,
    }


def stored_digest(seed):
    path = HERE / "mix_digests.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(str(seed))


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (parsed result or None, exit code)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    digest = stored_digest(seed) if workload == "mix-stream" else None
    if digest:
        cmd += ["--expect-digest", digest]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None, 1
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        log(f"{workload}: no result (exit {r.returncode})")
        return None, r.returncode or 1
    return result, r.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"the repository sources are missing ({ROOT / 'src'}); nothing to build")
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    print(json.dumps({"provenance": provenance()}), flush=True)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    code = 0
    for w in workloads:
        result, rc = run_one(binary, w, args.seed, args.seconds, args.trace)
        if result is None:
            return rc
        results[w] = result
        code = code or rc
    if args.workload == "all":
        for w, r in results.items():
            print(json.dumps({"workload": w, **r}))
        merged = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    else:
        merged = results[args.workload]
    print(json.dumps(merged), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
