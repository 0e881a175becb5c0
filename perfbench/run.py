#!/usr/bin/env python3
"""Repository benchmark: build the measuring program, run one workload,
check its outputs and print the result as the last line of stdout.

    python3 perfbench/run.py --workload metr_http --seed 1 --seconds 30 --trace 0

Run from the repository root. `--trace 0` runs the untraced build and
reports the end-to-end metrics; `--trace 1` runs the traced (`obsv`) build
for the per-layer metrics, then the untraced build for half the time to
price the tracing (`obsv.overhead_pct`). Every run appends a record with
the host, the configuration and all figures to `.bench_runs/runs.jsonl`;
`python3 perfbench/report.py` summarises those records as medians with
quartiles. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

MANIFEST = os.path.join("perfbench", "Cargo.toml")
RUNS_DIR = ".bench_runs"
WORKLOADS = ("metr_http", "city_http", "metr_train")
# A run must end within 180 s; a hung child must not outlive that.
CHILD_TIMEOUT_S = 170
# Compute-pool threads of the measuring program. On the 2-vCPU reference
# host a second pool thread gives no speedup, but every parallel op then
# waits on both vCPUs, so hypervisor steal on either one slows the op;
# with one, the HTTP workloads' client and front-end threads also keep a
# vCPU of their own.
POOL_THREADS = "1"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def target_dir(variant):
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(base, f"perfbench-{variant}")


def build(variant):
    """Build one variant of the program; return the binary's path."""
    cmd = ["cargo", "build", "--release", "--offline", "--locked",
           "--manifest-path", MANIFEST, "--target-dir", target_dir(variant)]
    if variant == "obsv":
        cmd += ["--features", "obsv"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"building the {variant} variant failed")
    return os.path.join(target_dir(variant), "release", "perfbench")


def run_child(binary, args):
    """Run the measuring program; return its result object."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S,
                              env=dict(os.environ, D2_THREADS=POOL_THREADS))
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} did not finish in {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"{' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("the measuring program printed no result")
    return json.loads(lines[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def has_avx2():
    try:
        with open("/proc/cpuinfo") as f:
            return any(line.startswith("flags") and " avx2" in line for line in f)
    except OSError:
        return False


def commit():
    """The git commit when run in a clone, else a digest of the sources
    (a benchmark checkout carries no .git)."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(path.encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
        if os.path.isfile(top):
            with open(top, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def cpu_times():
    """(all CPU time, time stolen by the hypervisor), in clock ticks."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(v) for v in f.readline().split()[1:9]]
        return sum(ticks), ticks[7]
    except (OSError, ValueError, IndexError):
        return 0, 0


def host_record():
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "avx2": has_avx2(),
        "D2_THREADS": POOL_THREADS,
        "commit": commit(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(MANIFEST):
        fail("run from the repository root")

    plain = build("plain")
    traced = build("obsv")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    started = time.time()
    cpu_before = cpu_times()
    if args.trace == 0:
        result = run_child(plain, ["--mode", "e2e", "--seconds", str(args.seconds)] + common)
        detail = {"e2e": result.pop("detail")}
    else:
        half = str(args.seconds / 2)
        result = run_child(traced, ["--mode", "layers", "--seconds", half] + common)
        untraced = run_child(plain, ["--mode", "e2e", "--seconds", half, "--setup-reps", "1"] + common)
        detail = {"layers": result.pop("detail"), "untraced": untraced.pop("detail")}
        traced_p50 = detail["layers"]["traced_latency_p50_ms"]
        plain_p50 = untraced["metrics"]["latency_p50_ms"]["value"]
        result["metrics"]["obsv.overhead_pct"]["value"] = 100.0 * (traced_p50 / plain_p50 - 1.0)
        result["attempted"] += untraced["attempted"]
        result["failed"] += untraced["failed"]
        result["correct"] = result["correct"] and untraced["correct"]

    cpu_after = cpu_times()
    host = host_record()
    # CPU time other tenants took from this VM during the run: the usual
    # cause of a run that is slow throughout.
    total = cpu_after[0] - cpu_before[0]
    host["steal_pct"] = round(100.0 * (cpu_after[1] - cpu_before[1]) / total, 2) if total else 0.0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": round(time.time() - started, 3),
        "host": host,
        "result": result,
        "detail": detail,
    }
    os.makedirs(RUNS_DIR, exist_ok=True)
    with open(os.path.join(RUNS_DIR, "runs.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps({"record": record["host"], "config": detail}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
