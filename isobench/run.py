#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, print every metric.

    python3 isobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first call builds the library
(`libisoplat.a`, through the repository's own CMakeLists.txt) and the driver
(isobench/driver) under $CARGO_TARGET_DIR (default `.bench_build`); later
calls rebuild only what changed. The driver runs the workload for S seconds
of host time; this script turns its samples into medians, prints the machine
fingerprint, the simulated outputs, the output checks and every metric by
name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones. isobench/NOTES.md explains the workloads and what each
layer metric predicts.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cluster-storm", "program-storm")

# End-to-end metrics: name -> unit. The driver samples the first three once
# per timed iteration; peak_rss_mb is the process peak after the run.
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message):
    print(f"isobench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Run a build step; its output goes to stderr only if it fails."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    """Build libisoplat.a with the repository's CMakeLists.txt, then the
    driver against it. Returns the driver's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no source tree at {ROOT} (CMakeLists.txt and src/ are needed)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    lib_dir, drv_dir = out / "isoplat", out / "isobench"
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    if not (lib_dir / "CMakeCache.txt").is_file():
        # FETCHCONTENT_FULLY_DISCONNECTED: never download GoogleTest; the
        # library itself needs nothing from the network.
        run_logged(["cmake", "-S", str(ROOT), "-B", str(lib_dir), *generator,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DFETCHCONTENT_FULLY_DISCONNECTED=ON"], BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", str(lib_dir), "--target", "isoplat",
                "-j", jobs], BUILD_TIMEOUT_S)
    if not (drv_dir / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(HERE / "driver"), "-B", str(drv_dir),
                    *generator, "-DCMAKE_BUILD_TYPE=Release",
                    f"-DISOPLAT_LIB={lib_dir / 'libisoplat.a'}",
                    f"-DISOPLAT_SRC={ROOT / 'src'}"], BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", str(drv_dir), "-j", jobs], BUILD_TIMEOUT_S)
    return drv_dir / "isobench"


def source_fingerprint():
    """Commit when run inside a git work tree, else a digest of the sources
    the library is built from."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return "commit=" + proc.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *sorted((ROOT / "src").rglob("*"))]
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "commit=unknown (not a git checkout) source_sha256=" + \
        digest.hexdigest()[:16]


def summarize(samples):
    """(median, IQR / median, n) of one metric's per-iteration samples."""
    med = statistics.median(samples)
    if len(samples) < 2 or med == 0:
        return med, 0.0, len(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return med, (q3 - q1) / med, len(samples)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60")

    driver = build()
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver failed with exit code {proc.returncode}")
    raw = json.loads(lines[-1])

    print(f"isobench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"fingerprint: nproc={os.cpu_count()} "
          f"compiler=\"{raw['compiler']}\" build_type={raw['build_type']} "
          f"{source_fingerprint()}")
    print("simulated outputs (exact): " +
          " ".join(f"{k}={v}" for k, v in raw["sim"].items()))
    for name, tally in raw["checks"].items():
        verdict = "ok" if tally["failures"] == 0 else \
            f"FAILED x{tally['failures']}: {tally['first']}"
        print(f"check {name}: {verdict}")
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"failed_frac={failed / max(1, attempted):.6g} "
          f"({failed} of {attempted} runs)")

    end_to_end = {}
    for name, unit in END_TO_END.items():
        if name == "peak_rss_mb":
            med, spread, n = raw["peak_rss_mb"], 0.0, 1
        else:
            med, spread, n = summarize(raw["samples"][name])
        end_to_end[name] = {"value": med, "unit": unit}
        print(f"{name:<12} median={med:.6g} {unit}  iqr/median={spread:.4f}  "
              f"n={n}")

    if args.trace:
        metrics = raw["layers"]
        for name, m in metrics.items():
            print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
        print(f"tracing overhead vs untraced wall_s: "
              f"{metrics['trace.overhead_frac']['value']:+.2%}")
    else:
        metrics = end_to_end
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
