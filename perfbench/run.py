#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload tree --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ together with the runtime sources in src/ into .bench_build
(Release); later calls only re-check the build. The benchmark binary, which
clears every LWT* / GLT_* variable before it boots a runtime, then runs. Its
stdout is relayed after one "# env" line that records the host and build;
the last line is the result JSON.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "lwt_perfbench"

# A run must end within 180 s, or 900 s when it also builds.
RUN_LIMIT_S = 175
BUILD_RUN_LIMIT_S = 890


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"runtime sources not found at {ROOT / 'src'}; cannot build")
        sys.exit(2)
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        sys.exit(2)
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = [cmake, "-S", str(HERE), "-B", str(BUILD), *generator,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    step = [cmake, "--build", str(BUILD), "--target", "lwt_perfbench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(2)


def source_digest():
    """sha256 over the benchmark and runtime sources (the checkout may not
    be a git repository)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def environment_record():
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "?")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    cpu_model = "?"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["tree", "region", "echo"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Self-test knobs (test_perfbench.py).
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject-hang", action="store_true")
    args = ap.parse_args()

    start = time.monotonic()
    fresh = not BINARY.is_file()
    build()

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_hang:
        cmd.append("--inject-hang")
    limit = (BUILD_RUN_LIMIT_S if fresh else RUN_LIMIT_S) - (
        time.monotonic() - start)

    print("# env " + json.dumps(environment_record()), flush=True)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(limit, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        log(f"run exceeded its {limit:.0f} s limit and was stopped")
        sys.stdout.write(out)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        sys.exit(4)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
