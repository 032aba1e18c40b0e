#!/usr/bin/env python3
"""Build xqbench (Release) from this checkout and run one workload.

    python3 xqbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 xqbench/run.py --make-refs    # regenerate xqbench/refs.tsv

Run from the checkout root. The build goes to $CARGO_TARGET_DIR/xqbench
(default .bench_build/xqbench); scratch corpora go under it and are removed
when the run ends. The last line of standard output is the result JSON; a
--trace 1 run also leaves its spans in .bench_build/xqbench/traces/.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"xqbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "xqbench")


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no xqc sources under {ROOT}/src; run from a full checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", out, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(out, "xqbench")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the engine and benchmark sources, for checkouts that
    carry no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "xqbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt", ".tsv")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-refs", action="store_true")
    args = ap.parse_args()
    if not args.make_refs and not args.workload:
        fail("--workload is required")

    binary = build()
    work = os.path.join(build_dir(), "work",
                        f"{args.workload or 'refs'}-{os.getpid()}")
    if args.make_refs:
        cmd = [binary, "--make-refs", os.path.join(HERE, "refs.tsv"),
               "--work-dir", work]
        try:
            sys.exit(subprocess.run(cmd).returncode)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--refs", os.path.join(HERE, "refs.tsv"), "--work-dir", work,
           "--git-commit", git_commit(), "--source-digest", source_digest()]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.spans.tsv")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if r.returncode != 0:
        fail(f"xqbench exited with {r.returncode}", r.returncode)
    lines = r.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != set(want):
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(want) ^ set(result['metrics']))}", 3)
    sys.stdout.write(r.stdout)


if __name__ == "__main__":
    main()
