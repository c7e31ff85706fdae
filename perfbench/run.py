"""Benchmark entry point: build a fresh copy of the package, then measure.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {scan,query,geometry} --seed N \\
        --seconds S --trace {0,1}

Set-up copies src/, setup.py and pyproject.toml into a new directory under
.bench_build/, runs the repository's in-place build step there
(`python setup.py build_ext --inplace`), and times `import bodenhu.cli` in
fresh interpreters against that copy (CPU time of each child, median of
SETUP_SAMPLES).  A compiled extension left anywhere
else, built for another commit, is never imported.  A compiled kernel is
compared with the pure one in a child process of its own (kernel_check.py).
The workload then runs in one more child process (worker.py) against the
copy.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, with --trace 1 the per-layer ones.  The line before it
records provenance: kernel kind, commit, source digest, Python version,
nproc and the build step's duration.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_STEP = ["setup.py", "build_ext", "--inplace"]
SETUP_SAMPLES = 15
DEADLINE_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".so", ".pyd", ".pyc")):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit(root: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fresh_copy(root: str, work: str) -> None:
    """src/ and the build files, without compiled or cached artifacts."""
    if os.path.exists(work):
        shutil.rmtree(work)
    ignore = shutil.ignore_patterns("__pycache__", "*.so", "*.pyd", "*.egg-info", "build")
    shutil.copytree(os.path.join(root, "src"), os.path.join(work, "src"), ignore=ignore)
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy2(os.path.join(root, name), work)


def time_import(env: dict) -> float:
    """CPU seconds of a fresh interpreter that imports bodenhu.cli and exits."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", "import bodenhu.cli"], env=env, check=True, timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=("scan", "query", "geometry"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bodenhu", "__init__.py")):
        return fail("no src/bodenhu here; run from the root of a checkout")
    for name in ("setup.py", "pyproject.toml"):
        if not os.path.isfile(os.path.join(root, name)):
            return fail(f"no {name} here; cannot run the build step")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    base = os.path.join(root, ".bench_build", "perfbench")
    work = os.path.join(base, f"{args.workload}-{os.getpid()}")
    os.makedirs(os.path.join(base, "traces"), exist_ok=True)
    try:
        fresh_copy(root, work)
        env = dict(os.environ, PYTHONPATH=os.path.join(work, "src"))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        build_start = time.perf_counter()
        build = subprocess.run(
            [sys.executable] + BUILD_STEP, cwd=work, capture_output=True, text=True, timeout=900
        )
        build_s = time.perf_counter() - build_start
        if build.returncode != 0:
            sys.stderr.write(build.stdout + build.stderr)
            return fail(f"build step failed with exit code {build.returncode}")

        time_import(env)  # writes the bytecode cache; later imports reuse it
        samples = [time_import(env) for _ in range(SETUP_SAMPLES)]

        check = subprocess.run(
            [sys.executable, os.path.join(HERE, "kernel_check.py")],
            env=env, cwd=root, stdout=subprocess.PIPE, text=True, timeout=DEADLINE_S / 2,
        )
        check_lines = check.stdout.strip().splitlines()
        if check.returncode != 0 or not check_lines:
            return fail(f"kernel comparison exited with code {check.returncode}")
        kernel_check = check_lines[-1]

        spans = os.path.join(base, "traces", f"{args.workload}-seed{args.seed}.jsonl")
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.trace:
            cmd += ["--spans", spans]
        timeout = DEADLINE_S - (time.perf_counter() - started)
        try:
            worker = subprocess.run(
                cmd, env=env, cwd=root, stdout=subprocess.PIPE, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return fail(f"workload did not finish within {DEADLINE_S} s")
        lines = worker.stdout.strip().splitlines()
        if worker.returncode != 0 or not lines:
            return fail(f"worker exited with code {worker.returncode}")
        result = json.loads(lines[-1])
        if not result["info"]["package_dir"].startswith(work + os.sep):
            imported = result["info"]["package_dir"]
            return fail(f"imported bodenhu from {imported}, not the fresh copy")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(result["metrics"])
    metrics["setup_s"] = statistics.median(samples)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return fail(f"metrics not measured: {missing}")
    attempted, failed = result["attempted"], result["failures"]
    if not kernel_check.startswith("skipped"):
        attempted += 1
        if kernel_check != "ok":
            failed += 1
            print(f"FAILED compiled kernel: {kernel_check}", file=sys.stderr)
    info = dict(result["info"])
    info.update(
        kernel_comparison=kernel_check,
        workload=args.workload,
        seed=args.seed,
        commit=git_commit(root),
        source_sha256=source_digest(os.path.join(root, "src")),
        build={"command": "python " + " ".join(BUILD_STEP), "seconds": build_s},
        setup_samples_s=samples,
    )
    if args.trace:
        info["spans_file"] = os.path.relpath(spans, root)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
