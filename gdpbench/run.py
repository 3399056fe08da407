#!/usr/bin/env python3
"""Build and run one workload of the GDP end-to-end benchmark.

    python3 gdpbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first run configures and compiles the
benchmark and the GDP libraries from source (Release) into
$CARGO_TARGET_DIR/gdpbench, or .bench_build/gdpbench when that variable is
unset; later runs only check that the build is up to date.  The workload's
scratch files live under the same directory and are removed afterwards.

The last line of standard output is the result: one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 only when
every output of the workload was correct.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["edge_small_rw", "model_store", "fabric_forward"]
RUN_TIMEOUT_S = 170


def source_id():
    """The commit when the tree is a git checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "gdpbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", build_dir, "--target", "gdpbench",
                    "-j", jobs], check=True, stdout=log, stderr=log)
    return os.path.join(build_dir, "gdpbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("gdpbench: the GDP sources (src/) are missing next to the "
              "benchmark; nothing to build", file=sys.stderr)
        return 2

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(os.path.join(build_root, "gdpbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"gdpbench: build failed: {e}", file=sys.stderr)
        return 2

    scratch = os.path.join(build_root, "tmp", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, TMPDIR=scratch)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("gdpbench: workload timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        print(f"gdpbench: workload exited with code {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
