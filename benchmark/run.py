#!/usr/bin/env python3
"""Builds and runs the completion-stack benchmark for one workload.

Usage (from the repository root):

    python3 benchmark/run.py --workload editor_stream --seed 1 --seconds 10 --trace 0

The benchmark is its own Cargo package (benchmark/Cargo.toml) built against
the workspace crates by path, into $CARGO_TARGET_DIR (default
`.bench_build`). Before running, this script fingerprints the sources the
binary was built from (a SHA-256 over every tracked source file) and the git
commit when the checkout is a repository; the binary adds the host half
(nproc, AVX-512F) and prints the fingerprint with the result. Records are
appended to `<target dir>/perfbench/records.jsonl` for `compare.py`.

The last line of standard output is the JSON result. Any build or run
failure exits non-zero without printing one.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The seed claims are made on, and a held-out seed they must also hold on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

# What the source digest covers: the benchmark and everything it builds from.
DIGEST_ROOTS = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "benchmark"]
DIGEST_SUFFIXES = (".rs", ".toml", ".lock", ".py")


def source_digest():
    h = hashlib.sha256()
    for top in DIGEST_ROOTS:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d != "target" and not d.startswith("."))
                files.extend(
                    os.path.join(dirpath, f) for f in sorted(filenames) if f.endswith(DIGEST_SUFFIXES)
                )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            h.update(b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    if out.returncode != 0:
        return "none"
    return out.stdout.strip() or "none"


def main(argv):
    args = list(argv)
    if "--seed" not in args:
        args += ["--seed", str(DEFAULT_SEED)]
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else "?"
        line = f"FAIL workload={workload} phase=build reason=cargo build of the benchmark failed"
        print(line)
        print(line, file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "wisdom-perfbench")
    cmd = [
        binary,
        *args,
        "--git-sha",
        git_sha(),
        "--source-digest",
        source_digest(),
        "--out-dir",
        os.path.join(target, "perfbench"),
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
