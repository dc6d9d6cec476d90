#!/usr/bin/env python3
"""Builds the daemon and the load generator from source, then runs one workload.

    python3 perfbench/run.py --workload <hot-small|big-cover|session-churn> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Cargo builds into $CARGO_TARGET_DIR
(default: .bench_build): the release `pathcover-cli` from the repository's
workspace, and `perfbench` from this directory's own workspace, with the
`trace` feature for `--trace 1`. Build output goes to stderr; the last line
on stdout is the JSON result. The exit code is the benchmark's.
"""

import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def source_id():
    """The git commit, or a hash of the source tree outside git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            rel = os.path.relpath(name, ROOT)
            if rel.startswith(os.path.join("perfbench", "out")) or "/target/" in rel:
                continue
            digest.update(rel.encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:12]


def cargo(args, env, trace_dir=None):
    build_env = dict(env)
    if trace_dir:
        build_env["CARGO_TARGET_DIR"] = trace_dir
    return subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", *args],
                          cwd=ROOT, env=build_env, stdout=sys.stderr).returncode == 0


def main():
    args = sys.argv[1:]
    trace = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    workspace = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(workspace):
        print(f"perfbench: {workspace} missing; run from a repository checkout", file=sys.stderr)
        return 1
    if not cargo(["--manifest-path", workspace, "-p", "pcservice", "--bin", "pathcover-cli"], env):
        print("perfbench: building pathcover-cli failed", file=sys.stderr)
        return 1
    # The traced build gets its own target directory so switching between
    # the two never relinks either binary.
    bench_target = os.path.join(target, "perfbench-trace" if trace else "perfbench")
    features = ["--features", "trace"] if trace else []
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    if not cargo(["--manifest-path", manifest, *features], env, bench_target):
        print("perfbench: building the load generator failed", file=sys.stderr)
        return 1
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    env.update(PERFBENCH_COMMIT=source_id(), PERFBENCH_RUSTC=rustc or "unknown")
    exe = os.path.join(bench_target, "release", "perfbench")
    cli = os.path.join(target, "release", "pathcover-cli")
    return subprocess.run([exe, *args, "--cli", cli], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
