#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 5 --trace 0

Builds the perfbench program and the deadd daemon from source into
.bench_build/ (skipped when nothing under the checkout changed since the
last build), runs one workload, and passes the program's output through:
its last line is the JSON result. Every file the run writes, including
the Go build cache, stays under .bench_build/. Extra arguments after the
known flags go to the program unchanged (see perfbench/main.go).
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BIN = os.path.join(BUILD, "bin")


def go_env():
    env = dict(os.environ)
    for var, sub in [
        ("GOCACHE", "gocache"),
        ("GOPATH", "gopath"),
        ("GOMODCACHE", "gopath/pkg/mod"),
        ("HOME", "home"),
        ("XDG_CONFIG_HOME", "home/.config"),
        ("XDG_CACHE_HOME", "home/.cache"),
        ("TMPDIR", "tmp"),
    ]:
        env[var] = os.path.join(BUILD, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOFLAGS="-mod=mod", GOENV="off", GOPROXY="off", GOWORK="off")
    return env


def source_stamp():
    """Hash of every Go source and module file of the checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith(".") and d != "testdata")
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def build(env):
    stamp_path = os.path.join(BIN, "stamp")
    stamp = source_stamp()
    bins = [os.path.join(BIN, b) for b in ("perfbench", "deadd")]
    if all(os.path.exists(b) for b in bins) and os.path.exists(stamp_path):
        with open(stamp_path) as f:
            if f.read() == stamp:
                return bins
    os.makedirs(BIN, exist_ok=True)
    for out, pkg in zip(bins, (".", "repro/cmd/deadd")):
        subprocess.run(["go", "build", "-o", out, pkg], cwd=HERE, env=env, check=True,
                       stdout=sys.stderr)
    with open(stamp_path, "w") as f:
        f.write(stamp)
    return bins


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, rest = ap.parse_known_args()
    env = go_env()
    try:
        bench, deadd = build(env)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    cmd = [bench, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-deadd", deadd, "-work", os.path.join(BUILD, "work"),
           "-refs", os.path.join(HERE, "refs")] + rest
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
