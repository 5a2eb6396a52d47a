#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --probe udp-overload [--seed N]

Run from the repository root. The benchmark is a Go module of its own
(perfbench/go.mod) that uses the repository's module through a local
replace directive, so it builds only inside a full checkout. The binary,
the Go build cache and every other file the build writes go under
.bench_build/ at the root of the checkout. The exit status is the
benchmark's; a failed build exits 1.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def source_digest():
    """Digest of every Go source and module file outside hidden and build
    directories: names the code under test when there is no git HEAD."""
    h = hashlib.sha256()
    for p in sorted(ROOT.rglob("*")):
        rel = p.relative_to(ROOT)
        if any(part.startswith(".") for part in rel.parts):
            continue
        if p.is_file() and (p.suffix == ".go" or p.name in ("go.mod", "go.sum")):
            h.update(str(rel).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit_id():
    head = "nogit"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                head = out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return f"{head}/src-{source_digest()}"


def main():
    env = dict(os.environ)
    env.update({
        "GOCACHE": str(BUILD / "go-cache"),
        "GOTMPDIR": str(BUILD / "tmp"),
        "GOPATH": str(BUILD / "gopath"),
        "GOMODCACHE": str(BUILD / "gopath" / "pkg" / "mod"),
        "XDG_CONFIG_HOME": str(BUILD / "config"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
    })
    for d in ("go-cache", "tmp", "config"):
        (BUILD / d).mkdir(parents=True, exist_ok=True)
    binary = BUILD / "perfbench"
    build = subprocess.run(["go", "build", "-buildvcs=false", "-o", str(binary), "."],
                           cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    args = [str(binary), *sys.argv[1:], "--commit", commit_id()]
    os.execve(str(binary), args, env)


if __name__ == "__main__":
    sys.exit(main())
