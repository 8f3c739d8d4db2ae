#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload flood-k16 --seed 1 --seconds 20 --trace 0

Every argument is passed to the `perfbench` binary, whose last line of
standard output is the JSON result. The build goes to `$CARGO_TARGET_DIR`,
or to `.bench_build` in the repository root when that is unset. Exits
non-zero, without a result, when the build fails or the run overruns.
"""

import os
import subprocess
import sys
from pathlib import Path

# A run measures for --seconds and then finishes its current repetition
# and checks; anything near this limit is a hang.
RUN_TIMEOUT_S = 170


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    manifest = root / "perfbench" / "Cargo.toml"
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(root / ".bench_build"))
    env["CARGO_NET_OFFLINE"] = "true"
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = root / target
        env["CARGO_TARGET_DIR"] = str(target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed ({build.returncode})", file=sys.stderr)
        return 3

    binary = target / "release" / "perfbench"
    try:
        run = subprocess.run([str(binary), *sys.argv[1:]], cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
