#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out FILE]

Run from the root of a source tree.  Builds perfbench/main.exe with dune
(inside the tree, dune's shared cache off), runs one workload and prints
the program's lines followed by a host/build manifest line and, last, the
result JSON: {"correct", "attempted", "failed", "metrics"}.  --out appends
{"manifest", "result"} to FILE as one JSON line; perfbench/attribute.py
compares two such files.  Exits non-zero without a result when the build
or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 1500
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def git(*args):
    try:
        p = subprocess.run(["git", *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def host_manifest():
    rev = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no") if rev else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": rev,
        "git_dirty": None if dirty is None else dirty != "",
    }


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it to end."""
    with subprocess.Popen(cmd, **kw) as p:
        try:
            out, _ = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
            fail("%s timed out after %d s" % (cmd[0], timeout))
        return p.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out")
    a = ap.parse_args()

    try:
        code, _ = run(
            ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
            BUILD_TIMEOUT_S,
            stdout=sys.stderr,
        )
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if code != 0:
        fail("build failed")

    code, out = run(
        [EXE, "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", str(a.trace)],
        RUN_TIMEOUT_S,
        stdout=subprocess.PIPE,
        text=True,
    )
    if code != 0:
        fail("benchmark exited with code %d" % code)
    lines = out.splitlines()
    result = json.loads(lines[-1])
    manifest = {}
    for line in lines[:-1]:
        if line.startswith("manifest "):
            manifest = json.loads(line[len("manifest "):])
        else:
            print(line)
    manifest.update(host_manifest())
    print("manifest " + json.dumps(manifest, sort_keys=True))
    if a.out:
        with open(a.out, "a") as f:
            f.write(json.dumps({"manifest": manifest, "result": result}) + "\n")
    print(lines[-1])


if __name__ == "__main__":
    main()
