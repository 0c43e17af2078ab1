#!/usr/bin/env python3
"""Build and run the benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the benchmark package
(perfbench/src, a dune project of its own) from source with dune, release
profile, in a workspace under .bench_build that holds it and a copy of the
repository's lib/; then prints one
`env {...}` line describing the machine and build, then runs the
executable, whose last stdout line is the JSON result.  Any further
arguments (--size, --fixture, --tamper) are passed through.  Exits non-zero
if the build fails, the run times out, or a correctness check fails.
"""

import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKSPACE = os.path.join(BUILD_DIR, "workspace")
PACKAGE = os.path.join("perfbench", "src")
WORK_DIR = ".perfbench_work"
EXE = os.path.join(WORKSPACE, "_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def output_of(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def filesystem_of(path):
    """Type of the filesystem holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def line_count(dirs):
    total = 0
    for d in dirs:
        for root, _, files in os.walk(d):
            for name in files:
                if name.endswith((".ml", ".mli")):
                    with open(os.path.join(root, name), "rb") as f:
                        total += sum(1 for _ in f)
    return total


def environment():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ocaml": output_of(["ocamlfind", "ocamlopt", "-version"]),
        "flambda": output_of(["ocamlfind", "ocamlopt", "-config-var", "flambda"]),
        "dune_profile": "release",
        "wal_dir": WORK_DIR,
        "wal_filesystem": filesystem_of(WORK_DIR),
        "wal_fsync": False,
        "lib_bin_lines": line_count(["lib", "bin"]),
    }


def replace_tree(src, dst, ignore=None):
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst, ignore=ignore)


def build():
    """Lay out the workspace (the package's dune-project at its root, the
    package's sources in perfbench/, the repository's libraries in lib/)
    and build the executable.  Dune's shared cache is off, so the build
    writes only under .bench_build."""
    if not (os.path.isdir("lib") and os.path.isdir(PACKAGE)):
        print("perfbench: run from the repository root (lib/ and %s needed)" % PACKAGE,
              file=sys.stderr)
        return False
    os.makedirs(WORKSPACE, exist_ok=True)
    shutil.copyfile(os.path.join(PACKAGE, "dune-project"),
                    os.path.join(WORKSPACE, "dune-project"))
    replace_tree(PACKAGE, os.path.join(WORKSPACE, "perfbench"),
                 ignore=shutil.ignore_patterns("dune-project"))
    replace_tree("lib", os.path.join(WORKSPACE, "lib"))
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        ["dune", "build", "--root", WORKSPACE, "--profile", "release",
         "./perfbench/perfbench.exe"], env=env)
    return done.returncode == 0 and os.path.exists(EXE)


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(WORK_DIR, exist_ok=True)
    env = environment()
    with open(os.path.join(WORK_DIR, "env.json"), "w") as f:
        json.dump(env, f)
    print("env " + json.dumps(env), flush=True)
    try:
        run = subprocess.run([EXE, "--work-dir", WORK_DIR] + sys.argv[1:],
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
