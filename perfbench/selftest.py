#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root.  Runs every workload at a tiny size with
tracing off and on and checks that each metric named in BENCHMARK.json
prints, by name, with its unit and sample count, that every correctness
check (including traced == untraced) passes, and that a tampered expected
value or claims fixture makes the command exit non-zero.
"""

import json
import os
import re
import subprocess
import sys

RUN = [sys.executable, "perfbench/run.py"]
WORK_DIR = ".perfbench_work"
LEDGER = re.compile(r"^metric (\S+) = (\S+) (\S+) \(n=(\d+)\)$")


def run(args):
    p = subprocess.run(RUN + args, capture_output=True, text=True, timeout=600)
    return p.returncode, p.stdout


def check_run(spec, workload, trace, failures):
    args = ["--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny"]
    code, out = run(args)
    label = "%s trace=%d" % (workload, trace)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        failures.append("%s: exit %d" % (label, code))
        return
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append("%s: result keys %s" % (label, sorted(result)))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        failures.append("%s: correct=%s attempted=%s failed=%s" % (
            label, result["correct"], result["attempted"], result["failed"]))
    wanted = spec["per_layer" if trace else "end_to_end"]
    ledger = {}
    for line in lines:
        m = LEDGER.match(line)
        if m:
            ledger[m.group(1)] = (m.group(3), int(m.group(4)))
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        if got is None or got.get("unit") != unit:
            failures.append("%s: %s missing or wrong unit in result" % (label, name))
        if ledger.get(name, (None, 0))[0] != unit:
            failures.append("%s: %s missing from ledger lines" % (label, name))
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        failures.append("%s: unexpected metrics %s" % (label, sorted(extra)))
    if trace and not any(l.startswith("check ok: traced") for l in lines):
        failures.append("%s: no traced == untraced check ran" % label)
    if any(l.startswith("check FAILED") for l in lines):
        failures.append("%s: a check failed" % label)


def expect_failure(label, args, failures):
    code, out = run(args)
    if code == 0:
        failures.append("%s: exited 0" % label)
    elif out.strip() and out.strip().splitlines()[-1].startswith("{"):
        if json.loads(out.strip().splitlines()[-1])["correct"]:
            failures.append("%s: printed correct=true" % label)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace, failures)
        expect_failure(w["name"] + " --tamper",
                       ["--workload", w["name"], "--seed", "3", "--seconds", "1",
                        "--trace", "0", "--size", "tiny", "--tamper"], failures)
    os.makedirs(WORK_DIR, exist_ok=True)
    with open("test/claims_seed42.json") as f:
        fixture = f.read()
    tampered = os.path.join(WORK_DIR, "claims_tampered.json")
    with open(tampered, "w") as f:
        f.write(fixture.replace("0.", "1.", 1))
    expect_failure("paper-sweep with a tampered fixture",
                   ["--workload", "paper-sweep", "--seed", "42", "--seconds", "1",
                    "--trace", "0", "--fixture", tampered], failures)
    for f in failures:
        print("FAIL", f)
    print("selftest: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
