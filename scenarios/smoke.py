#!/usr/bin/env python3
"""Smoke test of the scenario benchmark.

    python3 scenarios/smoke.py

Runs every workload at tiny sizes, untraced and traced, and checks that:
  * the oracle check passed and no operation failed;
  * the result line carries exactly the metrics BENCHMARK.json names, with
    their units, and the report prints each one by name and unit;
  * the layer interactions the benchmark relies on hold: no tabling work on
    prolog_sld, warm queries create no tables and make fewer engine calls
    than prolog_sld's queries, server counters move only on service_mix,
    and re-evaluation happens only where updates run.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def run_once(workload, trace):
    command = [run.BINARY, "--workload", workload, "--seed", "7",
               "--seconds", "0.4", "--trace", str(trace), "--smoke"]
    result = subprocess.run(command, capture_output=True, text=True,
                            timeout=120)
    if result.returncode != 0:
        fail("%s trace=%d exited %d:\n%s" % (workload, trace,
                                               result.returncode,
                                               result.stderr))
    lines = result.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(workload, trace, report, result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if not result["correct"] or result["failed"] != 0:
        fail("%s trace=%d: correct=%s failed=%d" % (
            workload, trace, result["correct"], result["failed"]))
    if result["attempted"] < 1:
        fail("%s: nothing attempted" % workload)
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in expected}:
        fail("%s trace=%d: metric names differ from BENCHMARK.json: %s" % (
            workload, trace,
            sorted(set(metrics) ^ {m["name"] for m in expected})))
    printed = {line.split(" = ")[0]: line for line in report if " = " in line}
    for m in expected:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            fail("%s: %s unit %s, want %s" % (workload, m["name"], got["unit"],
                                              m["unit"]))
        line = printed.get(m["name"], "")
        if not line.endswith(" " + m["unit"]):
            fail("%s: report does not print %s with its unit" % (
                workload, m["name"]))
        if trace == 0 and not got["value"] > 0:
            fail("%s: end-to-end metric %s is %s" % (workload, m["name"],
                                                     got["value"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not run.build():
        fail("build")
    layers = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, expected in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            report, result = run_once(workload, trace)
            check_metrics(workload, trace, report, result, expected)
            if trace == 1:
                layers[workload] = {k: v["value"]
                                    for k, v in result["metrics"].items()}
        print("ok  %s" % workload)

    sld = layers["prolog_sld"]
    if sld["tabling.answers_inserted"] != 0 or sld["tabling.subgoals_created"]:
        fail("prolog_sld did tabling work")
    if not sld["engine.user_calls"] > 5 * layers["tc_graph"][
            "engine.user_calls_warm"]:
        fail("warm tc_graph queries are not far cheaper in engine calls "
             "than prolog_sld queries")
    for workload, values in layers.items():
        if values["tabling.warm_subgoals_created"] != 0:
            fail("%s: a query classified warm created a table" % workload)
        server = any(v != 0 for k, v in values.items()
                     if k.startswith("server."))
        if server != (workload == "service_mix"):
            fail("%s: server counters %s" % (
                workload, "moved" if server else "did not move"))
        reevaluated = values["tabling.tables_reevaluated"] > 0
        if reevaluated != (workload in ("incr_rw", "service_mix")):
            fail("%s: tables_reevaluated = %s" % (
                workload, values["tabling.tables_reevaluated"]))
    print("smoke test passed")


if __name__ == "__main__":
    main()
