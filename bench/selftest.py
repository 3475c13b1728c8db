"""Self-test of the benchmark: every workload at a tiny size, in under a second.

    python3 bench/selftest.py

Runs one small pass of each workload in-process and requires that all gates
pass. Then it swaps each field of ``Expectations`` for a wrong value, and
tampers with one recorded output, and requires that the gates fail each
time, so no gate can pass vacuously. It also checks that BENCHMARK.json names
exactly the metrics the benchmark prints, and that a program whose calls
raise still gets a result line, with failed ops. Exits 1 on any failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gates  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from locclone import cli, w_audit  # noqa: E402
from reference import Reference  # noqa: E402
from workloads import WORKLOADS, Probes, Record, RunLog, run_cli  # noqa: E402

# one deliberately wrong value per expectation
WRONG = {
    "fidelity_floor": 1.0 + 1e-6,
    "refused_triples_per_pass": 23,
    "witness_rule": (("i", 2), ("j", 3), ("i^j", 1)),
    "category_counts": (("A", 7), ("B", 9), ("C", 12)),
    "form_counts": (("I", 5), ("II", 5)),
    "min_negativity_gain": 0.3,
    "reference_tol": 0.0,
    "recompute_tol": -1.0,
    "marginal_tol": -1.0,
    "structure_tol": -1.0,
    "scan_violations": 1,
    "closed_form_tol": -1.0,
    "measure_tol": -1.0,
    "report_counts": (("ghz_pairs", 29),) + gates.Expectations().report_counts[1:],
    "query_exit": 1,
    "invalid_exit": 1,
}


def one_pass(workload) -> tuple[list[Record], list[tuple[int, str]]]:
    records = []
    for op_id, (kind, args) in enumerate(next(workload.passes())):
        try:
            output, error = workload.run(kind, args), None
        except Exception as exc:  # same boundary as the worker loop
            output, error = None, repr(exc)
        records.append(Record(op_id, 0, kind, args, output, error, 0.0))
    documents = []
    if workload.name in ("ghz-clone", "w-audit"):
        code, out, _ = run_cli(list(workload.document_argv))
        documents = [(code, out)]
    return records, documents


def failures(workload, records, documents, expect) -> int:
    findings = gates.Findings()
    workload.check(records, documents, expect, findings, Probes())
    return findings.failed


def broken_program() -> list[str]:
    """Scan and CLI calls that raise: the worker must still report, with failures."""
    def fault(*args, **kwargs):
        raise IndexError("injected fault")

    saved = w_audit.lemma_scan, cli.run_command
    w_audit.lemma_scan = cli.run_command = fault
    try:
        workload = WORKLOADS["simplex-scan"](seed=7, small=True)
        reference = Reference(workload.reference)
        args = argparse.Namespace(workload=workload.name, seed=7, seconds=0.0)
        side = worker.SideProbes(workload, args, run_cli, reference, reference)
        side.document()
        log, passes = worker.run_loop(workload, 0.0, reference)
        findings = worker.gate(workload, log, side, None, Probes())
        untraced = worker.loop_metrics(log, passes, False, reference)
        measured = worker.end_to_end(untraced, side, log, 1.0)
        result = worker.summary(findings, log, measured, [n for n, _ in worker.END_TO_END])
        json.loads(json.dumps(result, allow_nan=False))
    except Exception as exc:  # noqa: BLE001 - that is the failure under test
        return [f"a raising program stopped the worker: {exc!r}"]
    finally:
        w_audit.lemma_scan, cli.run_command = saved
    if result["correct"] or result["failed"] < len(log):
        return [f"a raising program reported {result}"]
    return []


def main() -> int:
    start = time.perf_counter()
    problems = []
    runs = {}
    for name, cls in WORKLOADS.items():
        workload = cls(seed=7, small=True)
        workload.warm_up()
        records, documents = one_pass(workload)
        runs[name] = (workload, records, documents)
        findings = gates.Findings()
        workload.check(records, documents, gates.Expectations(), findings, Probes())
        if findings.failed:
            problems.append(f"{name}: gates fail on the seed code: {findings.messages()}")

    for field, wrong in WRONG.items():
        expect = dataclasses.replace(gates.Expectations(), **{field: wrong})
        if not any(failures(w, r, d, expect) for w, r, d in runs.values()):
            problems.append(f"wrong expectation {field}={wrong!r} went unnoticed")
    missing = {f.name for f in dataclasses.fields(gates.Expectations)} - set(WRONG)
    if missing:
        problems.append(f"expectations without a negative case: {sorted(missing)}")

    # a report whose bytes change between two identical requests
    workload, records, _ = runs["report-cli"]
    first = next(r for r in records if r.kind == "report")
    code, out, err = first.output
    log = RunLog()
    for output in (first.output, (code, out + " ", err)):
        log.add(workload, 0, first.kind, first.args, output, None, 0.0)
    if not log.repeat_faults:
        problems.append("changed report bytes went unnoticed")

    problems += broken_program()

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [m["name"] for m in declared["end_to_end"]] != [n for n, _ in worker.END_TO_END]:
        problems.append("BENCHMARK.json end_to_end differs from worker.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] != list(
            tracer.per_layer_metrics()):
        problems.append("BENCHMARK.json per_layer differs from tracer.per_layer_metrics()")
    if not [w["name"] for w in declared["workloads"]] == list(WORKLOADS) == list(
            run.WORKLOADS):
        problems.append("BENCHMARK.json, run.WORKLOADS and workloads.WORKLOADS differ")

    elapsed = time.perf_counter() - start
    for line in problems:
        print(f"FAIL {line}")
    print(f"selftest: {len(problems)} problem(s), {len(WRONG) + 2} negative cases, "
          f"{elapsed:.2f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
