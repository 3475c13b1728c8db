"""Measurement process: set up, run one workload closed loop, gate, report.

``run.py`` starts this file with BLAS threads pinned to one and ``src`` on the
import path. With ``--setup-only`` it measures only the import plus lazy
set-up and exits: ``setup_s`` is the median over several such processes,
which the measuring process starts between its passes.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5  # fresh set-ups per run; setup_s is their median
SIDE_REPEATS = 12  # samples per run of cold_start_s and report_s
CHILD_TIMEOUT_S = 60

# (name, unit); the bounds live in BENCHMARK.json
END_TO_END = (
    ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("report_s", "s"), ("cold_start_s", "s"),
)


def _child(argv: list[str]) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return subprocess.CompletedProcess(argv, -1, "", f"timed out after {CHILD_TIMEOUT_S} s")


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_loop(workload, seconds: float, reference, tracer=None, between_passes=None):
    """Whole passes until about ``seconds`` of pass time; with a tracer, odd passes traced.

    ``reference`` is sampled between ops, outside their timings, so that each
    op can be scaled by the machine's speed around it. ``between_passes(measured_s)``
    runs after each pass, outside the measured time.
    """
    from workloads import RunLog

    log = RunLog()
    passes: list[tuple[int, bool, float, int]] = []
    clock = time.perf_counter
    measured = 0.0
    min_passes = 4 if tracer else 2
    for pass_index, ops in enumerate(workload.passes()):
        traced = tracer is not None and pass_index % 2 == 1
        if traced:
            tracer.install()
        done = 0
        pass_start = clock()
        for kind, args in ops:
            ref_at = reference.due()
            if traced:
                tracer.op_id = len(log)
            t = clock()
            try:
                output, error = workload.run(kind, args), None
            except Exception as exc:  # a failed op is counted, the loop goes on
                output, error = None, _error(exc)
            latency = clock() - t
            log.add(workload, pass_index, kind, args, output, error, latency, ref_at)
            done += log.done[-1]
        reference.due()
        wall = clock() - pass_start
        if traced:
            tracer.uninstall()
        passes.append((pass_index, traced, wall, done))
        measured += wall
        if between_passes is not None:
            between_passes(measured)
        # stop at the pass boundary nearest to the time asked for
        if measured + wall / 2 >= seconds and len(passes) >= min_passes:
            break
    return log, passes


def loop_metrics(log, passes, traced: bool, reference) -> dict[str, float] | None:
    """Timings of one pass, each request at the median of its scaled times.

    The same request recurs once per pass. Each of its times is scaled by the
    reference kernel around it (see reference.py) and the request counts at
    the median of those. The as-measured figures are returned too, as
    ``raw_*``, for the info lines. None if no op of these passes succeeded.
    """
    kept = sorted(index for index, was_traced, _, _ in passes if was_traced == traced)
    wanted = set(kept)
    scaled: dict[int, list[float]] = {}
    raw: list[float] = []
    pass_time: dict[int, list[float]] = {}
    one_pass: list[tuple[int, int]] = []
    for key, pass_index, latency, done, ok, ref_at in zip(
            log.key_of, log.pass_of, log.latency, log.done, log.ok, log.ref_at):
        if pass_index in wanted and ok:
            scaled.setdefault(key, []).append(latency * reference.scale(ref_at))
            raw.append(latency)
            totals = pass_time.setdefault(pass_index, [0.0, 0])
            totals[0] += latency
            totals[1] += done
            if pass_index == kept[0]:
                one_pass.append((key, done))
    if not one_pass:
        return None
    latencies = [median(scaled[key]) for key, _ in one_pass]
    ops = sum(done for _, done in one_pass)
    tail, pct, count = tail_percentile(latencies)
    raw_tail, raw_pct, raw_count = tail_percentile(raw)
    return {
        "ops_per_s": ops / sum(latencies),
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "tail_pct": pct,
        "tail_count": count,
        "passes": len(kept),
        "raw_ops_per_s": median(done / busy for busy, done in pass_time.values()),
        "raw_latency_p50_ms": median(raw) * 1e3,
        "raw_latency_tail_ms": raw_tail * 1e3,
        "raw_tail_pct": raw_pct,
        "raw_tail_count": raw_count,
    }


def tail_percentile(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it (or the maximum)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n, n


def blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU; returns the CPUs it had.

    The reference kernel then runs on the CPU that the timed ops and the fresh
    processes run on, so it sees the speed they see.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return len(cpus)


def metadata(setup_own_s: float, nproc: int) -> dict:
    import numpy

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": nproc,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_lines": src_lines,
        "worker_setup_s": round(setup_own_s, 6),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS, Probes, run_cli

    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.warm_up()
        warm_error = None
    except Exception as exc:  # a broken program still gets a result line
        warm_error = _error(exc)
    setup_own = time.perf_counter() - _T0
    if args.setup_only:
        if warm_error is not None:
            print(warm_error, file=sys.stderr)
            return 1
        print(json.dumps({"setup_s": setup_own}))
        return 0

    from reference import Reference

    nproc = pin_to_one_cpu()
    reference = Reference(workload.reference)
    tracer = None
    side = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    else:
        side = SideProbes(workload, args, run_cli, reference, Reference("process"))
    log, passes = run_loop(workload, args.seconds, reference, tracer,
                           side.between_passes if side else None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if side:
        side.top_up()

    probes = Probes()
    findings = gate(workload, log, side, warm_error, probes)
    untraced = loop_metrics(log, passes, False, reference)
    meta = metadata(setup_own, nproc)
    meta.update(workload=args.workload, seed=args.seed, passes=len(passes),
                ops=len(log), requests=len(log.keys))
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(f"# reference: {reference.kind} kernel median {reference.typical_s() * 1e3:.4g} ms "
          f"over {len(reference.times)} samples, nominal {reference.nominal * 1e3:.4g} ms")
    if untraced is not None:
        print(f"# scaled: {untraced['ops_per_s']:.6g} ops/s, p50 "
              f"{untraced['latency_p50_ms']:.6g} ms, tail p{untraced['tail_pct']:.2f} of "
              f"{untraced['tail_count']} requests per pass {untraced['latency_tail_ms']:.6g} ms")
        print(f"# as measured: {untraced['raw_ops_per_s']:.6g} ops/s (median pass), p50 "
              f"{untraced['raw_latency_p50_ms']:.6g} ms, tail p{untraced['raw_tail_pct']:.2f} "
              f"of {untraced['raw_tail_count']} ops {untraced['raw_latency_tail_ms']:.6g} ms, "
              f"{untraced['passes']} passes")
    if side:
        measured = end_to_end(untraced, side, log, peak_rss_mb)
        names = [name for name, _ in END_TO_END]
    else:
        from tracer import per_layer_metrics

        measured = traced_metrics(tracer, log, passes, probes, untraced, reference, args)
        names = [name for name, _, _ in per_layer_metrics()]
    result = summary(findings, log, measured, names)
    for line in findings.messages():
        print(f"# gate: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def gate(workload, log, side, warm_error, probes):
    """Every output gate; a check that itself raises counts as one failure."""
    import gates
    from workloads import check_query

    findings = gates.Findings()
    findings.check(warm_error is None, f"warm-up: {warm_error}")
    records = log.records()
    documents = [(code, out) for code, out, _, _ in side.documents] if side else []
    try:
        if side:
            for message in side.setup_failures:
                findings.check(False, message)
            classes = workload.classes(records)
            for query, code, out in side.cold_outputs:
                probe_findings = gates.Findings()
                check_query(query, code, out, classes, gates.Expectations(), probe_findings, 0)
                findings.check(not probe_findings.bad_ops,
                               f"cold probe {query}: {probe_findings.messages()}")
        workload.check(records, documents, gates.Expectations(), findings, probes)
    except Exception as exc:  # a malformed output must not stop the report
        findings.check(False, f"checks stopped: {_error(exc)}")
    return findings


def end_to_end(untraced, side, log, peak_rss_mb) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics that could be measured; a failed run may lack some."""
    values: dict[str, float] = {"peak_rss_mb": peak_rss_mb}
    if untraced is not None:
        for name in ("ops_per_s", "latency_p50_ms", "latency_tail_ms"):
            values[name] = untraced[name]
    for name, samples in (("setup_s", side.setups), ("cold_start_s", side.colds),
                          ("report_s", side.report_samples(log))):
        if samples:
            values[name] = median(scaled for _, scaled in samples)
            raw = median(measured for measured, _ in samples)
            print(f"# {name}: scaled {values[name]:.6g} s, as measured {raw:.6g} s, "
                  f"median of {len(samples)}")
    return {name: (values[name], unit) for name, unit in END_TO_END if name in values}


def summary(findings, log, measured: dict[str, tuple[float, str]], names) -> dict:
    """The result line: per-op failures over attempted ops, and the metrics.

    A request whose first run failed a gate fails on every repeat too, and a
    repeat that differs from the first run fails on its own, so ``failed`` and
    ``attempted`` both count ops; run-level checks count once each. A metric
    of ``names`` that could not be measured is left out and counts as one
    failed check.
    """
    measured = {name: item for name, item in measured.items() if math.isfinite(item[0])}
    missing = [name for name in names if name not in measured]
    bad_keys = {log.key_of[op_id] for op_id in findings.bad_ops}
    repeats = {op_id for op_id, _ in log.repeat_faults}
    failed_ops = sum(1 for op_id, key in enumerate(log.key_of)
                     if key in bad_keys or op_id in repeats)
    failed = failed_ops + len(findings.bad_runs) + len(missing)
    attempted = len(log) + findings.attempted_checks + len(missing)
    for op_id, message in log.repeat_faults[:10]:
        print(f"# gate: op {op_id}: {message}", file=sys.stderr)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in measured.items()}
    return {"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics}


class SideProbes:
    """setup_s, cold_start_s and report_s samples, spread over the run.

    A round of samples is taken between passes whenever the run has gone a
    further 1/SIDE_REPEATS of its time, so the samples see the machine at
    different moments; rounds still missing are taken after the loop. Each
    sample is (measured s, scaled s), scaled by a reference kernel timed
    just before and after it: a fresh reference process for the fresh
    processes, the workload's own kernel for its document command.
    """

    def __init__(self, workload, args, run_cli, doc_reference, process_reference) -> None:
        self.workload = workload
        self.seconds = args.seconds
        self.run_cli = run_cli
        self.doc_reference = doc_reference
        self.process_reference = process_reference
        self.setup_argv = [sys.executable, str(Path(__file__).resolve()),
                           "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", "0", "--trace", "0", "--setup-only"]
        self.setups: list[tuple[float, float]] = []
        self.setup_failures: list[str] = []
        self.colds: list[tuple[float, float]] = []
        self.cold_outputs: list[tuple[list[str], int, str]] = []
        self.documents: list[tuple[int | None, str, float, float]] = []
        self.rounds = 0

    def setup(self) -> None:
        done, _, factor = self.process_reference.timed(_child, self.setup_argv)
        try:
            own = json.loads(done.stdout.splitlines()[-1])["setup_s"]
        except (IndexError, ValueError, KeyError, TypeError):
            self.setup_failures.append(
                f"setup probe exit {done.returncode}: {done.stderr[-300:]}")
            return
        self.setups.append((own, own * factor))

    def cold(self) -> None:
        query = self.workload.cold_argv()
        argv = [sys.executable, "-m", "locclone.cli", *query]
        done, elapsed, factor = self.process_reference.timed(_child, argv)
        self.colds.append((elapsed, elapsed * factor))
        self.cold_outputs.append((query, done.returncode, done.stdout))

    def document(self) -> None:
        """One in-process run of the workload's document command, errors kept."""
        def call():
            try:
                return self.run_cli(list(self.workload.document_argv))
            except Exception as exc:  # gated as a failed document, not raised
                return None, _error(exc), ""

        (code, out, _), elapsed, factor = self.doc_reference.timed(call)
        self.documents.append((code, out, elapsed, elapsed * factor))

    def take(self) -> None:
        self.rounds += 1
        if len(self.setups) + len(self.setup_failures) < SETUP_REPEATS:
            self.setup()
        self.cold()
        if self.workload.document_argv is not None:
            self.document()

    def between_passes(self, measured_s: float) -> None:
        due = self.rounds + 1
        if self.rounds < SIDE_REPEATS and measured_s >= self.seconds * due / (SIDE_REPEATS + 1):
            self.take()

    def top_up(self) -> None:
        while self.rounds < SIDE_REPEATS:
            self.take()

    def report_samples(self, log) -> list[tuple[float, float]]:
        """(measured, scaled) times of the workload's whole-document command.

        On report-cli that is ``locclone report`` inside the stream: per
        format, the median of its runs; report_s is the median over formats.
        """
        if self.workload.document_argv is not None:
            return [(elapsed, scaled) for code, _, elapsed, scaled in self.documents
                    if code == 0]
        runs: dict[int, list[tuple[float, int]]] = {}
        for key, latency, ok, ref_at in zip(log.key_of, log.latency, log.ok, log.ref_at):
            if ok and log.keys[key][0] == "report":
                runs.setdefault(key, []).append((latency, ref_at))
        scale = self.doc_reference.scale
        return [(median(t for t, _ in items), median(t * scale(r) for t, r in items))
                for items in runs.values()]


def traced_metrics(tracer, log, passes, probes, untraced, reference, args) -> dict:
    """Per-layer metrics of the traced passes, and the tracing overhead."""
    from tracer import per_layer_metrics

    traced = loop_metrics(log, passes, True, reference)
    traced_passes = traced["passes"] if traced else 0
    measured = tracer.layer_metrics(traced_passes)
    for name, times in probes.times.items():
        measured[f"{name}.calls"] = (len(times), "count")
        measured[f"{name}.busy_s"] = (sum(times), "s")
        measured[f"{name}.p50_us"] = (median(times) * 1e6, "us")
    if untraced is not None and traced is not None:
        measured["tracing.untraced.ops_per_s"] = (untraced["ops_per_s"], "1/s")
        measured["tracing.traced.ops_per_s"] = (traced["ops_per_s"], "1/s")
        measured["tracing.overhead_pct"] = (
            100.0 * (untraced["ops_per_s"] / traced["ops_per_s"] - 1.0), "%")
        print(f"# tracing overhead: untraced {untraced['ops_per_s']:.6g} ops/s, p50 "
              f"{untraced['latency_p50_ms']:.6g} ms; traced {traced['ops_per_s']:.6g} ops/s, "
              f"p50 {traced['latency_p50_ms']:.6g} ms (scaled, {traced_passes} traced passes)")
    measured["tracing.spans_per_pass"] = (len(tracer.names) / max(traced_passes, 1), "count")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(str(spans_path))
    print(f"# spans written to {spans_path.relative_to(ROOT)}")
    # a layer this workload never calls reads 0; a failed run may lack the rates
    return {name: (measured.get(name, (0.0, unit))[0], unit)
            for name, unit, _ in per_layer_metrics()
            if name in measured or not name.startswith("tracing.")}


if __name__ == "__main__":
    sys.exit(main())
