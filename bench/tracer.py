"""Span tracing around the public functions of each locclone layer.

The tracer patches module attributes from outside the package: every module
of ``locclone`` that holds a reference to a traced function gets a wrapper,
so calls between layers are seen as well as the benchmark's own calls. Spans
(name, start, end, parent, op id) stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

_clock = time.perf_counter


def _synth_case(result: object, exc: BaseException | None) -> str:
    return "refused" if exc is not None else "found"


def _emit_case(args: tuple, kwargs: dict) -> str:
    return str(kwargs.get("output_format", args[1] if len(args) > 1 else ""))


def _run_command_case(args: tuple, kwargs: dict) -> str:
    argv = list(kwargs.get("argv", args[0] if args else []))
    return "report" if argv[:1] == ["report"] else "query"


@dataclass(frozen=True)
class Target:
    """One traced public function and the span name its calls get."""

    module: str
    function: str
    span: str
    case_from_args: Callable[[tuple, dict], str] | None = None
    case_from_outcome: Callable[[object, BaseException | None], str] | None = None
    # the per-point calls inside a scan are counted by the scan, not traced
    hides_children: bool = False
    # (suffix, count of one result): work done, summed over the calls
    counted: tuple[str, Callable[[object], int]] | None = None


TARGETS: tuple[Target, ...] = (
    Target("ghz_cloning", "synthesize_cloner", "ghz_cloning.synthesize_cloner",
           case_from_outcome=_synth_case),
    Target("ghz_cloning", "verify_cloner", "ghz_cloning.verify_cloner"),
    Target("ghz_cloning", "triple_clonability", "ghz_cloning.triple_clonability"),
    Target("ghz_cloning", "bell_triple_cut", "ghz_cloning.bell_triple_cut"),
    Target("w_audit", "classify_pair", "w_audit.classify_pair"),
    Target("w_audit", "negativity_audit", "w_audit.negativity_audit"),
    Target("w_audit", "atype_structure", "w_audit.structure"),
    Target("w_audit", "btype_form", "w_audit.structure"),
    Target("w_audit", "ctype_structure", "w_audit.structure"),
    Target("w_audit", "lemma_scan", "w_audit.lemma_scan", hides_children=True,
           counted=("points", lambda scan: getattr(scan, "points_tested", 0))),
    Target("w_audit", "blank_insufficiency", "w_audit.blank_insufficiency"),
    Target("measures", "wclass_min_cut_entropy", "measures.wclass_min_cut_entropy"),
    Target("measures", "cut_entropy", "measures.cut_entropy"),
    Target("measures", "negativity", "measures.negativity"),
    Target("report", "build_report", "report.build_report"),
    Target("report", "emit_report", "report.emit_report", case_from_args=_emit_case),
    Target("cli", "run_command", "cli.run_command", case_from_args=_run_command_case),
    Target("cli", "build_parser", "cli.build_parser"),
)


@dataclass
class Tracer:
    """In-memory span recorder; one per traced run."""

    names: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    op_ids: list[int] = field(default_factory=list)
    out_bytes: dict[str, list[int]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    op_id: int = -1
    _stack: list[int] = field(default_factory=list)
    _hidden: int = 0
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._hidden:
                return fn(*args, **kwargs)
            name = target.span
            if target.case_from_args is not None:
                name = f"{name}.{target.case_from_args(args, kwargs)}"
            index = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op_ids.append(tracer.op_id)
            tracer.ends.append(0.0)
            tracer._stack.append(index)
            if target.hides_children:
                tracer._hidden += 1
            outcome: BaseException | None = None
            tracer.starts.append(_clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                outcome = exc
                result = None
                raise
            finally:
                tracer.ends[index] = _clock()
                if target.hides_children:
                    tracer._hidden -= 1
                tracer._stack.pop()
                if target.case_from_outcome is not None:
                    tracer.names[index] = f"{name}.{target.case_from_outcome(result, outcome)}"
                if target.counted is not None and outcome is None:
                    suffix, count = target.counted
                    counter = f"{tracer.names[index]}.{suffix}"
                    tracer.counts[counter] = tracer.counts.get(counter, 0) + count(result)
                if isinstance(result, str):
                    tracer.out_bytes.setdefault(tracer.names[index], []).append(
                        len(result.encode("utf-8"))
                    )

        return traced

    def install(self) -> None:
        """Replace every reference to a traced function inside locclone."""
        if self._patches:
            return
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "locclone" or key.startswith("locclone.")]
        for target in TARGETS:
            # a function a later version drops simply reports no calls
            original = getattr(sys.modules[f"locclone.{target.module}"], target.function, None)
            if original is None:
                continue
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per span name: calls and self time per traced pass, median call time."""
        own = self.self_times()
        grouped: dict[str, tuple[list[float], list[float]]] = {}
        for index, name in enumerate(self.names):
            calls, selfs = grouped.setdefault(name, ([], []))
            calls.append(self.ends[index] - self.starts[index])
            selfs.append(own[index])
        per = max(passes, 1)
        out: dict[str, tuple[float, str]] = {}
        for name, (durations, selfs) in grouped.items():
            out[f"{name}.calls"] = (len(durations) / per, "count")
            out[f"{name}.busy_s"] = (sum(selfs) / per, "s")
            out[f"{name}.p50_us"] = (statistics.median(durations) * 1e6, "us")
        for name, sizes in self.out_bytes.items():
            out[f"{name}.bytes"] = (statistics.median(sizes), "bytes")
        for name, total in self.counts.items():
            out[name] = (total / per, "count")
        return out

    def write(self, path: str) -> None:
        """One JSON array per line: name, start_us, end_us, parent, op id."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.op_ids):
                name, start, end, parent, op = row
                handle.write(json.dumps(
                    [name, round((start - origin) * 1e6, 3), round((end - origin) * 1e6, 3),
                     parent, op]) + "\n")


# Primitives are timed in the benchmark's own checks, not traced in the program.
PROBES = ("registers.apply_circuit", "registers.partial_trace",
          "registers.partial_transpose", "registers.hermitian_spectrum")

SPANS = (
    "ghz_cloning.synthesize_cloner.found", "ghz_cloning.synthesize_cloner.refused",
    "ghz_cloning.verify_cloner", "ghz_cloning.triple_clonability",
    "ghz_cloning.bell_triple_cut", "w_audit.classify_pair", "w_audit.negativity_audit",
    "w_audit.structure", "w_audit.lemma_scan", "w_audit.blank_insufficiency",
    "measures.wclass_min_cut_entropy", "measures.cut_entropy", "measures.negativity",
    "report.build_report", "report.emit_report.table", "report.emit_report.json",
    "report.emit_report.csv", "cli.run_command.report", "cli.run_command.query",
    "cli.build_parser",
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run prints."""
    out = []
    for name in SPANS + PROBES:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.busy_s", "s", "lower"),
                (f"{name}.p50_us", "us", "lower")]
    out.append(("w_audit.lemma_scan.points", "count", "higher"))
    out += [(f"report.emit_report.{fmt}.bytes", "bytes", "lower")
            for fmt in ("table", "json", "csv")]
    out += [("tracing.untraced.ops_per_s", "1/s", "higher"),
            ("tracing.traced.ops_per_s", "1/s", "higher"),
            ("tracing.overhead_pct", "%", "lower"),
            ("tracing.spans_per_pass", "count", "lower")]
    return out
