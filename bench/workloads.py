"""The four closed-loop workloads and the gates on their outputs.

Each workload turns a seed into an endless stream of passes. A pass is a
fixed amount of work: the seed picks the order and the sampled points, never
how much work a pass holds. Every pass of a run issues the same requests in a
new order, so each request recurs and its median time in the run can be taken.
The worker times every op and keeps the first output of each request; a
repeat is only compared with it. ``check`` runs after the timed loop on those
first outputs, so checking costs no op time and memory does not grow with
the length of the run.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from locclone import cli, ghz_cloning, measures, registers, report, states, w_audit

import gates
from gates import Expectations, Findings

Op = tuple[str, tuple]


@dataclass
class Record:
    op_id: int
    pass_index: int
    kind: str
    args: tuple
    output: object
    error: str | None
    latency_s: float


class RunLog:
    """Every op's timing, and the full output of each request's first run.

    ``ref_at`` holds, per op, the index of the reference-kernel sample taken
    just before it (see reference.py).
    """

    def __init__(self) -> None:
        self.first: dict[tuple, Record] = {}
        self.keys: list[tuple] = []
        self.key_ids: dict[tuple, int] = {}
        self.key_of = array("l")
        self.pass_of = array("l")
        self.latency = array("d")
        self.done = array("q")
        self.ok = array("b")
        self.ref_at = array("l")
        self.repeat_faults: list[tuple[int, str]] = []

    def __len__(self) -> int:
        return len(self.latency)

    def add(self, workload: "Workload", pass_index: int, kind: str, args: tuple,
            output: object, error: str | None, latency: float, ref_at: int = 0) -> None:
        op_id = len(self.latency)
        key = workload.key(kind, args)
        if key not in self.key_ids:
            self.key_ids[key] = len(self.keys)
            self.keys.append(key)
            self.first[key] = Record(op_id, pass_index, kind, args, output, error, latency)
        else:
            first = self.first[key]
            if error is not None or first.error is not None:
                if error != first.error:
                    self.repeat_faults.append((op_id, f"{kind} {args}: {error}"))
            elif not _safely(workload.same, first.output, output):
                self.repeat_faults.append((op_id, f"{kind} {args}: output differs from "
                                                  "the request's first run"))
        self.key_of.append(self.key_ids[key])
        self.pass_of.append(pass_index)
        self.latency.append(latency)
        self.done.append(_safely(workload.ops_in, kind, args, output) if error is None else 0)
        self.ok.append(error is None)
        self.ref_at.append(ref_at)

    def records(self) -> list[Record]:
        return list(self.first.values())


def _safely(fn: Callable, *args):
    """fn(*args), or False if a malformed output makes it raise; the gates report why."""
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 - the output is checked in full later
        return False


class Probes:
    """Wall times of primitive calls made by the checks, by layer name."""

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = {}

    def call(self, name: str, fn: Callable, *args):
        start = time.perf_counter()
        result = fn(*args)
        self.times.setdefault(name, []).append(time.perf_counter() - start)
        return result


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI request with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run_command(argv)
    return code, out.getvalue(), err.getvalue()


def _label(text: str):
    return states.parse_ghz_label(text)


def _cloner_mixtures(m: int, n: int, blank: int) -> tuple[np.ndarray, np.ndarray]:
    """Cloner input and output mixtures on original+clone, built with numpy."""
    wm, wn, wb = (states.w_basis(x).amplitudes for x in (m, n, blank))

    def mix(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return 0.5 * (np.outer(u, u.conj()) + np.outer(v, v.conj()))

    return mix(np.kron(wm, wb), np.kron(wn, wb)), mix(np.kron(wm, wm), np.kron(wn, wn))


def check_query(
    argv: list[str], code: int, out: str, classes: dict, expect: Expectations,
    findings: Findings, op_id: int,
) -> None:
    """Gate one CLI point query against an independent recomputation."""
    head = tuple(argv[:2])
    if head == ("w", "blank-check") and _invalid_params(argv):
        findings.check(code == expect.invalid_exit, f"{argv}: exit {code}", op_id)
        return
    if head == ("w", "classify") and _pair_arg(argv)[0] == _pair_arg(argv)[1]:
        findings.check(code == expect.invalid_exit, f"{argv}: exit {code}", op_id)
        return
    if not findings.check(code == expect.query_exit, f"{argv}: exit {code}", op_id):
        return
    try:
        _check_payload(argv, json.loads(out), classes, expect, findings, op_id)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        findings.check(False, f"{argv}: unreadable output ({exc!r})", op_id)


def _check_payload(argv, payload, classes, expect, findings, op_id) -> None:
    head = tuple(argv[:2])
    if head == ("ghz", "clone"):
        members = sorted(_label(t) for t in argv[3:argv.index("--format")])
        rows = payload["fidelities"]
        findings.check([_label(r["state"]) for r in rows] == members,
                       f"{argv}: members {rows}", op_id)
        findings.check(all(r["fidelity"] >= expect.fidelity_floor for r in rows),
                       f"{argv}: fidelity below floor", op_id)
        findings.check(bool(payload["circuit"]), f"{argv}: empty circuit", op_id)
    elif head == ("ghz", "triples"):
        members = sorted(_label(t) for t in argv[3:6])
        row = payload[0]
        qubit = gates.rule_cut(members, expect.witness_rule)
        findings.check(len(payload) == 1 and row["clonable"] == (qubit is None),
                       f"{argv}: clonable {row['clonable']}", op_id)
        expected_cut = None if qubit is None else gates.cut_text(qubit)
        findings.check(row["witness_cut"] == expected_cut,
                       f"{argv}: witness {row['witness_cut']} != {expected_cut}", op_id)
        findings.check((row["circuit"] is not None) == (qubit is None),
                       f"{argv}: circuit presence", op_id)
    elif head == ("w", "classify"):
        m, n = _pair_arg(argv)
        row = payload[0]
        findings.check((row["m"], row["n"]) == (m, n), f"{argv}: pair echo", op_id)
        known = classes.get((m, n))
        if known is not None:
            findings.check((row["category"], row["witness_k"]) == known,
                           f"{argv}: {row['category']}/{row['witness_k']} != {known}", op_id)
    elif head == ("w", "audit"):
        m, n = _pair_arg(argv)
        blank = states.parse_w_index(argv[argv.index("--blank") + 1])
        row = payload[0]
        k = row["witness_k"]
        rho_in, rho_out = _cloner_mixtures(m, n, blank)
        cut = (k - 1, k + 2)
        for key, rho in (("negativity_in", rho_in), ("negativity_out", rho_out)):
            value = gates.negativity_of(rho, cut)
            findings.check(abs(row[key] - value) <= expect.recompute_tol,
                           f"{argv}: {key} {row[key]!r} vs {value!r}", op_id)
        known = classes.get((m, n))
        if known is not None:
            findings.check((row["category"], k) == known, f"{argv}: category", op_id)
    elif head == ("w", "blank-check"):
        row = payload[0]
        a, b, c = (float(x) for x in argv[3].split(","))
        cuts = [gates.cut_entropy_bits(gates.wclass_vector(a, b, c), (k - 1,))
                for k in (1, 2, 3)]
        required = gates.w_threshold_bits()
        got = row["blank_entropy_bits"]
        findings.check(abs(row["required_bits"] - required) <= expect.measure_tol,
                       f"{argv}: required {row['required_bits']!r}", op_id)
        findings.check(abs(got - cuts[row["cut_index"] - 1]) <= expect.measure_tol
                       and got <= min(cuts) + expect.measure_tol and got < required,
                       f"{argv}: certificate {row}", op_id)
    elif argv[0] == "measure":
        psi = states.parse_state_label(argv[argv.index("--state") + 1]).amplitudes
        side_b = tuple(int(t) - 1 for t in argv[argv.index("--cut") + 1].split(","))
        if argv[1] == "entropy":
            value, got = gates.cut_entropy_bits(psi, side_b), payload["entropy_bits"]
        else:
            value = gates.negativity_of(np.outer(psi, psi.conj()), side_b)
            got = payload["negativity"]
        findings.check(abs(got - value) <= expect.measure_tol,
                       f"{argv}: {got!r} vs {value!r}", op_id)
    else:
        findings.check(False, f"{argv}: no gate for this query", op_id)


def _pair_arg(argv: list[str]) -> tuple[int, int]:
    m, n = argv[argv.index("--pair") + 1].split(",")
    return int(m), int(n)


def _invalid_params(argv: list[str]) -> bool:
    return sum(float(x) for x in argv[3].split(",")) > 1.0


def _params_text(rng: random.Random) -> str:
    """A point strictly inside the W-class simplex, six decimals."""
    scale = 10**6
    while True:
        ia, ib, ic = (rng.randint(1, scale) for _ in range(3))
        if ia + ib + ic <= scale:
            return f"{ia / scale:.6f},{ib / scale:.6f},{ic / scale:.6f}"


class Workload:
    name = ""
    why = ""
    # in-process CLI command giving this workload's whole document (report_s)
    document_argv: list[str] | None = None
    # reference kernel matching the workload's kind of work (reference.py)
    reference = "python"

    def __init__(self, seed: int, small: bool = False) -> None:
        self.small = small
        self.rng = random.Random(seed)

    def warm_up(self) -> None:
        """Lazy set-up before the first timed op; fixed, not seeded."""

    def passes(self) -> Iterator[list[Op]]:
        raise NotImplementedError

    def run(self, kind: str, args: tuple) -> object:
        raise NotImplementedError

    def ops_in(self, kind: str, args: tuple, output: object) -> int:
        """Ops a request completes; a scan completes one per grid point."""
        return 1

    def key(self, kind: str, args: tuple) -> tuple:
        """Identity of a request: equal keys do equal work."""
        return (kind, args)

    def same(self, first: object, again: object) -> bool:
        """Whether a repeated request returned what its first run did."""
        return first == again

    def cold_argv(self) -> list[str]:
        raise NotImplementedError

    def check(self, records: list[Record], documents: list[tuple[int, str]],
              expect: Expectations, findings: Findings, probes: Probes) -> None:
        raise NotImplementedError

    def classes(self, records: list[Record]) -> dict:
        """(m, n) -> (category, witness_k) as this run's outputs state them."""
        return {}

    def check_document(self, documents: list[tuple[int, str]], records: list[Record],
                       expect: Expectations, findings: Findings) -> None:
        """Gate the report_s probes: exit 0, same bytes each time, right content."""
        if not documents:
            return
        findings.check(all(code == expect.query_exit for code, _ in documents),
                       f"{self.document_argv}: exit codes {[c for c, _ in documents]}")
        findings.check(len({out for _, out in documents}) == 1,
                       f"{self.document_argv}: output bytes differ between runs")
        try:
            payload = json.loads(documents[0][1])
        except ValueError:
            findings.check(False, f"{self.document_argv}: output is not JSON")
            return
        self.check_document_payload(payload, records, expect, findings)

    def check_document_payload(self, payload, records, expect, findings) -> None:
        raise NotImplementedError


def _circuit_signature(circuit) -> tuple:
    return tuple(
        (type(g).__name__, getattr(g, "target", None), getattr(g, "direction", None),
         getattr(g, "name", None), g.matrix.tobytes() if hasattr(g, "matrix") else b"")
        for g in circuit.layers
    )


class GhzClone(Workload):
    name = "ghz-clone"
    why = ("ghz clone requests over all 84 GHZ pairs and triples plus the 56 triple "
           "verdicts; refused sets are 29% of clone requests and ~99% of the time")
    document_argv = ["ghz", "triples", "--all", "--format", "json"]
    reference = "numpy"

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        labels = states.GHZ_LABELS
        self.triples = list(itertools.combinations(labels, 3))
        rule = Expectations().witness_rule
        refused = [t for t in self.triples if gates.rule_cut(t, rule) is not None]
        clonable = list(itertools.combinations(labels, 2)) + [
            t for t in self.triples if gates.rule_cut(t, rule) is None]
        verdicts = self.triples
        if small:
            refused, clonable, verdicts = refused[:1], clonable[::12], self.triples[::6]
        # blanks dealt evenly, so every seed gives the same work per pass
        self.requests: list[Op] = [("clone", item) for item in
                                   self._deal(refused) + self._deal(clonable)]
        self.requests += [("triple", (t,)) for t in verdicts]
        self._resimulated: dict[tuple, float] = {}
        self._bell: dict[tuple, int | None] = {}

    def warm_up(self) -> None:
        pair = (states.GhzLabel(0, 0, 0), states.GhzLabel(0, 1, 1))
        ghz_cloning.verify_cloner(ghz_cloning.synthesize_cloner(pair), pair)
        ghz_cloning.triple_clonability(self.triples[0])

    def _deal(self, sets: list) -> list:
        """Pair each set with a blank from a shuffled deck holding each blank equally."""
        deck = list(states.GHZ_LABELS) * -(-len(sets) // 8)
        self.rng.shuffle(deck)
        return list(zip(sets, deck))

    def passes(self) -> Iterator[list[Op]]:
        while True:
            ops = list(self.requests)
            self.rng.shuffle(ops)
            yield ops

    def same(self, first: object, again: object) -> bool:
        def flat(output):
            if output is None:
                return None
            if isinstance(output, tuple):
                circuit, fidelities = output
                return _circuit_signature(circuit), circuit.blank, fidelities
            cut = output.witness_cut
            return (output.clonable, None if cut is None else (cut.n_qubits, cut.side_b),
                    None if output.circuit is None else (
                        _circuit_signature(output.circuit), output.circuit.blank))
        return flat(first) == flat(again)

    def run(self, kind: str, args: tuple) -> object:
        if kind == "triple":
            return ghz_cloning.triple_clonability(args[0])
        members, blank = args
        try:
            circuit = ghz_cloning.synthesize_cloner(members, blank)
        except ghz_cloning.NoCircuitFound:
            return None
        return circuit, dict(ghz_cloning.verify_cloner(circuit, members))

    def cold_argv(self) -> list[str]:
        pair = self.rng.choice(list(itertools.combinations(states.GHZ_LABELS, 2)))
        return ["ghz", "clone", "--states", str(pair[0]), str(pair[1]), "--format", "json"]

    def check(self, records, documents, expect, findings, probes) -> None:
        resimulated = self._resimulated
        bell = self._bell
        refused_per_pass: dict[int, list[int]] = {}
        verdict_refusals: dict[int, list[int]] = {}

        def resimulate(members, blank, circuit) -> float:
            key = (tuple(members), blank, _circuit_signature(circuit))
            if key not in resimulated:
                worst = 1.0
                blank_amps = gates.ghz_vector(blank.p, blank.i, blank.j)
                for s in members:
                    source = gates.ghz_vector(s.p, s.i, s.j)
                    start = registers.StateVector(6, np.kron(source, blank_amps))
                    out = probes.call("registers.apply_circuit", registers.apply_circuit,
                                      start, circuit.layers)
                    target = np.kron(source, source)
                    worst = min(worst, float(abs(np.vdot(target, out.amplitudes)) ** 2))
                resimulated[key] = worst
            return resimulated[key]

        def bell_qubit(members) -> int | None:
            if members not in bell:
                cut = ghz_cloning.bell_triple_cut(members)
                bell[members] = None if cut is None else min(cut.side_b) + 1
            return bell[members]

        for rec in records:
            if not findings.check(rec.error is None, f"{rec.kind}: {rec.error}", rec.op_id):
                continue
            members = tuple(rec.args[0])
            qubit = gates.rule_cut(members, expect.witness_rule)
            if rec.kind == "clone":
                blank = rec.args[1]
                counts = refused_per_pass.setdefault(rec.pass_index, [0, 0])
                if len(members) == 3:
                    counts[1] += qubit is not None
                refused = rec.output is None
                counts[0] += refused
                witness = bell_qubit(members) if len(members) == 3 else None
                findings.check(refused == (witness is not None) == (qubit is not None),
                               f"{members} blank {blank}: refused={refused}, "
                               f"witness={witness}, rule={qubit}", rec.op_id)
                if refused:
                    continue
                circuit, fidelities = rec.output
                findings.check(circuit.blank == blank and sorted(fidelities) == list(members),
                               f"{members}: circuit echo", rec.op_id)
                findings.check(min(fidelities.values()) >= expect.fidelity_floor,
                               f"{members}: reported fidelity {fidelities}", rec.op_id)
                findings.check(resimulate(members, blank, circuit) >= expect.fidelity_floor,
                               f"{members} blank {blank}: re-simulated fidelity", rec.op_id)
            else:
                verdict = rec.output
                counts = verdict_refusals.setdefault(rec.pass_index, [0, 0])
                counts[0] += not verdict.clonable
                counts[1] += qubit is not None
                findings.check(verdict.clonable == (qubit is None),
                               f"{members}: clonable={verdict.clonable}, rule={qubit}",
                               rec.op_id)
                if verdict.clonable:
                    findings.check(
                        verdict.witness_cut is None and verdict.circuit is not None
                        and resimulate(members, verdict.circuit.blank, verdict.circuit)
                        >= expect.fidelity_floor,
                        f"{members}: clonable verdict circuit", rec.op_id)
                else:
                    cut = verdict.witness_cut
                    isolated = None if cut is None else min(cut.side_b) + 1
                    findings.check(verdict.circuit is None and isolated == qubit,
                                   f"{members}: witness {cut} breaks the label rule",
                                   rec.op_id)
        for pass_index, (refused, expected) in sorted(refused_per_pass.items()):
            if not self.small:
                expected = expect.refused_triples_per_pass
            findings.check(refused == expected,
                           f"pass {pass_index}: {refused} refused clone requests, not {expected}")
        for pass_index, (refused, expected) in sorted(verdict_refusals.items()):
            if not self.small:
                expected = expect.refused_triples_per_pass
            findings.check(refused == expected,
                           f"pass {pass_index}: {refused} refused triple verdicts, "
                           f"not {expected}")
        self.check_document(documents, records, expect, findings)

    def check_document_payload(self, payload, records, expect, findings) -> None:
        wrong = []
        for row in payload:
            members = sorted(_label(row[f"member_{x}"]) for x in (1, 2, 3))
            qubit = gates.rule_cut(members, expect.witness_rule)
            expected_cut = None if qubit is None else gates.cut_text(qubit)
            if row["clonable"] != (qubit is None) or row["witness_cut"] != expected_cut:
                wrong.append(row)
        refused = sum(not row["clonable"] for row in payload)
        findings.check(len(payload) == len(self.triples) and not wrong
                       and refused == expect.refused_triples_per_pass,
                       f"triples --all: {len(payload)} rows, {refused} refused, "
                       f"{len(wrong)} off the label rule")


class WAudit(Workload):
    name = "w-audit"
    why = ("classify, audit and structure-check all 28 W pairs x 8 blanks: dense "
           "64x64 partial transposes and spectra, no circuits and no scan")
    document_argv = ["w", "audit", "--format", "json"]
    reference = "numpy"

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        self.blanks = (1,) if small else tuple(range(1, 9))
        self.keys = [(m, n, b) for b in self.blanks
                     for m in range(1, 9) for n in range(m + 1, 9)]
        self._recomputed: dict[tuple, tuple[float, float, float]] = {}

    def warm_up(self) -> None:
        self.run("audit", (1, 6, 1))

    def passes(self) -> Iterator[list[Op]]:
        while True:
            keys = list(self.keys)
            self.rng.shuffle(keys)
            yield [("audit", key) for key in keys]

    def run(self, kind: str, args: tuple) -> object:
        m, n, blank = args
        cls = w_audit.classify_pair(m, n)
        record = w_audit.negativity_audit(m, n, blank)
        if cls.category == "A":
            structure = w_audit.atype_structure(m, n, cls.witness_k)
        elif cls.category == "B":
            structure = w_audit.btype_form(m, n, cls.witness_k)
        else:
            structure = w_audit.ctype_structure(m, n)
        return cls, record, structure

    def cold_argv(self) -> list[str]:
        m, n, blank = self.rng.choice(self.keys)
        return ["w", "audit", "--pair", f"{m},{n}", "--blank", f"W{blank}",
                "--format", "json"]

    def classes(self, records: list[Record]) -> dict:
        return {rec.args[:2]: (rec.output[0].category, rec.output[0].witness_k)
                for rec in records if rec.error is None}

    def check(self, records, documents, expect, findings, probes) -> None:
        first: dict[tuple, tuple] = {}
        tol = expect.structure_tol
        for rec in records:
            if not findings.check(rec.error is None, f"audit {rec.args}: {rec.error}",
                                  rec.op_id):
                continue
            key = rec.args
            first[key] = rec.output
            m, n, blank = key
            cls, audit, structure = rec.output
            k = cls.witness_k
            findings.check((audit.m, audit.n, audit.blank, audit.category, audit.witness_k)
                           == (m, n, blank, cls.category, k), f"audit {key}: echo", rec.op_id)
            if cls.category != "A":
                gain = audit.negativity_out - audit.negativity_in
                findings.check(gain > expect.min_negativity_gain,
                               f"audit {key}: negativity gain {gain!r}", rec.op_id)
                if blank == 1:
                    ref = report.REFERENCE_NEGATIVITIES[audit.form or cls.category]
                    drift = max(abs(audit.negativity_in - ref[0]),
                                abs(audit.negativity_out - ref[1]))
                    findings.check(drift <= expect.reference_tol,
                                   f"audit {key}: drift {drift:.3e} from {ref}", rec.op_id)
            self._recompute(key, k, audit, expect, findings, probes, rec.op_id)
            if cls.category == "A":
                ok = (structure.k == k
                      and all(abs(x - y) <= tol for x, y in zip(
                          structure.schmidt_m + structure.schmidt_n, (2 / 3, 1 / 3) * 2))
                      and structure.axis_overlap >= 1.0 - tol
                      and structure.partner_overlap <= tol)
            elif cls.category == "B":
                weight = 2 / 3 if structure.form == "I" else 1 / 3
                ok = (structure.form == audit.form
                      and abs(structure.shared_direction_weight - weight) <= tol)
            else:
                ok = (structure.k == k
                      and abs(structure.overlap_magnitude - 1 / math.sqrt(2)) <= tol
                      and max(structure.sign_residual, structure.cross_overlap,
                              structure.b_basis_residual) <= tol)
            findings.check(ok, f"audit {key}: {cls.category} structure {structure}", rec.op_id)
        for blank in self.blanks:
            outs = [first[(m, n, b)] for (m, n, b) in self.keys
                    if b == blank and (m, n, b) in first]
            cats = {c: sum(o[0].category == c for o in outs) for c, _ in expect.category_counts}
            forms = {f: sum(o[1].form == f for o in outs) for f, _ in expect.form_counts}
            findings.check(len(outs) == 28 and cats == dict(expect.category_counts)
                           and forms == dict(expect.form_counts),
                           f"blank W{blank}: categories {cats}, forms {forms}")
        self.check_document(documents, records, expect, findings)

    def _recompute(self, key, k, audit, expect, findings, probes, op_id) -> None:
        """Negativities from registers.partial_transpose and its spectrum."""
        if (key, k) not in self._recomputed:
            m, n, blank = key
            rho_in, rho_out = _cloner_mixtures(m, n, blank)
            cut = registers.Bipartition(6, frozenset({k - 1, k + 2}))
            values = []
            for rho in (rho_in, rho_out):
                flipped = probes.call("registers.partial_transpose",
                                      registers.partial_transpose,
                                      registers.DensityMatrix(6, rho), cut)
                spectrum = probes.call("registers.hermitian_spectrum",
                                       registers.hermitian_spectrum, flipped)
                values.append(float(np.abs(spectrum).sum() - 1.0))
            # cloning leaves the original register's marginal unchanged
            orig_in, orig_out = (
                probes.call("registers.partial_trace", registers.partial_trace,
                            registers.DensityMatrix(6, rho), {3, 4, 5}).entries
                for rho in (rho_in, rho_out))
            values.append(float(np.max(np.abs(orig_in - orig_out))))
            self._recomputed[(key, k)] = tuple(values)
        value_in, value_out, marginal_gap = self._recomputed[(key, k)]
        for label, value, got in (("in", value_in, audit.negativity_in),
                                  ("out", value_out, audit.negativity_out)):
            findings.check(abs(value - got) <= expect.recompute_tol,
                           f"audit {key}: negativity_{label} {got!r} vs {value!r}", op_id)
        findings.check(marginal_gap <= expect.marginal_tol,
                       f"audit {key}: original marginals differ by {marginal_gap!r}", op_id)

    def check_document_payload(self, payload, records, expect, findings) -> None:
        audits = {(r.args[0], r.args[1]): r.output[1] for r in records
                  if r.error is None and r.args[2] == 1}
        fields = ("m", "n", "category", "witness_k", "form", "negativity_in",
                  "negativity_out", "blank")
        mismatched = [row for row in payload if (row["m"], row["n"]) in audits
                      and any(row[f] != getattr(audits[(row["m"], row["n"])], f)
                              for f in fields)]
        findings.check(len(payload) == 28 and not mismatched,
                       f"w audit: {len(payload)} rows, {len(mismatched)} differ from the loop")


class SimplexScan(Workload):
    name = "simplex-scan"
    why = ("lemma_scan(0.01, 0.05) over 161,700 grid points: the per-point closed "
           "form in Python, no dense linear algebra")
    document_argv = ["w", "lemma", "--format", "json"]

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        self.step = 0.05 if small else 0.01
        self.radius = 0.05
        self.samples = self._sample(5 if small else 300)

    def warm_up(self) -> None:
        w_audit.lemma_scan(0.1, self.radius)

    def _sample(self, count: int) -> tuple[tuple[int, int, int], ...]:
        """Seeded grid points of the scan, as integer multiples of the step."""
        top = round(1.0 / self.step)
        points = []
        while len(points) < count:
            ia, ib, ic = (self.rng.randint(1, top - 2) for _ in range(3))
            if ia + ib + ic <= top:
                points.append((ia, ib, ic))
        return tuple(points)

    def passes(self) -> Iterator[list[Op]]:
        while True:
            yield [("scan", (self.step, self.radius))]

    def run(self, kind: str, args: tuple) -> object:
        return w_audit.lemma_scan(args[0], args[1])

    def ops_in(self, kind: str, args: tuple, output: object) -> int:
        return output.points_tested

    def cold_argv(self) -> list[str]:
        ia, ib, ic = self._sample(1)[0]
        return ["w", "blank-check", "--params",
                f"{ia * self.step:.6f},{ib * self.step:.6f},{ic * self.step:.6f}",
                "--format", "json"]

    def check(self, records, documents, expect, findings, probes) -> None:
        expected_points = math.comb(round(1.0 / self.step), 3)
        for rec in records:
            if not findings.check(rec.error is None, f"scan: {rec.error}", rec.op_id):
                continue
            scan = rec.output
            findings.check(scan.points_tested == expected_points
                           and len(scan.violations) == expect.scan_violations,
                           f"scan: {scan.points_tested} points, "
                           f"{len(scan.violations)} violations", rec.op_id)
            step = rec.args[0]
            for ia, ib, ic in self.samples:
                params = states.WClassParams(ia * step, ib * step, ic * step)
                cut_index, closed = measures.wclass_min_cut_entropy(params)
                psi = states.w_class(params)
                direct = [measures.cut_entropy(
                    psi, registers.Bipartition(3, frozenset({k - 1}))).entropy_bits
                    for k in (1, 2, 3)]
                findings.check(abs(closed - min(direct)) <= expect.closed_form_tol
                               and abs(closed - direct[cut_index - 1]) <= expect.closed_form_tol,
                               f"scan point {params}: closed {closed!r} vs {direct}", rec.op_id)
        self.check_document(documents, records, expect, findings)

    def check_document_payload(self, payload, records, expect, findings) -> None:
        # w lemma runs at its default step 0.02
        findings.check(payload["points_tested"] == math.comb(50, 3)
                       and payload["violation_count"] == expect.scan_violations,
                       f"w lemma: {payload['points_tested']} points, "
                       f"{payload['violation_count']} violations")


class ReportCli(Workload):
    name = "report-cli"
    why = ("cli.run_command stream: report in three formats plus seeded point queries "
           "one at a time; the only workload through cli and report")

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        self.pairs = [(m, n) for m in range(1, 9) for n in range(m + 1, 9)]
        self.ghz_pairs = list(itertools.combinations(states.GHZ_LABELS, 2))
        self.triples = list(itertools.combinations(states.GHZ_LABELS, 3))
        self.report_step = "0.1" if small else None
        self.state_labels = ([str(g) for g in states.GHZ_LABELS]
                             + [f"W{x}" for x in range(1, 9)])
        self.cuts = ["1", "2", "3", "1,2", "1,3", "2,3"]

    def report_argv(self, fmt: str) -> list[str]:
        argv = ["report", "--format", fmt]
        return argv + ["--step", self.report_step] if self.report_step else argv

    def warm_up(self) -> None:
        run_cli(["w", "classify", "--pair", "1,6", "--format", "json"])

    def _state_label(self) -> str:
        if self.rng.random() < 0.5:
            return self.rng.choice(self.state_labels)
        return _params_text(self.rng)

    def _requests(self) -> list[list[str]]:
        """The run's argv lists; random points are drawn once per run."""
        json_only = ["--format", "json"]
        formats = ("json",) if self.small else ("table", "json", "csv")
        pairs = self.pairs[::6] if self.small else self.pairs
        ghz_pairs = self.ghz_pairs[::6] if self.small else self.ghz_pairs
        triples = self.triples[::12] if self.small else self.triples
        points, measures_each = (3, 3) if self.small else (20, 20)
        argvs = [self.report_argv(fmt) for fmt in formats]
        argvs += [["w", "classify", "--pair", f"{m},{n}"] + json_only for m, n in pairs]
        argvs += [["ghz", "clone", "--states", str(a), str(b)] + json_only
                  for a, b in ghz_pairs]
        argvs += [["ghz", "triples", "--states"] + [str(x) for x in t] + json_only
                  for t in triples]
        argvs += [["w", "blank-check", "--params", _params_text(self.rng)] + json_only
                  for _ in range(points)]
        for quantity in ("entropy", "negativity"):
            argvs += [["measure", quantity, "--state", self._state_label(),
                       "--cut", self.rng.choice(self.cuts)] + json_only
                      for _ in range(measures_each)]
        argvs += [["w", "blank-check", "--params", "0.5,0.4,0.3"] + json_only,
                  ["w", "classify", "--pair", "3,3"] + json_only]
        return argvs

    def passes(self) -> Iterator[list[Op]]:
        requests = [("report" if argv[0] == "report" else "query", (argv,))
                    for argv in self._requests()]
        while True:
            ops = list(requests)
            self.rng.shuffle(ops)
            yield ops

    def key(self, kind: str, args: tuple) -> tuple:
        return tuple(args[0])

    def run(self, kind: str, args: tuple) -> object:
        return run_cli(args[0])

    def cold_argv(self) -> list[str]:
        return ["w", "blank-check", "--params", _params_text(self.rng), "--format", "json"]

    def classes(self, records: list[Record]) -> dict:
        for rec in records:
            if rec.kind == "report" and rec.error is None and "json" in rec.args[0]:
                code, out, _ = rec.output
                try:
                    rows = json.loads(out)["w_classifications"]
                except (ValueError, KeyError, TypeError):
                    continue
                return {(r["m"], r["n"]): (r["category"], r["witness_k"]) for r in rows}
        return {}

    def check(self, records, documents, expect, findings, probes) -> None:
        classes = self.classes(records)
        for rec in records:
            argv = rec.args[0]
            if not findings.check(rec.error is None, f"{argv}: {rec.error}", rec.op_id):
                continue
            code, out, _ = rec.output
            if rec.kind == "report":
                self._check_report(argv, code, out, expect, findings, rec.op_id)
            else:
                check_query(argv, code, out, classes, expect, findings, rec.op_id)

    def _check_report(self, argv, code, out, expect, findings, op_id) -> None:
        if not findings.check(code == expect.query_exit, f"{argv}: exit {code}", op_id):
            return
        fmt = argv[argv.index("--format") + 1]
        if fmt == "csv":
            findings.check(next(csv.reader(io.StringIO(out)))[0] == "version",
                           f"{argv}: csv header", op_id)
            return
        if fmt == "table":
            findings.check(out.startswith("tool version "), f"{argv}: table header", op_id)
            return
        try:
            doc = json.loads(out)
            triples = doc["ghz_triples"]
            counts = {
                "ghz_pairs": len(doc["ghz_pairs"]),
                "ghz_triples": len(triples),
                "clonable_triples": sum(row["clonable"] for row in triples),
                "w_classifications": len(doc["w_classifications"]),
                "pairs": len(doc["pairs"]),
                "scan_points": doc["scan"]["points_tested"],
            }
            violations = doc["scan"]["violation_count"]
            notes = doc["notes"]
            fidelities = [row["fidelity"] for row in doc["ghz_pairs"]]
            cats = [row["category"] for row in doc["w_classifications"]]
        except (ValueError, KeyError, TypeError) as exc:
            findings.check(False, f"{argv}: report JSON lacks {exc!r}", op_id)
            return
        expected = dict(expect.report_counts)
        if self.report_step is not None:
            expected["scan_points"] = math.comb(round(1 / float(self.report_step)), 3)
        findings.check(counts == expected, f"{argv}: counts {counts}", op_id)
        findings.check(violations == expect.scan_violations and notes == [],
                       f"{argv}: {violations} violations, notes {notes}", op_id)
        findings.check(min(fidelities) >= expect.fidelity_floor, f"{argv}: fidelity", op_id)
        findings.check({c: cats.count(c) for c, _ in expect.category_counts}
                       == dict(expect.category_counts), f"{argv}: taxonomy split", op_id)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (GhzClone, WAudit, SimplexScan, ReportCli)
}

