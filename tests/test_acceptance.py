"""Acceptance suite: one test per headline claim, one printed line each.

Each test prints "acceptance PASS/FAIL: <criterion> (<detail>)" before
asserting, so a plain pytest run doubles as a checklist.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from locclone.ghz_cloning import (
    all_pairs,
    all_triples,
    synthesize_cloner,
    triple_clonability,
    verify_cloner,
)
from locclone.measures import (
    W_CUT_ENTROPY_BITS,
    cut_entropy,
    negativity,
    wclass_cut_spectra,
)
from locclone.registers import Bipartition, density, schmidt_coefficients
from locclone.report import (
    REFERENCE_NEGATIVITIES,
    build_report,
    emit_report,
)
from locclone.states import GHZ_LABELS, WClassParams, ghz, w_basis, w_class
from locclone.w_audit import audit_classified, lemma_scan, negativity_audit
from locclone.w_taxonomy import all_pair_classifications, btype_form, classify_pair

from references import make_pure

GOLDEN_TAXONOMY = {
    (1, 2): ("A", 2), (1, 4): ("A", 1), (2, 7): ("A", 3),
    (3, 4): ("A", 3), (3, 6): ("A", 2), (6, 7): ("A", 1),
    (1, 6): ("B", 3), (1, 8): ("B", 3), (2, 3): ("B", 1),
    (2, 5): ("B", 1), (3, 8): ("B", 1), (4, 5): ("B", 2),
    (4, 7): ("B", 2), (5, 6): ("B", 3), (5, 8): ("B", 3),
    (7, 8): ("B", 2),
    (1, 3): ("C", 1), (1, 5): ("C", 1), (1, 7): ("C", 2),
    (2, 4): ("C", 1), (2, 6): ("C", 1), (2, 8): ("C", 2),
    (3, 5): ("C", 2), (3, 7): ("C", 1), (4, 6): ("C", 2),
    (4, 8): ("C", 1), (5, 7): ("C", 1), (6, 8): ("C", 1),
}


def _criterion(name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"acceptance {verdict}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


def test_every_ghz_pair_clones_locally():
    worst = 1.0
    for pair in all_pairs():
        circuit = synthesize_cloner(pair)
        worst = min(worst, min(verify_cloner(circuit, pair).values()))
    _criterion(
        "all 28 GHZ pairs clone with a verified local circuit",
        worst == 1.0,
        f"worst fidelity {worst!r}",
    )


def test_triple_split_matches_label_pattern():
    refused = []
    accepted_worst = 1.0
    for triple in all_triples():
        verdict = triple_clonability(triple)
        if verdict.clonable:
            accepted_worst = min(
                accepted_worst, min(verify_cloner(verdict.circuit, triple).values())
            )
        else:
            refused.append((triple, verdict.witness_cut))
    pattern_ok = True
    for triple, cut in refused:
        same_i = len({s.i for s in triple}) == 1
        if cut.side_b == frozenset({2}):
            # witness on qubit 3 exactly when the middle bit is constant and
            # two members then share j while differing in the sign bit
            shares_j = any(
                x.j == y.j and x.p != y.p for x, y in itertools.combinations(triple, 2)
            )
            pattern_ok = pattern_ok and same_i and shares_j
        else:
            pattern_ok = pattern_ok and not same_i
    all_same_i = [t for t in all_triples() if len({s.i for s in t}) == 1]
    witness_12_3 = [t for t, cut in refused if cut.side_b == frozenset({2})]
    _criterion(
        "triples split 32 clonable / 24 refused with label-pattern witnesses",
        len(refused) == 24
        and accepted_worst == 1.0
        and pattern_ok
        and sorted(witness_12_3) == sorted(all_same_i),
        f"refused {len(refused)}, worst accepted fidelity {accepted_worst!r}",
    )


def test_w_pair_taxonomy_matches_catalog():
    mismatches = [
        (m, n)
        for (m, n), expected in GOLDEN_TAXONOMY.items()
        if (lambda cls: (cls.category, cls.witness_k))(classify_pair(m, n)) != expected
    ]
    forms_ok = (
        btype_form(1, 6, 3).form == "I" and btype_form(1, 8, 3).form == "II"
    )
    _criterion(
        "28-pair taxonomy and witness cuts match the catalog",
        not mismatches and forms_ok,
        f"mismatches {mismatches}, (1,6) form I and (1,8) form II {forms_ok}",
    )


def test_audited_negativities_match_benchmarks():
    drift = 0.0
    for m, n, key in ((1, 6, "I"), (1, 8, "II"), (1, 3, "C")):
        record = negativity_audit(m, n)
        ref_in, ref_out = REFERENCE_NEGATIVITIES[key]
        drift = max(
            drift,
            abs(record.negativity_in - ref_in),
            abs(record.negativity_out - ref_out),
        )
    _criterion(
        "audited negativities match the benchmark table",
        drift <= 1e-3,
        f"max drift {drift:.3e}",
    )


def test_cloning_raises_negativity_for_b_and_c_pairs():
    records = [r for r in audit_classified(all_pair_classifications()) if r.category in ("B", "C")]
    min_gain = min(r.negativity_out - r.negativity_in for r in records)
    spreads = []
    for key in ("I", "II", "C"):
        group = [
            r for r in records
            if (r.form if r.category == "B" else r.category) == key
        ]
        for field in ("negativity_in", "negativity_out"):
            values = [getattr(r, field) for r in group]
            spreads.append(max(values) - min(values))
    _criterion(
        "every B/C audit shows a negativity gain with tight within-family agreement",
        min_gain > 0.1 and max(spreads) <= 1e-6,
        f"min gain {min_gain:.4f}, widest family spread {max(spreads):.2e}",
    )


def _closed_form_min_entropy(a: float, b: float, c: float, d: float) -> float:
    lowest = math.inf
    for x in (c, b, a):
        plus = 0.5 * (1.0 + math.sqrt((1.0 - 2.0 * x) ** 2 + 4.0 * x * d))
        minus = 1.0 - plus
        h = 0.0
        for p in (plus, minus):
            if p > 1e-15:
                h -= p * math.log2(p)
        lowest = min(lowest, h)
    return lowest


def test_threshold_needs_the_exact_w_point():
    step, radius = 0.02, 0.05
    top = int(math.floor(1.0 / step + 1e-9))
    worst_outside = 0.0
    tested = 0
    for ia in range(1, top - 1):
        for ib in range(1, top - ia):
            for ic in range(1, top - ia - ib + 1):
                a, b, c = ia * step, ib * step, ic * step
                d = max(1.0 - a - b - c, 0.0)
                distance = (
                    abs(a - 1.0 / 3.0) + abs(b - 1.0 / 3.0) + abs(c - 1.0 / 3.0) + d
                )
                if distance <= radius:
                    continue
                tested += 1
                worst_outside = max(
                    worst_outside, _closed_form_min_entropy(a, b, c, d)
                )
    scan = lemma_scan(step, radius)
    point = WClassParams(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    w_entropies = [
        cut_entropy(w_class(point), Bipartition(3, frozenset({q}))).entropy_bits
        for q in range(3)
    ]
    point_ok = all(abs(h - 0.9182958340544896) <= 1e-9 for h in w_entropies)
    _criterion(
        "only the equal-weight point reaches the entropy threshold on every cut",
        tested > 0
        and worst_outside < W_CUT_ENTROPY_BITS - 1e-6
        and scan.violations == ()
        and scan.points_tested == 19600
        and point_ok,
        f"max entropy off the point {worst_outside!r} over {tested} grid points, "
        f"scan violations {len(scan.violations)}",
    )


def test_closed_form_spectra_match_direct_reduction():
    rng = np.random.default_rng(2026)
    scale, floor = 1.0 - 4e-6, 1e-6
    worst = 0.0
    for _ in range(1000):
        raw = rng.dirichlet([1.0, 1.0, 1.0, 1.0])
        params = WClassParams(*(float(x) * scale + floor for x in raw[:3]))
        state = w_class(params)
        spectra = wclass_cut_spectra(
            *(np.array([getattr(params, x)]) for x in "abcd"), np.empty((2, 3, 1))
        )
        for cut_index in (1, 2, 3):
            minus, plus = spectra[0, cut_index - 1]
            direct = schmidt_coefficients(
                state, Bipartition(3, frozenset({cut_index - 1}))
            )
            worst = max(
                worst, abs(direct[0] - plus), abs(direct[-1] - max(minus, 0.0))
            )
    _criterion(
        "closed-form cut spectra agree with direct reductions on 1000 random states",
        worst <= 1e-10,
        f"max deviation {worst:.2e}",
    )


def test_measure_spot_checks():
    product = make_pure(np.kron([1.0, 0.0], [1.0, 0.0]))
    product_neg = negativity(density(product), Bipartition(2, frozenset({1})))
    w_neg = negativity(density(w_basis(1)), Bipartition(3, frozenset({2})))
    ghz_entropies = [
        cut_entropy(ghz(label), Bipartition(3, frozenset({q}))).entropy_bits
        for label in GHZ_LABELS
        for q in range(3)
    ]
    ghz_dev = max(abs(h - 1.0) for h in ghz_entropies)
    _criterion(
        "entropy and negativity spot checks hit their exact values",
        product_neg <= 1e-12
        and abs(w_neg - 2.0 * np.sqrt(2.0) / 3.0) <= 1e-9
        and ghz_dev <= 1e-12,
        f"product negativity {product_neg!r}, W negativity drift "
        f"{abs(w_neg - 2.0 * np.sqrt(2.0) / 3.0):.2e}, GHZ entropy drift {ghz_dev:.2e}",
    )


def test_full_report_is_deterministic():
    first = emit_report(build_report(0.02, 0.05), "json")
    second = emit_report(build_report(0.02, 0.05), "json")
    _criterion(
        "two full report builds emit byte-identical documents",
        first == second and len(first) > 0,
        f"{len(first)} bytes each",
    )
