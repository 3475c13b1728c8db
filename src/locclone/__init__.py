"""Local-cloning verification toolkit for three-qubit GHZ and W states."""
from __future__ import annotations

__version__ = "0.1.0"

from .registers import (
    Bipartition,
    DensityMatrix,
    SingleQubitGate,
    StateVector,
    TransversalCnot,
    VerificationError,
    apply_circuit,
    density,
    integer_rank,
    make_pure,
    partial_transpose,
    schmidt_coefficients,
    trace_norm,
)
from .states import (
    GHZ_LABELS,
    GhzLabel,
    WClassParams,
    ghz,
    w_basis,
    w_class,
)
from .measures import (
    W_CUT_ENTROPY_BITS,
    CutEntropyResult,
    cut_entropy,
    negativity,
    wclass_cut_spectra,
    wclass_min_cut_entropy,
)
from .ghz_cloning import (
    CloningCircuit,
    CloningInconsistency,
    NoCircuitFound,
    TripleVerdict,
    bell_triple_cut,
    synthesize_cloner,
    triple_clonability,
    verify_cloner,
)
from .w_audit import (
    AuditRecord,
    PairClassification,
    ScanReport,
    StructureMismatchError,
    atype_structure,
    blank_insufficiency,
    btype_form,
    classify_pair,
    ctype_structure,
    lemma_scan,
    negativity_audit,
)
from .report import build_report, emit_report
