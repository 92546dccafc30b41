"""Cyclic entailment proof analysis: annotated proof graphs, global
soundness checking, ordinal-weighted tropical automata, and decision of
the trace value ordering relations."""

from .automata import (
    Letter,
    State,
    TracePairQuery,
    WeightedAutomaton,
    ambiguity,
    build_antecedent_approx,
    build_antecedent_full,
    build_consequent,
    export_dot,
    is_grounded,
    language_value,
    run_values,
)
from .containment import ContainmentVerdict, decide_containment, oracle_compare
from .decision import (
    OrderVerdict,
    applicability_gates,
    decide_order,
    definition_oracle,
)
from .ordinal import (
    BOT,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    TropicalWeight,
    ord_add,
    trop_oplus,
    trop_otimes,
)
from .proofgraph import (
    Node,
    Proof,
    ProofParseError,
    ValidationReport,
    load_proof,
    parse_proof,
    serialize_proof,
    terminal_values,
    validate,
)
from .restrictions import Thresholds, check_all_restrictions, compute_thresholds
from .soundness import SoundnessReport, check_global_soundness
from .traces import (
    classify_right_trace,
    enumerate_right_maximal,
    follows,
    prog_points,
    simple_binary_cycles,
    simple_cycles,
)

__version__ = "0.1.0"
