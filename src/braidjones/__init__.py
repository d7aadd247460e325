"""Jones polynomial values of three-strand braid closures.

Braid words map to 2x2 unitaries through a two-projector Temperley-Lieb
representation; traces of those unitaries give the Kauffman bracket, the
normalized invariant f and Jones values of the closure.  An independent
state-sum oracle cross-checks every number, an ensemble expectation-value
quantum computer simulation estimates the traces end to end, and a pulse
compiler turns the controlled gates into verified two-spin pulse programs.
"""

from .braid import (
    BraidGenerator,
    BraidParseError,
    BraidWord,
    concat,
    exponent_sum,
    invert,
    parse_braid,
    render,
)
from .invariants import (
    InvariantValues,
    TLDiagram,
    bracket_state_sum,
    compose_tl,
    cup_cap,
    evaluate,
    identity_diagram,
)
from .nmr import (
    DensityOperator,
    MeasurementPrecision,
    apply_cu,
    controlled_u,
    estimate_trace,
    measure_probe,
    prepare_rho1,
    trace_error_bound,
)
from .pathmodel import (
    AjlParams,
    LineGraph,
    PathBasis,
    admissible_states,
    build_E,
    two_projector_correspondence_check,
    walk_endpoint,
)
from .pulses import (
    PulseInstruction,
    PulseProgram,
    compile_controlled_s,
    format_program,
    parse_program,
    pulse_angles,
    simulate_program,
    verify_program,
)
from .tlrep import (
    ReprParams,
    build_U,
    delta_from_theta,
    is_admissible,
    rho_generator,
    rho_word,
    tl_generators,
)
from .cli import SweepRecord, emit_csv, preset, run_sweep

__version__ = "0.1.0"
