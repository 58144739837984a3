"""Sum-networks from block designs.

Build the network of a 2-(v,k,lambda) design, synthesize its linear code
for the field characteristic, and verify deterministically that
every terminal decodes the sum of all sources.
"""

from .alphabet_change import (
    CounterexampleReport,
    ExtensionParams,
    exhaustive_failure_search,
    extension_params,
    run_counterexample,
    unicast_control_holds,
)
from .coding import (
    CharMismatchError,
    CodeParams,
    NetworkCode,
    Slice,
    TerminalDecoder,
    UnsupportedLambdaError,
    block_source_extractor,
    build_code,
    build_code_char_divides,
    build_code_char_not_divides,
    code_from_json,
    code_load,
    code_save,
    code_to_json,
    partial_sum_row,
    slice_layout,
)
from .designs import (
    Design,
    InvalidDesignError,
    ParseError,
    UnsupportedOrderError,
    ValidationReport,
    design_load,
    design_save,
    design_verify,
    fano,
    sts_bose,
)
from .field import (
    DimensionMismatchError,
    FieldMatrix,
    FieldMismatchError,
    NotPrimeError,
    PrimeField,
    row_space_contains,
)
from .network import (
    Edge,
    NodeId,
    SumNetwork,
    build_sum_network,
    network_export_dot,
    network_export_json,
    network_from_json,
    network_save,
    network_save_dot,
    network_validate,
)
from .verify import (
    CapacityReport,
    ShapeMismatchError,
    SimulationSummary,
    VerifyResult,
    block_sum_recoverable,
    capacity_report,
    fractional_upper_bound,
    partial_sum_recoverable,
    simulate,
    simulate_trials,
    transfer_check,
)

__version__ = "0.1.0"
