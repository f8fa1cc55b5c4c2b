"""Mixed-state quantum circuits, channel distances, and distinguishability.

The toolkit represents circuits built from exact unitary gates plus
ancilla / trace / decohere constructs, computes the channels they
implement, measures distances between them (trace norm, fidelity, diamond
norm), compiles the closeness-of-images reduction and the polarization
amplifiers, and simulates the blind taste-test protocol with its optimal
prover.
"""

from .linalg import (
    DIM_CAP,
    SizeCapError,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    psd_sqrt,
    singular_values,
    spectral,
    tensor,
)
from .circuits import (
    Circuit,
    CircuitError,
    CircuitParseError,
    Gate,
    LivenessError,
    ProblemInstance,
    UnitarityError,
    ancilla_gate,
    decohere_gate,
    instance_from_json,
    named_gate,
    parse_circuit,
    serialize_circuit,
    trace_gate,
    unitary_gate,
    validate,
)
from .simulate import (
    Channel,
    InternalConsistencyError,
    NotCompletelyPositiveError,
    adjoint_apply_ext,
    apply_extended,
    channel_apply_ext,
    channel_from_choi,
    choi_of,
    density_from_json,
    density_to_json,
    kraus_of,
)
from .dilation import DilatedCircuit, dilate, dilated_isometry
from .distances import (
    DiamondWitness,
    ImageFidelityResult,
    OptimizerConfig,
    diamond_norm,
    fidelity,
    fidelity_via_purification,
    helstrom,
    max_image_fidelity,
    trace_norm,
    witness_to_json,
)
from .reductions import (
    ConstructionError,
    PolarizationParams,
    ci_to_qcd,
    controlled_join,
    mix_with_parity,
    parity_mix,
    polarization_certificate,
    polarize,
    tensor_power,
)
from .protocol import (
    ProtocolResult,
    ProverStrategy,
    acceptance_probability,
    optimal_prover_witness,
    result_to_json,
    run_protocol,
)

__version__ = "0.1.0"
