"""Thermal-diffusion decoherence of optical modes stored as atomic Raman coherence.

Workflow: build a stored mode (modes), wrap it in a density-matrix snapshot
(analytic.initial_snapshot), evolve it with one of three cross-validating
classical propagators or the unitary quantum one (solvers), and reduce to
decoherence diagnostics (analysis).  The closed form in analytic
(lg_closed_form) is the ground truth the numerics are checked against;
config/scenario/cli drive file-based reproducible runs.
"""

from .analysis import (
    CoherenceFactorMap,
    DecayFit,
    DecayModel,
    NodeReport,
    accumulated_phase,
    center_intensity,
    coherence_factor_field,
    coherence_factor_values,
    find_radial_nodes,
    fit_decay,
    hole_refill_ratio,
    retrieval_efficiency,
    total_population,
)
from .analytic import (
    DiffusionParams,
    StateSnapshot,
    center_population_peak_m1,
    evolution_factor,
    initial_snapshot,
    lg_closed_form,
)
from .config import ConfigError, OutputKind, ScenarioConfig, parse_config, render_config, validate_scenario
from .fieldio import FieldDump, FieldFormatError, read_field, read_table_csv, write_field, write_field_csv, write_table_csv
from .grid import (
    ComplexField2D,
    FreeSpace,
    GridSpec,
    ParameterError,
    RadialProfile,
    azimuthal_average,
    l2_norm_sq,
    make_grid,
)
from .modes import (
    ContainmentError,
    ModeKind,
    ModeSpec,
    blocked_gaussian,
    build_mode,
    lg_amplitude,
    lg_field,
    lg_required_extent,
    plane_wave,
)
from .scenario import Manifest, ManifestEntry, run_scenario
from .solvers import (
    CflError,
    IrreversibleEvolutionError,
    QuantumParams,
    Scheme,
    SolverConfig,
    classical_reversal_amplification,
    diffuse_fd,
    diffuse_kernel,
    diffuse_spectral,
    echo_reverse,
    evolve_quantum,
    evolve_snapshot,
    evolve_snapshots,
    fd_max_dt,
    fd_timestep,
    reverse_classical,
)

__version__ = "0.1.0"
