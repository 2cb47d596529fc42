"""Thermal-diffusion decoherence of optical modes stored as atomic Raman coherence.

Workflow: build a stored mode (modes), wrap it in a density-matrix snapshot
(analytic.initial_snapshot), evolve it with one of three cross-validating
classical propagators or the unitary quantum one (solvers), and reduce to
decoherence diagnostics (analysis).  Closed forms in analytic are the ground
truth the numerics are checked against; config/scenario/cli drive file-based
reproducible runs.
"""

from .analysis import (
    CoherenceFactorMap,
    DecayFit,
    DecayModel,
    NodeReport,
    accumulated_phase,
    center_intensity,
    coherence_factor_field,
    find_radial_nodes,
    fit_decay,
    hole_refill_ratio,
    retrieval_efficiency,
    total_population,
)
from .analytic import (
    CoherenceFactorParams,
    DiffusionParams,
    StateSnapshot,
    center_population_peak_m1,
    coherence_closed_form,
    coherence_factor,
    evolution_factor,
    fidelity_closed_form,
    initial_snapshot,
    population_m0,
    population_m1,
)
from .config import ConfigError, OutputKind, ScenarioConfig, parse_config, render_config, validate_scenario
from .fieldio import FieldDump, FieldFormatError, read_field, read_table_csv, write_field, write_field_csv, write_table_csv
from .grid import (
    ComplexField2D,
    FreeSpace,
    GridSpec,
    RadialProfile,
    azimuthal_average,
    l2_norm_sq,
    make_grid,
)
from .modes import (
    ContainmentError,
    ModeKind,
    ModeSpec,
    assoc_laguerre,
    blocked_gaussian,
    build_mode,
    containment_extent,
    lg_field,
    lg_radial_amplitude,
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
