"""Recover sparse electrical-network topologies and cable parameters from
node-level voltage and power measurements."""

from .bounds import BoundReport, ac_bound, ac_delta, dc_bound, dc_bound_coarse, phi_vector
from .network import (
    AC,
    DC,
    Network,
    admittance_matrix,
    complete_edges,
    connectivity,
    is_connected,
    is_spanning_tree,
    laplacian,
    series_equivalent,
    split_graphs,
)
from .nnls import NnlsError, NnlsResult
from .recovery import (
    Fit,
    RecoveryConfig,
    RecoveryError,
    RecoveryTrace,
    TraceRow,
    fit,
    recover,
)
from .sparsify import (
    EdgeStatistics,
    SparsifyOutcome,
    effective_resistances,
    is_epsilon_approximation,
    row_statistics,
    sample_count,
    sparsify_ac,
)
from .states import (
    PowerFlowError,
    Scenario,
    StateSet,
    add_noise,
    generate_scenario,
    generate_voltage_driven,
    residuals,
    rms,
    solve_power_flow,
)
from .vandermonde import (
    VandermondeSystem,
    assemble,
    condition_number,
    network_from_columns,
    parameter_vector,
    restrict,
)

__version__ = "0.1.0"
