"""Energy-minimal joint data, bandwidth and compute allocation for
multi-AP mobile edge computing."""

from .model import (
    Allocation,
    BracketError,
    ConvergenceError,
    DegenerateInputError,
    InfeasibilityError,
    InfeasiblePairError,
    PairPoint,
    Scenario,
    SolveConfig,
    StructuralError,
    TaskSpec,
    ValidationReport,
    allocation_from_dict,
    allocation_to_dict,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate,
)
from .physics import (
    EnergyGradient,
    HessianDiag,
    hessian_diag,
    min_power,
    pair_energy,
    partials,
    rate,
    total_energy,
)
from .kkt import (
    DualVariable,
    solve_baa,
    solve_bcaa,
    solve_caa,
    solve_daa,
)
from .orchestrate import (
    InitStrategy,
    Metrics,
    Solution,
    SolveTrace,
    best_snr_assignment,
    evaluate,
    initialize,
    solve_fixed_assignment,
    solve_fixed_data,
    solve_iterative,
)
from .scenario import GenParams, generate, pathloss_gain

__version__ = "0.1.0"
