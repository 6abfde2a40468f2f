"""Uplink multi-cell massive MIMO with underlaid D2D communication.

Closed-form spectral-efficiency lower bounds (MR and ZF receive processing,
approximate and exact D2D bounds), a self-contained geometric-programming
kernel, and max-min / max-product-SINR power control over data powers and
jointly over pilot + data powers.
"""

from .scenario import (
    SystemDimensions,
    Geometry,
    PathlossModel,
    LargeScaleGains,
    PilotAllocation,
    Scenario,
    ScenarioConfig,
    build_scenario,
    pathloss_db,
    wrap_distance,
)
from .estimation import (
    PowerAllocation,
    EstimationQuality,
    compute_gamma_bs,
    compute_gamma_d2drx,
    full_power_allocation,
)
from .spectral import (
    SinrBreakdown,
    SEReport,
    cu_sinr_mr,
    cu_sinr_zf,
    d2d_se_exact,
    se_from_sinr,
    sinr_terms,
    evaluate_network,
)
from .gp import (
    Factors,
    GeometricProgram,
    LinearFeasibilityProblem,
    SolverSettings,
    gp_solve,
    lp_feasible,
)
from .power_control import (
    Objective,
    VariableScope,
    Processing,
    ControlProblemSpec,
    ControlSettings,
    SolveDiagnostics,
    maxmin_data,
    maxprod_data,
    maxmin_joint_mr,
    maxprod_joint_mr,
    zf_joint_successive,
    solve_problem,
    solve_to_json,
    solve_from_json,
)
from .linklevel import (
    EmpiricalSinr,
    empirical_gamma,
    oracle_uatf_mr,
    oracle_zf,
    wishart_inverse_diagonal_mean,
)
from .harness import (
    Baselines,
    ExperimentPlan,
    ResultTable,
    run_experiment,
    emit_outputs,
    empirical_cdf,
    cellular_only_view,
)

__all__ = [name for name in dir() if not name.startswith("_")]
