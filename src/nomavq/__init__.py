"""Quality-driven power allocation for multi-user superposed video downlink.

A numpy library plus simulation harness: rate-quality stream models, Rayleigh
channels with successive interference cancellation, a globally optimal
monotonic-optimization power allocator, a fast greedy power-block allocator,
reference schemes, erasure-protected packetization accounting, and a seeded
Monte Carlo scenario loop with CSV output.
"""

from .baselines import solve_noma_mt, solve_oma_simple
from .channel import (
    ChannelState,
    GroupingStrategy,
    QualityReq,
    UserEquipment,
    group_users,
    own_sinrs,
    partition_zones,
    sample_channel,
)
from .errors import (
    ConfigurationError,
    FitRejected,
    Infeasible,
    InfeasibleRate,
    InsufficientData,
    NomavqError,
    NonConvergence,
    PayloadOverflow,
    Unbounded,
)
from .greedy import GreedyConfig, GreedyResult, solve_greedy
from .harness import (
    ScenarioConfig,
    ScenarioResult,
    TrialRecord,
    aggregate,
    config_from_dict,
    discrete_rate_set,
    load_config,
    run_scenario,
    snap_rate,
)
from .lp import solve_lp
from .packetizer import (
    TransmissionBlock,
    UxpProfile,
    assemble_tb,
    erasure_recoverability,
    layout_tsb,
)
from .phy import (
    Allocation,
    FeasiblePowerSet,
    SinrBounds,
    amc_rate,
    bounds_from_quality,
    build_feasible_set,
    check_feasible,
    min_power,
    sinr_bound_of_psnr,
)
from .polyblock import (
    PolyblockResult,
    SolverConfig,
    project,
    solve_polyblock,
)
from .quality import (
    RdParams,
    RdPoint,
    fit_rd_params,
    load_rd_fixtures,
    psnr_of_rate,
    rate_of_psnr,
)

__version__ = "0.1.0"
