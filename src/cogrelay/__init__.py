"""Multi-user dual-hop DF relay network analysis under an interference
power cap: max-min fair relay selection, exact and asymptotic outage,
imperfect-CSI outage, average throughput, and a seeded Monte Carlo
engine that cross-validates every closed form."""

from .analytic import (
    array_gain,
    asymptotic_outage_case1,
    asymptotic_outage_case2,
    average_throughput,
    cdf_kth_largest,
    g_factor,
    outage_floor_imperfect,
    outage_probability,
    outage_probability_imperfect,
    worst_case_rank_prob,
)
from .model import (
    ChannelRealization,
    CsiErrorModel,
    LinkBudget,
    NetworkTopology,
    db_to_linear,
    sample_estimated_realization,
    sample_realization,
    snr_matrix,
    snr_matrix_imperfect,
)
from .montecarlo import (
    McEstimate,
    estimate_outage,
    estimate_throughput,
    two_proportion_z,
    wilson_interval,
)
from .selection import (
    RankPlacementDistribution,
    rank_placement_probs,
)

__version__ = "0.1.0"
