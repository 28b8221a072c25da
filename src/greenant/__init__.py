"""Monte Carlo study of uplink transmit power with receive-only
green antennas added to cellular sectors."""

from .scenario import (
    AntennaPattern,
    Building,
    ClutterMap,
    GreenAntenna,
    InfeasibleDropError,
    MobileStation,
    ParseError,
    PathLossModel,
    RadioParams,
    Scenario,
    ScenarioError,
    Sector,
    Site,
    TrafficParams,
    ValidationError,
    drop_mobiles,
    load_scenario,
    load_scenario_file,
    strip_greens,
    validate_scenario,
)
from .propagation import (
    LinkGainMatrix,
    ReceivePoint,
    antenna_gain,
    build_gain_matrix,
    path_loss,
    receive_points,
)
from .powerctl import (
    Association,
    BranchSet,
    PowerControlResult,
    associate,
    effective_sinr,
    power_update,
    receive_branches,
    solve_lockstep,
    solve_power_control,
)
from .metrics import (
    NO_FILTER,
    ComparisonReport,
    PopulationFilter,
    compare_runs,
    emit_report,
    filter_population,
    tx_power_cdf,
)
from .simulate import (
    PairingError,
    Snapshot,
    check_pairable,
    gather_tx_powers,
    run_campaign,
    run_snapshot,
    snapshot_seed,
)

__version__ = "0.1.0"
