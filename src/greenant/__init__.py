"""Monte Carlo study of uplink transmit power with receive-only
green antennas added to cellular sectors."""

from .scenario import (
    AntennaPattern,
    BranchTable,
    Building,
    ClutterMap,
    Drop,
    GreenAntenna,
    InfeasibleDropError,
    ParseError,
    PathLossModel,
    RadioParams,
    ReceivePoint,
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
    antenna_gain,
    build_gain_matrix,
    path_loss,
)
from .powerctl import (
    PowerControlResult,
    associate,
    effective_sinr,
    power_update,
    solve_snapshots,
)
from .metrics import (
    NO_FILTER,
    ComparisonReport,
    PopulationFilter,
    compare_runs,
    emit_report,
    gather_tx_powers,
    kept_indices,
    tx_power_cdf,
)
from .simulate import (
    PairingError,
    Snapshot,
    check_pairable,
    run_campaign,
    snapshot_seed,
)

__version__ = "0.1.0"
