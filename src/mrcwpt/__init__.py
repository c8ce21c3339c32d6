"""Point-to-multipoint magnetic-resonant wireless power transfer toolkit.

Models one transmitter coil powering several switched receiver loads,
computes exact steady-state powers, and solves the multiuser charging
control problems: centralized convex optimization, distributed one-bit
feedback control, and time-shared scheduling, plus achievable power-region
sampling.
"""

from .central import (
    CentralSolution,
    ChargingProblem,
    OracleResult,
    SolveStatus,
    brute_force_oracle,
    optimize_loads,
)
from .circuit import (
    PowerDerivatives,
    SteadyState,
    SwitchState,
    SystemConfig,
    Thresholds,
    analytic_derivatives,
    enumerate_configs,
    optimal_frequency,
    solve_closed_form,
    solve_linear_oracle,
    thresholds,
)
from .coils import (
    CoilElectrical,
    CoilGeometry,
    derive_coil_electrical,
    estimate_mutual_inductance,
    mutual_inductance,
    tune_capacitor,
)
from .distributed import DistributedRun, run_distributed, trace_to_csv
from .errors import (
    DegeneratePlacementError,
    InconsistentMeasurementError,
    InfeasibleProblemError,
    NoFiniteMaximizerError,
    NumericalError,
    ScenarioError,
    ValidationError,
)
from .region import (
    PowerRegionSample,
    hull_2d,
    hull_area_2d,
    pareto_boundary,
    points_in_hull_2d,
    read_region_csv,
    region_to_csv,
    sample_region_with_ts,
    sample_region_without_ts,
)
from .scenario import (
    ScenarioOptions,
    parse_scenario,
    parse_scenario_text,
    serialize_scenario,
)
from .timeshare import (
    AveragePowers,
    ScheduleResult,
    TimeSharingSchedule,
    average_powers,
    optimize_schedule,
    schedule_to_csv,
    solve_config_subproblem,
)

__version__ = "0.1.0"
