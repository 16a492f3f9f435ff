"""queuenet: static traffic assignment with residual point queues.

Link capacity shrinks as a queue builds at its entrance, so congestion is
carried both by a flow-dependent running time and an explicit queuing delay.
The solver finds user-equilibrium (or system-optimum) path flows together
with the residual queues by alternating path-flow and queue updates.
"""
from .net import (
    Link,
    Network,
    NetworkError,
    Node,
    ODPair,
    Path,
    PathError,
    PathSet,
    enumerate_paths,
    load_demands,
    load_network,
    load_path_set,
    write_path_set,
)
from .cost import (
    CostParams,
    capacity,
    gamma_of_flow,
    link_travel_time,
    marginal_link_time,
    merit,
    merit_gradient,
    objective,
    queuing_delay,
    smoothed_link_time,
)
from .solver import (
    ConvergenceReport,
    SolutionState,
    SolverOptions,
    assemble_link_state,
    solve,
)
from .analysis import (
    ComparisonRow,
    EquilibriumReport,
    compare_models,
    kkt_report,
    uniqueness_probe,
)
from .sweep import (
    SweepRow,
    SweepSpec,
    TrendReport,
    demand_sweep,
    run_sweep,
    trend_check,
)

__version__ = "0.1.0"
