"""Exact bottleneck optimal transport and measure-stability toolkit."""

from .errors import (
    BottleneckOTError,
    CasePreconditionViolated,
    EmptySet,
    EpsilonTooLarge,
    InfeasibleInstance,
    MalformedInput,
    MetricViolation,
    NotInvariant,
    NotInvariantMeasure,
    NotProbability,
    SpaceMismatch,
    SupportTooLarge,
    TooLarge,
    TooManySets,
    UnknownAtom,
    UnsupportedP,
)
from .measures import (
    DiscreteMeasure,
    IntervalRepresentation,
    interval_representation,
    make_measure,
    point_mass,
    pushforward,
    sup_distance,
)
from .convergence import (
    ConvergenceReport,
    MeasureSequence,
    SeparatingSet,
    d_convergence_verdict,
    delta_sequence,
    separating_mass_check,
    separating_subsets,
)
from .decomposition import (
    DecompositionInstance,
    DecompositionResult,
    arrangement,
    check_feasibility,
    decompose,
    epsilon_zero,
    feasibility_by_flow,
    verify_decomposition,
)
from .spaces import FiniteMetricSpace, build_space, hausdorff
from .stability import (
    LiftedSet,
    MapSystem,
    StabilityReport,
    dist_to_lift,
    probe_asymptotic,
    probe_attractor,
    probe_exponential,
    probe_lyapunov,
    probe_measure_lyapunov,
    scenario_sink_source,
    scenario_torus_shear,
)
from .transport import (
    SolveReport,
    TransportPlan,
    feasible_at_threshold,
    w_infinity,
    w_infinity_bruteforce,
    w_p,
    w_p_plan,
)

__all__ = [name for name in dir() if not name.startswith("_")]
