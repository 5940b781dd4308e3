"""The package's public surface changes only on purpose: a name added to or
removed from `bottleneck_ot.__all__` has to be added to or removed from this
list too."""
import bottleneck_ot

PUBLIC = [
    "BottleneckOTError", "CasePreconditionViolated", "ConvergenceReport",
    "DecompositionInstance", "DecompositionResult", "DiscreteMeasure", "EmptySet",
    "EpsilonTooLarge", "FiniteMetricSpace", "InfeasibleInstance", "IntervalRepresentation",
    "LiftedSet", "MalformedInput", "MapSystem", "MeasureSequence", "MetricViolation",
    "NotInvariant", "NotInvariantMeasure", "NotProbability", "SeparatingSet", "SolveReport",
    "SpaceMismatch", "StabilityReport", "SupportTooLarge", "TooLarge", "TooManySets",
    "TransportPlan", "UnknownAtom", "UnsupportedP",
    "arrangement", "build_space", "check_feasibility", "convergence",
    "d_convergence_verdict", "decompose", "decomposition", "delta_sequence", "dist_to_lift",
    "epsilon_zero", "errors", "feasibility_by_flow", "feasible_at_threshold", "flows",
    "hausdorff", "interval_representation", "make_measure", "measures",
    "point_mass", "probe_asymptotic", "probe_attractor", "probe_exponential",
    "probe_lyapunov", "probe_measure_lyapunov", "pushforward", "scenario_sink_source",
    "scenario_torus_shear", "separating_mass_check", "separating_subsets", "spaces",
    "stability", "sup_distance", "transport", "verify_decomposition", "w_infinity",
    "w_infinity_bruteforce", "w_p", "w_p_plan",
]


def test_public_names_are_pinned():
    assert sorted(bottleneck_ot.__all__) == PUBLIC
