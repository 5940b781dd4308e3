"""Stable JSON file formats and report serialization.

Formats (labels, not indices, at the file boundary):

  space    {"points": [...], "metric": "euclidean"|"torus"|"matrix",
            "coords": [[...], ...] | "matrix": [[...], ...]}
  measure  {"space": <space>, "weights": [{"atom": id, "num": n, "den": d}, ...]}
  sequence {"space": <space>, "terms": [<weights>, ...], "limit": <weights>}
  instance {"xi": <measure>, "sets": [[id, ...], ...],
            "targets": [{"num": n, "den": d}, ...]}
  system   {"space": <space>, "map": {id: id, ...}}
"""
from __future__ import annotations

import json
from fractions import Fraction

from .convergence import ConvergenceReport, MeasureSequence
from .decomposition import DecompositionInstance, DecompositionResult, VerificationVerdict
from .errors import MalformedInput
from .measures import DiscreteMeasure, make_measure
from .spaces import FiniteMetricSpace, build_space
from .stability import MapSystem, StabilityReport

_METRIC_TOKENS = {
    "euclidean": "euclidean",
    "torus": "flat-torus",
    "matrix": "explicit-matrix",
}


def parse_space(obj) -> FiniteMetricSpace:
    try:
        points = obj["points"]
        metric = _METRIC_TOKENS[obj.get("metric", "euclidean")]
        if metric == "explicit-matrix":
            return build_space(points, metric, matrix=obj["matrix"])
        return build_space(points, metric, coords=obj["coords"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad space object: {exc}") from exc


def space_to_obj(space: FiniteMetricSpace):
    if space.metric_rule == "explicit-matrix":
        return {
            "points": list(space.point_ids),
            "metric": "matrix",
            "matrix": [list(row) for row in space.matrix],
        }
    token = "euclidean" if space.metric_rule == "euclidean" else "torus"
    return {
        "points": list(space.point_ids),
        "metric": token,
        "coords": [list(v) for v in space.coords],
    }


def _fraction(obj) -> Fraction:
    """``num/den`` of a file object.  Both must be JSON integers: a float, a
    string or a boolean is rejected, and so is a zero or negative ``den``
    (Fraction would fold -1/-2 into 1/2)."""
    num, den = obj["num"], obj["den"]
    for name, value in (("num", num), ("den", den)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if den <= 0:
        raise ValueError(f"den must be positive, got {den}")
    return Fraction(num, den)


def parse_weights(space: FiniteMetricSpace, entries) -> DiscreteMeasure:
    try:
        pairs = [(space.index_of(e["atom"]), _fraction(e)) for e in entries]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad weights array: {exc}") from exc
    try:
        return make_measure(space, pairs)
    except ValueError as exc:  # a negative weight
        raise MalformedInput(str(exc)) from exc


def weights_to_obj(mu: DiscreteMeasure):
    return [
        {"atom": mu.space.point_ids[a], "num": w.numerator, "den": w.denominator}
        for a, w in sorted(mu.weights.items())
    ]


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc


def parse_measure(obj, space: FiniteMetricSpace | None = None) -> DiscreteMeasure:
    """A measure object; ``space``, when given, stands in for the embedded one."""
    try:
        if space is None:
            space = parse_space(obj["space"])
        return parse_weights(space, obj["weights"])
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"bad measure object: {exc}") from exc


def load_measure_file(path) -> DiscreteMeasure:
    return parse_measure(load_json(path))


def load_measure_pair(path_a, path_b):
    """Two measure files; a space object both embed alike is built only once."""
    obj_a, obj_b = load_json(path_a), load_json(path_b)
    mu = parse_measure(obj_a)
    shared = isinstance(obj_b, dict) and obj_b.get("space") == obj_a["space"]
    return mu, parse_measure(obj_b, mu.space if shared else None)


def measure_to_obj(mu: DiscreteMeasure):
    return {"space": space_to_obj(mu.space), "weights": weights_to_obj(mu)}


def parse_sequence(obj) -> MeasureSequence:
    try:
        space = parse_space(obj["space"])
        terms = [parse_weights(space, term) for term in obj["terms"]]
        limit = parse_weights(space, obj["limit"])
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"bad sequence object: {exc}") from exc
    return MeasureSequence.build(terms, limit)


def load_sequence_file(path) -> MeasureSequence:
    return parse_sequence(load_json(path))


def parse_instance(obj) -> DecompositionInstance:
    try:
        xi = parse_measure(obj["xi"])
        sets = [
            frozenset(xi.space.index_of(pid) for pid in block)
            for block in obj["sets"]
        ]
        targets = [_fraction(t) for t in obj["targets"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad instance object: {exc}") from exc
    return DecompositionInstance.build(xi, sets, targets)


def load_instance_file(path) -> DecompositionInstance:
    return parse_instance(load_json(path))


def parse_system(obj) -> MapSystem:
    try:
        space = parse_space(obj["space"])
        mapping = {
            space.index_of(src): space.index_of(dst)
            for src, dst in obj["map"].items()
        }
        if len(mapping) != space.n_points:
            raise MalformedInput("map must cover every point exactly once")
        return MapSystem.build(space, [mapping[i] for i in range(space.n_points)])
    except (KeyError, TypeError, AttributeError) as exc:
        raise MalformedInput(f"bad system object: {exc}") from exc


def load_system_file(path) -> MapSystem:
    return parse_system(load_json(path))


def dumps_sorted(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def decomposition_to_obj(instance: DecompositionInstance, result: DecompositionResult,
                         verdict: VerificationVerdict):
    return {
        "components": [weights_to_obj(nu) for nu in result.components],
        "trace": [{"case": label, "depth": depth} for label, depth in result.trace],
        "max_depth": result.max_depth,
        "verification": str(verdict),
    }


def convergence_to_obj(report: ConvergenceReport, space: FiniteMetricSpace):
    ids = space.point_ids

    def verdict_obj(v):
        return {
            "name": v.name,
            "passed": v.passed,
            "stabilization_index": v.stabilization_index,
            "failure_index": v.failure_index,
            "witness_atoms": sorted(ids[a] for a in v.witness_atoms)
            if v.witness_atoms else None,
            "improving": v.improving,
        }

    witness = None
    if report.witness:
        criterion, index, atoms = report.witness
        witness = {
            "criterion": criterion,
            "index": index,
            "atoms": sorted(ids[a] for a in atoms) if atoms else None,
        }
    return {
        "overall": report.overall,
        "characterization_verdict": report.characterization_verdict,
        "direct_verdict": report.direct_verdict,
        "witness": witness,
        "criteria": [verdict_obj(v) for v in report.verdicts],
        "delta": [f"{d:.12g}" for d in report.deltas],
        "w1": [f"{w:.12g}" for w in report.w1s],
        "notes": list(report.notes),
    }


def stability_to_obj(report: StabilityReport, space: FiniteMetricSpace):
    ids = space.point_ids

    def record_obj(r):
        return {
            "label": r.label,
            "seed": r.seed,
            "weights": [
                {"atom": ids[a], "num": n, "den": d} for a, n, d in r.weights
            ],
            "sup_distance": f"{r.sup_distance:.12g}",
            "argmax_step": r.argmax_step,
            "allowance": None if r.allowance is None else f"{r.allowance:.12g}",
        }

    params = {}
    for key, value in report.params.items():
        if isinstance(value, float):
            params[key] = f"{value:.12g}"
        elif isinstance(value, (list, tuple)):
            params[key] = [
                f"{v:.12g}" if isinstance(v, float) else v for v in value
            ]
        else:
            params[key] = value
    return {
        "notion": report.notion,
        "verdict": report.verdict,
        "params": params,
        "witness": record_obj(report.witness) if report.witness else None,
        "probes": [record_obj(r) for r in report.records],
        "notes": list(report.notes),
    }
