"""Shared domain types, forecast representations, and loss functionals.

Everything here is an immutable value object or a pure function; instances
can be shared freely between threads and across simulation replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Collection, Hashable, Iterable, Mapping, Sequence


class CrowdcastError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDistributionError(CrowdcastError):
    """Probability vector violates nonnegativity / sum-to-one / uniqueness."""


class ShapeError(CrowdcastError):
    """Operands have incompatible lengths or incompatible forecast kinds."""


class EmptyInputError(CrowdcastError):
    """An operation that needs at least one element received none."""


class InvalidParameterError(CrowdcastError):
    """A parameter value outside its mathematically valid range."""


class InvalidConfigError(CrowdcastError):
    """Bad run configuration; the message carries the offending field path."""


class NeedsInitialForecastError(CrowdcastError):
    """A history-based policy was asked for output before any observation."""


class DegenerateGainError(CrowdcastError):
    """Filter gain undefined: zero innovation variance."""


class TooLargeError(CrowdcastError):
    """Brute-force enumeration guard exceeded."""


class NoFixedPointError(CrowdcastError):
    """No point with |f(a) - a| <= tol found on the search interval."""


class ParseError(CrowdcastError):
    """Malformed input file; the message names the offending line."""


# --- config value converters ------------------------------------------------------
# Each converter takes a raw value, either an INI string or an already-typed
# Python value, plus the field path its error names (e.g. "run.ini: policy.alpha").


def as_float(value: object, path: str) -> float:
    try:
        out = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        out = math.nan
    if not math.isfinite(out):
        raise InvalidConfigError(f"{path}: expected a finite real number, got {value!r}")
    return out


def as_int(value: object, path: str) -> int:
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise InvalidConfigError(f"{path}: expected an integer, got {value!r}") from None


def _listed(value: object, path: str, expected: str) -> Sequence[object]:
    """Items of a list value; a string is split on commas and whitespace."""
    if isinstance(value, str):
        return value.replace(",", " ").split()
    if isinstance(value, (tuple, list)):
        return value
    raise InvalidConfigError(f"{path}: expected {expected}, got {value!r}")


def as_floats(value: object, path: str) -> tuple[float, ...]:
    if isinstance(value, (int, float)):
        value = (value,)
    return tuple(as_float(v, path) for v in _listed(value, path, "a number or list of numbers"))


def as_slots(value: object, path: str) -> tuple[int, ...]:
    """Slot indices of a joint profile, one per player."""
    if isinstance(value, JointProfile):
        value = value.actions
    return tuple(as_int(v, path) for v in _listed(value, path, "a list of slot indices"))


def read_params(
    params: Mapping[str, object],
    spec: Mapping[str, Callable[[object, str], object]],
    section: str,
    required: Iterable[str] = (),
) -> dict[str, object]:
    """Convert each key of spec that params holds; a missing required key is an error."""
    for key in required:
        if key not in params:
            raise InvalidConfigError(f"{section}.{key}: required parameter missing")
    return {
        key: convert(params[key], f"{section}.{key}") for key, convert in spec.items() if key in params
    }


def _reject_unknown_keys(
    section: str, params: Mapping[str, object], allowed: Collection[str]
) -> None:
    for key in params:
        if key not in allowed:
            raise InvalidConfigError(
                f"{section}.{key}: unknown parameter; allowed: {', '.join(sorted(allowed))}"
            )


# Tolerance used for "two discrete distributions are the same" checks.
DIST_EQ_TOL = 1e-9


@dataclass(frozen=True, order=True)
class JointProfile:
    """One joint action: slot index chosen by each player."""

    actions: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.actions) == 0:
            raise ShapeError("joint profile needs at least one player")
        for a in self.actions:
            if not isinstance(a, int) or a < 0:
                raise InvalidParameterError(f"slot index must be a nonnegative int, got {a!r}")

    def __len__(self) -> int:
        return len(self.actions)

    def __getitem__(self, i: int) -> int:
        return self.actions[i]

    def within_slots(self, d: int) -> bool:
        return all(a < d for a in self.actions)


@dataclass(frozen=True)
class PointForecast:
    """Point forecast: one real value per slot / sample time."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise ShapeError("point forecast needs at least one entry")
        vals = tuple(float(v) for v in self.values)
        if any(not math.isfinite(v) for v in vals):
            raise InvalidParameterError("point forecast entries must be finite")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    @property
    def scalar(self) -> float:
        if len(self.values) != 1:
            raise ShapeError(f"expected 1-dimensional forecast, got {len(self.values)}")
        return self.values[0]


@dataclass(frozen=True)
class DiscreteDistribution:
    """Discrete distribution over hashable outcomes (e.g. joint profiles).

    Support entries are unique; probabilities are nonnegative and sum to one
    within 1e-12. The support is kept sorted when outcomes are orderable so
    equal distributions have identical representations.
    """

    support: tuple[Hashable, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.support) != len(self.probs):
            raise ShapeError("support and probability vectors differ in length")
        if len(self.support) == 0:
            raise InvalidDistributionError("empty support")
        if len(set(self.support)) != len(self.support):
            raise InvalidDistributionError("support entries must be unique")
        probs = tuple(float(p) for p in self.probs)
        if any(p < 0.0 or not math.isfinite(p) for p in probs):
            raise InvalidDistributionError("probabilities must be finite and nonnegative")
        total = math.fsum(probs)
        if abs(total - 1.0) > 1e-12:
            raise InvalidDistributionError(f"probabilities sum to {total!r}, not 1")
        pairs = list(zip(self.support, probs))
        try:
            pairs.sort(key=lambda kv: kv[0])
        except TypeError:
            pass  # unorderable outcomes keep insertion order
        object.__setattr__(self, "support", tuple(k for k, _ in pairs))
        object.__setattr__(self, "probs", tuple(p for _, p in pairs))

    @classmethod
    def dirac(cls, outcome: Hashable) -> "DiscreteDistribution":
        return cls((outcome,), (1.0,))

    @classmethod
    def from_mapping(cls, weights: Mapping[Hashable, float]) -> "DiscreteDistribution":
        """Build from outcome -> nonnegative weight, normalizing to one."""
        total = math.fsum(weights.values())
        if total <= 0.0:
            raise InvalidDistributionError("weights must have positive total")
        items = [(k, v / total) for k, v in weights.items() if v > 0.0]
        return cls(tuple(k for k, _ in items), tuple(p for _, p in items))

    def items(self) -> Iterable[tuple[Hashable, float]]:
        return zip(self.support, self.probs)

    def prob(self, outcome: Hashable) -> float:
        for k, p in zip(self.support, self.probs):
            if k == outcome:
                return p
        return 0.0

    def mean(self) -> float:
        """Mean of a distribution over numeric outcomes."""
        return math.fsum(float(k) * p for k, p in self.items())

    def mode(self) -> Hashable:
        """Highest-probability outcome; ties go to the first in support order."""
        best_k, best_p = self.support[0], self.probs[0]
        for k, p in self.items():
            if p > best_p:
                best_k, best_p = k, p
        return best_k

    def close_to(self, other: "DiscreteDistribution", tol: float = DIST_EQ_TOL) -> bool:
        """Pointwise probability agreement within tol over the union support."""
        keys = set(self.support) | set(other.support)
        return all(abs(self.prob(k) - other.prob(k)) <= tol for k in keys)


Forecast = PointForecast | DiscreteDistribution


@dataclass(frozen=True)
class StageRecord:
    """One stage of a trajectory: forecast announced, outcome observed, losses."""

    t: int
    w: str
    a: Forecast
    y: object
    losses: Mapping[str, float] = field(default_factory=dict)


def tv_distance(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Total variation distance, 0.5 * sum |p - q| over the union support."""
    keys = set(p.support) | set(q.support)
    return 0.5 * math.fsum(abs(p.prob(k) - q.prob(k)) for k in keys)


def euclidean_distance(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Euclidean norm between probability vectors over the union support."""
    keys = set(p.support) | set(q.support)
    return math.sqrt(math.fsum((p.prob(k) - q.prob(k)) ** 2 for k in keys))


def point_pred_loss(a: PointForecast | Sequence[float], y_mean: Sequence[float]) -> float:
    """Squared Euclidean distance between a point forecast, or its values, and a mean outcome."""
    y = tuple(float(v) for v in y_mean)
    if len(y) != len(a):
        raise ShapeError(f"forecast has {len(a)} entries, outcome mean has {len(y)}")
    try:
        return math.fsum((av - yv) ** 2 for av, yv in zip(a, y))
    except OverflowError:  # a squared error beyond the float range
        return math.inf


def observation_values(y: object) -> tuple[float, ...]:
    """A real-vector observation as a tuple of floats."""
    if isinstance(y, PointForecast):
        return y.values
    if isinstance(y, (int, float)):
        return (float(y),)
    if isinstance(y, (tuple, list)):
        return tuple(float(v) for v in y)
    raise ShapeError(f"observation {y!r} is not a real vector")


def trajectory_mse(records: Iterable[StageRecord]) -> float:
    """Mean over stages of the squared Euclidean forecast error.

    Every stage must carry a point forecast and a real-vector observation of
    the same length.
    """
    total = 0.0
    count = 0
    for rec in records:
        if not isinstance(rec.a, PointForecast):
            raise ShapeError(f"stage {rec.t} has no point forecast")
        total += point_pred_loss(rec.a, observation_values(rec.y))
        count += 1
    if count == 0:
        raise EmptyInputError("trajectory has no stages")
    return total / count
