"""Singularities of data-analytic maps, made computational.

The package evaluates concrete data maps (line fitters, circle location
estimators, toy decision rules), certifies and localizes their singularities
through winding-number obstructions, and measures singular sets with
tube-volume, distance-CDF and box-counting estimators.
"""

from singlab.geometry import (
    CircleDataset,
    CirclePoint,
    ContractViolation,
    Decision,
    DomainError,
    LineDirection,
    PlaneDataset,
    ScalarValue,
    feature_distance,
    omega_s,
    segment_average_norm,
)

__all__ = [
    "CircleDataset",
    "CirclePoint",
    "ContractViolation",
    "Decision",
    "DomainError",
    "LineDirection",
    "PlaneDataset",
    "ScalarValue",
    "feature_distance",
    "omega_s",
    "segment_average_norm",
]

__version__ = "0.1.0"
