"""Utility layer: math helpers, RNG streams, validation, ASCII plotting."""

from repro.util.mathx import (
    ENUMERATION_K_LIMIT,
    log1pexp,
    logistic,
    inverse_logistic,
    sigmoid_lack_probability,
    exact_join_probabilities,
    enumerate_subset_join_probabilities,
)
from repro.util.rng import RngFactory, as_generator, spawn_generators
from repro.util.rng_block import BinomialBlockSampler
from repro.util.validation import (
    check_positive,
    check_probability,
    check_in_range,
    check_integer,
)

__all__ = [
    "ENUMERATION_K_LIMIT",
    "log1pexp",
    "logistic",
    "inverse_logistic",
    "sigmoid_lack_probability",
    "exact_join_probabilities",
    "enumerate_subset_join_probabilities",
    "RngFactory",
    "as_generator",
    "spawn_generators",
    "BinomialBlockSampler",
    "check_positive",
    "check_probability",
    "check_in_range",
    "check_integer",
]
