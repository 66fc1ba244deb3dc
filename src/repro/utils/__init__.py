"""Shared utilities: RNG management, logging, serialization, validation.

These helpers are deliberately dependency-free (numpy only) so every other
subpackage can import them without cycles.
"""

from repro.utils.logging import get_logger
from repro.utils.rng import SeedSequenceFactory, as_generator, spawn_generators
from repro.utils.serialization import load_json, load_npz, save_json, save_npz
from repro.utils.validation import (
    check_adjacency,
    check_budget,
    check_probability,
    check_square,
    check_symmetric,
)

__all__ = [
    "SeedSequenceFactory",
    "as_generator",
    "check_adjacency",
    "check_budget",
    "check_probability",
    "check_square",
    "check_symmetric",
    "get_logger",
    "load_json",
    "load_npz",
    "save_json",
    "save_npz",
    "spawn_generators",
]
