"""Access to the bundled example systems.

Five systems cover Pisot/non-Pisot expansions, aperiodic and periodic
behavior, and both support dimensions:

* fibonacci - intervals theta, 1 with theta^2 = theta + 1 (Pisot unit)
* tm        - two unit intervals swapping order, theta = 2
* np26      - intervals 1 and (theta-1)/2 with theta^2 = 2 theta + 5,
              whose conjugate 1 - sqrt(6) lies outside the unit disc
* chair     - four rotations of the L-tromino, theta = 2
* grid2     - the unit square splitting into four, theta = 2, with
              declared periods generating the integer lattice
"""

from __future__ import annotations

from importlib import resources

from .systemfile import parse_system

NAMES = ("fibonacci", "tm", "np26", "chair", "grid2")


def corpus_path(name: str):
    if name not in NAMES:
        raise KeyError(f"unknown bundled system {name!r}; have {NAMES}")
    return resources.files("tilingspectra").joinpath(f"systems/{name}.json")


def load(name: str):
    """Parse and validate a bundled system by name."""
    with resources.as_file(corpus_path(name)) as p:
        return parse_system(p)
