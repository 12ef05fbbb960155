"""The paper's primary contribution: NDDisco and Disco.

This package implements §4 of the paper:

* :mod:`repro.core.landmarks` -- random landmark selection with churn
  hysteresis (§4.2 "Landmarks").
* :mod:`repro.core.vicinity` -- each node's Θ(√(n log n))-node vicinity
  (§4.2 "Vicinities").
* :mod:`repro.core.nddisco` -- the name-dependent compact routing protocol
  NDDisco: addresses with explicit routes, stretch-5 first packets,
  stretch-3 later packets (§4.2).
* :mod:`repro.core.shortcutting` -- the shortcutting heuristics of §4.2
  (To-Destination, reverse/forward selection, Up-Down-Stream, Path
  Knowledge) evaluated in Fig. 6.
* :mod:`repro.core.resolution` -- the consistent-hashing name-resolution
  database over the landmark set (§4.3).
* :mod:`repro.core.sloppy_groups` -- hash-prefix sloppy groups (§4.4).
* :mod:`repro.core.overlay` -- the Symphony-style dissemination overlay
  (ring + fingers) (§4.4).
* :mod:`repro.core.dissemination` -- the direction-monotone distance-vector
  dissemination of addresses over that overlay (§4.4).
* :mod:`repro.core.disco` -- the full name-independent protocol, stretch-7
  first packets and stretch-3 later packets (§4.4-§4.5).
"""

from repro.core.landmarks import select_landmarks, landmark_probability
from repro.core.vicinity import compute_vicinities, vicinity_size
from repro.core.nddisco import NDDiscoRouting
from repro.core.disco import DiscoRouting
from repro.core.resolution import LandmarkResolutionDatabase
from repro.core.sloppy_groups import SloppyGrouping, group_prefix_bits
from repro.core.overlay import DisseminationOverlay
from repro.core.dissemination import AddressDissemination, DisseminationReport
from repro.core.shortcutting import ShortcutMode

__all__ = [
    "AddressDissemination",
    "DiscoRouting",
    "DisseminationOverlay",
    "DisseminationReport",
    "LandmarkResolutionDatabase",
    "NDDiscoRouting",
    "ShortcutMode",
    "SloppyGrouping",
    "compute_vicinities",
    "group_prefix_bits",
    "landmark_probability",
    "select_landmarks",
    "vicinity_size",
]
