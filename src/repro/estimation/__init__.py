"""Injecting error into the network-size estimate n (§5.2).

Disco needs each node to know (approximately) the network size n: it controls
the landmark probability, the vicinity size, and the sloppy-group prefix
length.  The paper obtains n by synopsis diffusion [36], gossiping small
synopses with neighbors.  This reproduction does not run that gossip: the
``estimate-error`` scenario hands each node an estimate perturbed by
:mod:`repro.estimation.error_injection` instead ("we inject random errors of
up to 60% in this estimation"), which is what the robustness experiment
measures.  ``docs/REPRODUCING.md`` lists synopsis diffusion among the paper
mechanisms no user path runs.
"""

from repro.estimation.error_injection import inject_estimate_error

__all__ = ["inject_estimate_error"]
