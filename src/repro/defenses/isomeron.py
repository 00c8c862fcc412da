"""Isomeron model — the paper's state-of-the-art JIT-ROP comparator.

Isomeron (Davi et al., NDSS 2015) keeps *two* variants of the program —
one original, one diversified — and flips a coin at every function call
and return to decide which variant executes next.  A ROP chain built
from one variant's addresses breaks whenever the flip lands on the other
variant: each gadget contributes one bit of entropy.

Two aspects are modelled, from the published description:

* **security** — the per-gadget coin flip and the same-ISA variant
  diversifier (a shuffled register/stack assignment of the same code),
  used by the tailored-attack analysis (Figures 7 and 8);
* **performance** — the execution-path diversifier intercepts every call
  and return ("program shepherding"), which both costs a dispatch and
  renders branch prediction ineffective (the paper quotes Isomeron's
  authors on exactly this), used by the Figure 14 comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..perf.timing import TimingModel

#: cycles per call/return for the diversifier's twin-page lookup + flip
DIVERSIFIER_DISPATCH_CYCLES = 22.0


@dataclass
class IsomeronStats:
    coin_flips: int = 0
    variant_switches: int = 0
    calls_intercepted: int = 0


class IsomeronExecutionModel:
    """Per-run Isomeron model: coin flips + timing side-effects.

    Build it over a :class:`TimingModel` constructed with
    ``disable_branch_prediction=True``: it installs :meth:`intercept` as
    that model's diversifier, so every call and return the model charges
    also pays the dispatch cost and flips the coin.
    """

    def __init__(self, timing: TimingModel,
                 diversification_probability: float = 0.5,
                 seed: int = 0):
        self.timing = timing
        self.probability = diversification_probability
        self.stats = IsomeronStats()
        self._rng = random.Random(f"isomeron:{seed}")
        timing.diversifier = self.intercept

    def intercept(self) -> float:
        """One intercepted call or return; returns its dispatch cycles."""
        self.stats.calls_intercepted += 1
        self.stats.coin_flips += 1
        if self._rng.random() < self.probability:
            self.stats.variant_switches += 1
        return DIVERSIFIER_DISPATCH_CYCLES


def isomeron_entropy(chain_length: int) -> float:
    """Number of states a chain must guess: one bit per gadget."""
    return 2.0 ** chain_length


def chain_success_probability(chain_length: int,
                              diversification_probability: float) -> float:
    """P(an attacker's single-variant chain of length k runs intact).

    Each link survives if the coin leaves execution on the variant the
    chain was built for: probability ``1 - p/2`` per flip under a fair
    mapping of flips to variants.
    """
    per_link = 1.0 - diversification_probability / 2.0
    return per_link ** chain_length
