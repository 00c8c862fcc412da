"""Ablation — run-time re-randomization vs load-time randomization.

The paper's observation (1): PSR re-randomizes on every crash/respawn,
which is what breaks Blind-ROP's incremental crash-oracle learning.  The
campaign pits the same attacker against both regimes at equal entropy.
"""

from repro.analysis.reporting import format_table
from repro.attacks.blindrop import campaign


def _run():
    return campaign(secret_bits=12, trials=15, seed=3)


def test_ablation_rerandomization(benchmark):
    stats = benchmark.pedantic(_run, rounds=1, iterations=1)
    print()
    print(format_table(
        ["defense", "success rate", "mean attempts", "analytic expectation"],
        [("load-time", stats["load-time"]["success_rate"],
          f"{stats['load-time']['mean_attempts']:.1f}",
          stats["analytic"]["load-time"]),
         ("psr (re-randomizing)", stats["psr"]["success_rate"],
          f"{stats['psr']['mean_attempts']:.1f}",
          stats["analytic"]["psr"])],
        f"Ablation — Blind-ROP vs re-randomization "
        f"({stats['secret_bits']}-bit secret)"))
    # incremental learning cracks the fixed secret in ~bits attempts
    assert stats["load-time"]["success_rate"] == 1.0
    assert stats["load-time"]["mean_attempts"] < 2 * stats["secret_bits"]
    # re-randomization forces exponential cost
    assert stats["psr"]["mean_attempts"] > \
        stats["load-time"]["mean_attempts"] * 10
    print("At the paper's 87-bit per-gadget entropy the re-randomizing "
          "expectation is 2^87 attempts — infeasible on any hardware.")
