"""Inspect a JigSaw run: marginal quality, convergence, support growth.

Answers three practitioner questions about a run on the synthetic
IBMQ-Toronto model, using only the public PMF and reconstruction API:

1. Are the CPM marginals really better than marginals derived from the
   global PMF?  (The paper's §4.2 premise.)
2. How fast does the Bayesian reconstruction converge?  (§4.3's
   Hellinger-distance termination rule.)
3. How sparse is the global PMF?  (§7.1's ε = entries / trials.)

Run:  python examples/reconstruction_diagnostics.py
"""

from repro.circuits import draw
from repro.core import (
    JigSaw,
    JigSawConfig,
    bayesian_reconstruction_round,
    hellinger_distance,
)
from repro.devices import ibmq_toronto
from repro.metrics import total_variation_distance
from repro.workloads import ghz


def main() -> None:
    device = ibmq_toronto()
    workload = ghz(8)
    print(f"{workload.name} on {device.name}:\n")
    print(draw(workload.circuit))

    jigsaw = JigSaw(device, JigSawConfig(exact=False), seed=17)
    plan = jigsaw.plan(workload.circuit, total_trials=65_536)
    result = jigsaw.execute(plan)

    print("\n1. CPM marginal quality (TVD to the ideal marginal):")
    print(f"   {'subset':10s} {'CPM':>8s} {'from global':>12s}  verdict")
    ideal = workload.ideal_distribution()
    for marginal in result.marginals:
        ideal_marginal = ideal.marginal(marginal.qubits)
        cpm = total_variation_distance(marginal.pmf, ideal_marginal)
        derived = total_variation_distance(
            result.global_pmf.marginal(marginal.qubits), ideal_marginal
        )
        verdict = "CPM wins" if cpm <= derived else "global wins"
        print(
            f"   {str(marginal.qubits):10s} {cpm:8.4f} {derived:12.4f}  "
            f"{verdict}"
        )

    print("\n2. Reconstruction convergence (Hellinger distance per round):")
    current = result.global_pmf
    for round_index in range(1, 17):
        updated = bayesian_reconstruction_round(current, result.marginals)
        distance = hellinger_distance(current, updated)
        bar = "#" * max(1, int(distance * 200))
        print(f"   round {round_index}: {distance:.6f} {bar}")
        current = updated
        if distance < 1e-12:
            break

    print("\n3. Global-PMF sparsity:")
    support = result.global_pmf.support_size
    outcomes = 1 << result.global_pmf.num_bits
    print(f"   support {support} of {outcomes} possible outcomes "
          f"({100 * support / outcomes:.1f} %)")
    print(f"   epsilon = support / trials = "
          f"{support / result.global_trials:.4f}")


if __name__ == "__main__":
    main()
