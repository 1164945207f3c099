"""A variational optimizer loop on one compiled plan template.

A VQE/QAOA-style optimizer evaluates the same parameterized circuit at
many parameter points.  The naive loop recompiles the circuit every
iteration; ``Session.run_sweep`` compiles the symbolic template once
(the session caches it, so later waves only bind) and evaluates each
optimizer *wave* of candidate points as one coalesced stacked batch —
identical results, O(1) route calls.

This example maximises the expected MaxCut value of a depth-1 QAOA
ansatz with batched coordinate descent: each round proposes a wave of
neighbours of the incumbent, scores the whole wave in a single
``run_sweep`` call (the energy callback reads cut values off each output
distribution), and keeps the best.

Run:  python examples/vqe_sweep.py
"""

from repro.devices import ibmq_toronto
from repro.runtime import Session
from repro.workloads import qaoa_maxcut
from repro.workloads.qaoa import cut_values


def main() -> None:
    device = ibmq_toronto()
    workload = qaoa_maxcut(8, depth=1)
    edges = workload.metadata["edges"]
    max_cut = workload.metadata["max_cut"]
    cuts = cut_values(workload.num_qubits, edges)

    def energy(pmf) -> float:
        """Negative expected cut of one measured distribution."""
        return -float(cuts[pmf.codes] @ pmf.probs)

    with Session(device, seed=5, exact=True, total_trials=8_192) as session:
        names = [p.name for p in workload.template_circuit.parameters]

        # Start from the workload's pre-optimised angles, deliberately
        # perturbed so the optimizer has work to do.
        point = [workload.default_parameters[name] - 0.4 for name in names]
        step = 0.2
        result = session.run_sweep("jigsaw", workload, [point])
        best = energy(result.output_pmfs[0])
        print(f"Workload: {workload.name}, parameters: {', '.join(names)}")
        print(f"round 0: expected cut {-best:.3f} / {max_cut:.0f}\n")

        for round_index in range(1, 5):
            # One wave: every +-step neighbour of the incumbent, scored
            # in a single stacked batch (one bind per point, no compile).
            wave = [
                [
                    value + direction * step if k == axis else value
                    for k, value in enumerate(point)
                ]
                for axis in range(len(point))
                for direction in (+1.0, -1.0)
            ]
            result = session.run_sweep("jigsaw", workload, wave)
            energies = [energy(pmf) for pmf in result.output_pmfs]
            wave_best = min(range(len(wave)), key=energies.__getitem__)
            if energies[wave_best] < best:
                best = energies[wave_best]
                point = list(result.parameter_sets[wave_best])
            else:
                step /= 2.0
            print(
                f"round {round_index}: expected cut {-best:.3f} at "
                f"({', '.join(f'{v:.3f}' for v in point)}), step {step:.3f}"
            )

        counters = session.telemetry_snapshot()["counters"]
        print(
            f"\ncompile-once: {counters.get('compiler.route_calls', 0)} "
            "route calls for "
            f"{counters.get('compiler.template_binds', 0)} parameter binds "
            "— the optimizer never recompiled."
        )


if __name__ == "__main__":
    main()
