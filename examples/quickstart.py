"""Quickstart: boost a GHZ program's fidelity with JigSaw.

Runs a 10-qubit GHZ state on the synthetic IBMQ-Toronto model three ways —
baseline, JigSaw, and JigSaw-M — and prints the probability of a
successful trial for each, reproducing the paper's headline effect in
under a minute.

The run goes through the runtime API: a :class:`~repro.runtime.Session`
binds the device, an execution backend, and a compilation cache; each
scheme is *planned* (subsets chosen, global circuit + CPMs compiled,
trial budget split) and then *executed* (the whole batch evaluated in
one backend call, then Bayesian reconstruction).

Run:  python examples/quickstart.py
"""

from repro.devices import ibmq_toronto
from repro.metrics import probability_of_successful_trial
from repro.runtime import Session
from repro.workloads import ghz


def main() -> None:
    device = ibmq_toronto()
    workload = ghz(10)
    print(f"Device:   {device}")
    print(f"Workload: {workload.name}, correct outcomes: "
          f"{workload.correct_outcomes}")

    session = Session(device, seed=1, exact=False, total_trials=65_536)

    # JigSaw: half the trials in global mode, half across size-2 CPMs,
    # Bayesian reconstruction at the end (paper Fig. 4).  plan() compiles
    # (and caches); run() batch-executes and reconstructs.
    plan = session.plan(workload, scheme="jigsaw")
    print(f"\nPlan: {plan.describe()}")
    result = session.run(plan)

    baseline_pst = probability_of_successful_trial(
        result.global_pmf, workload.correct_outcomes
    )
    jigsaw_pst = probability_of_successful_trial(
        result.output_pmf, workload.correct_outcomes
    )

    # JigSaw-M: CPMs of sizes 2..5, reconstructed largest-size first.
    # The session reuses the same baseline mapping automatically.
    result_m = session.run(session.plan(workload, scheme="jigsaw_m"))
    jigsaw_m_pst = probability_of_successful_trial(
        result_m.output_pmf, workload.correct_outcomes
    )

    print(f"\nGlobal mapping: {result.global_executable.final_layout}")
    print(f"CPMs compiled:  {len(result.cpm_executables)} (size 2), "
          f"{len(result_m.cpm_executables)} (sizes 2-5)")
    print("\n                    PST       vs baseline")
    print(f"Baseline (global)   {baseline_pst:.4f}    1.00x")
    print(f"JigSaw              {jigsaw_pst:.4f}    "
          f"{jigsaw_pst / baseline_pst:.2f}x")
    print(f"JigSaw-M            {jigsaw_m_pst:.4f}    "
          f"{jigsaw_m_pst / baseline_pst:.2f}x")

    print("\nTop outcomes after reconstruction:")
    for outcome, probability in result_m.output_pmf.top(4):
        marker = " <- correct" if outcome in workload.correct_outcomes else ""
        print(f"  {outcome}  {probability:.4f}{marker}")

    counters = session.telemetry_snapshot()["counters"]
    print(f"\nCompilation cache: {counters['cache.plan_hits']} hits, "
          f"{counters['cache.plan_misses']} misses "
          "(rerun a plan and watch hits grow)")


if __name__ == "__main__":
    main()
