"""Perf smoke check: route-once/retarget-many CPM compilation.

A JigSaw-M plan compiles one CPM per subset for every size in 2..5 —
dozens of programs that share a single measurement-free body.  The seed
path pushed each of them through placement+SABRE from scratch; the staged
pipeline routes the global candidates and the deterministic CPM layout
pool once per plan and re-runs only the cheap MeasureRetarget/EpsScore
stages per subset.

Routing is deterministic per content key, so instead of timing wall clock
we count ``route()`` invocations via the per-stage counters and assert

* >= 3x fewer route calls than the legacy (stage-cache-disabled) path,
* the route-once invariant: every route call creates a distinct
  ``(body, layout)`` stage entry — no pair is ever routed twice,
* the two paths produce **bit-for-bit identical** plans.
"""

from __future__ import annotations

import os

from repro.core import JigSaw, JigSawMConfig
from repro.compiler.pipeline import STAGE_ROUTE
from repro.devices import ibmq_toronto
from repro.runtime import CompilationCache, executable_fingerprint
from repro.workloads import workload_by_name

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

SEED = 0
TOTAL_TRIALS = 32_768
#: The standard sweep shape: >= 3 workloads spanning program families.
WORKLOAD_NAMES = ("BV-6", "GHZ-8", "QAOA-8 p1")


def _plan_workloads(make_cache):
    """One JigSaw-M plan per workload; returns (per-workload rows, plans)."""
    rows = []
    plans = []
    for name in WORKLOAD_NAMES:
        runner = JigSaw(
            ibmq_toronto(),
            JigSawMConfig(exact=True),
            seed=SEED,
            cache=make_cache(),
        )
        plan = runner.plan(
            workload_by_name(name).circuit, total_trials=TOTAL_TRIALS
        )
        counters = runner.metrics.snapshot()["counters"]
        rows.append(
            {
                "workload": name,
                "num_cpms": plan.num_cpms,
                "route_calls": counters.get("compiler.route_calls", 0),
                "route_hits": counters.get("compiler.route_hits", 0),
                "retargets": counters.get("compiler.retargets", 0),
                "route_entries": runner.pipeline.cache.stage_entries(
                    STAGE_ROUTE
                ),
            }
        )
        plans.append(plan)
    return rows, plans


def _plan_fingerprints(plan):
    return [
        executable_fingerprint(e)
        for e in [plan.global_executable] + plan.cpm_executables
    ]


def test_route_once_retarget_many():
    legacy_rows, legacy_plans = _plan_workloads(CompilationCache.disabled)
    pipeline_rows, pipeline_plans = _plan_workloads(CompilationCache)

    # Bit-for-bit identical ExecutionPlans under the default seeds.
    for legacy_plan, pipeline_plan in zip(legacy_plans, pipeline_plans):
        assert _plan_fingerprints(legacy_plan) == _plan_fingerprints(
            pipeline_plan
        )
        assert legacy_plan.subsets == pipeline_plan.subsets

    legacy_total = sum(row["route_calls"] for row in legacy_rows)
    pipeline_total = sum(row["route_calls"] for row in pipeline_rows)

    # The headline: >= 3x fewer route() calls than the legacy path.
    assert pipeline_total * 3 <= legacy_total, (
        f"route-once saved too little: {pipeline_total} vs {legacy_total}"
    )

    for row in pipeline_rows:
        # Route-once invariant: every call created a distinct stage entry,
        # so no (body, layout) pair was routed twice within a plan.
        assert row["route_calls"] == row["route_entries"], row
        # The bulk of the plan's CPMs rode the cache, not the router.
        assert row["route_hits"] > row["route_calls"], row

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(
        os.path.join(RESULTS_DIR, "compiler_pipeline.txt"), "w"
    ) as handle:
        handle.write(
            "JigSaw-M sweep route() calls (legacy vs staged pipeline)\n"
            f"workloads: {', '.join(WORKLOAD_NAMES)}\n"
            f"trials/plan: {TOTAL_TRIALS}, seed: {SEED}\n\n"
            "workload      CPMs  legacy-routes  pipeline-routes  retargets\n"
        )
        for legacy_row, pipeline_row in zip(legacy_rows, pipeline_rows):
            handle.write(
                f"{pipeline_row['workload']:<12}"
                f"{pipeline_row['num_cpms']:>6}"
                f"{legacy_row['route_calls']:>15}"
                f"{pipeline_row['route_calls']:>17}"
                f"{pipeline_row['retargets']:>11}\n"
            )
        handle.write(
            f"\ntotal routes: {legacy_total} -> {pipeline_total} "
            f"({legacy_total / pipeline_total:.1f}x fewer; plans "
            "bit-for-bit identical)\n"
        )
