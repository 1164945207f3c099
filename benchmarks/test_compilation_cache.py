"""Perf smoke check: the compilation cache cuts transpile work in sweeps.

A scheme-comparison sweep (the shape of Figure 8 / Table 4: several
workloads x several schemes on one device) re-plans the JigSaw pipeline
for the same program repeatedly — once for ``jigsaw`` and once inside
``jigsaw_mbm`` at minimum.  The seed path recompiled every time; the
runtime's :class:`~repro.runtime.cache.CompilationCache` plans each
(program, config) once.

Compilation is deterministic per seed, so instead of timing wall clock
we count ``CompilerPipeline.compile`` / ``compile_cpm`` invocations — the
dominant planning cost, the session's ``compiler.compiles`` counter — and
assert the cached sweep performs **strictly fewer** of them than the
same sweep on ``CompilationCache.disabled()``, with the savings visible
in the cache's hit counters.
"""

from __future__ import annotations

import os

from repro.devices import ibmq_toronto
from repro.runtime import CompilationCache, Session
from repro.workloads import workload_by_name

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

SEED = 0
#: >= 3 workloads, as the sweep acceptance requires.
WORKLOAD_NAMES = ("BV-6", "GHZ-8", "QAOA-8 p1")
#: The jigsaw-family schemes replan per scheme; baseline/mbm share the
#: session's global compilation as in the paper's methodology.
SCHEMES = ("baseline", "jigsaw", "jigsaw_mbm", "mbm")


def run_sweep(cache: CompilationCache) -> int:
    """Run the scheme-comparison sweep; returns transpile invocations."""
    session = Session(ibmq_toronto(), seed=SEED, exact=True, cache=cache)
    for name in WORKLOAD_NAMES:
        workload = workload_by_name(name)
        for scheme in SCHEMES:
            session.run_scheme(scheme, workload)
    return session.telemetry_snapshot()["counters"]["compiler.compiles"]


def test_cached_sweep_transpiles_strictly_less():
    uncached_calls = run_sweep(CompilationCache.disabled())
    cached_calls = run_sweep(CompilationCache())

    # The plan cache must save at least one full CPM compilation pass per
    # workload (jigsaw_mbm reuses jigsaw's plan), i.e. strictly fewer
    # transpile calls — not merely equal.
    assert cached_calls < uncached_calls, (
        f"cache saved nothing: {cached_calls} vs {uncached_calls}"
    )

    # Quantify: per workload, the second jigsaw-family plan is a hit, so
    # the cached sweep saves >= num_cpms transpiles per workload.  The
    # smallest workload (BV-6 -> 6 outcome bits, 6 CPMs with wraparound)
    # bounds the expected saving from below.
    assert uncached_calls - cached_calls >= 6 * len(WORKLOAD_NAMES)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(
        os.path.join(RESULTS_DIR, "compilation_cache.txt"), "w"
    ) as handle:
        handle.write(
            "Scheme-comparison sweep transpile() calls\n"
            f"workloads: {', '.join(WORKLOAD_NAMES)}\n"
            f"schemes:   {', '.join(SCHEMES)}\n"
            f"uncached (seed path): {uncached_calls}\n"
            f"cached (runtime):     {cached_calls}\n"
            f"saved:                {uncached_calls - cached_calls}\n"
        )


def test_cache_hits_accounted():
    cache = CompilationCache()
    session = Session(ibmq_toronto(), seed=SEED, exact=True, cache=cache)
    for name in WORKLOAD_NAMES:
        workload = workload_by_name(name)
        session.run_scheme("jigsaw", workload)
        session.run_scheme("jigsaw_mbm", workload)
    # One miss (the first jigsaw plan) and one hit (jigsaw_mbm's replan)
    # per workload.
    counters = session.telemetry_snapshot()["counters"]
    assert counters["cache.plan_misses"] == len(WORKLOAD_NAMES)
    assert counters["cache.plan_hits"] == len(WORKLOAD_NAMES)
