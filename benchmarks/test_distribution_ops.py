"""Distribution-ops throughput: array-native spine vs string-keyed baseline.

The PR that introduced the array-native data plane (integer outcome codes
+ probability arrays inside :class:`~repro.core.pmf.PMF`) claims the hot
distribution operations stop paying per-string Python costs.  This bench
*measures* that claim on a large-support sweep — the regime the §7
scalability story cares about (supports of 10^5 entries, i.e. million-shot
workloads) — against faithful copies of the historical string-keyed
implementations:

* **counting**  — collapsing one million sampled trials into a histogram
  (``np.unique`` over codes vs per-shot string dict counting);
* **marginal**  — marginalising a large global PMF onto a subset
  (bit-gather + group-sum vs per-key ``extract_bits`` loop);
* **metrics**   — TVD + Hellinger between two large PMFs (sorted-support
  merge vs per-key set-union loops);
* **reconstruct** — one Bayesian update (native code arrays vs the old
  string->int64->string round-trip on every public call).

The sweep asserts a >= 5x aggregate speedup and prints the table (wall
clock measured to stdout).
"""

import math
import time

import numpy as np

from repro.core import PMF, Marginal, bayesian_update
from repro.metrics import hellinger, total_variation_distance
from repro.utils.bits import (
    bit_array_to_indices,
    extract_bits,
    indices_to_bit_array,
)

NUM_BITS = 20
SUPPORT = 100_000
SHOTS = 1_000_000
REPEATS = 3


# ---------------------------------------------------------------------------
# String-keyed baseline: faithful copies of the pre-refactor hot paths
# ---------------------------------------------------------------------------


def baseline_count_strings(bits: np.ndarray) -> dict:
    """Old ``NoisySampler._sample_chunk`` tail: per-shot string counting."""
    flipped = bits[:, ::-1]
    counts: dict = {}
    for row in flipped:
        key = "".join("1" if b else "0" for b in row)
        counts[key] = counts.get(key, 0) + 1
    return counts


def baseline_marginal(dist: dict, positions) -> dict:
    """Old ``PMF.marginal``: per-key ``extract_bits`` + dict grouping."""
    grouped: dict = {}
    for key, value in dist.items():
        sub = extract_bits(key, positions)
        grouped[sub] = grouped.get(sub, 0.0) + value
    total = sum(grouped.values())
    return {k: v / total for k, v in grouped.items()}


def baseline_tvd(p: dict, q: dict) -> float:
    """Old ``total_variation_distance``: per-key set-union loop."""
    return 0.5 * sum(
        abs(p.get(key, 0.0) - q.get(key, 0.0)) for key in set(p) | set(q)
    )


def baseline_hellinger(p: dict, q: dict) -> float:
    """Old ``hellinger``: per-key set-union loop."""
    total = 0.0
    for key in set(p) | set(q):
        diff = math.sqrt(p.get(key, 0.0)) - math.sqrt(q.get(key, 0.0))
        total += diff * diff
    return math.sqrt(total / 2.0)


def baseline_bayesian_update(prior: dict, qubits, marginal_dist: dict) -> dict:
    """Old ``bayesian_update``: string->int64 support->string round-trip.

    ``marginal_dist`` is the marginal's PMF as a bitstring dict over
    ``qubits`` (ascending), rendered by the caller outside the timing.
    """
    # _Support.from_pmf
    keys = list(prior)
    codes = np.fromiter(
        (int(key, 2) for key in keys), dtype=np.int64, count=len(keys)
    )
    probs = np.fromiter(
        (prior[key] for key in keys), dtype=np.float64, count=len(keys)
    )
    probs = probs / probs.sum()
    # projections + marginal vector (the vectorised middle was shared)
    projections = np.zeros(len(codes), dtype=np.int64)
    for j, position in enumerate(qubits):
        projections |= ((codes >> position) & 1) << j
    vec = np.zeros(1 << len(qubits))
    for key, value in marginal_dist.items():
        vec[int(key, 2)] = value
    group_mass = np.bincount(projections, weights=probs, minlength=len(vec))
    observed = vec > 0.0
    clipped = np.minimum(vec, 1.0 - 1e-12)
    odds = np.where(observed, clipped / (1.0 - clipped), 0.0)
    mass = group_mass[projections]
    entry_observed = observed[projections] & (mass > 0.0)
    updated = np.where(
        entry_observed,
        probs / np.where(mass > 0.0, mass, 1.0) * odds[projections],
        probs,
    )
    updated = updated / updated.sum()
    # _Support.to_pmf
    return {
        format(int(code), f"0{NUM_BITS}b"): float(prob)
        for code, prob in zip(codes, updated)
        if prob > 0.0
    }


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


def timed(fn, *args) -> float:
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def test_distribution_ops_speedup():
    rng = np.random.default_rng(2024)

    # Large-support operands: two sparse 20-bit PMFs plus a trial matrix.
    codes_p = np.sort(
        rng.choice(1 << NUM_BITS, size=SUPPORT, replace=False)
    ).astype(np.int64)
    codes_q = np.sort(
        rng.choice(1 << NUM_BITS, size=SUPPORT, replace=False)
    ).astype(np.int64)
    pmf_p = PMF.from_codes(codes_p, rng.random(SUPPORT) + 1e-3, NUM_BITS)
    pmf_q = PMF.from_codes(codes_q, rng.random(SUPPORT) + 1e-3, NUM_BITS)
    dict_p, dict_q = pmf_p.as_dict(), pmf_q.as_dict()
    positions = [1, 7, 13, 19]
    marginal = Marginal(tuple(positions), pmf_p.marginal(positions))
    dict_marginal = marginal.pmf.as_dict()
    sampled = rng.choice(codes_p, size=SHOTS)
    bits = indices_to_bit_array(sampled, NUM_BITS)

    rows = []

    def record(name, baseline_s, native_s):
        rows.append((name, baseline_s, native_s, baseline_s / native_s))

    record(
        "counting (1M shots)",
        timed(baseline_count_strings, bits),
        timed(lambda b: np.unique(bit_array_to_indices(b), return_counts=True), bits),
    )
    record(
        "marginal (100k support)",
        timed(baseline_marginal, dict_p, positions),
        timed(pmf_p.marginal, positions),
    )
    record(
        "metrics TVD+Hellinger",
        timed(lambda: (baseline_tvd(dict_p, dict_q), baseline_hellinger(dict_p, dict_q))),
        timed(lambda: (total_variation_distance(pmf_p, pmf_q), hellinger(pmf_p, pmf_q))),
    )
    record(
        "bayesian update",
        timed(baseline_bayesian_update, dict_p, marginal.qubits, dict_marginal),
        timed(bayesian_update, pmf_p, marginal),
    )

    # Equivalence spot-checks: same numbers out of both planes.
    assert pmf_p.marginal(positions).as_dict() == _approx_dict(
        baseline_marginal(dict_p, positions)
    )
    assert abs(
        total_variation_distance(pmf_p, pmf_q) - baseline_tvd(dict_p, dict_q)
    ) < 1e-9
    assert bayesian_update(pmf_p, marginal).as_dict() == _approx_dict(
        baseline_bayesian_update(dict_p, marginal.qubits, dict_marginal)
    )

    total_baseline = sum(r[1] for r in rows)
    total_native = sum(r[2] for r in rows)
    sweep_speedup = total_baseline / total_native

    lines = [
        "Distribution-ops throughput: string-keyed baseline vs array-native spine",
        f"operands: {NUM_BITS}-bit PMFs, support {SUPPORT}, {SHOTS} sampled trials",
        "",
        f"{'operation':<26} {'baseline (s)':>13} {'native (s)':>11} {'speedup':>8}",
    ]
    for name, baseline_s, native_s, speedup in rows:
        lines.append(
            f"{name:<26} {baseline_s:>13.4f} {native_s:>11.4f} {speedup:>7.1f}x"
        )
    lines.append("-" * len(lines[-1]))
    lines.append(
        f"{'sweep total':<26} {total_baseline:>13.4f} {total_native:>11.4f} "
        f"{sweep_speedup:>7.1f}x"
    )
    print("\n" + "\n".join(lines))

    assert sweep_speedup >= 5.0, rows


def _approx_dict(expected: dict, rel: float = 1e-9):
    import pytest

    return pytest.approx(expected, rel=rel)
