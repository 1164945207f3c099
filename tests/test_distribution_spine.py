"""Tests for the array-native outcome spine.

The data plane stores distributions as aligned ``codes``/``probs`` arrays
(see ``docs/ARCHITECTURE.md``, "Data plane"); bitstrings are a lazy edge
view.  These tests pin the spine down from three directions:

* code <-> string round-trips are exact at every supported width;
* the vectorised operations (marginal, metrics, reconstruction) agree
  with straightforward per-key dict reference implementations on
  randomized sparse supports;
* million-shot sampling counts in bounded memory (per-chunk code
  collapse) and conserves every trial.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.core import PMF, Marginal, bayesian_update
from repro.core.pmf import aligned_probs, hellinger_pmfs
from repro.exceptions import PMFError
from repro.metrics import (
    fidelity,
    hellinger,
    total_variation_distance,
)
from repro.noise import NoiseModel, NoisySampler
from repro.utils.bits import (
    MAX_CODE_BITS,
    codes_to_strings,
    extract_bits,
    gather_code_bits,
    strings_to_codes,
)
from tests.conftest import make_line_device
from tests.metrics_oracle import hellinger as dict_hellinger
from tests.metrics_oracle import tvd as dict_tvd
from tests.test_noise import compile_identity


# ---------------------------------------------------------------------------
# Property tests: code <-> string round-trip at widths 1..24
# ---------------------------------------------------------------------------


@st.composite
def codes_and_width(draw):
    width = draw(st.integers(min_value=1, max_value=24))
    codes = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << width) - 1),
            min_size=1,
            max_size=64,
            unique=True,
        )
    )
    return sorted(codes), width


@given(codes_and_width())
@settings(max_examples=200)
def test_code_string_round_trip(case):
    codes, width = case
    strings = codes_to_strings(np.array(codes, dtype=np.int64), width)
    assert strings == [format(code, f"0{width}b") for code in codes]
    back = strings_to_codes(strings, width)
    assert back.tolist() == codes


@given(codes_and_width())
@settings(max_examples=100)
def test_pmf_round_trip_codes_vs_strings(case):
    codes, width = case
    probs = np.linspace(1.0, 2.0, len(codes))
    from_codes = PMF.from_codes(np.array(codes), probs, width)
    from_strings = PMF(
        {format(code, f"0{width}b"): p for code, p in zip(codes, probs)}
    )
    assert from_codes.num_bits == from_strings.num_bits == width
    assert from_codes.codes.tolist() == from_strings.codes.tolist()
    assert np.allclose(from_codes.probs, from_strings.probs)
    assert from_codes.as_dict() == pytest.approx(from_strings.as_dict())


def test_strings_to_codes_rejects_junk():
    with pytest.raises(ValueError):
        strings_to_codes(["0x"], 2)
    with pytest.raises(ValueError):
        strings_to_codes(["01", "011"], 2)
    with pytest.raises(ValueError):
        strings_to_codes(["+1"], 2)
    with pytest.raises(ValueError):
        strings_to_codes(["01"], MAX_CODE_BITS + 1)


def test_gather_code_bits_matches_extract_bits():
    rng = np.random.default_rng(7)
    width = 12
    codes = rng.integers(0, 1 << width, size=200, dtype=np.int64)
    positions = [0, 3, 7, 11]
    projected = gather_code_bits(codes, positions)
    for code, proj in zip(codes, projected):
        key = format(int(code), f"0{width}b")
        assert format(int(proj), f"0{len(positions)}b") == extract_bits(
            key, positions
        )


def test_pmf_width_limit():
    with pytest.raises(PMFError):
        PMF.from_codes(np.array([0]), np.array([1.0]), MAX_CODE_BITS + 1)
    wide = PMF({"0" * 62 + "1": 1.0})
    assert wide.num_bits == 63
    assert wide.codes.tolist() == [1]


# ---------------------------------------------------------------------------
# Old-vs-new equivalence on randomized sparse supports
# ---------------------------------------------------------------------------


def random_sparse_pmf(rng, width, support):
    codes = rng.choice(1 << width, size=support, replace=False)
    probs = rng.random(support) + 1e-3
    return PMF.from_codes(codes.astype(np.int64), probs, width)


def dict_marginal(dist, positions):
    grouped = {}
    for key, value in dist.items():
        sub = extract_bits(key, positions)
        grouped[sub] = grouped.get(sub, 0.0) + value
    total = sum(grouped.values())
    return {k: v / total for k, v in grouped.items()}


def dict_bayesian_update(prior, marginal):
    """Per-key Algorithm 1 reference: group, coefficients, odds, normalise."""
    groups = {}
    for key, value in prior.items():
        groups.setdefault(extract_bits(key, marginal.qubits), 0.0)
        groups[extract_bits(key, marginal.qubits)] += value
    posterior = {}
    for key, value in prior.items():
        sub = extract_bits(key, marginal.qubits)
        p_m = min(marginal.pmf.prob(sub), 1.0 - 1e-12)
        if p_m > 0.0 and groups[sub] > 0.0:
            posterior[key] = value / groups[sub] * (p_m / (1.0 - p_m))
        else:
            posterior[key] = value
    total = sum(posterior.values())
    return {k: v / total for k, v in posterior.items()}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_marginal_matches_dict_reference(seed):
    rng = np.random.default_rng(seed)
    pmf = random_sparse_pmf(rng, width=14, support=300)
    positions = sorted(
        rng.choice(14, size=4, replace=False).astype(int).tolist()
    )
    expected = dict_marginal(pmf.as_dict(), positions)
    assert pmf.marginal(positions).as_dict() == pytest.approx(expected)


@pytest.mark.parametrize("seed", [3, 4])
def test_metrics_match_dict_reference(seed):
    rng = np.random.default_rng(seed)
    p = random_sparse_pmf(rng, width=12, support=250)
    q = random_sparse_pmf(rng, width=12, support=250)
    pd, qd = p.as_dict(), q.as_dict()
    assert total_variation_distance(p, q) == pytest.approx(dict_tvd(pd, qd))
    assert hellinger(p, q) == pytest.approx(dict_hellinger(pd, qd))
    assert fidelity(p, q) == pytest.approx(1.0 - dict_tvd(pd, qd))


@pytest.mark.parametrize("seed", [5, 6])
def test_metrics_mixed_pmf_and_dict_operands(seed):
    # A plain bitstring dict converts at the edge, then rides the same
    # merge; passed raw it is refused.
    rng = np.random.default_rng(seed)
    p = random_sparse_pmf(rng, width=10, support=100)
    q = random_sparse_pmf(rng, width=10, support=100)
    qd = q.as_dict()
    assert total_variation_distance(
        p, PMF(qd, normalize=False)
    ) == pytest.approx(dict_tvd(p.as_dict(), qd))
    assert hellinger(PMF(qd, normalize=False), p) == pytest.approx(
        dict_hellinger(qd, p.as_dict())
    )
    with pytest.raises(TypeError, match="PMF"):
        total_variation_distance(p, qd)


@pytest.mark.parametrize("seed", [7, 8])
def test_bayesian_update_matches_dict_reference(seed):
    rng = np.random.default_rng(seed)
    prior = random_sparse_pmf(rng, width=10, support=200)
    qubits = (2, 5)
    marginal = Marginal(qubits, prior.marginal(qubits))
    expected = dict_bayesian_update(prior.as_dict(), marginal)
    assert bayesian_update(prior, marginal).as_dict() == pytest.approx(expected)


def test_bayesian_update_normalises_unnormalised_prior():
    raw = {"00": 2.0, "01": 2.0, "11": 2.0}
    marginal = Marginal((0,), PMF({"0": 0.9, "1": 0.1}))
    scaled = bayesian_update(PMF(raw, normalize=False), marginal)
    unit = bayesian_update(PMF(raw, normalize=True), marginal)
    assert scaled.as_dict() == pytest.approx(unit.as_dict())


def test_from_codes_leaves_caller_arrays_writable():
    codes = np.array([1, 3], dtype=np.int64)
    probs = np.array([0.5, 0.5])
    pmf = PMF.from_codes(codes, probs, 2)
    codes[0] = 0  # caller's array is still its own
    probs[0] = 0.0
    assert pmf.codes.tolist() == [1, 3]
    assert pmf.probs.tolist() == [0.5, 0.5]


def test_aligned_probs_merges_supports():
    p = PMF({"00": 0.5, "01": 0.5})
    q = PMF({"01": 0.25, "11": 0.75})
    pa, qa = aligned_probs(p, q)
    assert pa.tolist() == [0.5, 0.5, 0.0]
    assert qa.tolist() == [0.0, 0.25, 0.75]
    assert hellinger_pmfs(p, p) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# Million-shot sampling in bounded memory
# ---------------------------------------------------------------------------


def test_million_shot_counting_is_chunked_and_conserving():
    device = make_line_device(num_qubits=4, readout=0.04, crosstalk=0.002)
    noise = NoiseModel.from_device(device)
    qc = QuantumCircuit(4).h(0).cx(0, 1).cx(1, 2).cx(2, 3).measure_all()
    executable = compile_identity(qc, device)
    executable.ideal_probabilities()

    shots = 1_000_000
    chunk_shots = 1 << 14
    sampler = NoisySampler(noise, seed=11, chunk_shots=chunk_shots)

    tracemalloc.start()
    try:
        histogram = sampler.run_codes(executable, shots)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    # Streamed in bounded blocks: the run peaks far below one unchunked
    # (shots, k) float64 readout-draw matrix (32 MB here), and every
    # trial landed in the histogram.
    assert peak < shots * 4 * 8 / 4
    assert histogram.total == shots
    assert histogram.counts.dtype == np.int64
    assert (np.diff(histogram.codes) > 0).all()
    # The whole support fits the 4-bit register.
    assert histogram.codes.min() >= 0 and histogram.codes.max() < 16

    # The string edge agrees with the array-native histogram.
    as_dict = histogram.to_dict()
    assert sum(as_dict.values()) == shots
    assert set(as_dict) == set(codes_to_strings(histogram.codes, 4))

    # And the identical seed through the dict API gives the same counts.
    reference = NoisySampler(noise, seed=11, chunk_shots=chunk_shots)
    assert reference.run(executable, shots) == as_dict
