"""Tests for the sparse PMF and Marginal types."""

import json
import math
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import PMF, Marginal
from repro.exceptions import PayloadError, PMFError, ReproError


class TestConstruction:
    def test_normalises_by_default(self):
        pmf = PMF({"0": 1.0, "1": 3.0})
        assert pmf.prob("1") == pytest.approx(0.75)

    def test_no_normalise_keeps_values(self):
        pmf = PMF({"0": 0.2, "1": 0.2}, normalize=False)
        assert pmf.total() == pytest.approx(0.4)

    def test_zero_entries_dropped(self):
        pmf = PMF({"00": 0.5, "01": 0.0, "11": 0.5})
        assert "01" not in pmf.as_dict()
        assert pmf.support_size == 2

    def test_empty_rejected(self):
        with pytest.raises(PMFError):
            PMF({})

    def test_all_zero_rejected(self):
        with pytest.raises(PMFError):
            PMF({"0": 0.0})

    def test_negative_rejected(self):
        with pytest.raises(PMFError):
            PMF({"0": -0.1, "1": 1.1})

    def test_inconsistent_widths_rejected(self):
        with pytest.raises(PMFError):
            PMF({"0": 0.5, "01": 0.5})

    def test_non_bitstring_rejected(self):
        with pytest.raises(PMFError):
            PMF({"0x": 1.0})

    def test_num_bits_check(self):
        with pytest.raises(PMFError):
            PMF({"01": 1.0}, num_bits=3)

    def test_from_counts(self):
        pmf = PMF({"00": 750, "11": 250})
        assert pmf.prob("00") == pytest.approx(0.75)

    def test_uniform(self):
        pmf = PMF.uniform(["00", "01", "10"])
        assert pmf.prob("01") == pytest.approx(1 / 3)


class TestQueries:
    def test_prob_default_zero(self):
        pmf = PMF({"0": 1.0})
        assert pmf.prob("1") == 0.0

    def test_getitem_raises_for_missing(self):
        with pytest.raises(KeyError):
            PMF({"0": 1.0}).as_dict()["1"]

    def test_top_and_mode(self):
        pmf = PMF({"00": 0.5, "01": 0.3, "10": 0.2})
        assert pmf.mode() == "00"
        assert [k for k, _ in pmf.top(2)] == ["00", "01"]

    def test_top_ties_deterministic(self):
        pmf = PMF({"00": 0.5, "11": 0.5})
        assert pmf.top(1)[0][0] == "00"  # lexicographic tie-break

    def test_len_and_iter(self):
        pmf = PMF({"0": 0.4, "1": 0.6})
        assert len(pmf) == 2
        assert set(pmf.as_dict()) == {"0", "1"}


class TestValueNotMapping:
    """A PMF compares by value but has no bitstring-indexed view."""

    def test_equal_three_ways(self):
        from_dict = PMF({"00": 0.25, "10": 0.75})
        from_codes = PMF.from_codes(np.array([2, 0]), np.array([0.75, 0.25]), 2)
        from_payload = PMF.from_payload(
            {"codes": [0, 2], "probs": [0.25, 0.75], "num_bits": 2}
        )
        assert from_dict == from_codes
        assert from_codes == from_payload
        assert from_payload == from_dict
        assert not from_dict != from_codes

    def test_width_codes_or_probs_differ(self):
        base = PMF({"00": 0.25, "10": 0.75})
        assert base != PMF({"000": 0.25, "010": 0.75})
        assert base != PMF({"00": 0.25, "11": 0.75})
        assert base != PMF({"00": 0.5, "10": 0.5})
        assert base != base.as_dict()

    def test_marginal_equality_follows(self):
        marginal = Marginal((0, 2), PMF({"01": 0.5, "10": 0.5}))
        same = PMF.from_codes(np.array([2, 1]), np.array([0.5, 0.5]), 2)
        assert marginal == Marginal((2, 0), same)
        assert marginal != Marginal((0, 2), PMF({"01": 0.25, "10": 0.75}))
        assert marginal != Marginal((0, 1), marginal.pmf)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(PMF({"0": 1.0}))

    def test_not_a_mapping(self):
        assert not issubclass(PMF, Mapping)

    @pytest.mark.parametrize(
        "use",
        [lambda pmf: pmf["0"], iter, dict, list, PMF, lambda pmf: "0" in pmf],
        ids=["getitem", "iter", "dict", "list", "PMF", "contains"],
    )
    def test_string_view_raises(self, use):
        with pytest.raises(TypeError):
            use(PMF({"0": 0.5, "1": 0.5}))


class TestMarginalisation:
    def test_paper_marginal(self):
        """Marginalising the Fig. 6 global PMF onto (Q1, Q0)."""
        pmf = PMF(
            {
                "000": 0.10, "001": 0.10, "010": 0.15, "011": 0.15,
                "100": 0.10, "101": 0.05, "110": 0.15, "111": 0.20,
            }
        )
        marg = pmf.marginal([1, 0]).as_dict()
        assert marg["00"] == pytest.approx(0.20)
        assert marg["01"] == pytest.approx(0.15)
        assert marg["10"] == pytest.approx(0.30)
        assert marg["11"] == pytest.approx(0.35)

    def test_single_bit_marginal(self):
        pmf = PMF({"10": 0.7, "01": 0.3})
        assert pmf.marginal([0]).prob("0") == pytest.approx(0.7)

    def test_invalid_positions(self):
        pmf = PMF({"01": 1.0})
        with pytest.raises(PMFError):
            pmf.marginal([5])
        with pytest.raises(PMFError):
            pmf.marginal([])
        with pytest.raises(PMFError):
            pmf.marginal([0, 0])

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=15).map(lambda i: format(i, "04b")),
            st.floats(min_value=0.01, max_value=1.0),
            min_size=1,
            max_size=16,
        )
    )
    def test_marginal_mass_conserved(self, raw):
        pmf = PMF(raw)
        marg = pmf.marginal([2, 0])
        assert marg.probs.sum() == pytest.approx(1.0)

    def test_restrict(self):
        pmf = PMF({"00": 0.5, "01": 0.3, "10": 0.2})
        sub = pmf.restrict(["00", "10"])
        assert sub.prob("00") == pytest.approx(0.5 / 0.7)

    def test_restrict_empty_rejected(self):
        with pytest.raises(PMFError):
            PMF({"0": 1.0}).restrict(["1"])


class TestMarginalType:
    def test_qubits_sorted(self):
        marginal = Marginal((3, 1), PMF({"00": 0.5, "11": 0.5}))
        assert marginal.qubits == (1, 3)

    def test_width_mismatch_rejected(self):
        with pytest.raises(PMFError):
            Marginal((0, 1, 2), PMF({"00": 1.0}))

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(PMFError):
            Marginal((1, 1), PMF({"00": 1.0}))


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
_PAYLOADS = st.one_of(
    _JSON,
    st.fixed_dictionaries(
        {
            "codes": st.lists(st.integers(-2, 2**64) | _JSON, max_size=6),
            "probs": st.lists(st.floats() | st.integers() | _JSON, max_size=6),
            "num_bits": st.integers(-1, 70) | _JSON,
        },
        optional={"payload_version": st.integers(0, 2) | _JSON},
    ),
    st.builds(
        lambda codes, probs, num_bits: {
            "codes": codes, "probs": probs[: len(codes)], "num_bits": num_bits
        },
        st.lists(st.integers(0, 7), min_size=1, max_size=6),
        st.lists(st.floats(min_value=0.0), min_size=6, max_size=6),
        st.integers(1, 3),
    ),
)


@st.composite
def _normalized_pmfs(draw):
    """A PMF built through ``from_codes(..., normalize=True)``."""
    num_bits = draw(st.integers(1, 16))
    codes = draw(
        st.lists(st.integers(0, (1 << num_bits) - 1), min_size=1, max_size=32)
    )
    probs = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=len(codes),
            max_size=len(codes),
        )
    )
    assume(any(probs))
    return PMF.from_codes(
        np.asarray(codes, dtype=np.int64),
        np.asarray(probs),
        num_bits,
        normalize=True,
    )


class TestPayload:
    @pytest.mark.parametrize(
        "payload",
        [
            [0, 1],
            {"codes": [0], "probs": [1.0]},
            {"codes": [0], "probs": [math.inf], "num_bits": 1},
            {"codes": [0], "probs": [math.nan], "num_bits": 1},
            {"codes": [0.7, 1], "probs": [0.5, 0.5], "num_bits": 1},
            {"codes": [0], "probs": [1.0], "num_bits": 1.0},
            {"codes": [0], "probs": ["1"], "num_bits": 1},
            {"codes": [2**70], "probs": [1.0], "num_bits": 63},
            {"codes": [0, 1], "probs": [1e308, 1e308], "num_bits": 1},
        ],
    )
    def test_malformed_payload_rejected(self, payload):
        with pytest.raises(PayloadError):
            PMF.from_payload(payload)

    @settings(max_examples=400, deadline=None)
    @given(_PAYLOADS)
    def test_any_json_payload_decodes_or_raises(self, payload):
        payload = json.loads(json.dumps(payload))
        try:
            pmf = PMF.from_payload(payload)
        except ReproError:
            return
        assert np.all(np.isfinite(pmf.probs))
        assert pmf.probs.sum() == pytest.approx(1.0)

    @settings(max_examples=300, deadline=None)
    @given(_normalized_pmfs())
    def test_normalized_pmf_round_trips_to_an_equal_pmf(self, pmf):
        payload = json.loads(json.dumps(pmf.to_payload()))
        assert PMF.from_payload(payload) == pmf

    def test_served_edm_output_round_trips_bit_for_bit(self):
        """This output sums to 1 + 2.2e-16: renormalizing it on decode
        would move its values by up to an ulp."""
        from repro.devices import ibmq_toronto
        from repro.runtime import Session
        from repro.workloads import workload_by_name

        with Session(ibmq_toronto(), seed=48) as session:
            pmf = session.run_scheme("edm", workload_by_name("BV-12"))
        assert pmf.probs.sum() != 1.0
        payload = json.loads(json.dumps(pmf.to_payload()))
        assert PMF.from_payload(payload) == pmf
