"""Tests for the Session API: scheme dispatch, caching, budgets."""

import pytest

from repro.core import JigSaw, JigSawConfig, JigSawMConfig
from repro.exceptions import ExperimentError
from repro.runtime import (
    CompilationCache,
    ExecutionRequest,
    LocalBackend,
    Session,
)
from repro.workloads import ghz, qaoa_maxcut
from tests.conftest import make_varied_line_device


@pytest.fixture(scope="module")
def device():
    return make_varied_line_device(num_qubits=8)


class TestSchemeParity:
    """Scheme dispatch by name."""

    def test_unknown_scheme(self, device):
        with pytest.raises(ExperimentError):
            Session(device, seed=0).run_scheme("magic", ghz(4))


class TestPlanRunAPI:
    def test_plan_then_run_matches_run_scheme(self, device):
        workload = ghz(6)
        a = Session(device, seed=0, exact=True)
        b = Session(device, seed=0, exact=True)
        planned = a.run(a.plan(workload, scheme="jigsaw"))
        direct = b.run_scheme("jigsaw", workload)
        assert planned.output_pmf.as_dict() == direct.as_dict()

    def test_plan_then_run_matches_run_scheme_sampled(self, device):
        # plan()+run() and run_scheme() must share one per-scheme RNG
        # stream, or the two paths diverge under sampling.
        workload = ghz(6)
        a = Session(device, seed=4, exact=False, total_trials=4_096)
        b = Session(device, seed=4, exact=False, total_trials=4_096)
        planned = a.run(a.plan(workload, scheme="jigsaw"))
        direct = b.run_scheme("jigsaw", workload)
        assert planned.output_pmf.as_dict() == direct.as_dict()

    def test_plan_jigsaw_m(self, device):
        workload = ghz(6)
        session = Session(device, seed=0, exact=True)
        result = session.run(session.plan(workload, scheme="jigsaw_m"))
        assert result.plan.scheme == "jigsaw_m"
        assert result.output_pmf.num_bits == 6

    def test_plan_rejects_unplannable_scheme(self, device):
        with pytest.raises(ExperimentError):
            Session(device, seed=0).plan(ghz(6), scheme="baseline")

    def test_global_executable_shared_across_schemes(self, device):
        workload = ghz(6)
        session = Session(device, seed=0, exact=True)
        first = session.global_executable(workload)
        second = session.global_executable(workload)
        assert first is second
        result = session.run_jigsaw(workload)
        assert result.global_executable is first

    def test_global_executable_keyed_by_content_not_name(self, device):
        session = Session(device, seed=0, exact=True)
        a = ghz(6)
        b = ghz(6)
        b.circuit.name = "same-program-different-name"
        assert session.global_executable(a) is session.global_executable(b)


def plan_hits(session):
    return session.telemetry_snapshot()["counters"]["cache.plan_hits"]


class TestSessionCache:
    def test_jigsaw_plan_reused_by_jigsaw_mbm(self, device):
        workload = ghz(6)
        session = Session(device, seed=0, exact=True)
        session.run_scheme("jigsaw", workload)
        assert plan_hits(session) == 0
        session.run_scheme("jigsaw_mbm", workload)
        assert plan_hits(session) == 1

    def test_repeated_scheme_hits_cache(self, device):
        workload = ghz(6)
        session = Session(device, seed=0, exact=True)
        first = session.run_scheme("jigsaw", workload)
        second = session.run_scheme("jigsaw", workload)
        assert plan_hits(session) == 1
        assert first.as_dict() == second.as_dict()

    def test_disabled_cache_still_correct(self, device):
        # On a fresh session every first plan misses, so cached and
        # uncached sessions agree scheme by scheme.  (A *second*
        # jigsaw-family run on one session replays the cached
        # compilation instead of recompiling from an advanced RNG
        # stream — deliberately more deterministic than the legacy
        # recompile-every-time behaviour.)
        workload = ghz(6)
        for scheme in ("jigsaw", "jigsaw_mbm"):
            cached = Session(device, seed=0, exact=True)
            uncached = Session(
                device, seed=0, exact=True, cache=CompilationCache.disabled()
            )
            assert (
                cached.run_scheme(scheme, workload).as_dict()
                == uncached.run_scheme(scheme, workload).as_dict()
            ), scheme
            assert plan_hits(uncached) == 0

    def test_cache_stats_exposed(self, device):
        session = Session(device, seed=0, exact=True)
        counters = session.telemetry_snapshot()["counters"]
        assert counters["cache.plan_hits"] == 0
        assert counters["cache.plan_misses"] == 0
        assert len(session.cache) == 0


class TestBudgetConservation:
    """No trial of the budget is silently dropped (satellite fix)."""

    def test_jigsaw_split_folds_remainder(self, device):
        jigsaw = JigSaw(device, JigSawConfig(exact=True), seed=0)
        for total in (1_001, 16_383, 32_768):
            global_trials, per_cpm = jigsaw.split_trials(total, 6)
            assert global_trials + per_cpm * 6 == total

    def test_jigsaw_result_conserves_budget(self, device):
        total = 16_383  # not divisible: 8191 // 6 leaves remainder
        jigsaw = JigSaw(device, JigSawConfig(exact=True), seed=0)
        result = jigsaw.run(ghz(6).circuit, total_trials=total)
        assert result.total_trials == total

    def test_jigsaw_m_result_conserves_budget(self, device):
        total = 16_383
        runner = JigSaw(device, JigSawMConfig(exact=True), seed=0)
        result = runner.run(ghz(6).circuit, total_trials=total)
        assert result.total_trials == total

    def test_exact_mode_tolerates_starved_cpm_allocation(self, device):
        # An extreme global fraction can leave per_cpm == 0; exact mode
        # ignores trial counts and must still run.
        jigsaw = JigSaw(
            device, JigSawConfig(exact=True, global_fraction=0.9), seed=0
        )
        result = jigsaw.run(ghz(6).circuit, total_trials=14)
        assert result.trials_per_cpm == 0
        assert result.total_trials == 14
        assert result.output_pmf.num_bits == 6

    def test_edm_spends_whole_budget(self, device):
        recorded = []

        class RecordingBackend(LocalBackend):
            def execute(self, requests):
                recorded.extend(requests)
                return super().execute(requests)

        total = 4_099  # not divisible by the 4-mapping ensemble
        session = Session(device, seed=0, exact=True, total_trials=total)
        session.backend = RecordingBackend(sampler=session.sampler)
        session.run_edm(ghz(6))
        assert sum(r.trials for r in recorded) == total

    def test_edm_merge_weighted_by_allocation(self, device):
        # Regression: merging must weight each mapping's histogram by its
        # trial allocation (pooled counts), not average normalized PMFs —
        # the first mapping carries the integer-division remainder.
        from repro.core.pmf import PMF

        class StubBackend:
            name = "stub"

            def execute(self, requests):
                # Mapping 0 observes all-zeros, the rest all-ones.
                pmfs = [PMF({"0" * 6: 1.0})]
                pmfs.extend(PMF({"1" * 6: 1.0}) for _ in requests[1:])
                return pmfs

        total = 1_003  # 4 mappings -> allocations [253, 250, 250, 250]
        session = Session(device, seed=0, exact=True, total_trials=total)
        session.backend = StubBackend()
        merged = session.run_edm(ghz(6))
        assert merged.prob("0" * 6) == pytest.approx(253 / 1_003)
        assert merged.prob("1" * 6) == pytest.approx(750 / 1_003)


class TestMetricsEvaluation:
    def test_metrics_fields(self, device):
        session = Session(device, seed=0, exact=True)
        workload = qaoa_maxcut(4, depth=1)
        metrics = session.evaluate(workload, session.run_baseline(workload))
        assert 0.0 <= metrics.pst <= 1.0
        assert metrics.arg is not None

    def test_jigsaw_improves_over_baseline(self, device):
        session = Session(device, seed=0, exact=True)
        workload = ghz(6)
        base = session.evaluate(workload, session.run_baseline(workload))
        jig = session.evaluate(
            workload, session.run_jigsaw(workload).output_pmf
        )
        assert jig.pst > base.pst


class TestSessionContextManager:
    def test_enter_returns_session_and_exit_closes(self, device, monkeypatch):
        closed = []
        monkeypatch.setattr(Session, "close", lambda self: closed.append(self))
        with Session(device, seed=0) as session:
            assert isinstance(session, Session)
            session.run(session.plan(ghz(6), scheme="jigsaw"))
        # __exit__ -> close().
        assert closed == [session]

    def test_exit_closes_on_error_paths(self, device, monkeypatch):
        closed = []
        monkeypatch.setattr(Session, "close", lambda self: closed.append(self))
        with pytest.raises(ExperimentError):
            with Session(device, seed=0) as session:
                raise ExperimentError("boom")
        assert closed == [session]

    def test_session_usable_after_close(self, device):
        with Session(device, seed=0) as session:
            first = session.run_scheme("baseline", ghz(6))
        again = session.run_scheme("baseline", ghz(6))
        assert first.as_dict() == again.as_dict()


class TestPayloadVersioning:
    def test_results_are_stamped(self, device):
        from repro.core import PAYLOAD_VERSION

        with Session(device, seed=0, total_trials=1024) as session:
            jig = session.run(session.plan(ghz(6), scheme="jigsaw"))
            jig_m = session.run(session.plan(ghz(6), scheme="jigsaw_m"))
        assert jig.to_dict()["payload_version"] == PAYLOAD_VERSION
        assert jig_m.to_dict()["payload_version"] == PAYLOAD_VERSION

    def test_pmf_payload_roundtrip_with_version(self, device):
        from repro.core import PMF

        with Session(device, seed=0, total_trials=1024) as session:
            pmf = session.run_scheme("baseline", ghz(6))
        payload = pmf.to_payload()
        payload["payload_version"] = 1
        assert PMF.from_payload(payload).as_dict() == pmf.as_dict()

    def test_pmf_payload_rejects_future_version(self):
        from repro.core import PMF
        from repro.exceptions import PayloadError

        payload = {"codes": [0], "probs": [1.0], "num_bits": 1,
                   "payload_version": 99}
        with pytest.raises(PayloadError, match="payload_version 99"):
            PMF.from_payload(payload)

    def test_check_payload_version_contract(self):
        from repro.core import check_payload_version
        from repro.exceptions import PayloadError

        assert check_payload_version({}) == 1  # missing -> legacy v1
        assert check_payload_version({"payload_version": 1}) == 1
        for bad in ({"payload_version": 0}, {"payload_version": "1"},
                    {"payload_version": True}):
            with pytest.raises(PayloadError):
                check_payload_version(bad)


class TestIdealSharing:
    SCHEMES = ("baseline", "edm", "jigsaw", "jigsaw_nr", "jigsaw_m")

    def test_five_schemes_simulate_one_statevector(self, device):
        from repro.workloads import ising

        workload = ising(6)
        session = Session(device, seed=0, exact=True)
        outputs = {
            scheme: session.run_scheme(scheme, workload)
            for scheme in self.SCHEMES
        }
        counters = session.telemetry_snapshot()["counters"]
        assert counters["backend.statevector_evals"] == 1
        assert counters["cache.ideal.misses"] == 1
        assert counters["cache.ideal.hits"] == len(self.SCHEMES) - 1
        # Same outputs as sessions that share nothing, scheme by scheme.
        for scheme, output in outputs.items():
            alone = Session(
                device, seed=0, exact=True, cache=CompilationCache.disabled()
            )
            assert alone.run_scheme(scheme, workload) == output, scheme

    def test_disabled_cache_simulates_every_run(self, device):
        workload = ghz(6)
        session = Session(
            device, seed=0, exact=True, cache=CompilationCache.disabled()
        )
        for scheme in ("baseline", "jigsaw"):
            session.run_scheme(scheme, workload)
        counters = session.telemetry_snapshot()["counters"]
        assert counters["backend.statevector_evals"] == 2
        assert counters.get("cache.ideal.hits", 0) == 0
        assert len(session.cache.ideal) == 0
