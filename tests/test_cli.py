"""End-to-end smoke tests for the ``repro`` command line."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


def repro_command(*args):
    """``python -m repro ARGS`` and an environment that imports ``src/``."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return [sys.executable, "-m", "repro", *args], env


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--workload", "GHZ-4"])
        assert args.command == "run"
        assert args.device == "toronto"
        assert args.trials == 32_768
        assert not args.sampled

    def test_rejects_unknown_device(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--workload", "GHZ-4", "--device", "nonexistent"]
            )

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--workload", "GHZ-4"],
            ["compare", "--workload", "GHZ-4"],
            ["sweep", "--workload", "QAOA-4", "--points", "[[0.3, 0.4]]"],
            ["serve", "--jobs", "jobs.json"],
        ],
        ids=["run", "compare", "sweep", "serve"],
    )
    def test_exec_workers_is_refused(self, argv, capsys):
        # Every batch evaluates in-process: argparse refuses the flag
        # that used to shard it, like any unknown option.
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--exec-workers", "2"])
        assert excinfo.value.code == 2
        assert "--exec-workers" in capsys.readouterr().err

    def test_sweep_refuses_eps_rescore_threshold(self, capsys):
        # Templates keep their compile-time EPS: the re-score knob is an
        # unknown option.
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "sweep", "--workload", "QAOA-4",
                    "--points", "[[0.3, 0.4]]",
                    "--eps-rescore-threshold", "0.5",
                ]
            )
        assert excinfo.value.code == 2
        assert "--eps-rescore-threshold" in capsys.readouterr().err


class TestMain:
    def test_run_smoke(self, capsys):
        code = main(
            ["run", "--workload", "GHZ-4", "--trials", "2048", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "JigSaw on GHZ-4 / ibmq_toronto" in out
        assert "JigSaw output" in out
        assert "CPMs:" in out

    def test_compare_smoke(self, capsys):
        code = main(
            ["compare", "--workload", "BV-3", "--trials", "2048", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        for scheme in ("baseline", "edm", "jigsaw", "jigsaw_m"):
            assert scheme in out
        assert "plan cache:" in out

    def test_sweep_smoke(self, capsys):
        code = main(
            [
                "sweep", "--workload", "QAOA-4", "--trials", "2048",
                "--seed", "1", "--points", "[[0.3, 0.4], [0.5, 0.2]]",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "jigsaw sweep of QAOA-4 p1 / ibmq_toronto: 2 points" in out
        assert "compile-once:" in out
        assert out.rstrip().endswith("2 binds")

    def test_sweep_json_output(self, tmp_path, capsys):
        import json

        path = tmp_path / "sweep.json"
        code = main(
            [
                "sweep", "--workload", "QAOA-4", "--trials", "2048",
                "--points", "[[0.3, 0.4]]", "--json", str(path),
            ]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["scheme"] == "jigsaw"
        assert payload["num_iterations"] == 1
        assert payload["parameter_sets"] == [[0.3, 0.4]]
        assert len(payload["output_pmfs"]) == 1

    def test_sweep_points_from_file(self, tmp_path, capsys):
        points = tmp_path / "points.json"
        points.write_text("[[0.3, 0.4], [0.1, 0.2]]")
        code = main(
            [
                "sweep", "--workload", "QAOA-4", "--trials", "2048",
                "--points", f"@{points}",
            ]
        )
        assert code == 0
        assert "2 points" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "points, reason",
        [
            ('[["a", 0.4]]', "a real number, not 'a'"),
            ("[[true, 0.4]]", "a real number, not True"),
            ("[[NaN, 0.1]]", "finite, not nan"),
            ("[[1e999, 0.1]]", "finite, not inf"),
        ],
        ids=["string", "bool", "nan", "overflow"],
    )
    def test_sweep_rejects_bad_points(self, points, reason, capsys):
        # The sweep job spec's check: refused before anything compiles.
        code = main(["sweep", "--workload", "QAOA-4", "--points", points])
        assert code == 1
        assert (
            f"error: a sweep parameter must be {reason}"
            in capsys.readouterr().err
        )

    def test_sweep_rejects_unparameterized_workload(self, capsys):
        code = main(
            ["sweep", "--workload", "GHZ-4", "--points", "[[0.1]]"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "no template circuit" in captured.err

    def test_devices_smoke(self, capsys):
        code = main(["devices"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("toronto", "paris", "manhattan", "sycamore"):
            assert name in out

    def test_scalability_smoke(self, capsys):
        code = main(["scalability"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 7" in out

    def test_unknown_workload_is_reported(self, capsys):
        code = main(["run", "--workload", "Nope-3"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err


class TestServe:
    def _jobs_file(self, tmp_path):
        import json

        path = tmp_path / "jobs.json"
        path.write_text(
            json.dumps(
                [
                    {"tenant": "alice", "workload": "GHZ-4",
                     "total_trials": 1024, "seed": 0},
                    {"tenant": "bob", "workload": "GHZ-4",
                     "total_trials": 2048, "seed": 0},
                    {"tenant": "bob", "workload": "BV-4",
                     "scheme": "baseline", "total_trials": 1024},
                    {"tenant": "alice", "workload": "GHZ-4",
                     "total_trials": 1024, "seed": 0},
                ]
            )
        )
        return path

    def test_serve_smoke(self, tmp_path, capsys):
        code = main(["serve", "--jobs", str(self._jobs_file(tmp_path))])
        out = capsys.readouterr().out
        assert code == 0
        assert "Service run over" in out
        assert "executed" in out and "memoized" in out
        assert "channel evals" in out

    def test_serve_memoizes_across_invocations(self, tmp_path, capsys):
        jobs = str(self._jobs_file(tmp_path))
        store = str(tmp_path / "store")
        assert main(["serve", "--jobs", jobs, "--store-dir", store]) == 0
        first = capsys.readouterr().out
        assert "3 executed" in first
        assert main(["serve", "--jobs", jobs, "--store-dir", store]) == 0
        second = capsys.readouterr().out
        assert "0 executed, 4 memoized" in second

    def test_serve_footers_identical_across_runs(self, tmp_path, capsys):
        """The whole job file is queued before the worker starts, so the
        drained batches (and every count they print) never vary."""
        import json

        path = tmp_path / "jobs.json"
        path.write_text(
            json.dumps(
                [
                    {"tenant": tenant, "workload": workload,
                     "total_trials": trials, "seed": 0}
                    for tenant, trials in (
                        ("alice", 1024), ("bob", 2048), ("carol", 4096)
                    )
                    for workload in ("BV-4", "GHZ-5")
                ]
            )
        )

        def footer():
            assert main(["serve", "--jobs", str(path)]) == 0
            out = capsys.readouterr().out
            return out[out.index("\njobs:"):]

        first = footer()
        assert "6 executed" in first
        assert "33 requests -> 11 channel evals" in first
        assert footer() == first

    def test_serve_reports_rejections(self, tmp_path, capsys):
        import json

        path = tmp_path / "jobs.json"
        path.write_text(
            json.dumps(
                [
                    {"tenant": "greedy", "workload": "GHZ-4",
                     "total_trials": 1024, "seed": s}
                    for s in range(4)
                ]
            )
        )
        code = main(
            ["serve", "--jobs", str(path), "--capacity", "2",
             "--fair-share", "1.0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 rejected" in out and "queue full" in out

    def test_serve_rejects_unbuildable_entries_and_runs_the_rest(
        self, tmp_path, capsys
    ):
        import json

        path = tmp_path / "jobs.json"
        path.write_text(
            json.dumps(
                [
                    {"tenant": "a", "workload": name, "total_trials": 1024}
                    for name in ("Ising-30", "GHZ-6", "QAOA-30", "Nope-3")
                ]
            )
        )
        assert main(["serve", "--jobs", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 executed" in out and "3 rejected" in out
        assert "rejected jobs[0]: 30-qubit statevector exceeds" in out
        assert "rejected jobs[2]: QAOA workloads are limited" in out
        assert "rejected jobs[3]: unknown workload 'Nope-3'" in out
        (row,) = [line for line in out.splitlines() if "GHZ-6" in line]
        assert "done" in row

    def test_serve_rejects_unknown_device_and_runs_the_rest(
        self, tmp_path, capsys
    ):
        path = tmp_path / "jobs.json"
        path.write_text(
            json.dumps(
                [
                    {"tenant": "a", "workload": "GHZ-4", "device": device,
                     "total_trials": 1024}
                    for device in ("toronto", "nowhere")
                ]
            )
        )
        assert main(["serve", "--jobs", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 executed" in out and "1 rejected" in out
        assert "rejected jobs[1]: unknown device 'nowhere'" in out
        (row,) = [line for line in out.splitlines() if "GHZ-4" in line]
        assert "done" in row

    def test_serve_rejects_bad_file(self, tmp_path, capsys):
        path = tmp_path / "jobs.json"
        path.write_text("[]")
        assert main(["serve", "--jobs", str(path)]) == 1
        assert "non-empty" in capsys.readouterr().err

    def test_serve_rejects_zero_max_batch(self, tmp_path, capsys):
        # Refused when the tier is built: a drain worker asked for
        # batches of 0 jobs would die on every pop and never drain.
        jobs = str(self._jobs_file(tmp_path))
        assert main(["serve", "--jobs", jobs, "--max-batch", "0"]) == 1
        assert "error: max_batch must be >= 1" in capsys.readouterr().err

    def test_serve_subprocess_hard_timeout(self, tmp_path):
        """The end-to-end smoke the CI workflow mirrors: drive the real
        process (submit -> drain/poll -> fetch) under a hard timeout."""
        jobs = tmp_path / "jobs.json"
        jobs.write_text(
            json.dumps(
                [{"tenant": "ci", "workload": "GHZ-4", "total_trials": 1024}]
            )
        )
        command, env = repro_command("serve", "--jobs", str(jobs))
        completed = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=120,  # the hard timeout: a hung service fails loudly
            env=env,
        )
        assert completed.returncode == 0, completed.stderr
        assert "done" in completed.stdout


class TestServeTier:
    def _jobs_file(self, tmp_path):
        import json

        path = tmp_path / "jobs.json"
        path.write_text(
            json.dumps(
                [
                    {"tenant": "alice", "workload": "GHZ-4",
                     "total_trials": 1024, "seed": 0},
                    {"tenant": "bob", "workload": "BV-4",
                     "scheme": "baseline", "total_trials": 1024},
                    {"tenant": "carol", "workload": "GHZ-4",
                     "scheme": "edm", "total_trials": 1024, "seed": 1},
                ]
            )
        )
        return path

    def test_tier_serve_matches_single_drain(self, tmp_path, capsys):
        """--workers N serves the same stream with identical statuses."""
        jobs = str(self._jobs_file(tmp_path))
        assert main(["serve", "--jobs", jobs]) == 0
        single = capsys.readouterr().out
        assert main(["serve", "--jobs", jobs, "--workers", "2"]) == 0
        tier = capsys.readouterr().out
        assert "tier:    2 workers" in tier
        assert single.count("done") == tier.count("done") == 3

    def test_tier_serve_stats_json(self, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        code = main(
            ["serve", "--jobs", str(self._jobs_file(tmp_path)),
             "--workers", "2", "--stats-json", str(stats_path)]
        )
        assert code == 0
        assert "tier:    2 workers" in capsys.readouterr().out
        snapshot = json.loads(stats_path.read_text())
        assert set(snapshot) == {"counters", "histograms"}
        assert snapshot["counters"]["tier.executed"] == 3
        assert snapshot["counters"]["tier.batches"] >= 1
        assert "tier.queue_wait" in snapshot["histograms"]

    def test_tier_serve_with_segmented_store(self, tmp_path, capsys):
        jobs = str(self._jobs_file(tmp_path))
        store_dir = str(tmp_path / "segments")
        assert main(
            ["serve", "--jobs", jobs, "--workers", "2",
             "--store-dir", store_dir]
        ) == 0
        capsys.readouterr()
        # Restart replays the journal: the whole stream memoizes.
        assert main(["serve", "--jobs", jobs, "--store-dir", store_dir]) == 0
        assert "0 executed, 3 memoized" in capsys.readouterr().out

    def test_tier_serve_subprocess_hard_timeout(self, tmp_path):
        """CI's tier e2e smoke: submit -> watch -> fetch through a real
        multi-worker process under a hard timeout."""
        jobs = tmp_path / "jobs.json"
        jobs.write_text(
            json.dumps(
                [
                    {"tenant": "ci", "workload": "GHZ-4",
                     "total_trials": 1024, "seed": s}
                    for s in range(3)
                ]
            )
        )
        command, env = repro_command(
            "serve", "--jobs", str(jobs), "--workers", "2",
            "--stats-json", "-",
        )
        completed = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=120,  # hard timeout: a hung tier fails loudly
            env=env,
        )
        assert completed.returncode == 0, completed.stderr
        # With --stats-json -, the job table goes to stderr and stdout
        # carries the telemetry snapshot alone.
        assert "done" in completed.stderr
        snapshot = json.loads(completed.stdout)
        assert snapshot["counters"]["tier.executed"] == 3

    def test_serve_stats_json_stdout_pipes_into_stats(self, tmp_path):
        """``repro serve --stats-json - | repro stats -`` renders the
        snapshot: stdout carries nothing but the JSON document."""
        serve_command, env = repro_command(
            "serve", "--jobs", str(self._jobs_file(tmp_path)),
            "--stats-json", "-",
        )
        stats_command, _ = repro_command("stats", "-")
        serve = subprocess.Popen(
            serve_command,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            rendered = subprocess.run(
                stats_command,
                stdin=serve.stdout,
                capture_output=True,
                text=True,
                timeout=120,
                env=env,
            )
            serve.stdout.close()
            table = serve.stderr.read()
            assert serve.wait(timeout=120) == 0, table
        finally:
            serve.kill()
        assert "Service run over" in table
        assert rendered.returncode == 0, rendered.stderr
        assert "tier.executed" in rendered.stdout
        assert "tier.job_total" in rendered.stdout


class TestTraceCLI:
    def _jobs_file(self, tmp_path):
        import json

        path = tmp_path / "jobs.json"
        path.write_text(
            json.dumps(
                [
                    {"tenant": "alice", "workload": "GHZ-4",
                     "total_trials": 1024, "seed": 0},
                    {"tenant": "bob", "workload": "GHZ-4",
                     "total_trials": 1024, "seed": 1},
                ]
            )
        )
        return path

    def _serve_traced(self, tmp_path, capsys, extra=()):
        trace_dir = tmp_path / "traces"
        stats_path = tmp_path / "stats.json"
        code = main(
            ["serve", "--jobs", str(self._jobs_file(tmp_path)),
             "--workers", "2", "--trace", str(trace_dir),
             "--stats-json", str(stats_path), *extra]
        )
        assert code == 0
        capsys.readouterr()
        return trace_dir, stats_path

    def _job_ids(self, trace_dir):
        # Job ids are process-global (job-N keeps counting across serve
        # invocations), so tests discover them from the written files.
        return sorted(
            p.name[: -len(".trace.json")] for p in trace_dir.iterdir()
        )

    def test_serve_trace_writes_chrome_trace_files(self, tmp_path, capsys):
        import json

        trace_dir, _ = self._serve_traced(tmp_path, capsys)
        job_ids = self._job_ids(trace_dir)
        assert len(job_ids) == 2
        for job_id in job_ids:
            document = json.loads(
                (trace_dir / f"{job_id}.trace.json").read_text()
            )
            events = [
                e for e in document["traceEvents"] if e["ph"] == "X"
            ]
            assert {e["name"] for e in events} >= {
                "job", "admission", "queue_wait", "prepare",
                "execute", "reconstruct", "finish",
            }
            assert document["status"] == "done"
            assert document["job_id"] == job_id

    def test_memoized_job_trace_is_short(self, tmp_path, capsys):
        import json

        store = str(tmp_path / "store")
        self._serve_traced(tmp_path, capsys, extra=("--store-dir", store))
        # Restart against the same store: every job memoizes, so the new
        # traces stop at admission.
        trace_dir = tmp_path / "traces2"
        assert main(
            ["serve", "--jobs", str(self._jobs_file(tmp_path)),
             "--workers", "2", "--store-dir", store,
             "--trace", str(trace_dir)]
        ) == 0
        capsys.readouterr()
        job_ids = self._job_ids(trace_dir)
        assert len(job_ids) == 2
        for job_id in job_ids:
            document = json.loads(
                (trace_dir / f"{job_id}.trace.json").read_text()
            )
            names = {row["name"] for row in document["spans"]}
            assert "admission" in names
            assert "execute" not in names
            assert document["source"] == "memoized"

    def test_trace_command_renders_tree(self, tmp_path, capsys):
        trace_dir, _ = self._serve_traced(tmp_path, capsys)
        job_id = self._job_ids(trace_dir)[0]
        code = main(["trace", job_id, "--dir", str(trace_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert job_id in out
        for name in ("admission", "queue_wait", "prepare", "execute",
                     "reconstruct", "finish"):
            assert name in out

    def test_trace_command_json_round_trip(self, tmp_path, capsys):
        import json

        trace_dir, _ = self._serve_traced(tmp_path, capsys)
        job_id = self._job_ids(trace_dir)[0]
        code = main(["trace", job_id, "--dir", str(trace_dir), "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["job_id"] == job_id
        assert document["spans"]

    def test_trace_command_missing_file(self, tmp_path, capsys):
        code = main(["trace", "job-404", "--dir", str(tmp_path)])
        assert code == 1
        assert "job-404" in capsys.readouterr().err

    def test_trace_without_workers(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        code = main(
            ["serve", "--jobs", str(self._jobs_file(tmp_path)),
             "--trace", str(trace_dir)]
        )
        assert code == 0
        assert "traces:  2 written" in capsys.readouterr().out
        assert len(self._job_ids(trace_dir)) == 2

    def test_stats_json_carries_telemetry(self, tmp_path, capsys):
        _, stats_path = self._serve_traced(tmp_path, capsys)
        snapshot = json.loads(stats_path.read_text())
        counters = snapshot["counters"]
        assert counters["tier.submitted"] == 2
        assert counters["tier.executed"] == 2
        assert counters["tier.memoized"] == 0
        quantiles = snapshot["histograms"]["tier.job_total"]["quantiles"]
        assert set(quantiles) == {"p50", "p95", "p99"}

    def test_stats_command_renders_summary(self, tmp_path, capsys):
        _, stats_path = self._serve_traced(tmp_path, capsys)
        code = main(["stats", str(stats_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "tier.submitted" in out
        assert "p50" in out

    def test_stats_command_prometheus(self, tmp_path, capsys):
        _, stats_path = self._serve_traced(tmp_path, capsys)
        code = main(["stats", str(stats_path), "--prometheus"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_tier_submitted counter" in out
        assert 'repro_tier_job_total_bucket{le="+Inf"} 2' in out

    @pytest.mark.parametrize(
        "document",
        [
            # The old tier-stats layout: counts nested under keys that
            # are not a snapshot's top-level 'counters' mapping.
            {"jobs": {"submitted": 2}, "workers": [],
             "telemetry": {"counters": {"tier.submitted": 2}}},
            [{"counters": {}}],
        ],
        ids=["tier-stats-layout", "list"],
    )
    def test_stats_command_rejects_non_snapshot(
        self, tmp_path, capsys, document
    ):
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(document))
        assert main(["stats", str(path)]) == 1
        assert "not a telemetry snapshot" in capsys.readouterr().err

    def test_single_drain_stats_json_telemetry(self, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        code = main(
            ["serve", "--jobs", str(self._jobs_file(tmp_path)),
             "--stats-json", str(stats_path)]
        )
        assert code == 0
        assert "tier:    1 workers" in capsys.readouterr().out
        counters = json.loads(stats_path.read_text())["counters"]
        assert counters["tier.submitted"] == 2
        assert counters["tier.executed"] == 2


class TestStoreCompact:
    def test_compacts_segmented_store_in_place(self, tmp_path, capsys):
        import os

        from repro.service.tier import SegmentedResultStore

        root = str(tmp_path / "segments")
        store = SegmentedResultStore(root=root, segment_bytes=80)
        for i in range(6):
            store.put(f"fp{i}", {"scheme": "jigsaw", "value": i}, shard="devA")
        assert len(os.listdir(os.path.join(root, "devA"))) > 1
        assert main(["store", "compact", "--dir", root]) == 0
        assert "compacted" in capsys.readouterr().out
        assert len(os.listdir(os.path.join(root, "devA"))) == 1

    def test_requires_arguments(self, capsys):
        with pytest.raises(SystemExit):
            main(["store", "compact"])
        assert "--dir" in capsys.readouterr().err
