"""Command-line interface: run JigSaw, the paper's experiments, and jobs.

Usage (after ``pip install -e .``)::

    python -m repro run --workload GHZ-10 --device toronto --trials 65536
    python -m repro compare --workload QAOA-10\\ p2 --device paris
    python -m repro serve --jobs jobs.json --store-dir results/
    python -m repro devices
    python -m repro scalability

``run`` executes the JigSaw pipeline on one workload and reports PST/IST/
fidelity before and after reconstruction; ``compare`` additionally runs
EDM and JigSaw-M; ``sweep`` evaluates a parameterized workload at K
parameter points through one compiled plan template (compile once, bind
many, execute one stacked batch); ``serve`` drives the multi-tenant
:class:`~repro.service.tier.ServiceSupervisor` over a JSON job file
(with ``--trace DIR`` it also writes one Perfetto-loadable trace file
per job, and ``--stats-json`` writes the tier's
``telemetry_snapshot()``); ``trace`` renders a captured job trace as an
ASCII flame tree; ``stats`` renders a ``--stats-json`` snapshot
(optionally as Prometheus text); ``devices`` prints the device
library's calibration statistics; ``scalability`` prints the Table 7
cost model.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.core import PMF, table7_rows
from repro.devices import DEVICE_FACTORIES, Device, device_by_name
from repro.exceptions import AdmissionError, ReproError
from repro.experiments import format_table
from repro.metrics.success import probability_of_successful_trial
from repro.runtime import SCHEME_NAMES, Session
from repro.service import JobSpec
from repro.service.job import _finite_real
from repro.service.tier import SegmentedResultStore, ServiceSupervisor
from repro.workloads import workload_by_name

__all__ = ["main", "build_parser"]

_DEVICES = DEVICE_FACTORIES


def _device(name: str) -> Device:
    return device_by_name(name)


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser for the ``repro`` command line."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="JigSaw (MICRO 2021) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run JigSaw on one workload")
    run.add_argument("--workload", required=True, help="e.g. GHZ-10, 'QAOA-10 p2'")
    run.add_argument("--device", default="toronto", choices=sorted(_DEVICES))
    run.add_argument("--trials", type=int, default=32_768)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--sampled", action="store_true",
        help="sample trials instead of the exact noisy distribution",
    )
    run.add_argument(
        "--cpm-attempts", type=int, default=3,
        help="CPM candidate-layout pool size; the pool is routed once "
        "per plan and every CPM retargets onto it",
    )

    compare = sub.add_parser(
        "compare", help="compare baseline/EDM/JigSaw/JigSaw-M"
    )
    compare.add_argument("--workload", required=True)
    compare.add_argument("--device", default="toronto", choices=sorted(_DEVICES))
    compare.add_argument("--trials", type=int, default=32_768)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--sampled", action="store_true")
    compare.add_argument(
        "--cpm-attempts", type=int, default=3,
        help="CPM candidate-layout pool size (see 'run')",
    )

    sweep = sub.add_parser(
        "sweep",
        help="variational sweep: compile once, run K parameter points "
        "as one stacked batch",
    )
    sweep.add_argument(
        "--workload", required=True,
        help="a parameterized workload, e.g. 'QAOA-10 p2' (needs a "
        "template circuit)",
    )
    sweep.add_argument("--device", default="toronto", choices=sorted(_DEVICES))
    sweep.add_argument(
        "--scheme", default="jigsaw", choices=list(SCHEME_NAMES)
    )
    sweep.add_argument(
        "--points", required=True,
        help="parameter points in template parameter order: an inline "
        "JSON list of rows (e.g. '[[0.3, 0.4], [0.5, 0.2]]') or "
        "@file.json",
    )
    sweep.add_argument(
        "--trials", type=int, default=32_768,
        help="per-iteration trial budget",
    )
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--sampled", action="store_true")
    sweep.add_argument(
        "--json", dest="json_out", default=None,
        help="write the sweep result payload as JSON to this path "
        "('-' for stdout)",
    )

    serve = sub.add_parser(
        "serve",
        help="drive the multi-tenant job service over a JSON job file",
    )
    serve.add_argument(
        "--jobs", required=True,
        help="path to a JSON file: a list of job specs (or {'jobs': [...]}); "
        "each spec is e.g. {'tenant': 'a', 'workload': 'GHZ-8', "
        "'device': 'toronto', 'scheme': 'jigsaw', 'total_trials': 4096, "
        "'seed': 0}",
    )
    serve.add_argument(
        "--max-batch", type=int, default=32,
        help="jobs drained per batch (the cross-job coalescing window)",
    )
    serve.add_argument(
        "--capacity", type=int, default=256,
        help="queue capacity (admission rejects beyond it)",
    )
    serve.add_argument(
        "--fair-share", type=float, default=0.5,
        help="fraction of the queue one tenant may occupy",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="drain workers of the serving tier (results are bit-for-bit "
        "identical at any count)",
    )
    serve.add_argument(
        "--store-dir", default=None,
        help="segmented result-store directory: memoizes results across "
        "invocations",
    )
    serve.add_argument(
        "--stats-json", default=None,
        help="write the tier's telemetry snapshot (every counter and "
        "latency histogram) as JSON to this path ('-' for stdout; the "
        "job table then goes to stderr)",
    )
    serve.add_argument(
        "--trace", default=None, metavar="DIR",
        help="capture a hierarchical trace per job and write "
        "<job-id>.trace.json files — Chrome trace-event JSON, loadable "
        "in Perfetto — into DIR",
    )

    trace = sub.add_parser(
        "trace", help="render a captured job trace as an ASCII flame tree"
    )
    trace.add_argument(
        "job_id", help="the job id (reads <job-id>.trace.json)"
    )
    trace.add_argument(
        "--dir", dest="trace_dir", default=".",
        help="directory the traces were written to (serve --trace DIR)",
    )
    trace.add_argument(
        "--json", dest="json_out", action="store_true",
        help="dump the raw trace document instead of the tree view",
    )

    stats = sub.add_parser(
        "stats", help="render a serve --stats-json snapshot"
    )
    stats.add_argument(
        "file", help="path to a stats snapshot ('-' reads stdin)"
    )
    stats.add_argument(
        "--prometheus", action="store_true",
        help="emit the telemetry registry in Prometheus text format",
    )

    store = sub.add_parser("store", help="result-store maintenance")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    compact = store_sub.add_parser(
        "compact", help="compact a segmented store in place"
    )
    compact.add_argument(
        "--dir", dest="store_dir", required=True,
        help="existing segmented store directory to compact in place",
    )

    sub.add_parser("devices", help="print device calibration statistics")
    sub.add_parser("scalability", help="print the Table 7 cost model")
    return parser


def _cmd_run(args: argparse.Namespace) -> str:
    device = _device(args.device)
    workload = workload_by_name(args.workload)
    with Session(
        device, seed=args.seed, total_trials=args.trials,
        exact=not args.sampled, cpm_attempts=args.cpm_attempts,
    ) as session:
        result = session.run(session.plan(workload, scheme="jigsaw"))
        before = session.evaluate(workload, result.global_pmf)
        after = session.evaluate(workload, result.output_pmf)
    rows = [
        ["global (baseline)", before.pst, before.ist, before.fidelity],
        ["JigSaw output", after.pst, after.ist, after.fidelity],
    ]
    header = format_table(
        ["Distribution", "PST", "IST", "Fidelity"],
        rows,
        title=f"JigSaw on {workload.name} / {device.name}",
    )
    footer = (
        f"\nCPMs: {len(result.cpm_executables)} of size "
        f"{len(result.subsets[0])}; trials: {result.global_trials} global "
        f"+ {result.trials_per_cpm}/CPM"
    )
    return header + footer


def _cmd_compare(args: argparse.Namespace) -> str:
    device = _device(args.device)
    workload = workload_by_name(args.workload)
    with Session(
        device, seed=args.seed, total_trials=args.trials,
        exact=not args.sampled, cpm_attempts=args.cpm_attempts,
    ) as session:
        rows: List[List[object]] = []
        base = None
        for scheme in ("baseline", "edm", "jigsaw", "jigsaw_m"):
            metrics = session.evaluate(
                workload, session.run_scheme(scheme, workload)
            )
            if base is None:
                base = metrics
            rows.append(
                [
                    scheme,
                    metrics.pst,
                    metrics.pst / base.pst if base.pst else float("inf"),
                    metrics.ist,
                    metrics.fidelity,
                    metrics.arg,
                ]
            )
        counters = session.telemetry_snapshot()["counters"]
    return format_table(
        ["Scheme", "PST", "Rel PST", "IST", "Fidelity", "ARG (%)"],
        rows,
        title=f"Scheme comparison on {workload.name} / {device.name}",
    ) + (
        f"\nplan cache: {counters.get('cache.plan_hits', 0)} hits / "
        f"{counters.get('cache.plan_misses', 0)} misses"
        f"\ncompiler:   {counters.get('compiler.route_calls', 0)} routings "
        f"for {counters.get('compiler.retargets', 0)} retargeted schedules "
        f"({counters.get('compiler.route_hits', 0)} route-cache hits)"
    )


def _parse_points(text: str) -> List[List[float]]:
    """Parse --points: inline JSON rows or ``@path`` to a JSON file."""
    try:
        if text.startswith("@"):
            with open(text[1:]) as handle:
                document = json.load(handle)
        else:
            document = json.loads(text)
    except OSError as exc:
        raise ReproError(f"cannot read points file {text[1:]}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"--points: invalid JSON ({exc})") from exc
    if isinstance(document, dict):
        document = document.get("points", document)
    if (
        not isinstance(document, list)
        or not document
        or not all(isinstance(row, list) and row for row in document)
    ):
        raise ReproError(
            "--points: expected a non-empty JSON list of non-empty rows"
        )
    # The job service's check, so a point the CLI accepts is one a
    # sweep job spec accepts too.
    return [
        [_finite_real(value, "a sweep parameter") for value in row]
        for row in document
    ]


def _cmd_sweep(args: argparse.Namespace) -> str:
    device = _device(args.device)
    workload = workload_by_name(args.workload)
    if not workload.is_sweepable:
        raise ReproError(
            f"workload {workload.name!r} has no template circuit; "
            "sweepable workloads carry symbolic parameters (e.g. QAOA)"
        )
    points = _parse_points(args.points)
    with Session(
        device, seed=args.seed, total_trials=args.trials,
        exact=not args.sampled,
    ) as session:
        result = session.run_sweep(args.scheme, workload, points)
        rows: List[List[object]] = []
        for index, (point, pmf) in enumerate(
            zip(result.parameter_sets, result.output_pmfs)
        ):
            metrics = session.evaluate(workload, pmf)
            rows.append(
                [
                    index,
                    ", ".join(f"{value:.4f}" for value in point),
                    metrics.pst,
                    metrics.ist,
                    metrics.fidelity,
                ]
            )
        counters = session.telemetry_snapshot()["counters"]
    if args.json_out:
        payload = json.dumps(result.to_dict(), indent=2, sort_keys=True)
        if args.json_out == "-":
            print(payload)
        else:
            with open(args.json_out, "w") as handle:
                handle.write(payload + "\n")
    names = ", ".join(result.parameter_names)
    return format_table(
        ["#", f"({names})", "PST", "IST", "Fidelity"],
        rows,
        title=(
            f"{args.scheme} sweep of {workload.name} / {device.name}: "
            f"{len(points)} points"
        ),
    ) + (
        f"\ncompile-once: {counters.get('compiler.route_calls', 0)} route "
        f"calls for {counters.get('compiler.template_binds', 0)} binds"
    )


def _cmd_serve(args: argparse.Namespace) -> str:
    try:
        with open(args.jobs) as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ReproError(f"cannot read jobs file {args.jobs}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"{args.jobs}: invalid JSON ({exc})") from exc
    entries = document["jobs"] if isinstance(document, dict) else document
    if not isinstance(entries, list) or not entries:
        raise ReproError(
            f"{args.jobs}: expected a non-empty JSON list of job specs "
            "(or an object with a 'jobs' list)"
        )

    supervisor = ServiceSupervisor(
        store=(
            SegmentedResultStore(root=args.store_dir)
            if args.store_dir else None
        ),
        workers=args.workers,
        capacity=args.capacity,
        fair_share=args.fair_share,
        max_batch=args.max_batch,
        tracing=bool(args.trace),
    )
    trace_files = 0
    try:
        # The whole file is queued before the workers start, so the
        # batches they drain do not depend on thread timing.
        jobs, rejections = _serve_submit(supervisor, entries)
        supervisor.start()
        supervisor.stop(drain=True, timeout=None)
        snapshot = supervisor.telemetry_snapshot()
        drain_workers = len(supervisor.drain_workers)
        if args.trace:
            trace_files = _serve_write_traces(supervisor, jobs, args.trace)
    finally:
        supervisor.close()

    if args.stats_json:
        payload = json.dumps(snapshot, indent=2, sort_keys=True)
        if args.stats_json == "-":
            print(payload)
        else:
            with open(args.stats_json, "w") as handle:
                handle.write(payload + "\n")

    rows: List[List[object]] = []
    for job in jobs:
        row = job.describe()
        pst: object = "-"
        if (
            job.result is not None
            and "output_pmf" in job.result
            and job.spec.workload is not None
        ):
            pst = probability_of_successful_trial(
                PMF.from_payload(job.result["output_pmf"]),
                workload_by_name(job.spec.workload).correct_outcomes,
            )
        rows.append(
            [
                row["job_id"], row["tenant"], row["workload"],
                row["scheme"], row["status"], row["source"] or "-", pst,
            ]
        )
    table = format_table(
        ["Job", "Tenant", "Workload", "Scheme", "Status", "Source", "PST"],
        rows,
        title=f"Service run over {args.jobs}",
    )
    counters = snapshot["counters"]

    def count(name: str) -> int:
        return counters.get(name, 0)

    root = supervisor.store.root
    footer_lines = [
        "",
        f"jobs:    {count('tier.submitted')} submitted, "
        f"{count('tier.executed')} executed, "
        f"{count('tier.memoized')} memoized, "
        f"{count('tier.failed')} failed, "
        f"{len(rejections)} rejected",
        f"backend: {count('backend.requests')} requests -> "
        f"{count('backend.channel_evals')} channel evals "
        f"({count('backend.requests') - count('backend.groups')} "
        f"coalesced), {count('backend.statevector_evals')} statevectors",
        f"store:   {count('store.hits')} hits / "
        f"{count('store.misses')} misses" + (f" @ {root}" if root else ""),
        f"tier:    {drain_workers} workers, "
        f"{count('tier.retried')} retries, "
        f"{count('tier.worker_crashes')} crashes",
    ]
    if trace_files:
        footer_lines.append(
            f"traces:  {trace_files} written to {args.trace} "
            f"(render with 'repro trace <job-id> --dir {args.trace}')"
        )
    for index, reason in rejections:
        footer_lines.append(f"rejected jobs[{index}]: {reason}")
    return table + "\n".join(footer_lines)


def _serve_write_traces(supervisor, jobs, trace_dir: str) -> int:
    """Write one ``<job-id>.trace.json`` per traced job; returns count."""
    from repro.telemetry.export import trace_document

    os.makedirs(trace_dir, exist_ok=True)
    written = 0
    for job in jobs:
        spans = supervisor.job_trace(job)
        if not spans:
            continue
        document = trace_document(
            spans,
            job_id=job.job_id,
            status=job.status.value,
            source=job.source,
        )
        path = os.path.join(trace_dir, f"{job.job_id}.trace.json")
        with open(path, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        written += 1
    return written


def _cmd_trace(args: argparse.Namespace) -> str:
    from repro.telemetry.export import render_trace_tree

    path = os.path.join(args.trace_dir, f"{args.job_id}.trace.json")
    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ReproError(
            f"cannot read trace {path}: {exc} "
            "(capture traces with 'repro serve --trace DIR')"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"{path}: invalid JSON ({exc})") from exc
    if args.json_out:
        return json.dumps(document, indent=2, sort_keys=True)
    spans = document.get("spans", [])
    header = (
        f"trace of {document.get('job_id', args.job_id)} "
        f"({document.get('status', '?')}, "
        f"source={document.get('source', '?')}): {len(spans)} spans"
    )
    return header + "\n" + render_trace_tree(spans)


def _cmd_stats(args: argparse.Namespace) -> str:
    from repro.telemetry.export import prometheus_text

    try:
        if args.file == "-":
            document = json.load(sys.stdin)
        else:
            with open(args.file) as handle:
                document = json.load(handle)
    except OSError as exc:
        raise ReproError(f"cannot read stats {args.file}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"{args.file}: invalid JSON ({exc})") from exc
    if not isinstance(document, dict) or not isinstance(
        document.get("counters"), dict
    ):
        raise ReproError(
            f"{args.file}: not a telemetry snapshot (expected an object "
            "with a 'counters' mapping, as written by "
            "'repro serve --stats-json')"
        )
    if args.prometheus:
        return prometheus_text(document).rstrip("\n")
    lines: List[str] = []
    counters = document["counters"]
    if counters:
        lines.append("counters:")
        width = max(len(name) for name in counters)
        lines.extend(
            f"  {name:<{width}}  {counters[name]}"
            for name in sorted(counters)
        )
    histograms = document.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        for name in sorted(histograms):
            hist = histograms[name]
            if not hist.get("count"):
                continue
            # Latencies print in ms, other units (e.g. rounds) as counted.
            unit = next(
                (k[len("mean_"):] for k in hist if k.startswith("mean_")),
                "seconds",
            )
            scale, suffix = (1e3, "ms") if unit == "seconds" else (1.0, f" {unit}")
            quantiles = hist.get("quantiles", {})
            rendered = " ".join(
                f"{key}={quantiles[key] * scale:.3f}{suffix}"
                for key in ("p50", "p95", "p99")
                if quantiles.get(key) is not None
            )
            lines.append(
                f"  {name}: count={hist['count']} "
                f"mean={(hist.get(f'mean_{unit}') or 0) * scale:.3f}{suffix} "
                + rendered
            )
    return "\n".join(lines) if lines else "(empty snapshot)"


def _serve_submit(supervisor, entries):
    """Submit every job entry; returns (jobs, [(index, reason)])."""
    jobs, rejections = [], []
    for index, entry in enumerate(entries):
        try:
            jobs.append(supervisor.submit(JobSpec.from_dict(entry)))
        except AdmissionError as exc:
            rejections.append((index, str(exc)))
    return jobs, rejections


def _cmd_store_compact(args: argparse.Namespace) -> str:
    store = SegmentedResultStore(root=args.store_dir, max_entries=None)
    store.compact()
    return (
        f"compacted {args.store_dir}: {len(store)} live records across "
        f"{len(store.shards)} shards, 1 segment each"
    )


def _cmd_devices() -> str:
    rows = []
    for name in sorted(_DEVICES):
        device = _DEVICES[name]()
        stats = device.readout_stats().as_percent()
        rows.append(
            [
                name,
                device.num_qubits,
                stats.mean,
                stats.median,
                stats.minimum,
                stats.maximum,
            ]
        )
    return format_table(
        ["Device", "Qubits", "Mean %", "Median %", "Min %", "Max %"],
        rows,
        title="Device library (isolated readout error)",
        float_format="{:.2f}",
    )


def _cmd_scalability() -> str:
    rows = [
        [
            row["qubits"], row["epsilon"], row["trials"],
            row["jigsaw_memory_gb"], row["jigsaw_ops_millions"],
            row["jigsawm_memory_gb"], row["jigsawm_ops_millions"],
        ]
        for row in table7_rows()
    ]
    return format_table(
        [
            "Qubits", "eps", "Trials", "JigSaw GB", "JigSaw Mops",
            "JigSaw-M GB", "JigSaw-M Mops",
        ],
        rows,
        title="Table 7: reconstruction cost model",
        float_format="{:.2f}",
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            print(_cmd_run(args))
        elif args.command == "compare":
            print(_cmd_compare(args))
        elif args.command == "sweep":
            print(_cmd_sweep(args))
        elif args.command == "serve":
            # With --stats-json -, stdout carries the JSON document alone.
            out = sys.stderr if args.stats_json == "-" else sys.stdout
            print(_cmd_serve(args), file=out)
        elif args.command == "trace":
            print(_cmd_trace(args))
        elif args.command == "stats":
            print(_cmd_stats(args))
        elif args.command == "store":
            print(_cmd_store_compact(args))
        elif args.command == "devices":
            print(_cmd_devices())
        elif args.command == "scalability":
            print(_cmd_scalability())
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
