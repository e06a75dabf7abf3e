"""Command-line interface.

Run paper experiments and ad-hoc simulations from the shell::

    repro list                         # available experiments
    repro run fig11 --scale tiny       # regenerate one figure's data
    repro run all --scale small        # regenerate everything
    repro simulate --family hetero_phy_torus --chiplets 4x4 --nodes 4x4 \
                   --pattern uniform --rate 0.1 --seed 7
    repro simulate --metrics out/ --trace run.json --epoch 500
    repro check --all                  # statically verify every family
    repro check --family serial_torus --mode wormhole
    repro prove --all --json prove.json   # full certification, both modes
    repro prove --family serial_torus --mode wormhole --max-states 8000
    repro bench --scale tiny --reps 3  # standardized perf suite -> BENCH_<n>.json
    repro compare BENCH_0.json BENCH_1.json --strict
    repro compare BENCH_0.json BENCH_1.json BENCH_2.json --json compare.json
    repro regress --strict             # changepoint sentinel over runs/ history
    repro profile --mem                # heap peaks + allocation sites per phase
    repro simulate --digest            # record the run's event-digest chain
    repro golden record --scale tiny   # golden traces -> benchmarks/goldens/
    repro golden check                 # re-simulate goldens, verify digests
    repro diff "sim:family=hetero_phy_torus,chiplets=2x2,nodes=4x4,rate=0.15" \
               "sim:family=hetero_phy_torus,chiplets=2x2,nodes=4x4,rate=0.15,perturb=900"
    repro dashboard --out dashboard.html
    repro simulate --live              # stream a live feed while running
    repro watch --port 8631            # live fleet dashboard over runs/
    repro postmortem forensics/BUNDLE_deadlock_557.json --html report.html

Output is the plain-text table of the experiment (add ``--csv`` for CSV).
``repro check`` prints one findings report per verified system and exits
non-zero if any report contains an error — the CI deadlock/livelock/lint
gate (see docs/analysis.md).

``repro prove`` stacks the certification passes (interface contracts,
exhaustive reachability with the single-link fault-mask sweep, bounded
model checking of reported CDG cycles) on top of ``check`` and writes one
schema-versioned ``CERT_<system>_<mode>.json`` per (system, mode) pair
into the run registry's ``certificates/`` subdirectory.  ``--json PATH``
additionally writes every certificate into one machine-readable document.
Exit codes for both ``check`` and ``prove``: 0 — every system passed /
was certified; 1 — at least one system failed, was refused certification
or could not be built; 2 — usage error.

When a simulation wedges (deadlock, drain timeout, invariant violation),
``repro simulate`` writes a postmortem bundle into ``forensics/`` and
exits with status 3, printing the bundle path; ``repro postmortem``
renders a bundle as a report or self-contained HTML page (see
docs/observability.md).  ``--no-forensics`` disables the capture.

Every ``repro run`` / ``repro simulate`` appends one structured record to
the append-only run registry (``runs/runs.jsonl`` by default; ``--runs-dir``
to relocate, ``--no-record`` to skip) so results stay attributable to a
config hash, git revision and seed — see docs/perf.md.

``repro compare`` and ``repro regress`` exit 0 unless ``--strict`` is
given *and* at least one (gated) metric regressed; an empty or
bench-free registry makes ``regress`` print a clean message and exit 0
even under ``--strict``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.sim.config import SimConfig
from repro.sim.experiment import run_synthetic
from repro.topology.grid import ChipletGrid
from repro.topology.system import FAMILIES, build_system


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    try:
        x, y = text.lower().split("x")
        return int(x), int(y)
    except ValueError:
        raise SystemExit(f"invalid {what} {text!r}; expected e.g. 4x4") from None


def _cmd_list(_args) -> int:
    from repro.exps import EXPERIMENTS

    for name in EXPERIMENTS:
        print(name)
    return 0


def _cmd_run(args) -> int:
    from repro.exps import EXPERIMENTS
    from repro.telemetry.runstore import (
        RunRecord,
        RunStore,
        config_digest,
        git_revision,
        new_run_id,
        utc_now_iso,
    )

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise SystemExit(f"unknown experiment(s): {', '.join(unknown)}")
    store = None if args.no_record else RunStore(args.runs_dir)
    git_rev = git_revision() if store else "unknown"
    for name in names:
        start = time.perf_counter()
        try:
            result = EXPERIMENTS[name](args.scale)
        except (RuntimeError, AssertionError) as exc:
            return _report_failure(name, exc)
        elapsed = time.perf_counter() - start
        if args.csv:
            print(result.to_csv())
        else:
            print(result)
            print(f"[{name} completed in {elapsed:.1f}s at scale={args.scale}]")
        if store is not None:
            store.append(
                RunRecord(
                    run_id=new_run_id(),
                    created=utc_now_iso(),
                    kind="experiment",
                    label=name,
                    scale=args.scale,
                    config_hash=config_digest(
                        {"experiment": name, "scale": args.scale}
                    ),
                    git_rev=git_rev,
                    wall_seconds=elapsed,
                    extras={"rows": float(len(result.rows))},
                )
            )
        print()
    return 0


def _report_failure(label: str, exc: BaseException) -> int:
    """Report a wedged run on stderr and return the failure exit status.

    Deadlocks, drain timeouts and invariant violations all land here; when
    the engine captured a postmortem bundle its path rides on the
    exception so the next command is obvious.
    """
    kind = type(exc).__name__
    print(f"{label}: {kind}: {exc}", file=sys.stderr)
    bundle = getattr(exc, "bundle_path", None)
    if bundle:
        print(f"postmortem bundle: {bundle}", file=sys.stderr)
        print(f"inspect it with: repro postmortem {bundle}", file=sys.stderr)
    return 3


def _require_results_dir(results_dir: Path) -> Path:
    if not results_dir.is_dir() or not any(results_dir.glob("*.csv")):
        raise SystemExit(
            f"no benchmark CSVs in {results_dir}/ — regenerate them with "
            "`pytest benchmarks/ --benchmark-only` (or pass --results-dir)"
        )
    return results_dir


def _cmd_report(args) -> int:
    from repro.exps.report import summarize

    results_dir = _require_results_dir(Path(args.results_dir))
    print(summarize(results_dir, args.scale))
    return 0


def _cmd_simulate(args) -> int:
    chiplets = _parse_pair(args.chiplets, "--chiplets")
    nodes = _parse_pair(args.nodes, "--nodes")
    grid = ChipletGrid(chiplets[0], chiplets[1], nodes[0], nodes[1])
    config = SimConfig().scaled(args.cycles)
    if args.halved:
        config = config.halved()
    spec = build_system(args.family, grid, config)
    telemetry = None
    breakdown_wanted = args.latency_breakdown or args.breakdown_csv
    epoch_wanted = bool(
        args.metrics or args.trace or args.progress
        or breakdown_wanted or args.live
    )
    forensics_wanted = (
        not args.no_forensics or args.flight_recorder or args.health
    )
    if args.live and args.live_every < 1:
        raise SystemExit("--live-every must be >= 1")
    run_id = None
    if epoch_wanted or forensics_wanted or args.digest:
        from repro.telemetry import TelemetryConfig

        if args.live:
            # Allocate the registry run id up front so the live feed and
            # the run record join on one id in the fleet view.
            from repro.telemetry.runstore import new_run_id

            run_id = new_run_id()
        telemetry = TelemetryConfig(
            metrics_dir=args.metrics,
            trace_path=args.trace,
            epoch_length=args.epoch,
            progress=args.progress,
            latency_breakdown=bool(breakdown_wanted),
            breakdown_csv=args.breakdown_csv,
            # A forensics-only config must not attach the epoch collector:
            # plain runs stay zero-subscriber so same-seed invocations
            # keep printing byte-identical output.
            epoch_metrics=epoch_wanted,
            forensics=forensics_wanted,
            bundle_dir=args.forensics_dir,
            flight_recorder=args.flight_recorder,
            recorder_window=args.recorder_window,
            recorder_events=args.recorder_events,
            health=args.health,
            health_every=args.health_every,
            health_stream=sys.stderr if args.health else None,
            live=args.live,
            live_dir=Path(args.runs_dir) / "live",
            live_every=args.live_every,
            run_id=run_id,
            digest=args.digest,
        )
    try:
        result = run_synthetic(
            spec,
            args.pattern,
            args.rate,
            policy=args.policy,
            seed=args.seed,
            telemetry=telemetry,
        )
    except (RuntimeError, AssertionError) as exc:
        return _report_failure(spec.name, exc)
    print(f"system   : {spec.name}")
    print(f"workload : {result.workload} ({grid.n_nodes} nodes, {args.cycles} cycles)")
    print(f"policy   : {result.policy}")
    print(f"seed     : {args.seed}")
    for key, value in result.stats.summary().items():
        if isinstance(value, int):
            print(f"{key:26s}: {value:d}")
        else:
            print(f"{key:26s}: {value:.3f}")
    par, ser = result.phy_split
    if par or ser:
        print(f"hetero-PHY flit split     : parallel {par}, serial {ser}")
    if args.digest and result.telemetry is not None:
        collector = result.telemetry.digest
        print(
            f"digest   : {collector.final} "
            f"({collector.events_total} events, compare with `repro diff`)"
        )
    if breakdown_wanted and result.telemetry is not None:
        from repro.telemetry.attribution import render_breakdown

        print()
        print(render_breakdown(result.telemetry.ledger.summary()))
    artifacts: dict[str, str] = {}
    if args.metrics:
        artifacts["metrics_dir"] = str(args.metrics)
    if args.trace:
        artifacts["trace"] = str(args.trace)
    if args.breakdown_csv:
        artifacts["breakdown_csv"] = str(args.breakdown_csv)
    if result.telemetry is not None and result.telemetry.live is not None:
        artifacts["live"] = str(result.telemetry.live.path)
    if result.telemetry is not None:
        for path in result.telemetry.written:
            print(f"wrote {path}")
    telemetry_enabled = bool(artifacts) or bool(breakdown_wanted)
    if not args.no_record:
        from repro.telemetry.runstore import RunStore, record_from_result

        store = RunStore(args.runs_dir)
        record = record_from_result(
            result,
            kind="simulate",
            label=args.family,
            artifacts=artifacts,
            run_id=run_id,
        )
        record_path = store.append(record)
        artifacts["record"] = f"{record_path}#{record.run_id}"
    if telemetry_enabled:
        # One-line manifest so nobody has to re-read the flags to find
        # where this run's outputs went.  Plain runs stay manifest-free so
        # same-seed invocations print byte-identical output.
        manifest = " ".join(f"{key}={value}" for key, value in artifacts.items())
        print(f"artifacts : {manifest}")
    return 0


def _cmd_profile(args) -> int:
    import cProfile
    import pstats

    from repro.telemetry import TelemetryConfig
    from repro.telemetry.hostprof import (
        HostprofError,
        collapsed_stacks,
        fold_profile,
        render_host_table,
        speedscope_document,
        write_speedscope,
    )

    chiplets = _parse_pair(args.chiplets, "--chiplets")
    nodes = _parse_pair(args.nodes, "--nodes")
    grid = ChipletGrid(chiplets[0], chiplets[1], nodes[0], nodes[1])
    config = SimConfig().scaled(args.cycles)
    if args.halved:
        config = config.halved()
    spec = build_system(args.family, grid, config)
    # Pass 1 — host-time ledger, no cProfile: the profiler's tracing hooks
    # would inflate the wall times the phase table reports.
    ledger_config = TelemetryConfig(
        host_time=True, host_stride=args.stride, epoch_metrics=False
    )
    try:
        result = run_synthetic(
            spec,
            args.pattern,
            args.rate,
            policy=args.policy,
            seed=args.seed,
            telemetry=ledger_config,
        )
    except (RuntimeError, AssertionError) as exc:
        return _report_failure(spec.name, exc)
    ledger = result.telemetry.hostprof
    try:
        ledger.check_conservation()
    except HostprofError as exc:
        print(f"warning: {exc}", file=sys.stderr)
    print(f"system   : {spec.name}")
    print(f"workload : {result.workload} ({grid.n_nodes} nodes, {args.cycles} cycles)")
    print(f"policy   : {result.policy}")
    print(f"seed     : {args.seed}")
    print(f"cycles/s : {result.cycles_per_second:,.0f}")
    print()
    summary = ledger.summary()
    print(render_host_table(summary))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    host_path = out_dir / "profile.host.json"
    _write_json_doc(str(host_path), summary)
    # Pass 2 — cProfile (same seed, so the same run), folded into the
    # phase-rooted speedscope + collapsed-stack flamegraph artifacts.
    with cProfile.Profile() as profiler:
        try:
            run_synthetic(
                spec, args.pattern, args.rate, policy=args.policy, seed=args.seed
            )
        except (RuntimeError, AssertionError) as exc:
            return _report_failure(spec.name, exc)
    rows = fold_profile(profiler)
    doc = speedscope_document(rows, name=f"{spec.name} {result.workload}")
    ss_path = write_speedscope(doc, out_dir / "profile.speedscope.json")
    print(f"wrote {ss_path}  (load at https://www.speedscope.app)")
    folded_path = out_dir / "profile.folded.txt"
    folded_path.write_text(collapsed_stacks(rows), encoding="utf-8")
    print(f"wrote {folded_path}  (flamegraph.pl / inferno collapsed stacks)")
    if args.mem:
        # Pass 3 — memory ledger (tracemalloc roughly doubles allocation
        # cost, so it gets its own untimed pass; same seed, same run).
        from repro.telemetry.memprof import MemLedger, render_mem_table

        with MemLedger(top_n=args.mem_top) as mem_ledger:
            try:
                run_synthetic(
                    spec,
                    args.pattern,
                    args.rate,
                    policy=args.policy,
                    seed=args.seed,
                )
            except (RuntimeError, AssertionError) as exc:
                return _report_failure(spec.name, exc)
        mem_block = mem_ledger.record_summary()
        print()
        print(render_mem_table(mem_block))
        _write_json_doc(str(out_dir / "profile.mem.json"), mem_block)
    if args.pstats:
        print()
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(args.top)
    return 0


def _cmd_postmortem(args) -> int:
    from repro.telemetry.forensics import (
        load_bundle,
        render_bundle_html,
        render_bundle_text,
    )

    try:
        bundle = load_bundle(args.bundle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot load bundle {args.bundle}: {exc}") from None
    print(render_bundle_text(bundle, tail=args.tail))
    if args.html:
        out = Path(args.html)
        out.write_text(render_bundle_html(bundle), encoding="utf-8")
        print(f"wrote {out}")
    return 0


def _cmd_bench(args) -> int:
    from repro.telemetry.bench import CASES, render_bench, run_bench, write_bench

    cases = None
    if args.case:
        by_name = {case.name: case for case in CASES}
        unknown = [name for name in args.case if name not in by_name]
        if unknown:
            raise SystemExit(
                f"unknown bench case(s): {', '.join(unknown)}; "
                f"known: {', '.join(by_name)}"
            )
        cases = [by_name[name] for name in args.case]
    start = time.perf_counter()
    doc = run_bench(
        scale=args.scale,
        reps=args.reps,
        seed=args.seed,
        cases=cases,
        host_stride=args.host_stride,
        mem_top=args.mem_top,
    )
    elapsed = time.perf_counter() - start
    path = write_bench(doc, args.out_dir)
    print(render_bench(doc))
    print(f"wrote {path}")
    if not args.no_record:
        from repro.telemetry.runstore import (
            RunRecord,
            RunStore,
            config_digest,
            new_run_id,
        )

        # One registry record per suite run: the dashboard's "Host
        # performance" panel and the regression sentinel both read these.
        store = RunStore(args.runs_dir)
        # The registry keeps a slim mem block (no allocation sites — the
        # BENCH file has them); the sentinel only needs the peaks.
        bench_summary = {
            name: {
                "cps_median": case["cps"]["median"],
                "host": case.get("host"),
                "mem": {
                    k: v
                    for k, v in (case.get("mem") or {}).items()
                    if k != "top_sites"
                }
                or None,
                "digest_final": (case.get("digest") or {}).get("final"),
            }
            for name, case in doc["cases"].items()
        }
        record = RunRecord(
            run_id=new_run_id(),
            created=doc["created"],
            kind="bench",
            label=f"bench:{args.scale}",
            scale=args.scale,
            seed=args.seed,
            config_hash=config_digest(
                {"bench": sorted(doc["cases"]), "scale": args.scale, "seed": args.seed}
            ),
            git_rev=doc["git_rev"],
            wall_seconds=elapsed,
            artifacts={"bench": str(path)},
            bench=bench_summary,
        )
        record_path = store.append(record)
        print(f"recorded {record_path}#{record.run_id}")
    return 0


def _cmd_compare(args) -> int:
    from repro.telemetry.compare import (
        chain_report,
        compare_chain,
        regressions,
        render_chain,
    )
    from repro.telemetry.runstore import RunStoreError

    try:
        steps = compare_chain(args.paths, rel_floor=args.rel_floor, k=args.k)
    except (FileNotFoundError, ValueError, RunStoreError) as exc:
        raise SystemExit(str(exc)) from None
    print(render_chain(steps))
    if args.json:
        _write_json_doc(args.json, chain_report(steps, gate=args.gate))
    if args.strict:
        gated = [
            v
            for _, _, verdicts in steps
            for v in regressions(verdicts, gate=args.gate)
        ]
        if gated:
            if args.gate:
                names = ", ".join(sorted({f"{v.case}:{v.metric}" for v in gated}))
                print(f"gated regression(s): {names}", file=sys.stderr)
            return 1
    return 0


def _cmd_regress(args) -> int:
    from repro.telemetry.history import load_history
    from repro.telemetry.sentinel import (
        SentinelConfig,
        analyze_history,
        render_sentinel,
    )

    try:
        config = SentinelConfig(window=args.window, min_history=args.min_history)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    history = load_history(args.runs_dir, bench_dirs=args.bench_dir or [])
    report = analyze_history(history, config, metric_prefixes=args.metric or [])
    if not history.series:
        # An empty or bench-free registry is a fresh checkout, not an
        # error: degrade to a clean message and exit 0 (even --strict).
        print(
            f"no bench history under {args.runs_dir} — `repro bench` "
            "appends the records the sentinel watches."
        )
        if args.json:
            _write_json_doc(args.json, report.to_json())
        return 0
    print(render_sentinel(report))
    if history.skipped:
        noun = "source" if history.skipped == 1 else "sources"
        print(
            f"warning: skipped {history.skipped} unreadable {noun} "
            f"(registry lines / bench files)",
            file=sys.stderr,
        )
    if args.json:
        _write_json_doc(args.json, report.to_json())
    if args.strict and report.regressions():
        return 1
    return 0


def _cmd_diff(args) -> int:
    from repro.telemetry.diff import DiffError, diff_runs, load_diffable
    from repro.telemetry.digest import DigestError

    try:
        a = load_diffable(args.a)
        b = load_diffable(args.b)
        report = diff_runs(
            a, b, localize=not args.no_localize, context=args.context
        )
    except (DiffError, DigestError, OSError, RuntimeError) as exc:
        raise SystemExit(str(exc)) from None
    print(report.render())
    return report.exit_code


def _cmd_golden(args) -> int:
    from repro.telemetry.bench import CASES
    from repro.telemetry.diff import check_golden_file, record_golden_case
    from repro.telemetry.digest import DigestError, golden_files

    by_name = {case.name: case for case in CASES}
    if args.action == "record":
        names = args.case or list(by_name)
        unknown = [name for name in names if name not in by_name]
        if unknown:
            raise SystemExit(
                f"unknown case(s): {', '.join(unknown)}; known: {', '.join(by_name)}"
            )
        from repro.telemetry.runstore import git_revision, utc_now_iso

        git_rev = git_revision()
        created = utc_now_iso()
        for name in names:
            path = record_golden_case(
                by_name[name],
                scale=args.scale,
                seed=args.seed,
                directory=args.dir,
                git_rev=git_rev,
                created=created,
            )
            print(f"wrote {path}")
        return 0
    paths = [Path(p) for p in args.golden] or golden_files(args.dir)
    if not paths:
        raise SystemExit(
            f"no golden traces under {args.dir}/ — record them with "
            "`repro golden record`"
        )
    failed = 0
    for path in paths:
        try:
            ok, message, report = check_golden_file(
                path, localize=not args.no_localize
            )
        except (DigestError, OSError, ValueError, RuntimeError) as exc:
            print(f"{path}: ERROR: {exc}")
            failed += 1
            continue
        print(message)
        if not ok:
            failed += 1
            if report is not None:
                print(report.render())
    if failed:
        print(f"{failed}/{len(paths)} golden trace(s) FAILED")
        return 1
    return 0


def _cmd_dashboard(args) -> int:
    from repro.telemetry.dashboard import DashboardError, write_dashboard

    try:
        path = write_dashboard(
            args.out,
            args.results_dir,
            scale=args.scale,
            bench_dirs=args.bench_dir,
            runs_dir=args.runs_dir,
        )
    except DashboardError as exc:
        raise SystemExit(str(exc)) from None
    print(f"wrote {path}")
    from repro.telemetry.runstore import RunStore

    store = RunStore(args.runs_dir)
    store.load(strict=False)
    if store.skipped:
        noun = "line" if store.skipped == 1 else "lines"
        print(
            f"warning: skipped {store.skipped} unreadable registry {noun} "
            f"in {store.path}",
            file=sys.stderr,
        )
    return 0


def _cmd_watch(args) -> int:
    from repro.telemetry.server import WatchService, serve

    if args.once:
        service = WatchService(args.runs_dir, top_runs=args.top)
        state = service.fleet_state()
        print(json.dumps(state, indent=1, sort_keys=True))
        if state["skipped"]:
            noun = "line" if state["skipped"] == 1 else "lines"
            print(
                f"warning: skipped {state['skipped']} unreadable registry "
                f"{noun} in {Path(args.runs_dir) / 'runs.jsonl'}",
                file=sys.stderr,
            )
        return 0
    serve(
        args.runs_dir,
        host=args.host,
        port=args.port,
        poll_seconds=args.poll,
        top_runs=args.top,
    )
    return 0


def _write_json_doc(path: str, doc: dict) -> None:
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {path}")


def _cmd_check(args) -> int:
    from repro.analysis import verify_family

    chiplets = _parse_pair(args.chiplets, "--chiplets")
    nodes = _parse_pair(args.nodes, "--nodes")
    families = list(FAMILIES) if args.all else [args.family]
    if args.prove:
        # One-shot certification with check's single-mode semantics; use
        # `repro prove` for the durable certificate + run-registry flow.
        return _run_prove(
            families,
            (args.mode,),
            chiplets=chiplets,
            nodes=nodes,
            fault_masks=True,
            max_states=4_000,
            max_packets=None,
            verbose=args.verbose,
            json_path=args.json,
            runs_dir=None,
        )
    failed = 0
    payload: list[dict] = []
    for family in families:
        try:
            report = verify_family(
                family, chiplets=chiplets, nodes=nodes, mode=args.mode
            )
        except ValueError as exc:
            # e.g. a geometry the family cannot be built on; report and
            # keep sweeping the remaining families.
            print(f"== {family} ==\n  ERROR   BUILD-FAILED {exc}\n  FAIL: could not build")
            payload.append(
                {"system": family, "mode": args.mode, "ok": False, "error": str(exc)}
            )
            failed += 1
            continue
        print(report.render(verbose=args.verbose))
        payload.append(report.to_dict())
        if not report.ok:
            failed += 1
    if args.json:
        _write_json_doc(args.json, {"ok": failed == 0, "reports": payload})
    if failed:
        print(f"\n{failed}/{len(families)} system(s) FAILED verification")
        return 1
    return 0


def _run_prove(
    families: list[str],
    modes: tuple[str, ...],
    *,
    chiplets: tuple[int, int],
    nodes: tuple[int, int],
    fault_masks: bool,
    max_states: int,
    max_packets: int | None,
    verbose: bool,
    json_path: str | None,
    runs_dir: str | None,
) -> int:
    """Certify ``families`` x ``modes``; returns the process exit status.

    ``runs_dir=None`` skips both the certificate files and the
    run-registry append (the ``check --prove`` and ``--no-record`` paths);
    ``--json`` still captures every certificate either way.
    """
    from repro.analysis import prove_family, write_certificate
    from repro.telemetry.runstore import (
        RunRecord,
        RunStore,
        git_revision,
        new_run_id,
        utc_now_iso,
    )

    store = RunStore(runs_dir) if runs_dir is not None else None
    git_rev = git_revision() if store else "unknown"
    payload: list[dict] = []
    failed = 0
    total = 0
    for family in families:
        for mode in modes:
            total += 1
            start = time.perf_counter()
            try:
                result = prove_family(
                    family,
                    chiplets=chiplets,
                    nodes=nodes,
                    mode=mode,
                    fault_masks=fault_masks,
                    max_states=max_states,
                    max_packets=max_packets,
                )
            except ValueError as exc:
                print(
                    f"== {family} [mode={mode}] ==\n"
                    f"  ERROR   BUILD-FAILED {exc}\n  FAIL: could not build"
                )
                payload.append(
                    {
                        "family": family,
                        "mode": mode,
                        "certified": False,
                        "error": str(exc),
                    }
                )
                failed += 1
                continue
            elapsed = time.perf_counter() - start
            cert = result.certificate
            print(result.report.render(verbose=verbose))
            artifacts: dict[str, str] = {}
            if store is not None and runs_dir is not None:
                cert_path = write_certificate(cert, runs_dir)
                artifacts["certificate"] = str(cert_path)
                print(f"  certificate: {cert_path}")
                store.append(
                    RunRecord(
                        run_id=new_run_id(),
                        created=utc_now_iso(),
                        kind="prove",
                        label=f"{family}:{mode}",
                        config_hash=cert.config_hash,
                        git_rev=git_rev,
                        n_nodes=chiplets[0] * chiplets[1] * nodes[0] * nodes[1],
                        wall_seconds=elapsed,
                        artifacts=artifacts,
                        extras={
                            "certified": float(cert.certified),
                            "fault_masks": float(cert.fault_masks.get("swept", 0)),
                            "errors": float(len(result.report.errors)),
                            "warnings": float(len(result.report.warnings)),
                        },
                    )
                )
            verdict = "CERTIFIED" if cert.certified else "NOT CERTIFIED"
            print(f"  {verdict} in {elapsed:.1f}s")
            print()
            payload.append(cert.to_dict())
            if not cert.certified:
                failed += 1
    if json_path:
        _write_json_doc(
            json_path, {"certified": failed == 0, "certificates": payload}
        )
    if failed:
        print(f"{failed}/{total} certification(s) FAILED")
        return 1
    return 0


def _cmd_prove(args) -> int:
    families = list(FAMILIES) if args.all else [args.family]
    modes = ("vct", "wormhole") if args.mode == "both" else (args.mode,)
    return _run_prove(
        families,
        modes,
        chiplets=_parse_pair(args.chiplets, "--chiplets"),
        nodes=_parse_pair(args.nodes, "--nodes"),
        fault_masks=not args.no_fault_masks,
        max_states=args.max_states,
        max_packets=args.max_packets,
        verbose=args.verbose,
        json_path=args.json,
        runs_dir=None if args.no_record else args.runs_dir,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Heterogeneous die-to-die interfaces (MICRO 2023) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=_cmd_list
    )

    def add_record_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--runs-dir",
            default="runs",
            help="run-registry directory (default: runs/)",
        )
        p.add_argument(
            "--no-record",
            action="store_true",
            help="do not append a record to the run registry",
        )

    run_p = sub.add_parser("run", help="run a paper experiment (or 'all')")
    run_p.add_argument("experiment")
    run_p.add_argument("--scale", choices=("tiny", "small", "paper"), default="small")
    run_p.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    add_record_args(run_p)
    run_p.set_defaults(func=_cmd_run)

    report_p = sub.add_parser(
        "report", help="summarize benchmark CSVs against the paper's numbers"
    )
    report_p.add_argument("--results-dir", default="benchmarks/results")
    report_p.add_argument("--scale", choices=("tiny", "small", "paper"), default="small")
    report_p.set_defaults(func=_cmd_report)

    sim_p = sub.add_parser("simulate", help="run one ad-hoc simulation")
    sim_p.add_argument("--family", choices=FAMILIES, default="hetero_phy_torus")
    sim_p.add_argument("--chiplets", default="4x4", help="chiplet grid, e.g. 4x4")
    sim_p.add_argument("--nodes", default="4x4", help="per-chiplet mesh, e.g. 4x4")
    sim_p.add_argument("--pattern", default="uniform")
    sim_p.add_argument("--rate", type=float, default=0.1, help="flits/cycle/node")
    sim_p.add_argument("--cycles", type=int, default=10_000)
    sim_p.add_argument(
        "--policy",
        choices=(
            "performance",
            "balanced",
            "energy_efficient",
            "application_aware",
            "passive_aware",
        ),
        default=None,
    )
    sim_p.add_argument(
        "--halved", action="store_true", help="pin-constrained halved interfaces"
    )
    sim_p.add_argument(
        "--seed", type=int, default=1, help="workload RNG seed (default: 1)"
    )
    sim_p.add_argument(
        "--metrics",
        metavar="DIR",
        default=None,
        help="write per-epoch metric CSVs + metrics.json into DIR",
    )
    sim_p.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a Chrome trace-event JSON (load in Perfetto / about:tracing)",
    )
    sim_p.add_argument(
        "--epoch",
        type=int,
        default=1_000,
        help="epoch length in cycles for --metrics time series (default: 1000)",
    )
    sim_p.add_argument(
        "--progress",
        action="store_true",
        help="show a live progress line on stderr while simulating",
    )
    sim_p.add_argument(
        "--latency-breakdown",
        action="store_true",
        help="attribute every measured packet's latency to pipeline stages "
        "and print the per-stage + bottleneck tables",
    )
    sim_p.add_argument(
        "--breakdown-csv",
        metavar="PATH",
        default=None,
        help="write the per-stage breakdown CSV here (implies "
        "--latency-breakdown)",
    )
    sim_p.add_argument(
        "--no-forensics",
        action="store_true",
        help="do not capture a postmortem bundle when the run wedges "
        "(deadlock / drain timeout / invariant violation)",
    )
    sim_p.add_argument(
        "--forensics-dir",
        metavar="DIR",
        default="forensics",
        help="where postmortem bundles go (default: forensics/)",
    )
    sim_p.add_argument(
        "--flight-recorder",
        action="store_true",
        help="keep a bounded ring buffer of recent telemetry events; its "
        "tail lands in the postmortem bundle",
    )
    sim_p.add_argument(
        "--recorder-window",
        type=int,
        default=4096,
        metavar="CYCLES",
        help="flight-recorder retention window in cycles (default: 4096)",
    )
    sim_p.add_argument(
        "--recorder-events",
        choices=("packet", "route", "full"),
        default="packet",
        help="flight-recorder event preset: 'packet' records the packet "
        "lifecycle + credit stalls (low overhead), 'route' adds per-hop "
        "routing/VC-allocation events, 'full' records every event "
        "(default: packet)",
    )
    sim_p.add_argument(
        "--health",
        action="store_true",
        help="probe throughput / stall rate / occupancy / oldest-packet "
        "age periodically and flag anomalies live on stderr",
    )
    sim_p.add_argument(
        "--health-every",
        type=int,
        default=2_000,
        metavar="CYCLES",
        help="health-probe period in cycles (default: 2000)",
    )
    sim_p.add_argument(
        "--live",
        action="store_true",
        help="stream run lifecycle / progress / epoch / health events to "
        "<runs-dir>/live/<run_id>.jsonl while the run is in flight — "
        "watch it with `repro watch`",
    )
    sim_p.add_argument(
        "--live-every",
        type=int,
        default=1_000,
        metavar="CYCLES",
        help="live-feed heartbeat period in cycles (default: 1000)",
    )
    sim_p.add_argument(
        "--digest",
        action="store_true",
        help="fold every telemetry event into a deterministic chained "
        "hash; the digest block lands on the run record and two runs "
        "can be compared with `repro diff`",
    )
    add_record_args(sim_p)
    sim_p.set_defaults(func=_cmd_simulate)

    prof_p = sub.add_parser(
        "profile",
        help="attribute host wall time to engine phases and emit "
        "speedscope + flamegraph artifacts",
    )
    prof_p.add_argument("--family", choices=FAMILIES, default="hetero_phy_torus")
    prof_p.add_argument(
        "--chiplets", default="2x2", help="chiplet grid, e.g. 2x2 (fig11 seed)"
    )
    prof_p.add_argument("--nodes", default="4x4", help="per-chiplet mesh, e.g. 4x4")
    prof_p.add_argument("--pattern", default="uniform")
    prof_p.add_argument("--rate", type=float, default=0.15, help="flits/cycle/node")
    prof_p.add_argument("--cycles", type=int, default=6_000)
    prof_p.add_argument(
        "--policy",
        choices=(
            "performance",
            "balanced",
            "energy_efficient",
            "application_aware",
            "passive_aware",
        ),
        default=None,
    )
    prof_p.add_argument(
        "--halved", action="store_true", help="pin-constrained halved interfaces"
    )
    prof_p.add_argument(
        "--seed", type=int, default=1, help="workload RNG seed (default: 1)"
    )
    prof_p.add_argument(
        "--stride",
        type=int,
        default=1,
        metavar="N",
        help="time every Nth cycle and extrapolate (default: 1 — every cycle)",
    )
    prof_p.add_argument(
        "--out-dir",
        default="profile-out",
        help="where profile.host.json / profile.speedscope.json / "
        "profile.folded.txt go (default: profile-out/)",
    )
    prof_p.add_argument(
        "--top",
        type=int,
        default=25,
        help="hottest-function count for --pstats (default: 25)",
    )
    prof_p.add_argument(
        "--pstats",
        action="store_true",
        help="also print the classic pstats table (cumulative-time sorted)",
    )
    prof_p.add_argument(
        "--mem",
        action="store_true",
        help="also run a tracemalloc pass: peak/current heap and top "
        "allocation sites folded to the phase taxonomy "
        "(profile.mem.json)",
    )
    prof_p.add_argument(
        "--mem-top",
        type=int,
        default=10,
        metavar="N",
        help="allocation sites kept by --mem (default: 10)",
    )
    prof_p.set_defaults(func=_cmd_profile)

    pm_p = sub.add_parser(
        "postmortem",
        help="render a forensics bundle captured from a wedged run",
    )
    pm_p.add_argument("bundle", help="BUNDLE_<reason>_<cycle>.json path")
    pm_p.add_argument(
        "--html",
        metavar="FILE",
        default=None,
        help="also write a self-contained HTML report (wait-for graph, "
        "occupancy heatmap, recorder tail)",
    )
    pm_p.add_argument(
        "--tail",
        type=int,
        default=20,
        metavar="N",
        help="flight-recorder events to show in the text report (default: 20)",
    )
    pm_p.set_defaults(func=_cmd_postmortem)

    bench_p = sub.add_parser(
        "bench",
        help="run the standardized perf suite and write BENCH_<n>.json",
    )
    bench_p.add_argument(
        "--scale", choices=("tiny", "small", "paper"), default="tiny"
    )
    bench_p.add_argument(
        "--reps", type=int, default=5, help="timed repetitions per case (default: 5)"
    )
    bench_p.add_argument("--seed", type=int, default=1)
    bench_p.add_argument(
        "--case",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict the suite to one case (repeatable)",
    )
    bench_p.add_argument(
        "--out-dir", default=".", help="where BENCH_<n>.json goes (default: .)"
    )
    bench_p.add_argument(
        "--host-stride",
        type=int,
        default=4,
        metavar="N",
        help="host-time ledger sampling stride on the attribution "
        "repetition (default: 4)",
    )
    bench_p.add_argument(
        "--mem-top",
        type=int,
        default=10,
        metavar="N",
        help="allocation sites kept in each case's mem block (default: 10)",
    )
    add_record_args(bench_p)
    bench_p.set_defaults(func=_cmd_bench)

    cmp_p = sub.add_parser(
        "compare",
        help="noise-aware diff of bench files or run records "
        "(two or more, oldest first)",
    )
    cmp_p.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="two or more files of one kind, oldest first: BENCH_<n>.json, "
        "record JSON or runs.jsonl; N>2 chains adjacent pairs",
    )
    cmp_p.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when any metric regressed in any step "
        "(default: warn only)",
    )
    cmp_p.add_argument(
        "--gate",
        action="append",
        default=None,
        metavar="METRIC",
        help="with --strict, only exit non-zero when one of these metrics "
        "regressed (exact name or dotted prefix, repeatable; e.g. "
        "cycles_per_second, events, host.sa_st, mem.peak_bytes)",
    )
    cmp_p.add_argument(
        "--rel-floor",
        type=float,
        default=0.05,
        help="relative floor below which a delta is noise (default: 0.05)",
    )
    cmp_p.add_argument(
        "--k",
        type=float,
        default=1.5,
        help="IQR multiplier of the noise threshold (default: 1.5)",
    )
    cmp_p.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the verdicts as one machine-readable JSON document",
    )
    cmp_p.set_defaults(func=_cmd_compare)

    regress_p = sub.add_parser(
        "regress",
        help="regression sentinel: changepoint detection over the run "
        "registry's bench history",
    )
    regress_p.add_argument(
        "--runs-dir",
        default="runs",
        help="registry directory to analyze (default: runs)",
    )
    regress_p.add_argument(
        "--bench-dir",
        action="append",
        default=None,
        metavar="DIR",
        help="also harvest BENCH_<n>.json files from this directory "
        "(repeatable)",
    )
    regress_p.add_argument(
        "--metric",
        action="append",
        default=None,
        metavar="PREFIX",
        help="only analyze metrics with this prefix (repeatable; e.g. "
        "cycles_per_second, host, mem, digest)",
    )
    regress_p.add_argument(
        "--window",
        type=int,
        default=8,
        metavar="N",
        help="sliding-window width of the changepoint test (default: 8)",
    )
    regress_p.add_argument(
        "--min-history",
        type=int,
        default=6,
        metavar="N",
        help="finite observations below which a metric reads "
        "insufficient-history (default: 6)",
    )
    regress_p.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when any metric regressed (default: warn only)",
    )
    regress_p.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the sentinel report as JSON",
    )
    regress_p.set_defaults(func=_cmd_regress)

    diff_p = sub.add_parser(
        "diff",
        help="differential oracle: compare two runs' event digests and "
        "localize the first divergent cycle",
    )
    diff_p.add_argument(
        "a",
        help="baseline: GOLDEN_*.json, run-record JSON, runs.jsonl"
        "[#run_id], or a 'sim:family=...,rate=...' re-simulation spec",
    )
    diff_p.add_argument("b", help="candidate (same accepted forms)")
    diff_p.add_argument(
        "--no-localize",
        action="store_true",
        help="stop at the summary/census/checkpoint granularities; do not "
        "re-simulate to name the exact divergent cycle",
    )
    diff_p.add_argument(
        "--context",
        type=int,
        default=12,
        metavar="N",
        help="flight-recorder events to print at the divergent cycle "
        "(default: 12)",
    )
    diff_p.set_defaults(func=_cmd_diff)

    golden_p = sub.add_parser(
        "golden",
        help="record/check golden digest traces for the canonical bench "
        "cases (benchmarks/goldens/)",
    )
    golden_p.add_argument("action", choices=("record", "check"))
    golden_p.add_argument(
        "golden",
        nargs="*",
        help="golden files to check (default: every GOLDEN_*.json under "
        "--dir)",
    )
    golden_p.add_argument(
        "--case",
        action="append",
        default=None,
        metavar="NAME",
        help="with record: restrict to one bench case (repeatable)",
    )
    golden_p.add_argument(
        "--scale", choices=("tiny", "small", "paper"), default="tiny"
    )
    golden_p.add_argument("--seed", type=int, default=1)
    golden_p.add_argument(
        "--dir",
        default="benchmarks/goldens",
        help="golden-trace directory (default: benchmarks/goldens/)",
    )
    golden_p.add_argument(
        "--no-localize",
        action="store_true",
        help="with check: report mismatch without localizing the cycle",
    )
    golden_p.set_defaults(func=_cmd_golden)

    dash_p = sub.add_parser(
        "dashboard",
        help="render the static paper-figure + perf HTML dashboard",
    )
    dash_p.add_argument("--out", default="dashboard.html")
    dash_p.add_argument("--results-dir", default="benchmarks/results")
    dash_p.add_argument(
        "--scale", choices=("tiny", "small", "paper"), default="tiny"
    )
    dash_p.add_argument(
        "--bench-dir",
        action="append",
        default=None,
        help="directories scanned for BENCH_<n>.json (repeatable; default: .)",
    )
    dash_p.add_argument("--runs-dir", default="runs")
    dash_p.set_defaults(func=_cmd_dashboard)

    watch_p = sub.add_parser(
        "watch",
        help="serve the live fleet dashboard (in-flight --live runs, "
        "failures with postmortems, bench trajectory, run registry)",
    )
    watch_p.add_argument(
        "--port",
        type=int,
        default=8631,
        help="listen port (default: 8631; 0 picks a free port)",
    )
    watch_p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    watch_p.add_argument(
        "--runs-dir",
        default="runs",
        help="run-registry directory to observe (default: runs/)",
    )
    watch_p.add_argument(
        "--poll",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="change-detection interval for the auto-updating pages "
        "(default: 1.0)",
    )
    watch_p.add_argument(
        "--top",
        type=int,
        default=20,
        help="rows in the recent-runs table (default: 20)",
    )
    watch_p.add_argument(
        "--once",
        action="store_true",
        help="print the fleet state as JSON and exit instead of serving "
        "(scriptable snapshot; also the CI smoke hook)",
    )
    watch_p.set_defaults(func=_cmd_watch)

    check_p = sub.add_parser(
        "check",
        help="statically verify system families (deadlock / livelock / lint)",
    )
    check_group = check_p.add_mutually_exclusive_group(required=True)
    check_group.add_argument("--family", choices=FAMILIES)
    check_group.add_argument(
        "--all", action="store_true", help="verify every registered family"
    )
    check_p.add_argument(
        "--mode",
        choices=("vct", "wormhole"),
        default="vct",
        help="flow-control assumption for the CDG analysis (default: vct, "
        "the discipline the routers actually enforce)",
    )
    check_p.add_argument(
        "--chiplets",
        "--grid",
        dest="chiplets",
        default="2x2",
        help="chiplet grid, e.g. 2x2 (--grid is an alias)",
    )
    check_p.add_argument("--nodes", default="3x3", help="per-chiplet mesh, e.g. 3x3")
    check_p.add_argument(
        "--verbose", action="store_true", help="include INFO findings in reports"
    )
    check_p.add_argument(
        "--prove",
        action="store_true",
        help="run the full certification passes (contracts, reachability, "
        "fault sweep, model checking) instead of the check passes alone",
    )
    check_p.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the reports (or, with --prove, the certificates) "
        "as one JSON document",
    )
    check_p.set_defaults(func=_cmd_check)

    prove_p = sub.add_parser(
        "prove",
        help="certify families: interface contracts, exhaustive "
        "reachability, single-link fault sweep and bounded model checking "
        "on top of `check`",
    )
    prove_group = prove_p.add_mutually_exclusive_group(required=True)
    prove_group.add_argument("--family", choices=FAMILIES)
    prove_group.add_argument(
        "--all", action="store_true", help="certify every registered family"
    )
    prove_p.add_argument(
        "--mode",
        choices=("vct", "wormhole", "both"),
        default="both",
        help="flow-control assumption(s) to certify under (default: both)",
    )
    prove_p.add_argument(
        "--chiplets",
        "--grid",
        dest="chiplets",
        default="2x2",
        help="chiplet grid, e.g. 2x2 (--grid is an alias)",
    )
    prove_p.add_argument("--nodes", default="3x3", help="per-chiplet mesh, e.g. 3x3")
    prove_p.add_argument(
        "--no-fault-masks",
        action="store_true",
        help="skip the single-link fault-mask reachability sweep",
    )
    prove_p.add_argument(
        "--max-states",
        type=int,
        default=4_000,
        help="model-checker state budget per adjudicated cycle (default: 4000)",
    )
    prove_p.add_argument(
        "--max-packets",
        type=int,
        default=None,
        help="model-checker in-flight packet bound (default: sized from "
        "the adjudicated cycle's channel capacities)",
    )
    prove_p.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write every certificate into one JSON document",
    )
    prove_p.add_argument(
        "--verbose", action="store_true", help="include INFO findings in reports"
    )
    add_record_args(prove_p)
    prove_p.set_defaults(func=_cmd_prove)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
