"""Tests for the perf bench suite and the noise-aware comparison."""

import json
import math

import pytest

from repro.telemetry.bench import (
    BENCH_SCHEMA_VERSION,
    CASES,
    bench_files,
    load_bench,
    next_bench_path,
    render_bench,
    run_bench,
    write_bench,
)
from repro.telemetry.compare import (
    chain_report,
    classify,
    compare_bench,
    compare_chain,
    compare_paths,
    compare_records,
    load_comparable,
    regressions,
    render_chain,
    render_comparison,
)
from .test_runstore import make_record


def make_case(cps_median=5_000.0, cps_iqr=100.0, wall=0.4, events=None):
    return {
        "family": "hetero_phy_torus",
        "cps": {"median": cps_median, "iqr": cps_iqr, "samples": [cps_median]},
        "wall_s": {"median": wall, "iqr": 0.01, "samples": [wall]},
        "events": dict(events or {"flit_send": 1_000, "rob_insert": 50}),
        "stats": {"avg_latency": 25.0},
    }


def make_bench_doc(**cases):
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "bench",
        "created": "2026-01-01T00:00:00+00:00",
        "git_rev": "cafef00d",
        "scale": "tiny",
        "reps": 3,
        "seed": 1,
        "cases": cases,
    }


# -- verdict logic -----------------------------------------------------------
def test_classify_noise_within_floor():
    v = classify("c", "m", 100.0, 103.0, higher_is_better=True)
    assert v.verdict == "noise"
    assert v.rel_delta == pytest.approx(0.03)


def test_classify_improved_and_regressed():
    up = classify("c", "cps", 100.0, 120.0, higher_is_better=True)
    down = classify("c", "cps", 100.0, 80.0, higher_is_better=True)
    assert (up.verdict, down.verdict) == ("improved", "regressed")
    # For lower-is-better metrics the directions flip.
    lat_up = classify("c", "latency", 100.0, 120.0, higher_is_better=False)
    assert lat_up.verdict == "regressed"


def test_classify_iqr_widens_threshold():
    # 10% delta: past the 5% floor, but within 1.5x a wide IQR.
    v = classify("c", "m", 100.0, 110.0, higher_is_better=True, iqr=20.0)
    assert v.verdict == "noise"
    assert v.threshold == pytest.approx(30.0)


def test_classify_nan_is_not_applicable():
    v = classify("c", "m", float("nan"), 1.0, higher_is_better=True)
    assert v.verdict == "n/a"
    assert math.isnan(v.threshold)


# -- bench-vs-bench ----------------------------------------------------------
def test_compare_bench_flags_event_drift_not_timing_noise():
    a = make_bench_doc(fig11=make_case(cps_median=5_000.0, cps_iqr=400.0))
    b = make_bench_doc(
        fig11=make_case(
            cps_median=4_800.0,  # within 1.5 * IQR: noise
            cps_iqr=400.0,
            events={"flit_send": 1_200, "rob_insert": 50},  # +20%: real
        )
    )
    verdicts = compare_bench(a, b)
    by_metric = {v.metric: v.verdict for v in verdicts}
    assert by_metric["cycles_per_second"] == "noise"
    assert by_metric["events.flit_send"] == "regressed"
    assert by_metric["events.rob_insert"] == "noise"
    assert [v.metric for v in regressions(verdicts)] == ["events.flit_send"]


def test_compare_bench_skips_non_overlapping_cases():
    a = make_bench_doc(only_in_a=make_case())
    b = make_bench_doc(only_in_b=make_case())
    assert compare_bench(a, b) == []
    assert "no overlapping" in render_comparison([])


def test_render_comparison_table():
    a = make_bench_doc(fig11=make_case(cps_median=5_000.0, cps_iqr=0.0))
    b = make_bench_doc(fig11=make_case(cps_median=6_000.0, cps_iqr=0.0))
    text = render_comparison(compare_bench(a, b), label_a="old", label_b="new")
    assert "cycles_per_second" in text
    assert "+ improved" in text
    assert "regression(s)" in text


def make_mem_block(peak=200_000):
    return {
        "schema_version": 1,
        "top_n": 10,
        "peak_bytes": peak,
        "current_bytes": peak // 2,
        "ru_maxrss_bytes": None,
        "phases": {"other": peak},
        "top_sites": [],
    }


def test_compare_bench_covers_mem_peak():
    a = make_bench_doc(fig11={**make_case(), "mem": make_mem_block(200_000)})
    worse = make_bench_doc(fig11={**make_case(), "mem": make_mem_block(300_000)})
    close = make_bench_doc(fig11={**make_case(), "mem": make_mem_block(210_000)})
    by = {v.metric: v.verdict for v in compare_bench(a, worse)}
    assert by["mem.peak_bytes"] == "regressed"  # +50% past the 10% floor
    by = {v.metric: v.verdict for v in compare_bench(a, close)}
    assert by["mem.peak_bytes"] == "noise"  # +5% inside the floor


def test_compare_bench_pre_mem_artifacts_read_na():
    old = make_bench_doc(fig11=make_case())  # no mem block at all
    new = make_bench_doc(fig11={**make_case(), "mem": make_mem_block()})
    for pair in ((old, new), (new, old), (old, old)):
        [verdict] = [v for v in compare_bench(*pair) if v.metric == "mem.peak_bytes"]
        assert verdict.verdict == "n/a"
        assert math.isnan(verdict.threshold)


# -- N-way chains ------------------------------------------------------------
def _write_chain(tmp_path, *cps_values):
    paths = []
    for index, cps in enumerate(cps_values):
        path = tmp_path / f"BENCH_{index}.json"
        path.write_text(
            json.dumps(make_bench_doc(fig11=make_case(cps_median=cps, cps_iqr=0.0)))
        )
        paths.append(path)
    return paths


def test_compare_chain_adjacent_pairs(tmp_path):
    paths = _write_chain(tmp_path, 5_000.0, 5_050.0, 3_000.0)
    steps = compare_chain(paths)
    assert [(a, b) for a, b, _ in steps] == [
        ("BENCH_0.json", "BENCH_1.json"),
        ("BENCH_1.json", "BENCH_2.json"),
    ]
    first = {v.metric: v.verdict for v in steps[0][2]}
    second = {v.metric: v.verdict for v in steps[1][2]}
    assert first["cycles_per_second"] == "noise"
    assert second["cycles_per_second"] == "regressed"

    text = render_chain(steps)
    assert "step 1/2: BENCH_0.json -> BENCH_1.json" in text
    assert "chain total: 1 regression(s) across 2 step(s)" in text


def test_render_chain_single_step_keeps_two_operand_output(tmp_path):
    paths = _write_chain(tmp_path, 5_000.0, 3_000.0)
    steps = compare_chain(paths)
    [(label_a, label_b, verdicts)] = steps
    assert render_chain(steps) == render_comparison(
        verdicts, label_a=label_a, label_b=label_b
    )
    assert "step 1/1" not in render_chain(steps)


def test_compare_chain_validates_operands(tmp_path):
    with pytest.raises(ValueError, match="at least two"):
        compare_chain([tmp_path / "only.json"])
    [bench] = _write_chain(tmp_path, 5_000.0)
    record_path = tmp_path / "record.json"
    record_path.write_text(json.dumps(make_record().to_dict()))
    with pytest.raises(ValueError, match="mixed kinds"):
        compare_chain([bench, record_path])


def test_chain_report_is_json_safe(tmp_path):
    paths = _write_chain(tmp_path, 5_000.0, 3_000.0, 3_000.0)
    doc = chain_report(compare_chain(paths), gate=["cycles_per_second"])
    assert doc["kind"] == "compare"
    assert doc["regressions"] == 1
    assert [s["regressions"] for s in doc["steps"]] == [1, 0]
    json.dumps(doc)  # NaN-free (n/a verdicts serialize as null)
    metrics = {v["metric"] for v in doc["steps"][0]["verdicts"]}
    assert "mem.peak_bytes" in metrics  # pre-mem docs still report the row


# -- record-vs-record --------------------------------------------------------
def test_compare_records_metrics():
    a = make_record(cycles_per_second=4_000.0, stats={"avg_latency": 20.0})
    b = make_record(cycles_per_second=3_000.0, stats={"avg_latency": 20.2})
    by_metric = {v.metric: v.verdict for v in compare_records(a, b)}
    assert by_metric["cycles_per_second"] == "regressed"
    assert by_metric["stats.avg_latency"] == "noise"
    assert by_metric["stats.avg_energy_pj"] == "n/a"  # absent on both sides


# -- file-level dispatch -----------------------------------------------------
def test_load_comparable_dispatches_on_content(tmp_path):
    bench_path = write_bench(make_bench_doc(fig11=make_case()), tmp_path)
    kind, doc = load_comparable(bench_path)
    assert kind == "bench" and "fig11" in doc["cases"]

    record = make_record()
    record_path = tmp_path / "one.json"
    record_path.write_text(json.dumps(record.to_dict()))
    kind, loaded = load_comparable(record_path)
    assert kind == "record" and loaded == record

    from repro.telemetry.runstore import RunStore

    store = RunStore(tmp_path / "runs")
    store.append(make_record(label="older"))
    store.append(record)
    kind, latest = load_comparable(store.path)
    assert kind == "record" and latest.run_id == record.run_id

    with pytest.raises(FileNotFoundError):
        load_comparable(tmp_path / "nope.json")
    junk = tmp_path / "junk.json"
    junk.write_text('{"neither": true}')
    with pytest.raises(ValueError, match="neither"):
        load_comparable(junk)


def test_compare_paths_rejects_mixed_kinds(tmp_path):
    bench_path = write_bench(make_bench_doc(fig11=make_case()), tmp_path)
    record_path = tmp_path / "one.json"
    record_path.write_text(json.dumps(make_record().to_dict()))
    with pytest.raises(ValueError, match="cannot compare"):
        compare_paths(bench_path, record_path)


# -- BENCH_<n>.json plumbing -------------------------------------------------
def test_bench_files_number_and_sort(tmp_path):
    doc = make_bench_doc(fig11=make_case())
    assert next_bench_path(tmp_path).name == "BENCH_0.json"
    first = write_bench(doc, tmp_path)
    assert first.name == "BENCH_0.json"
    (tmp_path / "BENCH_10.json").write_text(json.dumps(doc))
    second = write_bench(doc, tmp_path)
    assert second.name == "BENCH_11.json"
    (tmp_path / "BENCH_2.json").write_text(json.dumps(doc))
    (tmp_path / "BENCH_baseline.json").write_text(json.dumps(doc))  # no index
    names = [p.name for p in bench_files(tmp_path)]
    assert names == ["BENCH_0.json", "BENCH_2.json", "BENCH_10.json", "BENCH_11.json"]


def test_load_bench_rejects_foreign_schema(tmp_path):
    doc = make_bench_doc(fig11=make_case())
    doc["schema_version"] = BENCH_SCHEMA_VERSION + 1
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="not supported"):
        load_bench(path)


# -- the suite itself --------------------------------------------------------
def census_digest(case, cycles, warmup, *, seed):
    """Re-run one bench case with a :class:`RunDigest` tapping the bus."""
    from repro.sim.build import build_network
    from repro.sim.config import SimConfig
    from repro.sim.engine import Engine
    from repro.sim.stats import Stats
    from repro.telemetry.digest import RunDigest
    from repro.topology.grid import ChipletGrid
    from repro.topology.system import build_system
    from repro.traffic.injection import SyntheticWorkload
    from repro.traffic.patterns import make_pattern

    grid = ChipletGrid(*case.chiplets, *case.nodes)
    config = SimConfig().replace(sim_cycles=cycles, warmup_cycles=warmup)
    spec = build_system(case.family, grid, config)
    stats = Stats(measure_from=warmup)
    network = build_network(spec, stats)
    digest = RunDigest(network)
    workload = SyntheticWorkload(
        make_pattern(case.pattern, grid.n_nodes),
        grid.n_nodes,
        case.rate,
        config.packet_length,
        until=cycles,
        seed=seed,
    )
    Engine(network, workload, stats).run(cycles)
    digest.detach()
    return digest


def test_run_bench_single_case_smoke():
    case = CASES[1]  # fig14_hetero_channel: the smallest system of the canon
    doc = run_bench(scale="tiny", reps=1, seed=1, cases=[case], git_rev="cafef00d")
    assert doc["schema_version"] == BENCH_SCHEMA_VERSION
    assert doc["git_rev"] == "cafef00d"
    assert list(doc["cases"]) == [case.name]
    measured = doc["cases"][case.name]
    assert measured["cps"]["median"] > 0
    assert len(measured["cps"]["samples"]) == 1  # warm-up rep discarded
    assert measured["events"]["flit_send"] > 0
    assert measured["events"]["packet_inject"] > 0
    # The census tracks the full taxonomy, including the pipeline events
    # added for latency attribution.
    assert measured["events"]["route_compute"] > 0
    assert measured["events"]["vc_alloc"] > 0
    # The census is the untimed digest rep's per-event counts (cycle_end
    # included): a same-seed re-run reproduces it key for key.
    digest = census_digest(case, measured["cycles"], measured["warmup"], seed=1)
    assert measured["events"] == {k: v for k, v in digest.counts.items() if v}
    assert measured["events"]["cycle_end"] == measured["cycles"]
    assert math.isfinite(measured["stats"]["avg_latency"])
    assert len(measured["config_hash"]) == 12
    text = render_bench(doc)
    assert case.name in text and "cyc/s" in text


def test_run_bench_validates_arguments():
    with pytest.raises(ValueError, match="scale"):
        run_bench(scale="huge")
    with pytest.raises(ValueError, match="reps"):
        run_bench(reps=0)
