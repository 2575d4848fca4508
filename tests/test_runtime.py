"""Tests for the parallel runtime: jobs, executors and the result store."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cells import build_inverter, build_nor
from repro.characterization import (
    CharacterizationConfig,
    characterization_key,
    characterize_sis,
    nldm_characterization_job,
)
from repro.csm.base import SimulationOptions
from repro.exceptions import TimingError
from repro.experiments import ExperimentContext
from repro.experiments.fig5_delay_difference import run_fig5
from repro.runtime import (
    Job,
    JobError,
    PackedStore,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    cell_fingerprint,
    content_hash,
    run_jobs,
)
from repro.runtime import cli
from repro.runtime.jobs import Rendered, canonical_json
from repro.sta import CSMEngine, TimingModelLibrary, generate_netlist, primary_input_waveforms
from repro.technology import default_technology
from repro.technology.corners import STANDARD_CORNERS, apply_corner


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
def _double(x):
    return 2 * x


def _fail(message):
    raise ValueError(message)


class TestExecutors:
    def test_all_executors_agree_and_preserve_order(self):
        jobs = [Job(fn=_double, args=(i,)) for i in range(12)]
        expected = [2 * i for i in range(12)]
        for executor in (SerialExecutor(), ThreadExecutor(4), ProcessExecutor(2)):
            values = [r.value for r in run_jobs(jobs, executor=executor)]
            assert values == expected, executor.describe()

    def test_fig5_job_set_identical_across_executors(self, experiment_context):
        serial = run_fig5(experiment_context, fanouts=(1, 3, 5))

        threaded_ctx = ExperimentContext(
            characterization=experiment_context.characterization,
            reference_time_step=experiment_context.reference_time_step,
            model_time_step=experiment_context.model_time_step,
            executor=ThreadExecutor(max_workers=3),
        )
        threaded = run_fig5(threaded_ctx, fanouts=(1, 3, 5))

        process_ctx = ExperimentContext(
            characterization=experiment_context.characterization,
            reference_time_step=experiment_context.reference_time_step,
            model_time_step=experiment_context.model_time_step,
            executor=ProcessExecutor(max_workers=2),
        )
        parallel = run_fig5(process_ctx, fanouts=(1, 3, 5))

        for other in (threaded, parallel):
            assert serial.difference_series() == other.difference_series()
            for row_a, row_b in zip(serial.rows, other.rows):
                assert row_a.delay_fast == row_b.delay_fast
                assert row_a.delay_slow == row_b.delay_slow

    def test_errors_are_captured_per_job(self):
        jobs = [
            Job(fn=_double, args=(1,)),
            Job(fn=_fail, args=("boom",), name="bad-job"),
            Job(fn=_double, args=(3,)),
        ]
        results = run_jobs(jobs, reraise=False)
        assert [r.ok for r in results] == [True, False, True]
        assert [r.value for r in results] == [2, None, 6]
        assert "boom" in results[1].error

    def test_errors_reraise_as_job_error(self):
        with pytest.raises(JobError, match="bad-job"):
            run_jobs([Job(fn=_fail, args=("boom",), name="bad-job")])

    def test_error_capture_in_worker_process(self):
        results = run_jobs(
            [Job(fn=_fail, args=("remote boom",), name="remote")],
            executor=ProcessExecutor(max_workers=1),
            reraise=False,
        )
        assert not results[0].ok
        assert "remote boom" in results[0].error


# ----------------------------------------------------------------------
# Content hashing
# ----------------------------------------------------------------------
class TestContentHash:
    def test_hash_is_stable_across_object_identities(self, technology, fast_config):
        cell_a = build_nor(technology, 2)
        cell_b = build_nor(default_technology(), 2)
        key_a = characterization_key("mcsm", cell_a, ("A", "B"), fast_config)
        key_b = characterization_key("mcsm", cell_b, ("A", "B"), fast_config)
        assert key_a == key_b

    def test_hash_changes_with_characterization_config(self, nor2, fast_config):
        base = characterization_key("mcsm", nor2, ("A", "B"), fast_config)
        finer = characterization_key(
            "mcsm", nor2, ("A", "B"), fast_config.with_grid_points(7)
        )
        assert base != finer

    def test_hash_changes_with_technology_corner(self, technology, fast_config):
        nominal = build_nor(technology, 2)
        slow = build_nor(apply_corner(technology, STANDARD_CORNERS["SS"]), 2)
        assert characterization_key(
            "sis", nominal, ("A",), fast_config
        ) != characterization_key("sis", slow, ("A",), fast_config)

    def test_hash_changes_with_topology_and_kind(self, technology, fast_config):
        nor2 = build_nor(technology, 2)
        nor3 = build_nor(technology, 3, name="NOR2_X1")  # same name, other topology
        assert characterization_key(
            "sis", nor2, ("A",), fast_config
        ) != characterization_key("sis", nor3, ("A",), fast_config)
        assert characterization_key(
            "mis", nor2, ("A", "B"), fast_config
        ) != characterization_key("mcsm", nor2, ("A", "B"), fast_config)

    def test_fingerprint_covers_geometry(self, technology):
        x1 = build_nor(technology, 2)
        x2 = build_nor(technology, 2, drive_strength=2.0, name="NOR2_X1")
        assert content_hash(cell_fingerprint(x1)) != content_hash(cell_fingerprint(x2))

    def test_rendered_parts_hash_as_the_values_they_stand_for(self, technology):
        values = {
            "float": 1e-15,
            "array": np.arange(6.0).reshape(2, 3),
            "pairs": [("n1", 2e-15), ("n0", 0.0)],
            "nested": {"b": [1, True, None], "a": (np.float64(0.5), "x")},
            "cell": cell_fingerprint(build_nor(technology, 2)),
        }
        reference = content_hash("salt", values)
        for name in values:
            spliced = dict(values, **{name: Rendered(canonical_json(values[name]))})
            assert content_hash("salt", spliced) == reference, name
        assert content_hash(
            "salt", {name: Rendered(canonical_json(value)) for name, value in values.items()}
        ) == reference
        entries = [Rendered(canonical_json(pair)) for pair in values["pairs"]]
        assert content_hash("salt", dict(values, pairs=entries)) == reference


# ----------------------------------------------------------------------
# The result store
# ----------------------------------------------------------------------
class TestResultStore:
    def test_roundtrip_primitive_payloads(self, tmp_path):
        cache = PackedStore(tmp_path)
        payload = {
            "floats": (0.1 + 0.2, 1e-300, -0.0),
            "nested": [{"a": 1, "b": None}, (True, "text")],
            "array": np.linspace(0.0, 1.0, 7),
        }
        cache.store("k" * 64, payload)
        hit, back = cache.lookup("k" * 64)
        assert hit
        assert back["floats"] == payload["floats"]
        assert back["nested"] == payload["nested"]
        assert np.array_equal(back["array"], payload["array"])

    def test_cache_hit_returns_bitwise_equal_model(self, tmp_path, inverter, fast_config):
        model = characterize_sis(inverter, "A", fast_config)
        key = characterization_key("sis", inverter, ("A",), fast_config)
        cache = PackedStore(tmp_path)
        cache.store(key, model)
        hit, back = cache.lookup(key)
        assert hit
        assert type(back) is type(model)
        assert np.array_equal(back.io_table.values, model.io_table.values)
        assert back.io_table.axes == model.io_table.axes
        assert back.io_table.name == model.io_table.name
        assert back.input_cap == model.input_cap
        assert back.output_cap == model.output_cap
        assert back.miller_cap == model.miller_cap
        assert back.fixed_inputs == model.fixed_inputs
        assert back.vdd == model.vdd

    def test_numpy_scalars_roundtrip_and_hash_like_builtins(self, tmp_path):
        cache = PackedStore(tmp_path)
        payload = {
            "f": np.float64(1e-12),
            "i": np.int64(7),
            "b": np.bool_(True),
        }
        cache.store("n" * 64, payload)
        hit, back = cache.lookup("n" * 64)
        assert hit
        assert back == {"f": 1e-12, "i": 7, "b": True}
        # Hashing must not distinguish np.float64 from the equal Python float.
        assert content_hash(np.float64(2.5)) == content_hash(2.5)
        assert content_hash(np.int64(3)) == content_hash(3)

    def test_undecodable_entry_is_dropped_as_miss(self, tmp_path):
        """A well-formed record whose manifest no decoder knows (written by
        other code) is a miss and an eviction, never an exception."""
        cache = PackedStore(tmp_path)
        key = "c" * 64
        record = cache._build_record(key, {"t": "no-such-tag"}, {})
        with open(tmp_path / "store.dat", "ab") as handle:
            handle.write(record)
        reopened = PackedStore(tmp_path)  # adopts the unindexed record
        assert key in reopened
        hit, value = reopened.lookup(key)
        assert not hit and value is None
        assert key not in reopened  # self-healed: the poisoned entry is gone
        assert reopened.stats.evictions == 1

    def test_miss_then_hit_stats_and_eviction(self, tmp_path):
        cache = PackedStore(tmp_path)
        hit, _ = cache.lookup("a" * 64)
        assert not hit and cache.stats.misses == 1
        cache.store("a" * 64, [1.0, 2.0])
        assert "a" * 64 in cache
        assert len(cache) == 1
        hit, value = cache.lookup("a" * 64)
        assert hit and value == [1.0, 2.0] and cache.stats.hits == 1
        assert cache.evict("a" * 64)
        assert not cache.evict("a" * 64)
        cache.store("b" * 64, 1.5)
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_run_jobs_skips_cached_characterization(self, tmp_path, inverter):
        cache = PackedStore(tmp_path)
        job = nldm_characterization_job(inverter, (40e-12, 120e-12), (3e-15, 12e-15))
        [first] = run_jobs([job], cache=cache)
        assert not first.cache_hit and first.duration > 0
        [second] = run_jobs([job], cache=cache)
        assert second.cache_hit and second.duration == 0.0
        for table, again in zip(first.value, second.value):
            assert np.array_equal(table.delay_table.values, again.delay_table.values)
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_context_characterization_goes_through_disk_cache(
        self, tmp_path, fast_config
    ):
        def fresh_context():
            return ExperimentContext(
                characterization=fast_config,
                reference_time_step=4e-12,
                model_time_step=2e-12,
                cache=PackedStore(tmp_path),
            )

        cold = fresh_context()
        model_cold = cold.sis_for(pin="A")
        assert cold.cache.stats.misses == 1 and cold.cache.stats.stores == 1

        warm = fresh_context()
        model_warm = warm.sis_for(pin="A")
        assert warm.cache.stats.hits == 1 and warm.cache.stats.misses == 0
        assert np.array_equal(
            model_cold.io_table.values, model_warm.io_table.values
        )

    def test_warm_figure_run_reads_its_models_and_stores_nothing(
        self, tmp_path, fast_config
    ):
        """A figure re-run by a fresh context on a warm store characterizes
        nothing, misses nothing, writes nothing and gives the cold run's
        numbers exactly (the models decode bitwise; the model simulations
        are recomputed)."""
        from repro.experiments import run_fig11

        def fresh_context():
            return ExperimentContext(
                characterization=fast_config,
                reference_time_step=4e-12,
                model_time_step=2e-12,
                cache=PackedStore(tmp_path),
            )

        def numbers(result):
            return (
                result.reference_delay,
                result.mcsm_delay,
                result.sis_delay,
                result.mcsm_rmse,
                result.sis_rmse,
            )

        cold = fresh_context()
        cold_numbers = numbers(run_fig11(cold))
        assert cold.cache.stats.stores == 2  # the NOR2 MCSM and SIS models
        warm = fresh_context()
        assert numbers(run_fig11(warm)) == cold_numbers
        stats = warm.cache.stats
        assert stats.misses == 0 and stats.stores == 0 and stats.hits == 2, stats

    def test_prewarm_characterizations(self, tmp_path, fast_config):
        context = ExperimentContext(
            characterization=fast_config,
            reference_time_step=4e-12,
            model_time_step=2e-12,
            cache=PackedStore(tmp_path),
        )
        executed = context.prewarm_characterizations(("sis",))
        assert executed == 1
        # Memoized now: a second prewarm neither executes nor hits the disk.
        assert context.prewarm_characterizations(("sis",)) == 0
        # A fresh context finds the models on disk: zero executions.
        fresh = ExperimentContext(
            characterization=fast_config,
            reference_time_step=4e-12,
            model_time_step=2e-12,
            cache=PackedStore(tmp_path),
        )
        assert fresh.prewarm_characterizations(("sis",)) == 0

    def test_figure_prewarm_is_one_bundle(
        self, tmp_path, fast_config, nor2_mcsm, nor2_baseline_mis, nor2_sis,
        batch_steps, model_payload,
    ):
        """The figures' NOR2 models are one bundle of the context's model
        library: two capacitance batches (stack node floating: the MCSM's 20
        runs and the baseline MIS's 4 stack-off output ramps, the SIS
        model's 12 being among them; stack node forced: the MCSM's 4), each
        model byte for byte its ``characterize_*`` bundle of one and stored
        under its own key."""
        context = ExperimentContext(
            characterization=fast_config,
            reference_time_step=4e-12,
            model_time_step=2e-12,
            cache=PackedStore(tmp_path),
        )
        assert context.prewarm_characterizations(("mcsm", "mis", "sis")) == 3
        assert [runs for _, runs, _ in batch_steps] == [24, 4]
        nor2 = context.nor2
        for kind, pins, model, alone in (
            ("mcsm", ("A", "B"), context.mcsm_for(), nor2_mcsm),
            ("mis", ("A", "B"), context.baseline_mis_for(), nor2_baseline_mis),
            ("sis", ("A",), context.sis_for(), nor2_sis),
        ):
            assert model_payload(model) == model_payload(alone), kind
            hit, stored = context.cache.lookup(
                characterization_key(kind, nor2, pins, fast_config)
            )
            assert hit and model_payload(stored) == model_payload(alone), kind

    def test_context_models_are_the_one_memo(self, fast_config):
        """The figures' accessors and ``run_sta_scale`` read the context's
        model library: a model is characterized once per context."""
        from repro.experiments import run_sta_scale

        context = ExperimentContext(
            characterization=fast_config, reference_time_step=4e-12, model_time_step=2e-12
        )
        assert context.prewarm_characterizations(("sis",)) == 1
        assert context.sis_for() is context.models.sis_model("NOR2_X1", "A")

        result = run_sta_scale(context, specs=("chain:inv:2",))
        assert result.models_executed == 1
        assert result.max_deviation() == 0.0  # batched and oracle: bitwise
        assert result.points[0].speedup > 0
        assert "chain:inv:2" in result.summary()
        inverter = context.models.sis_model("INV_X1", "A")
        assert run_sta_scale(context, specs=("chain:inv:2",)).models_executed == 0
        assert context.sis_for("INV_X1") is inverter


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
#: The 64-gate design every ``--sta`` verb below times.
CLI_SPEC = "dag:w16:d4:s3"


@pytest.fixture(scope="module")
def cli_cache(warm_store):
    """One ``--cache`` for every CLI test, starting from the TT and FF warm
    characterizations: only the first characterizes what it lacks."""
    return warm_store("cli-cache", "TT", "FF").directory


def _cli(cache_dir, tmp_path, *argv):
    """``cli.main(argv --cache --json)`` in-process: (exit code, report)."""
    report = tmp_path / "report.json"
    code = cli.main([*argv, "--cache", str(cache_dir), "--json", str(report)])
    return code, (json.loads(report.read_text()) if report.exists() else None)


def _sta_replies(report):
    """The ``timing``/``eco`` replies of the one ``--sta`` design, after
    checking its ``open_session`` exchange."""
    opened, *exchanges = report["designs"][CLI_SPEC]
    assert opened["request"] == {"op": "open_session", "design": {"generate": CLI_SPEC}}
    assert opened["reply"]["ok"] and opened["reply"]["gates"] == 64
    for exchange in exchanges:
        assert exchange["request"]["session"] == opened["reply"]["session"]
    return [exchange["reply"] for exchange in exchanges]


class TestCommandLine:
    def test_figures(self, cli_cache, tmp_path):
        code, report = _cli(cli_cache, tmp_path, "--figures", "fig3", "--quiet")
        assert code == 0
        assert set(report["figures"]) == {"fig3"} and report["settings"] == "quick"
        assert "hits" in report["cache"]

    def test_sta_csm_equals_a_direct_engine_run(self, cli_cache, tmp_path, library):
        code, report = _cli(cli_cache, tmp_path, "--sta", CLI_SPEC, "--engine", "csm")
        assert code == 0
        [reply] = _sta_replies(report)
        assert reply["engine"] == "csm" and reply["stats"]["instances"] == 64
        netlist = generate_netlist(library, CLI_SPEC)
        models = TimingModelLibrary(
            library=library,
            config=CharacterizationConfig(io_grid_points=5),
            cache=PackedStore(cli_cache),
        )
        direct = CSMEngine(
            netlist, models, options=SimulationOptions(time_step=2e-12), use_cache=False
        ).run(primary_input_waveforms(netlist, seed=0))
        expected = {}
        for net in netlist.primary_outputs:
            try:
                expected[net] = direct.arrival(net)
            except TimingError:
                expected[net] = None
        assert reply["arrivals"] == expected  # float-exact through the JSON

    def test_sta_nldm(self, cli_cache, tmp_path):
        code, report = _cli(cli_cache, tmp_path, "--sta", CLI_SPEC, "--engine", "nldm")
        assert code == 0
        [reply] = _sta_replies(report)
        assert reply["engine"] == "nldm"
        assert set(reply["arrivals"]) == set(reply["slews"])
        assert any(arrival is not None for arrival in reply["arrivals"].values())

    def test_sta_hybrid(self, cli_cache, tmp_path):
        code, report = _cli(
            cli_cache, tmp_path, "--sta", CLI_SPEC, "--engine", "hybrid", "--top-k", "2"
        )
        assert code == 0
        [reply] = _sta_replies(report)
        assert reply["engine"] == "hybrid" and reply["iterations"]
        assert 0.0 < reply["csm_fraction"] < 1.0
        assert set(reply["exact"]) == set(reply["arrivals"]) == set(reply["slacks"])
        # A refined cone is bitwise a full CSM run on its nets.
        code, report = _cli(cli_cache, tmp_path, "--sta", CLI_SPEC, "--engine", "csm")
        assert code == 0
        [csm] = _sta_replies(report)
        exact = [net for net, flag in reply["exact"].items() if flag]
        assert exact
        assert {net: reply["arrivals"][net] for net in exact} == {
            net: csm["arrivals"][net] for net in exact
        }

    def test_sta_corners(self, cli_cache, tmp_path):
        code, report = _cli(cli_cache, tmp_path, "--sta", CLI_SPEC, "--corners", "TT,FF")
        assert code == 0
        [reply] = _sta_replies(report)
        assert reply["corners"] == ["TT", "FF"]
        assert set(reply["arrivals"]) == set(reply["stats"]) == {"TT", "FF"}
        for entry in reply["worst_arrivals"].values():
            assert entry is None or entry[0] in ("TT", "FF")

    def test_sta_stream(self, cli_cache, tmp_path):
        code, report = _cli(
            cli_cache,
            tmp_path,
            "--sta",
            CLI_SPEC,
            "--memory-mode",
            "stream",
            "--memory-budget",
            "4194304",
        )
        assert code == 0
        [reply] = _sta_replies(report)
        assert reply["engine"] == "csm" and reply["stats"]["instances"] == 64
        assert {"spills", "faults"} <= set(reply["stats"])

    def test_sta_incremental(self, cli_cache, tmp_path):
        code, report = _cli(cli_cache, tmp_path, "--sta", CLI_SPEC, "--incremental")
        assert code == 0
        first, warm, eco, edited = _sta_replies(report)
        assert warm["stats"]["integrations"] == 0 and warm["stats"]["keyed"] == 0
        assert warm["arrivals"] == first["arrivals"]
        [applied] = eco["applied"]
        assert applied["kind"] == "swap_cell" and applied["affected"] < 64
        assert edited["revision"] == eco["revision"] > warm["revision"]
        assert edited["stats"]["integrations"] <= applied["affected"]
        assert (cli_cache / "store.dat").stat().st_size > 0
        assert (cli_cache / "store.idx").stat().st_size > 0

    def test_rejected_combination_is_the_services_error(self, cli_cache, tmp_path, capsys):
        code, report = _cli(
            cli_cache, tmp_path, "--sta", CLI_SPEC, "--engine", "hybrid", "--corners", "TT,FF"
        )
        assert code == 2 and report is None
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 and "engine='hybrid' is single-corner" in lines[0]

    def test_unknown_corner_is_an_argument_error(self, monkeypatch, capsys):
        """``--corners`` with an unknown name prints one line naming the
        available corners and returns 2, like the CLI's other argument
        errors, before any model is characterized."""
        from repro.runtime import cli
        from repro.sta import models

        def refuse(*args, **kwargs):
            raise AssertionError("an argument error must not characterize anything")

        monkeypatch.setattr(models, "run_jobs", refuse)
        assert cli.main(["--sta", "chain:inv:3", "--corners", "TT,XX"]) == 2
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 and "XX" in lines[0]
        assert all(name in lines[0] for name in STANDARD_CORNERS)
