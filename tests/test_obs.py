"""Observability suite: round tracing, wire metrics, batch journaling.

The load-bearing invariant pinned here: everything :mod:`repro.obs`
records lives *outside* the canonical run identity — a traced, metered,
journaled batch produces a ``BatchReport`` byte-identical to a bare one,
whether it runs serially or sharded over a process pool.  The journal
stream itself is deterministic across worker layouts up to its timing
fields, and a journal replay renders the identical per-round cost table
as the live batch it recorded.
"""

import json
import random

import pytest

from repro.analysis.trace_report import (
    RoundCost,
    TraceCostReport,
    aggregate_journal,
    aggregate_summaries,
    format_journal_tables,
    summaries_from_report,
    trace_task,
)
from repro.core.network import path_graph
from repro.core.protocol import Interaction, run_context
from repro.obs import (
    DECIDE,
    EVENT_TYPES,
    Journal,
    MetricsRegistry,
    Tracer,
    metrics,
    strip_timing,
    trace_run,
)
from repro.runtime import (
    PERSISTENT,
    BatchRunner,
    FaultPlan,
    get_task,
    task_names,
)

N = 24
RUNS = 4

#: prover messages land on interaction rounds 1/3/5, verifier coins on 2/4
ROUND_KINDS = ("prover", "verifier", "prover", "verifier", "prover")


def _traced_execution(task="path_outerplanarity", n=N):
    """One honest traced run, executed directly against the protocol."""
    spec = get_task(task)
    protocol = spec.protocol(c=2)
    instance = spec.yes_factory(n, random.Random(0))
    with trace_run(task, n=n, seed=0, run_index=0) as tracer:
        result = protocol.execute(instance, rng=random.Random(1))
    return result, tracer.traces[-1]


def _batch(task="path_outerplanarity", **kwargs):
    spec = get_task(task)
    return BatchRunner(spec.protocol(c=2), spec.yes_factory, **kwargs).run(
        RUNS, N, seed=3
    )


class TestTracer:
    def test_run_covers_five_rounds_and_decide(self):
        result, trace = _traced_execution()
        assert result.accepted
        summary = trace.summary()
        assert [row["round"] for row in summary["rounds"]] == [1, 2, 3, 4, 5]
        assert tuple(row["kind"] for row in summary["rounds"]) == ROUND_KINDS
        assert summary["decide"] is not None
        assert summary["decide"]["round"] == DECIDE
        assert summary["task"] == "path_outerplanarity"
        assert summary["n"] == N and summary["run_index"] == 0

    def test_span_bits_match_transcript(self):
        result, trace = _traced_execution()
        by_round = {row["round"]: row for row in trace.summary()["rounds"]}
        for i, rnd in enumerate(result.transcript.rounds, start=1):
            assert by_round[i]["bits_max"] == rnd.max_bits()
        # the traced prover maximum IS the paper's proof-size measure
        assert (
            max(r["bits_max"] for r in by_round.values() if r["kind"] == "prover")
            == result.proof_size_bits
        )

    def test_wall_time_is_sum_of_spans(self):
        _, trace = _traced_execution()
        assert trace.wall_time == pytest.approx(
            sum(s.wall_time for s in trace.spans)
        )
        assert all(s.wall_time >= 0 for s in trace.spans)

    def test_composite_subinteractions_merge_into_shared_rounds(self):
        # planarity runs its stages as sub-interactions; the paper's
        # accounting shares the 5 rounds, so spans merge per round
        result, trace = _traced_execution(task="planarity", n=32)
        assert result.accepted
        assert trace.n_interactions > 1
        summary = trace.summary()
        assert [row["round"] for row in summary["rounds"]] == [1, 2, 3, 4, 5]
        assert any(row["n_spans"] > 1 for row in summary["rounds"])

    def test_hooks_without_open_run_are_ignored(self):
        spec = get_task("path_outerplanarity")
        tracer = Tracer()
        with run_context(tracer=tracer):
            spec.protocol(c=2).execute(
                spec.yes_factory(N, random.Random(0)), rng=random.Random(1)
            )
        assert tracer.traces == []  # no begin_run -> nothing recorded
        with pytest.raises(RuntimeError, match="no run open"):
            tracer.end_run()

    def test_trace_run_uninstalls_on_exit(self):
        with trace_run("path_outerplanarity", n=8) as tracer:
            assert Interaction(path_graph(2))._tracer is tracer
        assert Interaction(path_graph(2))._tracer is None
        assert len(tracer.traces) == 1  # finalized even though nothing ran


class TestCanonicalIdentityUnderObservability:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_observed_batch_is_byte_identical(self, workers, tmp_path):
        bare = _batch(workers=workers)
        with metrics.enabled_metrics():
            with Journal(str(tmp_path / "j.jsonl")) as journal:
                observed = _batch(workers=workers, trace=True, journal=journal)
        assert observed.canonical_json() == bare.canonical_json()
        # the trace really was collected -- on every record, on any layout
        assert all(r.extra and "trace" in r.extra for r in observed.records)
        assert all(r.extra is None for r in bare.records)

    def test_journal_alone_implies_tracing(self):
        journal = Journal()
        report = _batch(journal=journal)
        assert all(r.extra and "trace" in r.extra for r in report.records)
        assert [e["event"] for e in journal.events].count("trace_summary") == RUNS


class TestMetrics:
    def test_disabled_helpers_are_noops(self):
        metrics.REGISTRY.reset()
        assert not metrics.enabled()
        metrics.inc("repro_test_total")
        metrics.observe("repro_test_bits", 7)
        assert metrics.REGISTRY.names() == []

    def test_counter_and_histogram_accumulate(self):
        with metrics.enabled_metrics() as reg:
            metrics.inc("repro_test_total", fault="raise")
            metrics.inc("repro_test_total", 2, fault="raise")
            metrics.observe("repro_test_bits", 3, round="1")
            metrics.observe("repro_test_bits", 5, round="1")
            assert reg.counter("repro_test_total").value(fault="raise") == 3
            hist = reg.histogram("repro_test_bits")
            assert hist.count(round="1") == 2
            assert hist.sum(round="1") == 8
            assert hist.mean(round="1") == pytest.approx(4.0)
        assert not metrics.enabled()  # context manager restores the no-op path

    def test_kind_mismatch_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total")
        with pytest.raises(TypeError, match="counter, not a histogram"):
            reg.histogram("repro_x_total")

    def test_counters_are_monotonic_and_names_checked(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            reg.counter("repro_x_total").inc(-1)
        with pytest.raises(ValueError, match="bad metric name"):
            reg.counter("Repro-Total")

    def test_render_is_prometheus_text(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", help="a counter").inc(2, task="t")
        reg.histogram("repro_x_bits", buckets=(1.0, 2.0)).observe(1.5)
        text = reg.render()
        assert "# HELP repro_x_total a counter" in text
        assert "# TYPE repro_x_total counter" in text
        assert 'repro_x_total{task="t"} 2' in text
        assert 'repro_x_bits_bucket{le="2"} 1' in text
        assert 'repro_x_bits_bucket{le="+Inf"} 1' in text
        assert "repro_x_bits_count 1" in text

    def test_runner_increments_run_metrics(self):
        with metrics.enabled_metrics() as reg:
            _batch()
            assert (
                reg.counter("repro_runs_total").value(task="path-outerplanarity")
                == RUNS
            )
            assert reg.histogram("repro_run_wall_seconds").count(
                task="path-outerplanarity"
            ) == RUNS

    def test_resilience_counters_under_degrade(self):
        plan = FaultPlan(1, overrides={1: ("raise", PERSISTENT)})
        spec = get_task("path_outerplanarity")
        with metrics.enabled_metrics() as reg:
            report = BatchRunner(
                spec.protocol(c=2),
                spec.yes_factory,
                failure_policy="degrade",
                max_retries=1,
                fault_plan=plan,
                backoff_base=0.005,
                backoff_cap=0.02,
            ).run(RUNS, N, seed=3)
            assert [f.index for f in report.failures] == [1]
            assert (
                reg.counter("repro_run_retries_total").value(fault="raise") == 1
            )
            assert (
                reg.counter("repro_degrade_drops_total").value(fault="raise") == 1
            )


class TestJournal:
    def test_stream_shape_and_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "batch.jsonl")
        with Journal(path) as journal:
            _batch(trace=True, journal=journal)
        events = journal.events
        assert events[0]["event"] == "batch_start"
        assert events[0]["task"] == "path-outerplanarity"
        assert events[-1]["event"] == "batch_end"
        # per-run triplets in run-index order
        kinds = [e["event"] for e in events[1:-1]]
        assert kinds == ["run_start", "trace_summary", "run_end"] * RUNS
        indices = [e["run_index"] for e in events[1:-1]]
        assert indices == sorted(indices)
        assert Journal.read_jsonl(path) == events

    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError, match="unknown event"):
            Journal().emit("run_exploded")
        assert "trace_summary" in EVENT_TYPES

    def test_stream_is_layout_independent_modulo_timing(self, tmp_path):
        streams = []
        for workers in (0, 2):
            journal = Journal()
            _batch(workers=workers, trace=True, journal=journal)
            streams.append([strip_timing(e) for e in journal.events])
        assert streams[0] == streams[1]

    def test_degraded_batch_journals_failures(self):
        plan = FaultPlan(1, overrides={1: ("raise", PERSISTENT)})
        journal = Journal()
        spec = get_task("path_outerplanarity")
        BatchRunner(
            spec.protocol(c=2),
            spec.yes_factory,
            failure_policy="degrade",
            max_retries=1,
            fault_plan=plan,
            backoff_base=0.005,
            backoff_cap=0.02,
            journal=journal,
        ).run(RUNS, N, seed=3)
        failures = [e for e in journal.events if e["event"] == "run_failure"]
        assert [f["index"] for f in failures] == [1]
        assert failures[0]["fault"] == "raise"
        end = journal.events[-1]
        assert end["event"] == "batch_end" and end["n_failures"] == 1

    def test_read_jsonl_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"event": "batch_start"}\nnot json\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            Journal.read_jsonl(str(bad))
        bad.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="'event' key"):
            Journal.read_jsonl(str(bad))


class TestTraceReport:
    @pytest.mark.parametrize("task", task_names())
    def test_every_task_gets_a_five_round_table(self, task):
        report, cost = trace_task(task, n=32, runs=1)
        assert report.acceptance_rate == 1.0
        assert [r.round for r in cost.rounds] == [1, 2, 3, 4, 5]
        assert tuple(r.kind for r in cost.rounds) == ROUND_KINDS
        assert cost.decide is not None
        table = cost.format_table()
        lines = table.splitlines()
        assert len(lines) == 3 + 5 + 1  # header block, 5 rounds, decide
        assert lines[-1].startswith("decide")
        # traced spans measure individual sub-protocol messages; the
        # composite proof size *concatenates* them per host node, so the
        # traced per-round max is exact for the base protocols and a
        # lower bound for composites (Theorems 1.3-1.7)
        traced_max = max(r.bits_max for r in cost.rounds)
        if task in ("path_outerplanarity", "lr_sorting"):
            assert traced_max == report.proof_size_max
        else:
            assert 0 < traced_max <= report.proof_size_max

    def test_journal_replay_renders_identical_table(self):
        journal = Journal()
        _, live = trace_task("path_outerplanarity", n=N, runs=3, journal=journal)
        (replayed,) = aggregate_journal(journal).values()
        assert replayed.format_table() == live.format_table()
        assert replayed.to_dict() == live.to_dict()
        assert live.format_table() in format_journal_tables(journal)

    def test_aggregation_folds_across_runs(self):
        report = _batch(trace=True)
        summaries = summaries_from_report(report)
        assert len(summaries) == RUNS
        (cost,) = aggregate_summaries(summaries).values()
        assert cost.n_runs == RUNS
        assert cost.ns == [N]
        for rnd in cost.rounds:
            assert rnd.n_runs == RUNS
            assert rnd.bits_max == max(
                row["bits_max"]
                for s in summaries
                for row in s["rounds"]
                if row["round"] == rnd.round
            )

    def test_round_cost_share_and_empty_table(self):
        empty = TraceCostReport(task="t")
        assert empty.total_time_s == 0.0
        assert "per-round cost: t" in empty.format_table()
        cost = RoundCost(round=1, kind="prover")
        cost.fold({"bits_max": 8, "bits_total": 12, "n_sites": 3, "time_s": 0.5})
        assert cost.bits_mean == pytest.approx(4.0)
        assert cost.to_dict()["round"] == 1


class TestCLI:
    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_trace_prints_per_round_table(self, capsys):
        from repro.cli import main

        assert main(["trace", "path_outerplanarity", "--n", "24", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "per-round cost: path-outerplanarity @ n=24" in out
        for token in ("round", "prover", "verifier", "decide", "share"):
            assert token in out

    def test_trace_json_and_metrics(self, tmp_path, capsys):
        from repro.cli import main

        out_json = tmp_path / "trace.json"
        code = main([
            "trace", "path_outerplanarity", "--n", "24", "--runs", "2",
            "--json", str(out_json), "--metrics",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro_prover_round_bits" in out
        payload = json.loads(out_json.read_text())
        assert payload["task"] == "path-outerplanarity"
        assert [r["round"] for r in payload["rounds"]] == [1, 2, 3, 4, 5]

    def test_trace_unknown_task_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["trace", "nonesuch"]) == 2
        assert "unknown task" in capsys.readouterr().out.lower()

    def test_batch_journal_flag_writes_stream(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "batch.jsonl"
        code = main([
            "batch", "path_outerplanarity", "--runs", "3", "--n", "24",
            "--journal", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "journal:" in out and "per-round cost" in out
        events = Journal.read_jsonl(str(path))
        assert events[0]["event"] == "batch_start"
        assert events[-1]["event"] == "batch_end"
        assert sum(e["event"] == "trace_summary" for e in events) == 3
