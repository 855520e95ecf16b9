"""Dynamic certification: updates, streams, driver, cache, service, CLI.

The load-bearing invariants:

* a churn campaign is a pure function of ``(task, n, seed, n_updates,
  stream kind, c)`` — byte-identical serially, sharded over the pool,
  and through the service UPDATE path;
* every epoch's incremental certification equals a from-scratch
  re-proof of the same graph (``verify_full``);
* applying a stream and then its inverse restores a byte-identical
  certification;
* mutating a dynamic instance can never corrupt the shared instance
  cache (aliasing regression);
* the hash-multiset signatures diff every epoch exactly like the
  reference repr-sorted byte-row signatures kept below as an oracle.
"""

import contextlib
import json
import pickle
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core.labels import Label, PackedLabel
from repro.core.network import Graph
from repro.dynamic import (
    DYNAMIC_TASKS,
    ChurnCampaignSpec,
    EdgeDelete,
    EdgeInsert,
    apply_stream,
    campaign_stream,
    diff_signatures,
    epoch_rng,
    generate_stream,
    initial_graph,
    instance_seed,
    inverse_stream,
    node_signatures,
    run_campaign,
    stream_rng,
    update_from_tuple,
)
from repro.obs.journal import Journal
from repro.runtime import registry
from repro.runtime.cache import CachedFactory, InstanceCache
from repro.service.client import RequestFailed, ServiceClient
from repro.service.server import ProofServer


@contextlib.contextmanager
def service(**kwargs):
    server = ProofServer(**kwargs)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.wait_ready(10.0), "server never bound its listener"
    try:
        yield server, (server.host, server.bound_port)
    finally:
        server.request_drain()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "server failed to drain"


def _certify(task, graph, seed, epoch=0):
    spec = registry.get_task(task)
    protocol = spec.protocol(c=2)
    return protocol.execute(spec.instance_cls(graph.copy()), rng=epoch_rng(seed, epoch))


# -- update plans -----------------------------------------------------------


class TestUpdates:
    def test_apply_and_inverse_round_trip(self):
        g = Graph(4, [(0, 1), (1, 2)])
        ins = EdgeInsert(2, 3)
        ins.apply(g)
        assert g.has_edge(2, 3)
        assert ins.inverse() == EdgeDelete(2, 3)
        ins.inverse().apply(g)
        assert not g.has_edge(2, 3)
        assert EdgeDelete(0, 1).inverse() == EdgeInsert(0, 1)

    def test_wire_round_trip(self):
        for update in (EdgeInsert(3, 5), EdgeDelete(1, 0)):
            assert update_from_tuple(update.as_tuple()) == update

    def test_update_from_tuple_rejects_garbage(self):
        for bad in (("widen", 0, 1), ("insert", 0), ("insert", "a", 1), 7):
            with pytest.raises(ValueError):
                update_from_tuple(bad)

    def test_strict_graph_mutation_surfaces_replay_bugs(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            EdgeInsert(0, 1).apply(g)  # duplicate insert
        with pytest.raises(KeyError):
            EdgeDelete(1, 2).apply(g)  # missing delete

    def test_inverse_stream_restores_graph(self):
        spec = ChurnCampaignSpec(task="planarity", n=16, seed=5, n_updates=12)
        g0 = initial_graph(spec)
        stream = campaign_stream(spec, g0)
        forward = apply_stream(g0, [u for u, _ in stream])
        restored = apply_stream(forward, inverse_stream([u for u, _ in stream]))
        assert restored == g0


# -- stream generation ------------------------------------------------------


class TestStreams:
    def test_deterministic_in_the_seed(self):
        spec = ChurnCampaignSpec(task="outerplanarity", n=16, seed=3, n_updates=10)
        g0 = initial_graph(spec)
        a = campaign_stream(spec, g0)
        b = campaign_stream(spec, initial_graph(spec))
        assert a == b

    def test_preserving_stream_keeps_predicate(self):
        for task in sorted(DYNAMIC_TASKS):
            spec = ChurnCampaignSpec(task=task, n=16, seed=1, n_updates=15)
            g0 = initial_graph(spec)
            predicate = DYNAMIC_TASKS[task]
            g = g0.copy()
            for update, expected in campaign_stream(spec, g0):
                update.apply(g)
                assert expected is True
                assert predicate(g) and g.is_connected()

    def test_crossing_stream_crosses_the_boundary(self):
        spec = ChurnCampaignSpec(
            task="planarity", n=16, seed=2, n_updates=30, stream="crossing"
        )
        g0 = initial_graph(spec)
        stream = campaign_stream(spec, g0)
        expectations = [expected for _, expected in stream]
        assert False in expectations and True in expectations
        # ground truth matches the predicate at every prefix
        g = g0.copy()
        for update, expected in stream:
            update.apply(g)
            assert DYNAMIC_TASKS["planarity"](g) == expected

    def test_unknown_task_and_kind_rejected(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="dynamic predicate"):
            generate_stream("lr_sorting", g, 5, stream_rng(0))
        with pytest.raises(ValueError, match="stream kind"):
            generate_stream("planarity", g, 5, stream_rng(0), kind="chaotic")

    def test_seed_streams_are_disjoint(self):
        # instance, stream, and coin seeds never collide for one campaign
        assert instance_seed(0) != instance_seed(1)
        assert stream_rng(0).random() != epoch_rng(0, 0).random()


# -- reversibility (satellite) ----------------------------------------------


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(10, 18))
def test_stream_then_inverse_restores_certification(seed, n):
    spec = ChurnCampaignSpec(task="outerplanarity", n=n, seed=seed, n_updates=6)
    g0 = initial_graph(spec)
    before = node_signatures(_certify("outerplanarity", g0, seed))
    stream = campaign_stream(spec, g0)
    forward = apply_stream(g0, [u for u, _ in stream])
    restored = apply_stream(forward, inverse_stream([u for u, _ in stream]))
    assert restored == g0
    after = node_signatures(_certify("outerplanarity", restored, seed))
    assert after == before


def test_reversibility_planarity():
    spec = ChurnCampaignSpec(task="planarity", n=14, seed=11, n_updates=8)
    g0 = initial_graph(spec)
    before = node_signatures(_certify("planarity", g0, 11))
    stream = campaign_stream(spec, g0)
    forward = apply_stream(g0, [u for u, _ in stream])
    restored = apply_stream(forward, inverse_stream([u for u, _ in stream]))
    assert restored == g0
    assert node_signatures(_certify("planarity", restored, 11)) == before


# -- signatures vs the byte-row oracle ------------------------------------
#
# The reference below is the byte-row signature design: every row carries
# the schema desc tuple and the payload as bytes, and a node's rows are
# sorted by repr into a tuple.  It is slow but transparently canonical;
# the hash-multiset signatures must diff every epoch exactly like it.


def _oracle_row(source, r_idx, kind, key, label):
    schema, payload = label.pack()
    return (
        source,
        r_idx,
        kind,
        key,
        schema.desc,
        schema.total_width,
        payload.to_bytes((schema.total_width + 7) // 8, "big"),
    )


def oracle_node_signatures(result):
    rows = {}

    def add(host, row):
        rows.setdefault(host, []).append(row)

    if hasattr(result, "sub_runs"):
        for sub in result.sub_runs:
            transcript = sub.result.transcript
            for r_idx, rnd in enumerate(transcript.prover_rounds()):
                for v, label in rnd.labels.items():
                    row = _oracle_row(sub.name, r_idx, "node", v, label)
                    for host in sub.node_map.get(v, ()):
                        add(host, row)
                for (u, v), label in rnd.edge_labels.items():
                    hosts = ()
                    if sub.edge_map is not None:
                        hosts = sub.edge_map.get((u, v), ())
                    if not hosts:
                        hosts = (sub.node_map.get(u) or sub.node_map.get(v) or ())[:1]
                    row = _oracle_row(sub.name, r_idx, "edge", (u, v), label)
                    for host in hosts:
                        add(host, row)
        for r_idx, per_host in enumerate(getattr(result, "extra_bits", ())):
            for host, bits in per_host.items():
                add(host, ("host", r_idx, "extra", None, (), bits, b""))
    else:
        for r_idx, rnd in enumerate(result.transcript.prover_rounds()):
            for v, label in rnd.labels.items():
                add(v, _oracle_row("run", r_idx, "node", v, label))
            for (u, v), label in rnd.edge_labels.items():
                add(u, _oracle_row("run", r_idx, "edge", (u, v), label))
    return {host: tuple(sorted(entries, key=repr)) for host, entries in rows.items()}


def oracle_diff_signatures(prev, cur):
    if prev is None:
        return len(cur), sum(row[5] for sig in cur.values() for row in sig)
    changed = 0
    bits = 0
    for v in prev.keys() | cur.keys():
        a, b = prev.get(v, ()), cur.get(v, ())
        if a == b:
            continue
        changed += 1
        old = set(a)
        bits += sum(row[5] for row in b if row not in old)
    return changed, bits


def _epoch_results(spec):
    """Every epoch's certified result for ``spec``, in epoch order."""
    g = initial_graph(spec)
    stream = campaign_stream(spec, g)
    results = [_certify(spec.task, g, spec.seed)]
    for k, (update, _) in enumerate(stream, start=1):
        update.apply(g)
        results.append(_certify(spec.task, g, spec.seed, epoch=k))
    return results


def _diff_trace(results, signatures, diff):
    trace, prev = [], None
    for result in results:
        sigs = signatures(result)
        trace.append(diff(prev, sigs))
        prev = sigs
    return trace


@pytest.mark.parametrize("stream", ["preserving", "crossing"])
@pytest.mark.parametrize("task", sorted(DYNAMIC_TASKS))
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(10, 20))
def test_multiset_signatures_match_byte_row_oracle(task, stream, seed, n):
    spec = ChurnCampaignSpec(task=task, n=n, seed=seed, n_updates=6, stream=stream)
    results = _epoch_results(spec)
    # every dynamic task is composite and ships host-level extra_bits rows
    assert any(per_host for r in results for per_host in r.extra_bits)
    got = _diff_trace(results, node_signatures, diff_signatures)
    want = _diff_trace(results, oracle_node_signatures, oracle_diff_signatures)
    assert got == want


def _one_sub_run_result(node_map, label, extra_bits):
    """A hand-built composite result: one sub-run, one node label."""
    rnd = SimpleNamespace(labels={0: label}, edge_labels={})
    transcript = SimpleNamespace(prover_rounds=lambda: [rnd])
    sub = SimpleNamespace(
        name="sub",
        result=SimpleNamespace(transcript=transcript),
        node_map=node_map,
        edge_map=None,
    )
    return SimpleNamespace(sub_runs=[sub], extra_bits=extra_bits)


def test_repeated_row_is_counted_as_a_multiset():
    # one host receives the same 7-bit row twice, plus a 4-bit extra row
    label = Label().uint("x", 5, 7)
    once = _one_sub_run_result({0: (3,)}, label, [{3: 4}])
    twice = _one_sub_run_result({0: (3, 3)}, label, [{3: 4}])
    new = {"once": node_signatures(once), "twice": node_signatures(twice), "none": {}}
    ref = {
        "once": oracle_node_signatures(once),
        "twice": oracle_node_signatures(twice),
        "none": {},
    }
    # set semantics would call these equal; the multiset does not
    assert set(new["once"][3]) == set(new["twice"][3])
    assert new["once"] != new["twice"]
    for prev, cur, expected in [
        (None, "twice", (1, 7 + 7 + 4)),  # init: every copy is sent
        ("none", "twice", (1, 7 + 7 + 4)),  # a new host sends every copy
        ("once", "twice", (1, 0)),  # a second copy of an already-sent row
        ("twice", "once", (1, 0)),  # dropping a copy costs nothing
        ("twice", "twice", (0, 0)),
    ]:
        assert diff_signatures(prev and new[prev], new[cur]) == expected
        assert oracle_diff_signatures(prev and ref[prev], ref[cur]) == expected


def test_signatures_survive_a_pickle_round_trip():
    # wire-decoded labels resolve their schema through schema_from_desc,
    # so their rows must key on the very schema objects the in-process
    # labels use
    for task in sorted(DYNAMIC_TASKS):
        spec = ChurnCampaignSpec(task=task, n=16, seed=4)
        local = _certify(task, initial_graph(spec), spec.seed)
        wired = pickle.loads(pickle.dumps(local))
        kinds = {
            type(label)
            for sub in wired.sub_runs
            for rnd in sub.result.transcript.prover_rounds()
            for label in rnd.labels.values()
        }
        assert kinds == {PackedLabel}
        assert node_signatures(wired) == node_signatures(local)


# -- the driver -------------------------------------------------------------


class TestDriver:
    def test_campaign_byte_reproducible_and_matches_full_reproof(self):
        # the PR acceptance bar: >= 100 updates at n=64, serial == pool,
        # and (verify_full) every epoch equals a from-scratch re-proof
        spec = ChurnCampaignSpec(task="planarity", n=64, seed=7, n_updates=100)
        serial = run_campaign(spec, verify_full=True)
        pooled = run_campaign(spec, workers=2)
        assert serial.canonical_json() == pooled.canonical_json()
        assert serial.all_sound
        assert serial.n_epochs == 101
        assert serial.mean_labels_changed < serial.labels_total

    def test_crossing_campaign_is_sound_on_both_sides(self):
        spec = ChurnCampaignSpec(
            task="outerplanarity", n=20, seed=3, n_updates=20, stream="crossing"
        )
        report = run_campaign(spec, verify_full=True)
        assert report.all_sound
        flips = [r for r in report.records if not r.expected]
        assert flips, "crossing stream never crossed"
        assert all(not r.accepted for r in flips)

    def test_epoch_coins_are_replayed(self):
        # identical graphs certify identically across epochs — the diff
        # isolates the update, not re-randomized coins
        spec = ChurnCampaignSpec(task="treewidth2", n=12, seed=9, n_updates=4)
        g0 = initial_graph(spec)
        a = node_signatures(_certify("treewidth2", g0, 9, epoch=0))
        b = node_signatures(_certify("treewidth2", g0, 9, epoch=3))
        assert a == b

    def test_journal_events(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        spec = ChurnCampaignSpec(task="series_parallel", n=12, seed=4, n_updates=5)
        with Journal(str(path)) as journal:
            run_campaign(spec, journal=journal)
        events = Journal.read_jsonl(str(path))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "campaign_start" and kinds[-1] == "campaign_end"
        assert kinds.count("epoch") == 6

    def test_rejects_non_dynamic_task(self):
        with pytest.raises(ValueError, match="dynamic certification"):
            run_campaign(ChurnCampaignSpec(task="lr_sorting", n=8, n_updates=2))


# -- cache aliasing (satellite) ---------------------------------------------


class TestCacheAliasing:
    def test_checkout_is_a_private_copy(self):
        spec = registry.get_task("planarity")
        factory = CachedFactory("planarity:yes", spec.yes_factory, cache=InstanceCache())
        seed = instance_seed(0)
        checked_out = factory.checkout_seeded(16, seed)
        cached = factory.build_seeded(16, seed)
        assert checked_out.graph == cached.graph
        assert checked_out is not cached and checked_out.graph is not cached.graph

    def test_mutated_checkout_never_corrupts_later_batches(self):
        spec = registry.get_task("planarity")
        cache = InstanceCache()
        factory = CachedFactory("planarity:yes", spec.yes_factory, cache=cache)
        seed = instance_seed(1)
        pristine = factory.build_seeded(24, seed).graph.copy()
        mutated = factory.checkout_seeded(24, seed)
        # churn the checked-out instance hard
        for u, v in list(mutated.graph.edges())[:5]:
            mutated.graph.remove_edge(u, v)
        # a later cached-factory build still serves the pristine instance
        assert factory.build_seeded(24, seed).graph == pristine
        assert cache.stats()["hits"] >= 2

    def test_invalidate_evicts_one_key(self):
        cache = InstanceCache()
        cache.get_or_build(("f", 1, 2), lambda: "value")
        assert ("f", 1, 2) in cache
        assert cache.invalidate(("f", 1, 2)) is True
        assert ("f", 1, 2) not in cache
        assert cache.invalidate(("f", 1, 2)) is False


# -- the service UPDATE path ------------------------------------------------


class TestServiceUpdate:
    def test_update_round_trip_matches_local_driver(self):
        spec = ChurnCampaignSpec(task="planarity", n=24, seed=7, n_updates=8)
        stream = campaign_stream(spec, initial_graph(spec))
        local = run_campaign(spec)
        with service() as (server, address):
            client = ServiceClient(address)
            target = client.submit("planarity", runs=2, n=24, seed=7)
            first = client.submit_update(target.id, [u for u, _ in stream[:5]])
            second = client.submit_update(target.id, [u for u, _ in stream[5:]])
            assert first.ok and second.ok
        got = first.report["epochs"] + second.report["epochs"]
        assert got == [r.canonical_dict() for r in local.records]

    def test_update_replay_is_idempotent(self):
        spec = ChurnCampaignSpec(task="treewidth2", n=12, seed=2, n_updates=4)
        stream = [u for u, _ in campaign_stream(spec, initial_graph(spec))]
        with service() as (server, address):
            client = ServiceClient(address)
            target = client.submit("treewidth2", runs=1, n=12, seed=2)
            first = client.submit_update(target.id, stream)
            replay = client.submit_update(target.id, stream)
            assert replay.ack_status == "replay"
            assert replay.report == first.report
            assert server.stats["replayed"] == 1

    def test_update_id_conflict(self):
        with service() as (server, address):
            client = ServiceClient(address)
            target = client.submit("treewidth2", runs=1, n=12, seed=2)
            stream = [u for u, _ in campaign_stream(
                ChurnCampaignSpec(task="treewidth2", n=12, seed=2, n_updates=4),
                initial_graph(ChurnCampaignSpec(task="treewidth2", n=12, seed=2)),
            )]
            client.submit_update(target.id, stream[:2], request_id="upd-1")
            with pytest.raises(RequestFailed) as exc:
                client.submit_update(target.id, stream[2:], request_id="upd-1")
            assert exc.value.fault == "id-conflict"

    def test_unknown_target_is_a_typed_fail(self):
        with service() as (_, address):
            with pytest.raises(RequestFailed) as exc:
                ServiceClient(address).submit_update("ghost", [("insert", 0, 1)])
            assert exc.value.fault == "unknown-target"

    def test_bad_update_fails_without_corrupting_state(self):
        spec = ChurnCampaignSpec(task="planarity", n=24, seed=7, n_updates=6)
        stream = [u for u, _ in campaign_stream(spec, initial_graph(spec))]
        local = run_campaign(spec)
        with service() as (_, address):
            client = ServiceClient(address)
            target = client.submit("planarity", runs=1, n=24, seed=7)
            first = client.submit_update(target.id, stream[:3])
            # a delete of a non-existent edge must not advance the epoch
            dup = stream[0].inverse().inverse()  # re-insert an existing edge
            with pytest.raises(RequestFailed) as exc:
                client.submit_update(target.id, [dup])
            assert exc.value.fault == "bad-update"
            second = client.submit_update(target.id, stream[3:])
        got = first.report["epochs"] + second.report["epochs"]
        assert got == [r.canonical_dict() for r in local.records]

    def test_update_against_unsupported_target_rejected(self):
        with service() as (_, address):
            client = ServiceClient(address)
            target = client.submit("lr_sorting", runs=1, n=12, seed=0)
            with pytest.raises(RequestFailed) as exc:
                client.submit_update(target.id, [("insert", 0, 1)])
            assert exc.value.fault == "bad-request"


# -- CLI --------------------------------------------------------------------


class TestCLI:
    def test_dynamic_serial_writes_canonical_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "dynamic", "planarity", "--n", "16", "--seed", "5",
            "--updates", "6", "--json", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        spec = ChurnCampaignSpec(task="planarity", n=16, seed=5, n_updates=6)
        assert report == run_campaign(spec).canonical_dict()

    def test_dynamic_rejects_unsupported_task(self, capsys):
        assert main(["dynamic", "lr_sorting", "--updates", "2"]) == 2
        assert "does not support dynamic" in capsys.readouterr().out

    def test_dynamic_over_live_service(self, tmp_path):
        out = tmp_path / "report.json"
        with service() as (_, address):
            code = main([
                "dynamic", "treewidth2", "--n", "12", "--seed", "2",
                "--updates", "4", "--connect", f"{address[0]}:{address[1]}",
                "--json", str(out),
            ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["kind"] == "update"
        local = run_campaign(
            ChurnCampaignSpec(task="treewidth2", n=12, seed=2, n_updates=4)
        )
        assert report["epochs"] == [r.canonical_dict() for r in local.records]
