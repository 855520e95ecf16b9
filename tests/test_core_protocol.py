"""Transcript, views, and referee mechanics."""

import random

import pytest

from repro.core.labels import EMPTY_LABEL, BitString, Label, nest_labels
from repro.core.network import Graph, path_graph
from repro.core.protocol import Interaction, ProtocolError
from repro.core.transcript import Transcript
from repro.core.views import build_views


class TestTranscript:
    def test_round_counting(self):
        t = Transcript()
        t.add_prover_round({0: Label().flag("a", True)})
        t.add_verifier_round({0: BitString(1, 1)})
        t.add_prover_round({0: Label().uint("b", 3, 8)})
        assert t.n_rounds == 3
        assert len(t.prover_rounds()) == 2
        assert t.ends_with_prover()

    def test_proof_size_is_max_label(self):
        t = Transcript()
        t.add_prover_round(
            {0: Label().uint("a", 0, 4), 1: Label().uint("b", 0, 9)}
        )
        t.add_prover_round({0: Label().uint("c", 0, 7)})
        assert t.proof_size_bits() == 9

    def test_edge_labels_count_toward_proof_size(self):
        t = Transcript()
        t.add_prover_round(
            {0: Label().uint("a", 0, 2)},
            {(0, 1): Label().uint("e", 0, 12)},
        )
        assert t.proof_size_bits() == 12

    def test_total_bits_per_node(self):
        t = Transcript()
        t.add_prover_round({0: Label().uint("a", 0, 4)})
        t.add_prover_round({0: Label().uint("b", 0, 6)})
        assert t.total_bits_at(0) == 10
        assert t.total_bits_at(1) == 0


class TestInteraction:
    def test_alternation_enforced(self):
        ia = Interaction(path_graph(2), random.Random(0))
        ia.prover_round({0: Label()})
        with pytest.raises(ProtocolError):
            ia.prover_round({0: Label()})

    def test_two_verifier_rounds_rejected(self):
        ia = Interaction(path_graph(2), random.Random(0))
        ia.verifier_round({0: 1})
        with pytest.raises(ProtocolError):
            ia.verifier_round({0: 1})

    def test_labels_on_non_nodes_rejected(self):
        ia = Interaction(path_graph(2), random.Random(0))
        with pytest.raises(ProtocolError):
            ia.prover_round({5: Label()})

    def test_edge_labels_on_non_edges_rejected(self):
        ia = Interaction(path_graph(3), random.Random(0))
        with pytest.raises(ProtocolError):
            ia.prover_round({}, {(0, 2): Label()})

    def test_decision_requires_final_prover_round(self):
        ia = Interaction(path_graph(2), random.Random(0))
        ia.prover_round({0: Label()})
        ia.verifier_round({})
        with pytest.raises(ProtocolError):
            ia.decide(lambda view: True)

    def test_accepts_iff_all_yes(self):
        ia = Interaction(path_graph(3), random.Random(0))
        ia.prover_round({v: Label().flag("ok", v != 1) for v in range(3)})
        res = ia.decide(lambda view: bool(view.own(0)["ok"]))
        assert not res.accepted
        assert res.rejecting_nodes == [1]

    def test_coins_are_recorded_per_node(self):
        ia = Interaction(path_graph(2), random.Random(7))
        coins = ia.verifier_round({0: 8, 1: 16})
        assert coins[0].width == 8 and coins[1].width == 16
        ia.prover_round({})
        res = ia.decide(lambda v: True)
        assert res.transcript.coin_bits_at(0) == 8


class TestViews:
    def test_view_exposes_ports_not_ids(self):
        g = Graph(3, [(0, 1), (1, 2)])
        t = Transcript()
        t.add_prover_round(
            {v: Label().uint("id", v, 4) for v in range(3)},
            {(0, 1): Label().flag("e01", True)},
        )
        views = build_views(g, t, inputs={1: {"x": 42}})
        v1 = views[1]
        assert v1.degree == 2
        assert v1.input["x"] == 42
        # neighbors sorted: port 0 -> node 0, port 1 -> node 2
        assert v1.neighbor(0, 0)["id"] == 0
        assert v1.neighbor(0, 1)["id"] == 2
        assert "e01" in v1.edge_labels[0][0]
        assert v1.edge_labels[0][1].bit_size() == 0

    def test_nest_labels(self):
        merged = nest_labels(("a", "b"), (Label().flag("x", True), EMPTY_LABEL))
        assert merged.bit_size() == 1
        assert merged["a"]["x"] is True
        assert isinstance(merged["b"], Label) and merged["b"].bit_size() == 0


class TestProverRoundDefaults:
    def test_edge_label_dicts_are_never_shared(self):
        # regression: edge_labels once defaulted via a __post_init__ dance;
        # with default_factory, two rounds must get independent dicts
        from repro.core.transcript import ProverRound

        a = ProverRound({0: Label().flag("x", True)})
        b = ProverRound({1: Label().flag("x", True)})
        assert a.edge_labels == {} and b.edge_labels == {}
        a.edge_labels[(0, 1)] = Label().uint("w", 3, 2)
        assert b.edge_labels == {}
        assert a.edge_label(1, 0).bit_size() == 2
        assert b.edge_label(0, 1).bit_size() == 0

    def test_add_prover_round_normalizes_none(self):
        from repro.core.transcript import ProverRound

        t = Transcript()
        rnd = t.add_prover_round({0: Label().flag("x", True)}, None)
        assert isinstance(rnd, ProverRound) and rnd.edge_labels == {}
        rnd.edge_labels[(0, 1)] = Label().flag("y", False)
        assert t.add_prover_round({}).edge_labels == {}
