"""The columnar LR-sorting prover against a per-node dict reference.

``HonestLRSortingProver`` builds each round as value columns in one sweep
per block.  The reference below is the per-node dict prover it replaced:
one field dict per node and per edge, block positions expanded into bit
lists, the distinguishing index found by a bit scan and every prefix
evaluation recomputed from the bits.  ``_DictColumns`` transposes its
dicts into :class:`LRColumns` (label order = dict order), so both provers
run through the same protocol and every run is compared on the wire:
per-round labels (owner order, schema, payload), coins, verdict and
rejecting nodes.  The four LR adversaries are re-stated on the reference
and compared the same way.
"""

import random

import pytest

from repro.adversaries import (
    IndexLiarProver,
    InnerBlockLiarProver,
    StealthIndexLiarProver,
    SwappedBlocksProver,
)
from repro.core.labels import OMIT, BitString
from repro.protocols.lr_sorting import (
    HonestLRSortingProver,
    LRColumns,
    LRSortingProtocol,
    LRSortingProver,
    lr_formats,
)
from repro.protocols.path_outerplanarity import (
    HonestPathOuterplanarityProver,
    PathOuterplanarityParams,
    _LRShim,
)
from repro.runtime.registry import get_task

LR = get_task("lr_sorting")
PO = get_task("path_outerplanarity")
NS = [1, 2, 3, 5, 8, 32, 33, 64, 200, 1024]
SEEDS = (0, 1, 2)
VARIANTS = {
    "native": {},
    "simulated": {"simulate_edge_labels": True},
    "three_round": {"truncate_to_three_rounds": True},
}


def _bits(x, width):
    return [(x >> (width - 1 - i)) & 1 for i in range(width)]


# ---------------------------------------------------------------------------
# the per-node dict reference
# ---------------------------------------------------------------------------


class RefHonest(LRSortingProver):
    """The per-node dict prover: one field dict per node and per edge."""

    def _setup(self):
        pm = self.params
        inst = self.instance
        pos = self.claimed_position()
        self.block = {v: pm.block_of_position(pos[v]) for v in inst.graph.nodes()}
        self.jdx = {v: pm.block_index(pos[v]) for v in inst.graph.nodes()}
        self.x1 = {b: _bits(b, pm.L) for b in range(pm.n_blocks)}
        self.x2 = {b: _bits(b + 1, pm.L) for b in range(pm.n_blocks)}
        self.edge_kind = {}
        self.edge_index = {}
        for e, (t, h) in inst.orientation.items():
            bt, bh = self.block[t], self.block[h]
            if bt == bh:
                self.edge_kind[e] = "inner"
            else:
                self.edge_kind[e] = "outer"
                lo, hi = sorted((bt, bh))
                xl, xh = self.x1[lo], self.x1[hi]
                self.edge_index[e] = next(i + 1 for i in range(pm.L) if xl[i] != xh[i])

    def round1(self):
        pm = self.params
        self._setup()
        inst = self.instance
        count = {}
        for e, (t, h) in inst.orientation.items():
            if self.edge_kind[e] != "outer":
                continue
            i = self.edge_index[e]
            count.setdefault((self.block[t], 0, i), set()).add(t)
            count.setdefault((self.block[h], 1, i), set()).add(h)
        self._mult = {key: len(ends) for key, ends in count.items()}
        node_fields = {}
        for v in inst.graph.nodes():
            b, j = self.block[v], self.jdx[v]
            fields = {"idx": j}
            if pm.n_blocks > 1:
                bit1 = self.x1[b][j - 1] if j <= pm.L else 0
                bit2 = self.x2[b][j - 1] if j <= pm.L else 0
                jb = max(i + 1 for i, bit in enumerate(self.x1[b]) if bit == 0)
                side = 2 if j > pm.L else 0 if j < jb else 1 if j == jb else 2
                fields.update(x1bit=bit1, x2bit=bit2, side=side)
                if j <= pm.L:
                    fields["M"] = len(count.get((b, self.x1[b][j - 1], j), ()))
            node_fields[v] = fields
        edge_fields = {}
        for e in inst.orientation:
            if self.edge_kind[e] == "inner":
                edge_fields[e] = {"inner": True}
            else:
                edge_fields[e] = {"inner": False, "I": self.edge_index[e]}
        return node_fields, edge_fields

    def _blocks(self):
        pm, path = self.params, self.instance.path
        for b in range(pm.n_blocks):
            end = (b + 1) * pm.L if b < pm.n_blocks - 1 else pm.n
            yield b, path[b * pm.L:end]

    def round3(self, coins):
        pm = self.params
        path = self.instance.path
        r = rp = 0
        if pm.n_blocks > 1:
            value = coins[path[0]].value >> pm.fw
            r = (value & pm.fw_mask) % pm.p
            rp = ((value >> pm.fw) & pm.fw_mask) % pm.p
        self.rp = rp
        node_fields = {}
        for b, block_nodes in self._blocks():
            rb = (coins[block_nodes[0]].value & pm.fw_mask) % pm.p
            pfx2 = pfx1 = 1
            for offset, v in enumerate(block_nodes):
                j = offset + 1
                bit1 = self.x1[b][j - 1] if j <= pm.L else 0
                bit2 = self.x2[b][j - 1] if j <= pm.L else 0
                if bit2:
                    pfx2 = pfx2 * (j - r) % pm.p
                if bit1:
                    pfx1 = pfx1 * (j - rp) % pm.p
                node_fields[v] = {"r": r, "rp": rp, "rb": rb, "pfx2_r": pfx2, "pfx1_rp": pfx1}
            sfx = 1
            for offset in range(len(block_nodes) - 1, -1, -1):
                j = offset + 1
                if j <= pm.L and self.x1[b][j - 1]:
                    sfx = sfx * (j - r) % pm.p
                node_fields[block_nodes[offset]]["sfx1_r"] = sfx
        edge_fields = {}
        self.edge_jval = {}
        for e, (t, h) in self.instance.orientation.items():
            if self.edge_kind[e] != "outer":
                continue
            jval = self._phi_prefix(self.block[t], self.edge_index[e] - 1, rp)
            edge_fields[e] = {"jval": jval}
            self.edge_jval[e] = jval
        return node_fields, edge_fields

    def _phi_prefix(self, b, i, z):
        acc = 1
        for idx in range(i):
            if self.x1[b][idx]:
                acc = acc * (idx + 1 - z) % self.params.p
        return acc

    def round5(self, coins):
        pm = self.params
        c_pairs = {}
        for e, (t, h) in self.instance.orientation.items():
            if self.edge_kind[e] != "outer":
                continue
            pair = (self.edge_index[e], self.edge_jval[e])
            c_pairs.setdefault((t, 0), set()).add(pair)
            c_pairs.setdefault((h, 1), set()).add(pair)
        node_fields = {}
        for b, block_nodes in self._blocks():
            coin = coins.get(block_nodes[0])
            raw = coin.value if coin is not None else 0
            rq = ((raw & pm.fw2_mask) % pm.p2, ((raw >> pm.fw2) & pm.fw2_mask) % pm.p2)
            acc = {("A", 0): 1, ("A", 1): 1, ("B", 0): 1, ("B", 1): 1}
            for offset in range(len(block_nodes) - 1, -1, -1):
                v = block_nodes[offset]
                j = offset + 1
                for side in (0, 1):
                    for pair in sorted(c_pairs.get((v, side), ())):
                        term = (pm.pair_encode(*pair) - rq[side]) % pm.p2
                        acc["A", side] = acc["A", side] * term % pm.p2
                if j <= pm.L:
                    side = self.x1[b][j - 1]
                    mult = self._mult.get((b, side, j), 0)
                    if mult:
                        phi_prev = self._phi_prefix(b, j - 1, self.rp)
                        term = (pm.pair_encode(j, phi_prev) - rq[side]) % pm.p2
                        acc["B", side] = acc["B", side] * pow(term, mult, pm.p2) % pm.p2
                node_fields[v] = {
                    "rq0": rq[0], "rq1": rq[1], "A0": acc["A", 0], "A1": acc["A", 1],
                    "B0": acc["B", 0], "B1": acc["B", 1],
                }
        return node_fields


def _violating(instance):
    pos = instance.position()
    return [e for e, (t, h) in instance.orientation.items() if pos[t] > pos[h]]


class RefSwapped(RefHonest):
    def __init__(self, instance):
        super().__init__(instance)
        self.swap = (0, 1)

    claimed_position = SwappedBlocksProver.claimed_position


class RefInnerBlockLiar(RefHonest):
    def _setup(self):
        super()._setup()
        for e in _violating(self.instance):
            if self.edge_kind.get(e) == "outer":
                self.edge_kind[e] = "inner"
                self.edge_index.pop(e, None)
                break


class RefStealthIndexLiar(RefHonest):
    def _setup(self):
        super()._setup()
        pm = self.params
        pos = self.instance.position()
        for e, (t, h) in self.instance.orientation.items():
            if self.edge_kind.get(e) != "outer" or pos[t] < pos[h]:
                continue
            used = {
                self.edge_index[e2]
                for e2, (t2, h2) in self.instance.orientation.items()
                if e2 != e and self.edge_kind.get(e2) == "outer" and {t2, h2} & {t, h}
            }
            bt, bh = self.block[t], self.block[h]
            best = None
            for i in range(1, pm.L + 1):
                if i in used:
                    continue
                score = (self.x1[bt][i - 1] == 0) + (self.x1[bh][i - 1] == 1)
                if best is None or score > best[0]:
                    best = (score, i)
            if best is not None:
                self.edge_index[e] = best[1]
            break


class RefIndexLiar(RefHonest):
    def round3(self, coins):
        node_fields, edge_fields = super().round3(coins)
        for e in _violating(self.instance):
            if self.edge_kind.get(e) != "outer":
                continue
            t, h = self.instance.orientation[e]
            i = self.edge_index[e]
            edge_fields[e] = {"jval": self._phi_prefix(self.block[h], i - 1, self.rp)}
            break
        return node_fields, edge_fields


def _node_columns(fields, names, n):
    return {name: [fields[v].get(name, OMIT) for v in range(n)] for name in names}


def _edge_columns(fields, names):
    return {name: [f.get(name, OMIT) for f in fields.values()] for name in names}


class _DictColumns(LRSortingProver):
    """A dict prover seen through the column interface: each round's dicts
    transposed into :class:`LRColumns`, labels in dict order."""

    def __init__(self, ref):
        super().__init__(ref.instance)
        self.ref = ref

    def bind(self, params):
        self.ref.bind(params)
        self.fmts = lr_formats(
            params.index_width, params.n_blocks > 1, params.p,
            params.p2 if params.n_blocks > 1 else 0,
        )
        return super().bind(params)

    def _columns(self, node_fmt, edge_fmt, nodes, edges=None):
        n = self.params.n
        cols = _node_columns(nodes, node_fmt.names, n)
        if not edges:
            return LRColumns(list(nodes), cols)
        return LRColumns(list(nodes), cols, list(edges), _edge_columns(edges, edge_fmt.names))

    def round1(self):
        return self._columns(self.fmts.node1, self.fmts.edge1, *self.ref.round1())

    def round3(self, coins):
        return self._columns(self.fmts.node3, self.fmts.edge3, *self.ref.round3(coins))

    def round5(self, coins):
        return self._columns(self.fmts.node5, None, self.ref.round5(coins))


PAIRS = {
    "honest": (HonestLRSortingProver, RefHonest),
    "swapped_blocks": (SwappedBlocksProver, RefSwapped),
    "inner_block_liar": (InnerBlockLiarProver, RefInnerBlockLiar),
    "stealth_index_liar": (StealthIndexLiarProver, RefStealthIndexLiar),
    "index_liar": (IndexLiarProver, RefIndexLiar),
}


# ---------------------------------------------------------------------------
# wire comparison
# ---------------------------------------------------------------------------


def _wire(label):
    schema, payload = label.pack()
    return schema.desc, payload


def _run_record(result):
    """Everything a run puts on the wire, in send order, and its verdict."""
    rounds = []
    for rnd in result.transcript.prover_rounds():
        rounds.append((
            [(v, *_wire(lbl)) for v, lbl in rnd.labels.items()],
            [(e, *_wire(lbl)) for e, lbl in rnd.edge_labels.items()],
        ))
    coins = [
        [(v, c.value, c.width) for v, c in rnd.coins.items()]
        for rnd in result.transcript.verifier_rounds()
    ]
    return rounds, coins, result.accepted, sorted(result.rejecting_nodes)


def _instances(n, seed):
    yield LR.yes_factory(n, random.Random(seed))
    if n >= 3:  # a no-instance needs a non-path edge to flip
        yield LR.no_factory(n, random.Random(seed))


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_columns_match_the_dict_reference_on_the_wire(name, variant):
    proto = LRSortingProtocol(c=2, **VARIANTS[variant])
    columnar, reference = PAIRS[name]
    verdicts = []
    for n in NS:
        for seed in SEEDS:
            for inst in _instances(n, seed):
                got = proto.execute(inst, prover=columnar(inst), rng=random.Random(seed))
                want = proto.execute(
                    inst, prover=_DictColumns(reference(inst)), rng=random.Random(seed)
                )
                assert _run_record(got) == _run_record(want), (n, seed)
                verdicts.append((inst.is_yes_instance(), got.accepted))
    assert not all(accepted for _, accepted in verdicts)  # rejections compared too
    if name == "honest":
        assert all(accepted for yes, accepted in verdicts if yes)


class _Permuted(HonestLRSortingProver):
    """Honest, but one round-3 column is reversed."""

    def round3(self, coins):
        rc = super().round3(coins)
        rc.nodes["pfx1_rp"].reverse()
        return rc


def test_a_permuted_column_fails_the_comparison():
    inst = LR.yes_factory(64, random.Random(0))
    proto = LRSortingProtocol(c=2)
    got = proto.execute(inst, prover=_Permuted(inst), rng=random.Random(0))
    want = proto.execute(inst, prover=_DictColumns(RefHonest(inst)), rng=random.Random(0))
    assert _run_record(got) != _run_record(want)
    assert not got.accepted


# ---------------------------------------------------------------------------
# the path-outerplanarity prover's lr columns
# ---------------------------------------------------------------------------


def _coins(rng, n, width):
    return {v: BitString(rng.getrandbits(width), width) for v in range(n)}


@pytest.mark.parametrize("n", [4, 8, 33, 200])
@pytest.mark.parametrize("yes", [True, False], ids=["yes", "no"])
def test_po_lr_columns_equal_the_reference_transposition(n, yes):
    for seed in SEEDS:
        inst = (PO.yes_factory if yes else PO.no_factory)(n, random.Random(seed))
        pm = PathOuterplanarityParams(n)
        po = HonestPathOuterplanarityProver(inst).bind(pm, None)
        po.setup()
        ref = RefHonest(_LRShim(inst.graph, po.path, po.orientation)).bind(pm.lr)
        fmts = lr_formats(
            pm.lr.index_width, pm.lr.n_blocks > 1, pm.lr.p,
            pm.lr.p2 if pm.lr.n_blocks > 1 else 0,
        )
        edges = po.non_path
        rng = random.Random(seed)

        rc = po.round1(None)
        nodes, edge_fields = ref.round1()
        assert rc.nodes["lr"] == _node_columns(nodes, fmts.node1.names, n)
        assert [rc.edge_columns[k] for k in ("inner", "I")] == [
            [edge_fields[e].get(k, OMIT) for e in edges] for k in ("inner", "I")
        ]

        coins = _coins(rng, n, pm.lr_shift + 3 * pm.lr.fw)
        rc = po.round3(coins)
        lr_coins = {v: BitString(*pm.lr_coin2(c.value, c.width)) for v, c in coins.items()}
        nodes, edge_fields = ref.round3(lr_coins)
        assert rc.nodes["lr"] == _node_columns(nodes, fmts.node3.names, n)
        assert rc.edge_columns["jval"] == [
            edge_fields[e]["jval"] if e in edge_fields else OMIT for e in edges
        ]

        if pm.lr.n_blocks > 1:
            coins = _coins(rng, n, 2 * pm.lr.fw2)
            rc = po.round5(coins)
            assert rc.nodes["lr"] == _node_columns(ref.round5(coins), fmts.node5.names, n)
