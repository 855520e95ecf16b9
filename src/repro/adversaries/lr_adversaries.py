"""Adversarial provers against the LR-sorting protocol (Section 4).

Each adversary inherits the honest machinery and lies at exactly one spot,
so the soundness experiments isolate which protocol ingredient catches
which cheat:

- :class:`SwappedBlocksProver` claims positions under a permutation that
  swaps two whole blocks -- the adjacent-block multiset equality of the
  block construction must notice.
- :class:`InnerBlockLiarProver` relabels one violating outer-block edge as
  inner-block -- the per-block nonce r_b must mismatch.
- :class:`IndexLiarProver` commits a fabricated distinguishing index and
  polynomial value for one violating edge -- the C/D multiset sessions
  must notice.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.network import Edge
from ..protocols.instances import LRSortingInstance
from ..protocols.lr_sorting import HonestLRSortingProver


def _violating_edges(instance: LRSortingInstance):
    pos = instance.position()
    return [
        e for e, (t, h) in instance.orientation.items() if pos[t] > pos[h]
    ]


class SwappedBlocksProver(HonestLRSortingProver):
    """Claims the path order with two blocks swapped wholesale.

    Positions inside the swapped blocks are translated, so every structural
    check inside blocks still passes; only the block-position encoding lies
    (block b_i claims position b_j and vice versa).
    """

    def __init__(self, instance: LRSortingInstance, swap: Tuple[int, int] = (0, 1)):
        super().__init__(instance)
        self.swap = swap

    def claimed_position(self) -> Dict[int, int]:
        pm = self.params
        true_pos = self.instance.position()
        bi, bj = self.swap
        if bi == bj or max(bi, bj) >= pm.n_blocks - 1:
            # never swap the (elastic) last block; fall back to first two
            bi, bj = 0, 1
        if pm.n_blocks <= max(bi, bj):
            return true_pos
        L = pm.L
        out = {}
        for v, q in true_pos.items():
            b = pm.block_of_position(q)
            if b == bi:
                out[v] = q + (bj - bi) * L
            elif b == bj:
                out[v] = q + (bi - bj) * L
            else:
                out[v] = q
        return out


class InnerBlockLiarProver(HonestLRSortingProver):
    """Marks one right-to-left outer-block edge as inner-block, with
    fabricated in-block indices implied by the claimed positions."""

    def _setup(self):
        super()._setup()
        for e in _violating_edges(self.instance):
            if e in self.edge_index:
                del self.edge_index[e]  # now typed inner-block
                break


class StealthIndexLiarProver(HonestLRSortingProver):
    """The cheat only the verification scheme (rounds 4-5) can catch.

    For one violating outer edge, commit a distinguishing index i chosen so
    that (a) no other edge at either endpoint uses i -- so the pairwise
    consistency checks of rounds 1-3 have nothing to compare -- and
    (b) the tail block's bit at i is 0 and (where possible) the head's is 1,
    so the bit-structure looks plausible.  The committed value is the tail
    block's true prefix evaluation, so the tail-side multiset session is
    even *satisfied*; only the head-side session comparison against
    D1(b_head) exposes that the two blocks' prefixes disagree.  The 3-round
    truncation ablation accepts this prover; the full protocol does not.
    """

    def _setup(self):
        super()._setup()
        pm = self.params
        pos = self.instance.position()
        orientation = self.instance.orientation
        for e, (t, h) in orientation.items():
            if e not in self.edge_index or pos[t] < pos[h]:
                continue
            used = {
                i2
                for e2, i2 in self.edge_index.items()
                if e2 != e and set(orientation[e2]) & {t, h}
            }
            bt, bh = self.block[t], self.block[h]
            best = None
            for i in range(1, pm.L + 1):
                if i in used:
                    continue
                shift = pm.L - i
                score = ((bt >> shift) & 1 == 0) + ((bh >> shift) & 1 == 1)
                if best is None or score > best[0]:
                    best = (score, i)
            if best is not None:
                self.edge_index[e] = best[1]
            break


class IndexLiarProver(HonestLRSortingProver):
    """Commits, for one violating outer edge, the distinguishing index of
    the reversed pair but with the *head's* prefix value (consistent for
    the head's block, a lie for the tail's)."""

    def round3(self, coins):
        rc = super().round3(coins)
        for e in _violating_edges(self.instance):
            if e not in self.edge_index:
                continue
            t, h = self.instance.orientation[e]
            i = self.edge_index[e]
            # claim the value of the head block's prefix polynomial
            rc.edge_columns["jval"][rc.edges.index(e)] = self.phi[self.block[h]][i - 1]
            break
        return rc
