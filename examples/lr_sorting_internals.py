"""Under the hood of LR-sorting: blocks, streams, commitments, sessions.

Walks one execution of the Section-4 protocol on a small instance and
prints what the prover actually writes in each round -- the block
construction, the consecutive-numbers proof, the polynomial streams, and
the outer-edge commitments -- then shows the verification scheme catching
a stealth lie that every pairwise check misses.

    python examples/lr_sorting_internals.py
"""

import random

from repro.adversaries import StealthIndexLiarProver
from repro.core.network import norm_edge
from repro.graphs.generators import random_path_outerplanar
from repro.protocols.instances import LRSortingInstance
from repro.protocols.lr_sorting import (
    HonestLRSortingProver,
    LRParams,
    LRSortingProtocol,
)


def build_instance(n, rng, flip=0):
    g, path = random_path_outerplanar(n, rng, density=0.9)
    pos = {v: i for i, v in enumerate(path)}
    path_edges = {norm_edge(path[i], path[i + 1]) for i in range(n - 1)}
    orientation = {}
    non_path = [e for e in g.edges() if e not in path_edges]
    rng.shuffle(non_path)
    for k, (u, v) in enumerate(non_path):
        t, h = (u, v) if pos[u] < pos[v] else (v, u)
        if k < flip:
            t, h = h, t
        orientation[norm_edge(u, v)] = (t, h)
    return LRSortingInstance(g, path, orientation)


def main():
    rng = random.Random(5)
    n = 48
    inst = build_instance(n, rng)
    pm = LRParams(n, c=2)

    print(f"instance: n={n}, {inst.graph.m} edges, "
          f"{len(inst.orientation)} non-path edges")
    print(f"params:   block length L={pm.L}, #blocks={pm.n_blocks}, "
          f"fields p={pm.p}, p'={pm.p2}")

    prover = HonestLRSortingProver(inst).bind(pm)
    r1 = prover.round1()  # value columns: one entry per node id
    cols = r1.nodes

    print("\nround 1 -- block construction (first block, by path position):")
    print(f"  {'pos':>4} {'idx':>4} {'x1bit':>6} {'x2bit':>6} {'side':>5}")
    for q in range(pm.L):
        v = inst.path[q]
        side = {0: "L", 1: "V", 2: "R"}[cols["side"][v]]
        print(f"  {q:>4} {cols['idx'][v]:>4} {cols['x1bit'][v]:>6} "
              f"{cols['x2bit'][v]:>6} {side:>5}")
    print("  (x1 = block position, x2 = x1+1; the L..V..R pattern proves it)")

    edges = list(zip(r1.edges, r1.edge_columns["inner"], r1.edge_columns["I"]))
    outer = [(e, i) for e, inner, i in edges if not inner]
    print(f"\nround 1 -- edge commitments: {len(edges) - len(outer)} inner-block, "
          f"{len(outer)} outer-block")
    for e, i in outer[:4]:
        t, h = inst.orientation[e]
        print(f"  edge {t}->{h}: distinguishing index I={i} "
              f"(blocks {prover.block[t]} vs {prover.block[h]})")

    proto = LRSortingProtocol(c=2)
    res = proto.execute(inst, rng=random.Random(0))
    print(f"\nfull run: accepted={res.accepted}, rounds={res.n_rounds}, "
          f"proof={res.proof_size_bits} bits")

    print("\n--- the stealth lie (why rounds 4-5 exist) ---")
    bad = build_instance(n, rng, flip=1)
    full = LRSortingProtocol(c=2)
    trunc = LRSortingProtocol(c=2, truncate_to_three_rounds=True)
    fooled = caught = 0
    trials = 15
    for t in range(trials):
        prover = StealthIndexLiarProver(bad)
        fooled += trunc.execute(bad, prover=prover, rng=random.Random(t)).accepted
        caught += not full.execute(bad, prover=prover, rng=random.Random(t)).accepted
    print(f"3-round truncation accepts the lie: {fooled}/{trials}")
    print(f"5-round protocol rejects it:        {caught}/{trials}")


if __name__ == "__main__":
    main()
