from collections import Counter

import numpy as np

from cliquesep import CsfLaw, PotentialTable
from cliquesep.graphs import _chordal_blocks, _lockstep_entries, _mcs, _rows_mask


def random_csf(n: int, seed: int, scale: float = 0.6) -> CsfLaw:
    """Full-support factorisation law with independent normal log-potentials."""
    rng = np.random.default_rng(seed)
    phi = PotentialTable(overrides={m: float(rng.normal(0.0, scale)) for m in range(1 << n)})
    psi = PotentialTable(overrides={m: float(rng.normal(0.0, scale)) for m in range(1 << n)})
    return CsfLaw(n, phi, psi)


def random_cef(n: int, seed: int, scale: float = 0.6) -> CsfLaw:
    """Law with one shared potential per set (the structurally-Markov subfamily)."""
    rng = np.random.default_rng(seed)
    shared = {m: float(rng.normal(0.0, scale)) for m in range(1 << n)}
    return CsfLaw(n, PotentialTable(overrides=shared), PotentialTable(overrides=dict(shared)))


def search_entries(n, rows, lo=0):
    """``(gi, sets, coef)``, as lists, of the graphs whose adjacency rows are
    ``rows``, numbered from ``lo``, from one :func:`_mcs` per graph: each
    graph's cliques as the search emits them, then minus each separator's
    multiplicity, in order of first emission."""
    gi, sets, coef = [], [], []
    for k, row in enumerate(rows, lo):
        cl, seps = _mcs(n, row, (1 << n) - 1)
        minus = Counter(seps)  # keys in order of first emission
        gi += [k] * (len(cl) + len(minus))
        sets += cl + list(minus)
        coef += [1] * len(cl) + [-m for m in minus.values()]
    return gi, sets, coef


def count_chordal_blocks(n, every=97):
    """Number of chordal graphs on n vertices, the sum of :func:`_chordal_blocks`' block lengths;
    no table is built. Checks that the masks strictly ascend across the blocks, and, on every
    ``every``-th block from the first, :func:`_lockstep_entries` against :func:`search_entries`,
    entry for entry and in order, and :func:`_rows_mask` of each adjacency row against its mask.
    At n=8, with ``graphs.ENUMERATION_LIMIT`` raised to 8, vertex 7 sets the top bit of every
    uint8 row, bucket and set, which no n <= 7 reaches; the count is then 30,888,596 (OEIS
    A058862), an oracle that shares no code with the package."""
    count, last = 0, -1
    for b, (masks, adj) in enumerate(_chordal_blocks(n)):
        assert masks[0] > last and (np.diff(masks) > 0).all(), (n, b)
        last = masks[-1]
        count += len(masks)
        if b % every == 0:
            rows = adj.tolist()
            for got, want in zip(_lockstep_entries(n, adj), search_entries(n, rows)):
                assert got.tolist() == want, (n, b)
            assert [_rows_mask(n, row) for row in rows] == masks.tolist(), (n, b)
    return count
