"""Seeded outputs pinned by sha256 digest.

The constants were taken from the library before its clique, enumeration
and chain loops were folded together; the decomposition index's from the
scan over covering pairs that builds it. Clique emission order fixes the
floating-point summation order of ``log_density_unnorm``, so these
digests also catch a reordering of cliques that leaves the clique sets
unchanged.
"""

import hashlib

from cliquesep import Graph, enumerate_decomposable, log_density_unnorm, visit_counts
from cliquesep.cli import run_command
from cliquesep.markov import _pair_tables
from conftest import random_csf


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def stdout_of(capsys, *argv) -> str:
    assert run_command(list(argv)) == 0
    return capsys.readouterr().out


def test_sample_hub_stdout_digest(capsys):
    out = stdout_of(capsys, "sample", "--law", "hub", "--n", "6", "--hubs", "0,1",
                    "--steps", "300", "--thin", "50", "--seed", "0")
    assert digest(out) == "c1368a67ecb648c98a3c07c7b38f2e9c30423b91dae4237dc13e36514aa6b0a1"


def test_visit_counts_digest():
    counts = visit_counts(random_csf(4, 5), init=Graph.empty(4), steps=20_000, seed=3)
    assert digest(repr(sorted(counts.items()))) == (
        "a18467a0ff84d60b5302e9b6273318f9f1ddf34399544e4e1b59cfe11fcf839a"
    )


def test_enumerate_stdout_digest(capsys):
    out = stdout_of(capsys, "enumerate", "--n", "5")
    assert digest(out) == "24285fa5af899dce4d11831769447cbda2ce24a9a34a50f1a03feb405110a696"


def test_enumerate_n6_stdout_digest(capsys):
    # Every n=6 table, row order and witness follows this order.
    out = stdout_of(capsys, "enumerate", "--n", "6")
    assert digest(out) == "e4bcdbd28bb71626de6766341393b8d6a60723c036558df92f1ef8b46ed4e5b0"


def test_log_density_digest():
    # Non-integer potentials, so a change in clique order shows in the last bits.
    law = random_csf(5, 1)
    text = "\n".join(f"{g.edge_mask} {log_density_unnorm(law, g)!r}" for g in enumerate_decomposable(5))
    assert digest(text) == "c028347ae707c98d75e3d473450c83ec1a159e1dbb2368e1801d6c053daabc57"


def test_decomposition_index_digest():
    # Table and row order decide which witness ``check`` reports.
    _, tables = _pair_tables(6)
    assert digest(repr([(t.a, t.b, t.rows) for t in tables])) == (
        "1b3a224f5f23623836c3bb3d6cbed8e42341f511034d81f0224cbbb71a3929e7"
    )
