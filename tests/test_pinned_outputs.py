"""Seeded outputs pinned by sha256 digest.

The constants were taken from the library before its clique, enumeration
and chain loops were folded together; the decomposition index's from the
scan over covering pairs that builds it; the ``check`` outputs' from the
dict-based cross-ratio sweep, before it was vectorised (the ``ewsm``
ones from the vectorised sweep, before one integer rule read every
vertex, vertex set and vertex count); the hub
``sample`` output's once hub chains started at the star; the 200-vertex
hub chain's from the search that scanned every unvisited vertex for the
next one, before it kept them in buckets by weight; the ``density``,
``fit`` and ``posterior`` outputs' from the density table that kept one
dict keyed by ``Graph`` and one by edge mask; the ``lemma-check`` and
``ewsm-rank`` outputs' from the per-graph lemma checks and the sparse
``ewsm`` elimination with ±1 pivots. Clique emission order fixes the
floating-point summation order of ``log_density_unnorm``, so these
digests also catch a reordering of cliques that leaves the clique sets
unchanged.
"""

import hashlib
import random

import pytest

from cliquesep import (
    CsfLaw,
    Graph,
    hub_law,
    PotentialTable,
    density_to_json,
    ewsm_not_wsm_density,
    law_to_json,
    enumerate_decomposable,
    log_density_unnorm,
    normalize_by_enumeration,
    perturb_density,
    run_chain,
    visit_counts,
)
from cliquesep.cli import run_command
from cliquesep.markov import PropertyKind, _pair_tables
from conftest import random_csf


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def stdout_of(capsys, *argv) -> str:
    assert run_command(list(argv)) == 0
    return capsys.readouterr().out


def test_sample_hub_stdout_digest(capsys):
    out = stdout_of(capsys, "sample", "--law", "hub", "--n", "6", "--hubs", "0,1",
                    "--steps", "300", "--thin", "50", "--seed", "0")
    # Starts at the star on hub 0; from the complete graph the chain never moved.
    assert digest(out) == "6ed20bd18be364caac9bbf9f62915954b25a2f2f43be50b95fd1593e6d0873ce"


def test_hub_chain_n200_digest():
    # Searches at n=200 cross the 64-bit word and reach weights far above n=6's.
    n = 200
    star = Graph(n, [(0, v) for v in range(1, n)])
    s = run_chain(hub_law(n, range(20), 4.0, 0.5), init=star, steps=300, thin=100, seed=11)
    lines = [str(round(s.acceptance_rate * s.steps))] + [
        f"{r.graph.edge_mask:x} {r.num_cliques} {r.max_clique} {r.separator_sizes}" for r in s.records
    ]
    assert digest("\n".join(lines)) == "29047434d35f3bee0c08fea7fb1d33bb9c8479da62883f7a8c44356e35ea4700"


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
    tables = _pair_tables(6)
    rows = [tuple(zip(*(c.tolist() for c in (t.gi, *t.pieces(), *t.families(PropertyKind.WSM))))) for t in tables]
    assert digest(repr([(t.a, t.b, r) for t, r in zip(tables, rows)])) == (
        "1b3a224f5f23623836c3bb3d6cbed8e42341f511034d81f0224cbbb71a3929e7"
    )


@pytest.fixture(scope="module")
def n6_density_files(tmp_path_factory):
    """The seed-11 n=6 law of the ``check-n6`` benchmark workload, its
    density, and the density's copy with one single-edge graph's
    probability doubled (ln 2)."""
    n = 6
    rng = random.Random(11)
    phi = {m: rng.gauss(0.0, 0.6) for m in range(1 << n)}
    psi = {m: rng.gauss(0.0, 0.6) for m in range(1 << n)}
    law = CsfLaw(n, PotentialTable(overrides=phi), PotentialTable(overrides=psi))
    density = normalize_by_enumeration(law)
    i, j = sorted(rng.sample(range(n), 2))
    perturbed = perturb_density(density, Graph(n, [(i, j)]), 2.0)
    tmp = tmp_path_factory.mktemp("check_n6")
    paths = {"law": tmp / "law.json"}
    paths["law"].write_text(law_to_json(law))
    for name, d in (("density", density), ("perturbed", perturbed)):
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(density_to_json(d))
    return paths


# The ``check`` digests pin the worst value to the last bit (4.44e-15
# of rounding noise on the passing density) and the witness quadruple.


def test_check_wsm_n6_stdout_digest(capsys, n6_density_files):
    out = stdout_of(capsys, "check", "--law", str(n6_density_files["density"]), "--property", "wsm")
    assert digest(out) == "c493f91d3fba3f9e9424a3e84065c1f78ccbfb99650cef4950f63bc055618a79"


def test_check_wsm_n6_perturbed_stdout_digest(capsys, n6_density_files):
    out = stdout_of(capsys, "check", "--law", str(n6_density_files["perturbed"]), "--property", "wsm")
    assert digest(out) == "02d40c6a090b74ff56c888917f9588df35c44d0bcf8c30efee5a3b99a4404d38"


def test_check_sm_n6_stdout_digest(capsys, n6_density_files):
    out = stdout_of(capsys, "check", "--law", str(n6_density_files["density"]), "--property", "sm")
    assert digest(out) == "4dc7c7d93b7a939a455ef6dfd2a2893b9b68aaa8d56cfed2c20ce1bc9c6ef1fc"


def test_check_ewsm_n6_stdout_digest(capsys, n6_density_files):
    out = stdout_of(capsys, "check", "--law", str(n6_density_files["density"]), "--property", "ewsm")
    assert digest(out) == "4b4fdd0fd614866cd2e4ca651c8fb57c91a62aad7eabb324aa8c769ab42eaf4f"


def test_check_ewsm_n6_perturbed_stdout_digest(capsys, n6_density_files):
    out = stdout_of(capsys, "check", "--law", str(n6_density_files["perturbed"]), "--property", "ewsm")
    assert digest(out) == "6a9ab7754a78df692317bbada47958f30353af5285858fe53b14672877fa6180"


@pytest.mark.parametrize("prop, expected", [
    ("ewsm", "19fdb0ffd3a2274082511994de50984997d44c6492d1f7379888b96ec541df63"),
    ("wsm", "ba7785eeb488687e35bcfbe0738a879a9b56cbe58043f6ff341dac4f4e81d053"),
], ids=["ewsm", "wsm"])
def test_check_ewsm_not_wsm_n4_stdout_digest(capsys, tmp_path, prop, expected):
    # The density passes ``ewsm`` and fails ``wsm``: both outputs are pinned.
    path = tmp_path / "ewsm_not_wsm.json"
    path.write_text(density_to_json(ewsm_not_wsm_density(4)))
    out = stdout_of(capsys, "check", "--law", str(path), "--property", prop)
    assert digest(out) == expected


def test_check_sm_hub_stdout_digest(capsys):
    # Graphs with a separator off the hub have probability zero: their cells are left out.
    out = stdout_of(capsys, "check", "--law", "hub", "--n", "5", "--hubs", "0", "--property", "sm")
    assert digest(out) == "272eddf51d58b14dd7a562363eee614a1c19d418640709991ca8900feffd4a14"


# The ``density``, ``fit`` and ``posterior`` digests pin every probability
# to the last bit and the order of the entries.


def test_density_n6_law_file_stdout_digest(capsys, n6_density_files):
    out = stdout_of(capsys, "density", "--law", str(n6_density_files["law"]))
    assert digest(out) == (
        "1bee51a31473b4877308053d931f4a53a7115a055bced0f1a1d060bbc51ee53b"
    )


def test_density_hub_zero_weights_stdout_digest(capsys):
    # Graphs with a separator off the hub get probability exactly zero.
    out = stdout_of(capsys, "density", "--law", "hub", "--n", "5", "--hubs", "0")
    assert digest(out) == (
        "afb5ba9c2a3a748931bb8d16e6abb7357a50e41bad543123dd3f813eaaa2df96"
    )


def test_fit_n6_stdout_digest(capsys, n6_density_files):
    assert run_command(["fit", "--law", str(n6_density_files["density"])]) == 0
    captured = capsys.readouterr()
    assert digest(captured.out) == (
        "4cd6a51e5a81166a27e17ba23c6ae0de79a3f066b4e89359ed7bd4ba0c5b5391"
    )
    assert captured.err == "max relative reconstruction error: 1.696e-14\n"


def test_posterior_uniform_n5_stdout_digest(capsys, tmp_path):
    rng = random.Random(5)
    data = tmp_path / "data.csv"
    data.write_text("".join(",".join(str(rng.randrange(2)) for _ in range(5)) + "\n" for _ in range(40)))
    out = stdout_of(capsys, "posterior", "--law", "uniform", "--n", "5", "--data", str(data))
    assert digest(out) == (
        "49b966262702fe858b13b0f4ffbfaccf7055a0f19bc7dff7945d5aecac274b22"
    )


def test_lemma_check_random_n5_stdout_digest(capsys, tmp_path):
    # A random law, since the uniform one gives deviations of 0 and 8.9e-16.
    path = tmp_path / "law.json"
    path.write_text(law_to_json(random_csf(5, seed=5)))
    out = stdout_of(capsys, "lemma-check", "--law", str(path))
    assert digest(out) == (
        "415d763cc74d85376a17d4fccd080aef1bd2b0b8b47b11d656f1e50c7799ddc8"
    )


def test_ewsm_rank_n5_stdout_digest(capsys):
    out = stdout_of(capsys, "ewsm-rank", "--n", "5")
    assert digest(out) == (
        "bcecf1580acc0132b5b89a21b74ac998012659f6090d09d89529784f4f32839f"
    )
