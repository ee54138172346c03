"""The benchmark's four seeded workloads.

Each workload class builds its inputs from the seed in ``__init__`` (the
set-up the benchmark times), does one fixed unit of work per ``unit``
call (the timed section, which returns how many work items it did),
and verifies everything it produced in ``check`` against an oracle
that does not share the fast path being measured. A run does a fixed
number of units, worked out from ``--seconds`` and the unit's time at
the reference speed (``nominal_unit_s``), so runs of faster or slower
code, or on a faster or slower machine, do the same work. Sizes are
module constants; the constructors' size arguments exist for the
benchmark's own tests. Only public entry points of ``cliquesep`` are
called, and chain initial states are always passed explicitly, so a
refactor of the library changes how fast a workload runs, never what
it does.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from pathlib import Path
from statistics import median

from cliquesep import (
    CsfLaw,
    Graph,
    PotentialTable,
    clique_separators,
    complete_sets_graph,
    density_from_json,
    density_to_json,
    hub_law,
    is_connected,
    is_decomposable,
    law_from_json,
    law_to_json,
    normalize_by_enumeration,
    perturb_density,
    run_chain,
    visit_counts,
    vset,
)
from cliquesep.cli import run_command

#: Verdict tolerance of ``check`` and bound on the fit's reconstruction error.
TOL = 1e-9

#: Doubling one graph's probability breaks every cross-ratio it enters by ln 2.
PERTURB_FACTOR = 2.0
EXPECTED_VIOLATION = math.log(2.0)

#: Rows of the seeded 0/1 data file given to ``posterior``.
POSTERIOR_ROWS = 200

#: Decomposable graphs on n labelled vertices.
EXPECTED_COUNTS = {5: 822, 7: 617675}

#: The hub law of ``chain-hub200``: n, hubs 0..HUBS-1, clique and separator rates.
HUB_N = 200
HUBS = 20
CLIQUE_RATE = 4.0
SEPARATOR_RATE = 0.5
#: Steps per block of ``chain-hub200``; one record is retained per block.
HUB_BLOCK = 100

#: Bound on the total-variation distance of ``chain-exact4``'s pooled
#: visit frequencies to the exact law.
TV_MAX = 0.02


class Checks:
    """Correctness outcomes of one run, each with the values it compared."""

    def __init__(self):
        self.items: list[dict] = []

    def add(self, name: str, ok: bool, **values) -> None:
        self.items.append({"name": name, "ok": bool(ok), **values})

    @property
    def failed(self) -> int:
        return sum(not c["ok"] for c in self.items)


def random_law(n: int, rng: random.Random) -> CsfLaw:
    """Full-support law with independent N(0, 0.6^2) log-potentials on every set."""
    phi = {m: rng.gauss(0.0, 0.6) for m in range(1 << n)}
    psi = {m: rng.gauss(0.0, 0.6) for m in range(1 << n)}
    return CsfLaw(n, PotentialTable(overrides=phi), PotentialTable(overrides=psi))


class CheckN6:
    """Four CLI commands on files generated from the seed.

    ``check`` on the law file is cold (normalisation, decomposition index
    and sweep); ``check`` on the perturbed density reuses the index, so
    the two separate the index build from the sweep. ``PERTURB_FACTOR``
    is an input; the expected ln 2 violation is not, so a wrong factor
    is caught.
    """

    nominal_unit_s = 16.0
    min_units = 1
    # The decomposition index is cached per interpreter: only the first
    # unit in a process is cold.
    max_units = 1
    labels = ("check_pass", "check_fail", "fit", "posterior")

    def __init__(self, seed: int, workdir: Path, n: int = 6):
        rng = random.Random(seed)
        self.n = n
        law = random_law(n, rng)
        self.density = normalize_by_enumeration(law)
        i, j = sorted(rng.sample(range(n), 2))
        # A single-edge graph lies in a 2x2 sub-table of some conditioning
        # table, so perturbing it always shows as a violation.
        perturbed = perturb_density(self.density, Graph(n, [(i, j)]), PERTURB_FACTOR)
        files = {
            "law": law_to_json(law),
            "density": density_to_json(self.density),
            "perturbed": density_to_json(perturbed),
            "data": "".join(
                ",".join(str(rng.randrange(2)) for _ in range(n)) + "\n" for _ in range(POSTERIOR_ROWS)
            ),
        }
        path = {}
        for key, text in files.items():
            path[key] = workdir / f"{key}.{'csv' if key == 'data' else 'json'}"
            path[key].write_text(text)
        self.out = {label: workdir / f"{label}.out" for label in self.labels}
        self.argv = {
            "check_pass": ["check", "--law", str(path["law"]), "--property", "wsm"],
            "check_fail": ["check", "--law", str(path["perturbed"]), "--property", "wsm"],
            "fit": ["fit", "--law", str(path["density"])],
            "posterior": ["posterior", "--law", str(path["law"]), "--data", str(path["data"])],
        }
        self.status: dict[str, list[int]] = {label: [] for label in self.labels}
        self.seconds: dict[str, list[float]] = {label: [] for label in self.labels}

    def unit(self, index: int, clock) -> int:
        for label in self.labels:
            t0 = clock()
            status = run_command(self.argv[label] + ["--out", str(self.out[label])])
            self.seconds[label].append(clock() - t0)
            self.status[label].append(status)
        return len(self.labels)

    def command_seconds(self) -> dict[str, float]:
        return {label: median(self.seconds[label]) for label in self.labels}

    def report(self) -> dict[str, tuple[float, str]]:
        return {f"{label}_s": (s, "s") for label, s in self.command_seconds().items()}

    def check(self, checks: Checks) -> None:
        def load(label):
            ok = self.status[label] and all(s == 0 for s in self.status[label])
            return self.out[label].read_text() if ok else None

        text = load("check_pass")
        obj = json.loads(text) if text else {}
        checks.add(
            "check_pass",
            obj.get("passed") is True and obj.get("worst_violation", math.inf) <= TOL,
            worst_violation=obj.get("worst_violation"),
        )
        text = load("check_fail")
        obj = json.loads(text) if text else {}
        worst = obj.get("worst_violation", math.inf)
        checks.add(
            "check_fail_ln2",
            obj.get("passed") is False and abs(worst - EXPECTED_VIOLATION) <= TOL,
            worst_violation=obj.get("worst_violation"),
            expected=EXPECTED_VIOLATION,
        )
        text = load("fit")
        err = math.inf
        if text:
            refit = normalize_by_enumeration(law_from_json(text))
            err = max(abs(refit.prob(g) - p) / p for g, p in self.density.items())
        checks.add("fit_reconstruction", err <= TOL, max_relative_error=err)
        text = load("posterior")
        parsed = False
        if text:
            parsed = density_from_json(text).n == self.n
        checks.add("posterior_parses", parsed)


class CountN7:
    """``enumerate --count-only``: the only workload dominated by enumeration."""

    nominal_unit_s = 19.4
    min_units = 1
    max_units = None

    def __init__(self, seed: int, workdir: Path, n: int = 7):
        self.n = n
        self.expect = EXPECTED_COUNTS[n]
        self.out = workdir / "count.out"
        self.outputs: list[str | None] = []
        self.seconds: list[float] = []

    def unit(self, index: int, clock) -> int:
        t0 = clock()
        status = run_command(["enumerate", "--n", str(self.n), "--count-only", "--out", str(self.out)])
        self.seconds.append(clock() - t0)
        self.outputs.append(self.out.read_text() if status == 0 else None)
        return self.expect

    def command_seconds(self) -> dict[str, float]:
        return {"count": median(self.seconds)}

    def report(self) -> dict[str, tuple[float, str]]:
        return {"graphs_per_s": (self.expect / median(self.seconds), "1/s")}

    def check(self, checks: Checks) -> None:
        for k, text in enumerate(self.outputs):
            checks.add(f"count[{k}]", text == f"{self.expect}\n", printed=text, expected=self.expect)


class ChainHub200:
    """``run_chain`` on the hub law at the paper's published-figure scale.

    Units are blocks of ``HUB_BLOCK`` steps, thinned to the block's final
    state; each block starts from the final state of the previous one
    under its own random stream. A run does a fixed number of blocks, so
    it follows the same seeded trajectory whatever the speed.
    """

    nominal_unit_s = 1.08
    min_units = 2
    max_units = None

    def __init__(self, seed: int, workdir: Path):
        self.n = n = HUB_N
        self.seed = seed
        self.hubs = vset(range(HUBS))
        self.law = hub_law(n, self.hubs, CLIQUE_RATE, SEPARATOR_RATE)
        # The star on hub 0: every separator is {0}, so it is supported.
        self.state = complete_sets_graph(n, [vset([0, v]) for v in range(1, n)])
        self.records = []
        self.accepted = 0
        self.steps = 0

    def unit(self, index: int, clock) -> int:
        summary = run_chain(self.law, init=self.state, steps=HUB_BLOCK, thin=HUB_BLOCK,
                            seed=self.seed, chain_index=index)
        self.records.extend(summary.records if index == 0 else summary.records[1:])
        self.state = summary.records[-1].graph
        self.accepted += round(summary.acceptance_rate * summary.steps)
        self.steps += summary.steps
        return summary.steps

    def digest(self) -> str:
        """Accept count, final edge mask and retained edge masks, hashed."""
        h = hashlib.sha256()
        for v in [self.accepted, self.state.edge_mask] + [r.graph.edge_mask for r in self.records]:
            h.update(f"{v:x};".encode())
        return h.hexdigest()

    def command_seconds(self) -> dict[str, float]:
        return {}

    def report(self) -> dict[str, tuple[float, str]]:
        return {"acceptance_rate": (self.accepted / self.steps, "ratio")}

    def check(self, checks: Checks) -> None:
        n, a, b = self.n, CLIQUE_RATE, SEPARATOR_RATE
        for k, rec in enumerate(self.records):
            # A fresh Graph carries no cached search, so cliques and
            # separators are recomputed from scratch.
            g = Graph.from_edge_mask(n, rec.graph.edge_mask)
            ok = is_decomposable(g)
            values = {}
            if ok:
                cl, seps = clique_separators(g)
                logd = -a * sum(c.bit_count() for c in cl) + b * sum(
                    s.bit_count() * mult for s, mult in seps.items()
                )
                sizes = tuple(sorted(s.bit_count() for s, mult in seps.items() for _ in range(mult)))
                values = {"hub_free_separators": sum(s & self.hubs == 0 for s in seps),
                          "log_density_error": abs(logd - rec.log_density)}
                ok = (values["hub_free_separators"] == 0 and is_connected(g)
                      and values["log_density_error"] <= TOL
                      and rec.num_cliques == len(cl)
                      and rec.max_clique == max(c.bit_count() for c in cl)
                      and rec.separator_sizes == sizes)
            checks.add(f"record[{k}]", ok, step=rec.step, **values)
        checks.add("chain_moves", self.accepted > 0, accepted=self.accepted, steps=self.steps,
                   acceptance_rate=self.accepted / self.steps, digest=self.digest())


class ChainExact4:
    """``visit_counts`` on a random full-support law at n=4.

    Units are independent chains of ``block`` steps from the empty graph;
    their pooled visit counts must be within ``TV_MAX`` total variation
    of the exact law, which at least ten units (1M steps) meet. Here the
    memo absorbs scoring, so the cost is the proposal search and the
    loop itself.
    """

    nominal_unit_s = 0.77
    min_units = 10
    max_units = None

    def __init__(self, seed: int, workdir: Path, block: int = 100_000):
        self.n = 4
        self.block = block
        self.seed = seed
        self.law = random_law(self.n, random.Random(seed))
        self.init = Graph.empty(self.n)
        self.counts: Counter = Counter()
        self.steps = 0

    def unit(self, index: int, clock) -> int:
        self.counts.update(visit_counts(self.law, init=self.init, steps=self.block,
                                        seed=self.seed, chain_index=index))
        self.steps += self.block
        return self.block

    def command_seconds(self) -> dict[str, float]:
        return {}

    def report(self) -> dict[str, tuple[float, str]]:
        return {}

    def check(self, checks: Checks) -> None:
        exact = {g.edge_mask: p for g, p in normalize_by_enumeration(self.law).items()}
        total = sum(self.counts.values())
        checks.add("visits_sum_to_steps", total == self.steps, visits=total, steps=self.steps)
        outside = sum(1 for mask in self.counts if mask not in exact)
        checks.add("visits_decomposable", outside == 0, outside=outside)
        tv = 0.5 * sum(abs(self.counts.get(mask, 0) / total - p) for mask, p in exact.items())
        checks.add("tv_to_exact", tv <= TV_MAX, tv=tv, bound=TV_MAX)


WORKLOADS = {
    "check-n6": CheckN6,
    "count-n7": CountN7,
    "chain-hub200": ChainHub200,
    "chain-exact4": ChainExact4,
}
