"""Seeded benchmark of cliquesep: four workloads, each in a fresh interpreter.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads run one at a time, each in a child interpreter started from
this single process. With ``--trace 0`` a run measures the end-to-end
metrics; with ``--trace 1`` it runs the workload untraced and then
traced, and reports the per-layer metrics and the tracing overhead. A
human-readable report and a JSON report line come first; the last line
of stdout is ``{"correct", "attempted", "failed", "metrics"}``. The exit
status is 0 when every correctness check passed, 1 when one failed and
2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracing import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = ("check-n6", "count-n7", "chain-hub200", "chain-exact4")

#: Every end-to-end metric: (name, unit, better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: Work items counted by ``work_per_s``.
ITEMS = {"check-n6": "CLI commands", "count-n7": "decomposable graphs",
         "chain-hub200": "MH steps", "chain-exact4": "MH steps"}

#: Measuring interpreters per run. A ``check-n6`` unit is cold only once
#: per interpreter, and one 16 s unit scatters by ~8% between runs.
PROCESSES = {"check-n6": 2}

#: Set-ups timed per untraced run: the measuring interpreters' own, the
#: rest from set-up-only interpreters.
SETUP_SAMPLES = 5

#: One workload's run, all its children included, must end within this many seconds.
RUN_LIMIT_S = 170.0

#: Children's environment. Single-threaded numerical libraries: the
#: benchmark starts no extra threads. A fixed string-hash seed: with a
#: random one, dict and set layouts differ between interpreters, which
#: scatters their speed by ~1%.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def clock() -> float:
    # System-wide on Linux, so it compares with the child's ``ready_at``.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def tail(values):
    """Highest percentile with at least ten samples above it, or None."""
    s = sorted(values)
    if len(s) < 11:
        return None
    k = len(s) - 11
    return {"percentile": math.floor(100 * (k + 1) / len(s)), "value": s[k], "samples": len(s)}


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        commit = ref
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "commit": commit, "seed": seed}


class Runner:
    """Starts one workload's child interpreters under one deadline and one
    work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True)
        self.deadline = clock() + RUN_LIMIT_S
        self.children = 0

    def child(self, workload: str, seed: int, seconds: float, trace: bool, setup_only: bool = False,
              untraced: dict | None = None) -> dict:
        self.children += 1
        cwd = self.workdir / f"child{self.children}"
        cwd.mkdir()
        spec = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                "workdir": str(cwd), "setup_only": setup_only, "untraced": untraced}
        err_path = cwd / "stderr.txt"
        with open(err_path, "w") as err:
            started = clock()
            proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                                    stdout=subprocess.PIPE, stderr=err, text=True, cwd=ROOT,
                                    env={**os.environ, **CHILD_ENV})
            try:
                out, _ = proc.communicate(timeout=max(1.0, self.deadline - clock()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{workload}: run exceeded {RUN_LIMIT_S:.0f} s") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"{workload}: child exited {proc.returncode}:\n{err_path.read_text()[-2000:]}")
        result = json.loads(out.strip().splitlines()[-1])
        result["raw_setup_s"] = result.pop("ready_at") - started
        result["setup_s"] = (result["raw_setup_s"] - result["setup_probe_s"]) * result["setup_factor"]
        return result


def merge(children: list[dict]) -> dict:
    """One result from the measuring interpreters of a run."""
    first = children[0]
    merged = dict(first)
    for key in ("unit_s", "raw_unit_s", "checks"):
        merged[key] = [x for c in children for x in c[key]]
    merged["check_property_s"] = [median(times) for times in zip(*(c["check_property_s"] for c in children))]
    merged["command_s"] = {label: median(c["command_s"][label] for c in children) for label in first["command_s"]}
    merged["items"] = sum(c["items"] for c in children)
    merged["peak_rss_mb"] = max(c["peak_rss_mb"] for c in children)
    merged["factor"] = median(c["factor"] for c in children)
    merged["report"] = {k: [median(c["report"][k][0] for c in children), unit]
                        for k, (_, unit) in first["report"].items()}
    return merged


def run_workload(runner: Runner, name: str, seed: int, seconds: float, trace: bool) -> dict:
    mains = [runner.child(name, seed, seconds, False) for _ in range(PROCESSES.get(name, 1))]
    main = merge(mains)
    children = [main]
    if trace:
        untraced = {key: main[key] for key in ("check_property_s", "command_s")}
        untraced["s_per_item"] = sum(main["unit_s"]) / main["items"]
        traced = runner.child(name, seed, seconds, True, untraced=untraced)
        children.append(traced)
        values = dict(traced["layers"])
        values["trace_overhead_ratio"] = median(traced["unit_s"]) / median(main["unit_s"])
        spec = LAYER_METRICS
    else:
        setups = mains + [runner.child(name, seed, seconds, False, setup_only=True)
                          for _ in range(SETUP_SAMPLES - len(mains))]
        values = {
            "setup_s": median([c["setup_s"] for c in setups]),
            "wall_s": median(main["unit_s"]),
            "work_per_s": main["items"] / sum(main["unit_s"]),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        spec = END_TO_END
        main["setup_samples"] = [c["setup_s"] for c in setups]
        main["raw_setup_samples"] = [c["raw_setup_s"] for c in setups]
    checks = [dict(c, run="traced" if c_idx else "untraced")
              for c_idx, child in enumerate(children) for c in child["checks"]]
    return {
        "workload": name,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in spec},
        "checks": checks,
        "attempted": len(checks),
        "failed": sum(not c["ok"] for c in checks),
        "children": children,
    }


def print_report(res: dict, seed: int, seconds: float, trace: bool) -> None:
    main = res["children"][0]
    print(f"== {res['workload']}  seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"units={len(main['unit_s'])} ({ITEMS[res['workload']]}: {main['items']})")
    for name, m in res["metrics"].items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    if not trace:
        for name, (value, unit) in main["report"].items():
            print(f"  {name:<46} {value:>14.6g} {unit}")
        t = tail(main["unit_s"])
        unit_note = (f"p{t['percentile']} {t['value']:.6g} s of {t['samples']} units" if t
                     else f"{len(main['unit_s'])} units, too few for a tail percentile")
        print(f"  {'wall_s tail':<46} {unit_note}")
        print(f"  {'setup_s samples':<46} {len(main['setup_samples'])}")
        print(f"  {'unscaled wall_s':<46} {median(main['raw_unit_s']):>14.6g} s")
        print(f"  {'unscaled setup_s':<46} {median(main['raw_setup_samples']):>14.6g} s")
        print(f"  {'speed scale factor':<46} {main['factor']:>14.6g}")
    else:
        absent = res["children"][1]["absent"]
        print(f"  absent wrapped names: {', '.join(absent) if absent else 'none'}")
    rate = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  {'error_rate':<46} {rate:>14.6g} ({res['failed']} of {res['attempted']} checks failed)")
    for c in res["checks"]:
        if not c["ok"]:
            print(f"  FAILED {c}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cliquesep" / "__init__.py").is_file():
        print(f"error: no cliquesep source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    workdir = ROOT / ".bench_work" / str(os.getpid())
    try:
        results = [run_workload(Runner(workdir / name), name, args.seed, args.seconds, bool(args.trace))
                   for name in names]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()
    env = environment(args.seed)
    env.update(results[0]["children"][0]["versions"], workloads=len(names))
    for res in results:
        print_report(res, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": env, "results": results}))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
