"""One workload in a fresh interpreter: set up, measure, check.

Run by ``run.py`` as ``python child.py SPEC_JSON``; ``SPEC_JSON`` holds
``workload``, ``seed``, ``seconds``, ``trace``, ``workdir``,
``setup_only`` and, for a traced run, ``untraced``: figures of the
untraced run that per-layer metrics start from. Prints one JSON object on stdout. ``ready_at`` is
the system-wide monotonic clock when set-up finished, so the parent,
which read the same clock before starting this process, can measure
interpreter start, imports and input building together. A speed probe
(see ``speed.py``) runs from the first line through set-up and during
every timed unit; times are reported raw and scaled.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

from speed import SpeedProbe, scale_factor


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


PROBE = SpeedProbe(clock)
if __name__ == "__main__":
    PROBE.start()

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402

import cliquesep  # noqa: E402
from tracing import UNTRACED_TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

#: How a speed scale factor applies to a value of each time unit.
_SCALE_POWER = {"s": 1, "us": 1, "1/s": -1}


def unit_count(cls, seconds: float) -> int:
    """Units a run does: as many as take ``seconds`` at the reference
    speed, within the workload's limits. The count does not depend on
    how fast the code runs, so every run of a seed does the same work."""
    units = max(cls.min_units, round(seconds / cls.nominal_unit_s))
    return units if cls.max_units is None else min(units, cls.max_units)


def measure(wl, units: int):
    """Run ``units`` units of work.

    Returns raw and scaled unit times, work items and the scale factor
    over all units."""
    raw: list[float] = []
    scaled: list[float] = []
    samples: list[float] = []
    items = 0
    for index in range(units):
        PROBE.start()
        t0 = clock()
        items += wl.unit(index, clock)
        dt = clock() - t0
        factor = PROBE.stop()
        raw.append(dt)
        scaled.append((dt - PROBE.spent) * factor)
        samples += PROBE.samples
    return raw, scaled, items, scale_factor(samples)


def scale(value: float, unit: str, factor: float) -> float:
    return value * factor ** _SCALE_POWER.get(unit, 0)


def run(spec: dict) -> dict:
    cls = WORKLOADS[spec["workload"]]
    wl = cls(spec["seed"], Path(spec["workdir"]))
    out = {"ready_at": clock()}
    out["setup_factor"] = PROBE.stop()
    out["setup_probe_s"] = PROBE.spent
    if spec["setup_only"]:
        return out
    if spec["trace"]:
        tracer = Tracer(clock)
        tracer.calibrate()
    else:
        tracer = Tracer(clock, UNTRACED_TARGETS)
    tracer.install()
    try:
        raw, scaled, items, factor = measure(wl, unit_count(cls, spec["seconds"]))
    finally:
        tracer.remove()
    tracer.scale(factor)
    checks = Checks()
    wl.check(checks)
    out.update(
        raw_unit_s=raw,
        unit_s=scaled,
        factor=factor,
        items=items,
        report={k: [scale(v, unit, factor), unit] for k, (v, unit) in wl.report().items()},
        checks=checks.items,
        failed=checks.failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "cliquesep": cliquesep.__version__},
    )
    if spec["trace"]:
        out["layers"] = tracer.layer_metrics(wl.n, spec["untraced"])
        out["absent"] = tracer.absent
        out["wrapper_cost_us"] = {kind: 1e6 * c for kind, c in tracer.cost.items()}
        out["wrapper_overhead_s"] = tracer.overhead
    else:
        out["check_property_s"] = tracer.check_property_s()
        out["command_s"] = {label: t * factor for label, t in wl.command_seconds().items()}
    return out


def main() -> None:
    spec = json.loads(sys.argv[1])
    stdout = sys.stdout
    # Library output, if any, must not mix with the result line.
    with contextlib.redirect_stdout(sys.stderr):
        result = run(spec)
    stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
