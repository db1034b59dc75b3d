"""End-to-end benchmark of the rumor-spreading reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload verify-small --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` alternates untraced and traced units and reports the per-layer
metrics, the tracing overhead and the unattributed share.  The last line of
standard output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); a result document and, for traced runs, a Chrome trace are
written under ``.perfbench/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import fingerprint

# Before anything imports numpy.
fingerprint.pin_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Imports the workload's entry modules in a fresh interpreter, sampling the
#: calibration loop while it does, and prints the import time, the
#: calibration factor and the seconds the loops took.
SETUP_PROBE = """
import importlib, json, sys, time
sys.path.insert(0, sys.argv[1])
import speed
meter = speed.Speedometer()
start = time.perf_counter()
with meter.ticking(interval=0.02):
    for name in sys.argv[2:]:
        importlib.import_module(name)
    meter.sample()
seconds = time.perf_counter() - start - meter.spent
print(json.dumps({"import_s": seconds, "factor": meter.factor(), "spent": meter.spent}))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_probe(modules):
    """One fresh-process set-up: (reference seconds, measured import seconds).

    The process's wall time, less its calibration loops, scaled by the
    calibration factor the process measured.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(HERE), *modules], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return (wall - probe["spent"]) * probe["factor"], probe["import_s"]


def load_program():
    """Import ``repro`` from this checkout's ``src``, or explain why not."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program at {SRC / 'repro'}; run from the root of a checkout"
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        return f"imported repro from {repro.__file__}, not from {SRC}"
    return None


def measure(workload, seconds: float, trace: bool):
    """Run units until the next one would overrun ``seconds``.

    Untraced runs repeat untraced units, at least two, so that a slow phase
    of the machine cannot leave a run with a single sample.  Traced runs
    alternate untraced and traced units, starting untraced, and always make
    at least one of each.
    """
    from tracing import Tracer

    untraced, traced = [], []
    cost = {False: None, True: None}
    start = time.perf_counter()
    while True:
        with_trace = trace and len(traced) < len(untraced)
        enough = (untraced and traced) if trace else len(untraced) >= 2
        expected = cost[with_trace] if cost[with_trace] is not None else cost[False]
        if enough and time.perf_counter() - start + expected > seconds:
            break
        began = time.perf_counter()
        if with_trace:
            tracer = Tracer()
            traced.append((workload.run_once(tracer), tracer))
        else:
            untraced.append(workload.run_once(None))
        cost[with_trace] = time.perf_counter() - began
    return untraced, traced


def print_table(title, rows):
    print(f"\n{title}")
    for row in rows:
        print("  " + "  ".join(str(cell) for cell in row))


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = load_program()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    import metrics as m
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, scratch)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    env = fingerprint.fingerprint(pinned_cpu=fingerprint.pin_cpu())
    print("fingerprint: " + json.dumps(env, sort_keys=True))

    probes = [setup_probe(workload.setup_modules) for _ in range(SETUP_SAMPLES)]
    setup_samples = [wall for wall, _ in probes]
    import_s = statistics.median(seconds for _, seconds in probes)
    workload.prepare()
    untraced, traced = measure(workload, args.seconds, bool(args.trace))
    final = workload.finish()

    units = untraced + [unit for unit, _ in traced]
    failures = [message for unit in units + [final] for message in unit.failures]
    rows = []
    for index, unit in enumerate(units):
        kind = "traced" if index >= len(untraced) else "untraced"
        boot = f" setup={unit.setup_s:.4f}s" if unit.setup_s is not None else ""
        rows.append((f"unit {index + 1}", kind, f"wall={unit.wall_s:.4f}s{boot}",
                     f"factor={unit.factor:.4f}",
                     f"points={unit.points}", f"failed_points={unit.failed_points}",
                     f"checks={unit.checks - len(unit.failures)}/{unit.checks}"))
    print_table("units", rows)

    layers = {}
    if args.trace:
        per_unit = [m.per_layer(tracer, unit) for unit, tracer in traced]
        reported, count_failures = m.combine_layers(per_unit)
        failures += count_failures
        overhead = statistics.median(u.wall_s for u, _ in traced) \
            - statistics.median(u.wall_s for u in untraced)
        reported["trace.overhead_s"] = (overhead, "s")
        reported["cli.import_s"] = (import_s, "s")
        tracer = traced[0][1]
        layers = tracer.layer_table()
        wall = traced[0][0].wall_s
        print_table(f"per-layer self time, first traced unit (wall {wall:.4f} s; "
                    "threads overlap on fleet-sweep)",
                    [(f"{name:<12}", f"{row['self_s']:10.4f} s",
                      f"{100 * row['self_s'] / wall:6.1f}%", f"{row['spans']} spans")
                     for name, row in layers.items()])
        print_table("spans by name (calls, inclusive s, self s)",
                    [(f"{name:<28}", int(row["calls"]), f"{row['inclusive_s']:.4f}",
                      f"{row['self_s']:.4f}")
                     for name, row in sorted(tracer.summary().items())])
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.trace.json"
        tracer.write_chrome_trace(trace_path)
        print(f"\nchrome trace: {trace_path}")

    failed_points = sum(unit.failed_points for unit in units)
    attempted = sum(unit.points + unit.checks for unit in units + [final])
    failed = failed_points + len(failures)
    if not args.trace:
        reported = m.end_to_end(untraced, setup_samples, attempted, failed)
    latencies = sum(len(unit.latencies) for unit in untraced)
    print_table("metrics", [(f"{name:<34}", f"{value:.6g}", unit)
                            for name, (value, unit) in reported.items()])
    print(f"  samples: {len(untraced)} untraced units, {len(traced)} traced units, "
          f"{latencies} point latencies, {SETUP_SAMPLES} fresh-process set-ups")
    for message in failures:
        print(f"CHECK FAILED: {message}")

    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": env,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
        "samples": {"untraced_units": len(untraced), "traced_units": len(traced),
                    "point_latencies": latencies, "setups": SETUP_SAMPLES},
        "units": [{"wall_s": unit.wall_s, "setup_s": unit.setup_s, "factor": unit.factor}
                  for unit in units],
        "layers": layers,
        "failures": failures,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    result_path = (OUT / "results"
                   / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json")
    result_path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"result: {result_path}")

    correct = not failures and failed_points == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": document["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
