"""The three workloads: what each runs, how it is timed, what it checks.

Every workload turns the benchmark seed into its inputs in :meth:`prepare`,
runs one timed unit per :meth:`run_once`, and verifies the program's outputs
both per unit (``Unit.failures``) and once at the end (:meth:`finish`).
A unit's timed body is the ``with body:`` block; only there is the tracer's
instrumentation installed.
"""

from __future__ import annotations

import functools
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import probes
from speed import Speedometer
from tracing import Patches, Tracer

#: Network families whose graph never changes over time.  A point on any
#: other family is a dynamic-network point (``dynamic_s``); points without a
#: family (e.g. the Lemma 4.2 chain) count as static.
STATIC_FAMILIES = frozenset({"clique", "star", "cycle", "path", "expander", "erdos-renyi"})


def point_class(network: Optional[str]) -> str:
    return "dynamic" if network is not None and network not in STATIC_FAMILIES else "static"


@dataclass
class Unit:
    """What one timed unit measured and found wrong."""

    wall_s: float = 0.0
    setup_s: Optional[float] = None  # per-unit set-up (fleet boot), if any
    #: (reference seconds, point class) per point; raw seconds when traced.
    latencies: List[Tuple[float, str]] = field(default_factory=list)
    points: int = 0
    failed_points: int = 0
    checks: int = 0
    failures: List[str] = field(default_factory=list)
    execution: Dict[str, int] = field(default_factory=dict)
    #: Measured seconds × factor = reference seconds (see ``speed.py``);
    #: 1.0 for traced units, which are not calibrated.
    factor: float = 1.0

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)


class Body:
    """Context manager around a unit's timed body.

    Traced units install the layer probes before the clock starts and open
    the ``bench.iteration`` root span; the probes come off after it stops.
    Untraced units carry a :class:`Speedometer`; with ``tick`` it samples the
    calibration loop on a timer, and ``wall_s`` excludes the loops' time.
    """

    def __init__(self, tracer: Optional[Tracer], speedometer: Optional[Speedometer] = None,
                 tick: bool = False):
        self.tracer = tracer
        self.speedometer = speedometer
        self.tick = tick and speedometer is not None
        self.wall_s = 0.0

    def __enter__(self) -> "Body":
        if self.tracer is not None:
            probes.install(self.tracer)
            self._root = self.tracer.begin("bench.iteration")
        if self.tick:
            self._ticking = self.speedometer.ticking()
            self._ticking.__enter__()
        self._spent = self.speedometer.spent if self.speedometer else 0.0
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._start
        if self.tick:
            self._ticking.__exit__(*exc)
        if self.speedometer is not None:
            self.wall_s -= self.speedometer.spent - self._spent
        if self.tracer is not None:
            self.tracer.end(self._root)
            self.tracer.restore()


class PointClock:
    """Times every ``measure_point`` call of an in-process pipeline.

    Calibration loops that ran during a point are not part of its latency.
    """

    def __init__(self, speedometer: Optional[Speedometer]):
        self.points: List[Tuple[float, float, float, str]] = []  # (s, start, end, class)
        self._speedometer = speedometer
        self._patches = Patches()

    def _spent(self) -> float:
        return self._speedometer.spent if self._speedometer is not None else 0.0

    def __enter__(self) -> "PointClock":
        def make(original):
            @functools.wraps(original)
            def timed(point, *args, **kwargs):
                spent, start = self._spent(), time.perf_counter()
                try:
                    return original(point, *args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self.points.append((end - start - (self._spent() - spent), start, end,
                                        point_class(point.scenario.network)))
            return timed

        self._patches.function("repro.scenarios.measurements", "measure_point", make)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def latencies(self) -> List[Tuple[float, str]]:
        return scaled(self.points, self._speedometer)


def scaled(points, speedometer: Optional[Speedometer]) -> List[Tuple[float, str]]:
    """(seconds, start, end, class) → (reference seconds, class), each point
    scaled by the calibration samples around it."""
    if speedometer is None:
        return [(seconds, cls) for seconds, _, _, cls in points]
    return [(seconds * speedometer.factor(start, end), cls)
            for seconds, start, end, cls in points]


def derived_seeds(seed: int, count: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


class Workload:
    name = ""
    #: Modules a fresh process imports before its first timed unit.
    setup_modules: Tuple[str, ...] = ()

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def prepare(self) -> None:
        """Generate inputs from the seed (untimed)."""

    def run_once(self, tracer: Optional[Tracer]) -> Unit:
        raise NotImplementedError

    def finish(self) -> Unit:
        """Checks that need every unit's output (untimed)."""
        return Unit()


class VerifySmall(Workload):
    """A cold, in-process, serial ``repro verify --scale small``.

    ``repro verify`` takes no seed, so neither does this workload: every seed
    runs the pinned reproduction and must match the CLI's document byte for
    byte.  (``build_results(rng_offset=k)`` is not used because it raises for
    most ``k``; see the README.)
    """

    name = "verify-small"
    setup_modules = ("repro.cli", "repro.experiments.reporting")
    REFERENCE = Path(__file__).resolve().parent / "reference" / "verify_small.json"
    CHECKS = 21
    POINTS = 59

    def prepare(self) -> None:
        self.reference = self.REFERENCE.read_text(encoding="utf-8")

    def run_once(self, tracer: Optional[Tracer]) -> Unit:
        import io

        from repro.api.sinks import LocalDirSink
        from repro.cli import _dump_json
        from repro.experiments.reporting import build_results, verification_as_dict
        from repro.scenarios.pipeline import ExperimentPipeline

        unit = Unit()
        speedometer = None if tracer else Speedometer()
        cache = Path(tempfile.mkdtemp(prefix="verify-", dir=self.scratch))
        try:
            pipeline = ExperimentPipeline(jobs=1, sink=LocalDirSink(cache))
            with PointClock(speedometer) as clock, \
                    Body(tracer, speedometer, tick=True) as body:
                results = build_results(scale="small", pipeline=pipeline)
                document = verification_as_dict(results, scale="small",
                                                execution=pipeline.report)
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        unit.wall_s, unit.latencies = body.wall_s, clock.latencies()
        unit.factor = speedometer.factor() if speedometer else 1.0
        report = pipeline.report
        unit.execution = {"items": report.items, "retries": report.retries,
                          "failures": report.failures}
        unit.points = report.items + report.cache_hits
        unit.failed_points = report.failures
        out = io.StringIO()
        _dump_json(document, out)
        text = out.getvalue()
        unit.check(document["checked"] == self.CHECKS,
                   f"{document['checked']} checks evaluated, expected {self.CHECKS}")
        unit.check(unit.points == self.POINTS and report.succeeded == self.POINTS,
                   f"{report.succeeded}/{unit.points} points succeeded, expected {self.POINTS}")
        unit.check(document["passed"] == self.CHECKS,
                   f"{document['passed']}/{self.CHECKS} checks passed")
        unit.check(text == self.reference,
                   "verification document differs from `repro verify --scale small --json`")
        return unit


class SpreadLarge(Workload):
    """Five paper-scale points through ``ExperimentPipeline`` (NullSink)."""

    name = "spread-large"
    setup_modules = ("repro.cli", "repro.scenarios.pipeline")

    def prepare(self) -> None:
        from repro.scenarios.scenario import Scenario

        static_seed, star_seed, markov_seed, diligent_seed = derived_seeds(self.seed, 4)
        er = {"n": 10_000, "p": 0.00184}
        # The two static points share scenario seed and index, hence one
        # network realisation, measured by two engines.
        self.scenarios = [
            Scenario(label="er-auto", network="erdos-renyi", params=er,
                     engine="auto", trials=20, seed=static_seed),
            Scenario(label="er-boundary", network="erdos-renyi", params=er,
                     engine="boundary", trials=3, seed=static_seed),
            Scenario(label="dynamic-star", network="dynamic-star", params={"n": 10_000},
                     trials=3, seed=star_seed),
            Scenario(label="edge-markovian", network="edge-markovian",
                     params={"n": 3000, "birth": 0.001, "death": 0.3},
                     trials=3, seed=markov_seed),
            Scenario(label="diligent", network="diligent", params={"n": 500, "rho": 0.25},
                     trials=2, seed=diligent_seed),
        ]
        self.checksums: List[List[str]] = []

    def run_once(self, tracer: Optional[Tracer]) -> Unit:
        from repro.api.sinks import NullSink, payload_checksum
        from repro.scenarios.pipeline import ExperimentPipeline

        unit = Unit()
        speedometer = None if tracer else Speedometer()
        pipeline = ExperimentPipeline(jobs=1, sink=NullSink())
        with PointClock(speedometer) as clock, Body(tracer, speedometer, tick=True) as body:
            results = pipeline.run(self.scenarios)
        unit.wall_s, unit.latencies = body.wall_s, clock.latencies()
        unit.factor = speedometer.factor() if speedometer else 1.0
        report = pipeline.report
        unit.execution = {"items": report.items, "retries": report.retries,
                          "failures": report.failures}
        unit.points = len(results)
        unit.failed_points = sum(1 for result in results if not result.ok)
        sums = [payload_checksum(result.payload) if result.ok else "" for result in results]
        for result in results:
            times = (result.payload or {}).get("spread_times") or []
            unit.check(result.ok and len(times) == result.scenario.trials
                       and all(0 < value < float("inf") for value in times),
                       f"{result.label}: missing or incomplete spread times")
        unit.check(not self.checksums or sums == self.checksums[0],
                   "payload checksums differ between repeats (or traced vs untraced)")
        self.checksums.append(sums)
        return unit


class FleetSweep(Workload):
    """An in-process coordinator plus one worker thread over loopback."""

    name = "fleet-sweep"
    setup_modules = ("repro.cli", "repro.service", "repro.distributed")
    POINTS = 300
    WAIT_S = 120.0

    def prepare(self) -> None:
        from repro.scenarios.scenario import Scenario

        # Every end-to-end metric is reported on every workload, so the batch
        # alternates a static (clique) and a dynamic (dynamic-star) family.
        self.scenarios = [
            Scenario(label=f"fleet-{index:03d}",
                     network="clique" if index % 2 == 0 else "dynamic-star",
                     params={"n": 16}, trials=2, seed=seed)
            for index, seed in enumerate(derived_seeds(self.seed, self.POINTS))
        ]
        self.checksums: List[List[str]] = []

    def run_once(self, tracer: Optional[Tracer]) -> Unit:
        from repro.api import MemorySink, ServiceClient
        from repro.distributed import run_worker
        from repro.service import ExperimentService, ServiceConfig, create_server

        unit = Unit()
        start = time.perf_counter()
        service = ExperimentService(ServiceConfig(workers=1, coordinator=True,
                                                  sink=MemorySink()))
        server = create_server(service, port=0)
        serving = threading.Thread(target=server.serve_forever, daemon=True)
        serving.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        stats: List[Any] = []
        worker = threading.Thread(
            target=lambda: stats.append(run_worker(base, max_points=1, poll=0.005)),
            daemon=True,
        )
        try:
            worker.start()
            while not service.leases.workers():
                if time.perf_counter() - start > self.WAIT_S:
                    raise TimeoutError("worker did not register")
                time.sleep(0.0005)
            unit.setup_s = time.perf_counter() - start
            granted, completed = self._lease_clock(service.leases)
            client = ServiceClient(base)
            # Calibrated before and after the body, on this thread: samples
            # taken on the worker thread during the body contend with the
            # server threads for the interpreter lock and slow the fleet down.
            speedometer = None if tracer else Speedometer()
            if speedometer is not None:
                speedometer.calibrate()
            with Body(tracer, speedometer) as body:
                run_id = client.submit(self.scenarios)["id"]
                detail = client.wait(run_id, timeout=self.WAIT_S)
            if speedometer is not None:
                speedometer.calibrate()
            unit.wall_s = body.wall_s
            unit.factor = speedometer.factor() if speedometer else 1.0
            unit.latencies = scaled(
                [(done - granted[lease], granted[lease], done, point_class(network))
                 for lease, (done, network) in completed.items()], speedometer)
            resumed = client.wait(client.submit(self.scenarios)["id"], timeout=self.WAIT_S)
        finally:
            service.shutdown(drain=True, timeout=self.WAIT_S)
            worker.join(timeout=self.WAIT_S)
            server.shutdown()
            server.server_close()
            serving.join(timeout=self.WAIT_S)
        result = detail.get("result") or {}
        points = result.get("points") or []
        unit.execution = {key: int(result.get("execution", {}).get(key, 0))
                          for key in ("items", "retries", "failures")}
        unit.points = self.POINTS
        unit.failed_points = self.POINTS - sum(1 for p in points if p["status"] == "ok")
        unit.check(detail.get("state") == "completed" and len(points) == self.POINTS,
                   f"run ended {detail.get('state')!r} with {len(points)} points")
        unit.check(len(unit.latencies) == self.POINTS,
                   f"{len(unit.latencies)} lease completions for {self.POINTS} points")
        unit.check(not worker.is_alive() and bool(stats) and stats[0].failed == 0,
                   "worker thread failed or did not stop")
        resumed_points = (resumed.get("result") or {}).get("points") or []
        unit.check(len(resumed_points) == self.POINTS
                   and all(p["cached"] and p["attempts"] == 0 for p in resumed_points),
                   "resubmission was not served entirely from cache")
        self.checksums.append([p["checksum"] for p in points])
        return unit

    @staticmethod
    def _lease_clock(registry):
        """Record lease grant and completion times on this registry instance."""
        granted: Dict[str, float] = {}
        completed: Dict[str, Tuple[float, Optional[str]]] = {}
        # Look the methods up on the class at call time, so a traced unit's
        # probes (installed after this) still see the registry calls.
        cls = type(registry)

        def timed_acquire(*args, **kwargs):
            leases = cls.acquire(registry, *args, **kwargs)
            now = time.perf_counter()
            for lease in leases:
                granted[lease.lease_id] = now
            return leases

        def timed_complete(lease_id, *args, **kwargs):
            task, accepted = cls.complete(registry, lease_id, *args, **kwargs)
            if accepted:
                completed[lease_id] = (time.perf_counter(),
                                       task.spec["scenario"].get("network"))
            return task, accepted

        registry.acquire, registry.complete = timed_acquire, timed_complete
        return granted, completed

    def finish(self) -> Unit:
        from repro.api import MemorySink, payload_checksum
        from repro.scenarios.pipeline import ExperimentPipeline

        unit = Unit()
        serial = ExperimentPipeline(jobs=1, sink=MemorySink()).run(self.scenarios)
        reference = [payload_checksum(result.payload) for result in serial]
        for index, sums in enumerate(self.checksums):
            unit.check(sums == reference,
                       f"unit {index}: fleet payload checksums differ from a serial run")
        return unit


WORKLOADS = {cls.name: cls for cls in (VerifySmall, SpreadLarge, FleetSweep)}
