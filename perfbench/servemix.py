"""The ``serve-mix`` workload: a ``repro serve`` process under a client mix.

One client process (this one) drives the server with ``nproc`` threads
in a closed loop: each thread sends its next request only after the
previous reply.  Job latency is timed from the POST to the end of the
job's ``events?follow=1`` stream, which closes when the job reaches a
terminal status (``ServiceClient.wait`` would round it to its 0.1 s
poll).  Every ``SLICE_OPS`` operations the threads meet at a barrier
while a host-speed probe runs (:class:`common.HostSpeed`), and every
timed sample is reported at reference host speed.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional
from urllib.error import URLError
from urllib.request import urlopen

import common
import layers
from tracer import Tracer, write_json
from workloads import serve_ops, warmup_request

HERE = os.path.dirname(os.path.abspath(__file__))
#: Client threads (and pool workers): the host's CPUs, at most four.
THREADS = max(1, min(4, os.cpu_count() or 1))
#: How many sampled jobs the gate recomputes in-process.
CHECK_JOBS = 12
#: A run of ``--seconds`` sends ``seconds * OPS_PER_S`` closed-loop
#: operations (a third jobs, two thirds queries) per client thread,
#: whatever the host's speed: at 20 s, ~20 s on a 2-CPU host.
OPS_PER_S = 40
#: Operations each client thread sends between two host-speed probes
#: (about a second of load).  The threads meet at a barrier for each
#: probe, so the server is idle while it runs.
SLICE_OPS = 40
#: How long a thread waits at that barrier for the others.
BARRIER_TIMEOUT_S = 150
TERMINAL = ("done", "failed", "interrupted")


@dataclass
class Server:
    """One running ``repro serve`` process."""

    proc: subprocess.Popen
    url: str
    store_path: str
    dump_path: Optional[str]
    log: Any


def start_server(workdir: str, name: str, seed: int,
                 traced: bool = False) -> Server:
    """Start a server on a fresh store; return once its pool is warm."""
    store_path = os.path.join(workdir, f"{name}.jsonl")
    dump_path = os.path.join(workdir, f"{name}.spans.json") if traced \
        else None
    log_path = os.path.join(workdir, f"{name}.log")
    log = open(log_path, "w+")
    cmd = [sys.executable, os.path.join(HERE, "serve_main.py")]
    if dump_path:
        cmd += ["--dump", dump_path]
    cmd += ["--", "serve", "--host", "127.0.0.1", "--port", "0",
            "--store", store_path, "--workers", str(THREADS)]
    proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                            env=common.child_env())
    server = Server(proc, "", store_path, dump_path, log)
    deadline = time.monotonic() + 120
    while not server.url:
        if proc.poll() is not None or time.monotonic() > deadline:
            stop_server(server)
            raise RuntimeError(f"server did not start; see {log_path}")
        time.sleep(0.005)
        with open(log_path) as fh:
            for line in fh:
                if "listening on " in line:
                    server.url = line.split("listening on ")[1].split()[0]
    while True:
        try:
            with urlopen(server.url + "/readyz", timeout=5) as response:
                if response.status == 200:
                    break
        except (URLError, ConnectionError):
            pass
        if time.monotonic() > deadline:
            stop_server(server)
            raise RuntimeError(f"server never became ready; see {log_path}")
        time.sleep(0.005)
    from repro.serve.client import ServiceClient

    client = ServiceClient(server.url)
    record = client.submit_sweep(warmup_request(seed, THREADS))
    _follow(client, record)
    return server


def stop_server(server: Server) -> int:
    """SIGTERM the server and wait for a clean exit (workers reaped)."""
    if server.proc.poll() is None:
        server.proc.send_signal(signal.SIGTERM)
        try:
            server.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.proc.kill()
            server.proc.wait()
    server.log.close()
    return server.proc.returncode


def _follow(client: Any, record: Dict[str, Any]) -> None:
    """Block until the job is terminal (its event stream closes)."""
    if record["status"] not in TERMINAL:
        for _line in client.events(record["job_id"], timeout=120):
            pass


@dataclass
class Phase:
    """What one timed serve phase produced."""

    speed: common.HostSpeed = field(default_factory=common.HostSpeed)
    points: int = 0
    #: Per sample: seconds (milliseconds for queries), and the slice of
    #: the phase it fell in; slice ``s`` runs between probes ``s`` and
    #: ``s + 1``.
    job_s: List[float] = field(default_factory=list)
    job_slice: List[int] = field(default_factory=list)
    query_ms: List[float] = field(default_factory=list)
    query_slice: List[int] = field(default_factory=list)
    #: Failed or interrupted jobs plus error rows; and operations that
    #: raised (HTTP errors, broken responses).
    failed: int = 0
    op_errors: int = 0
    #: Operations finished, failed ones included; a client thread that
    #: died leaves this short of the run's fixed count.
    ops_done: int = 0
    queue_wait_s: float = 0.0
    run_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    #: (request, final job record) of every new run/sweep job.
    done: List[Any] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    def at_reference(self, values: List[float],
                     slices: List[int]) -> List[float]:
        """``values`` at reference host speed, each by its slice."""
        return [v * self.speed.scale(s + 1) for v, s in zip(values, slices)]

    def slice_s(self) -> List[float]:
        """Wall seconds of each slice of client load, as measured."""
        spans = self.speed.spans
        return [spans[s + 1][0] - spans[s][1] for s in range(len(spans) - 1)]

    @property
    def wall_s(self) -> float:
        """Seconds of client load, at reference host speed."""
        slice_s = self.slice_s()
        return sum(self.at_reference(slice_s, list(range(len(slice_s)))))

    @property
    def points_per_s(self) -> float:
        return self.points / self.wall_s


def _client_loop(url: str, seed: int, thread: int, ops: int,
                 phase: Phase, lock: threading.Lock,
                 barrier: threading.Barrier,
                 tracer: Optional[Tracer]) -> None:
    from repro.serve.client import ServiceClient

    client = ServiceClient(url, timeout=120)
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    submit = {"run": client.submit_run, "sweep": client.submit_sweep,
              "exploration": client.submit_exploration}
    ops_iter = itertools.islice(serve_ops(seed, thread), ops)
    for index, op in enumerate(ops_iter):
        if index and index % SLICE_OPS == 0:
            try:
                barrier.wait(BARRIER_TIMEOUT_S)
            except threading.BrokenBarrierError:
                with lock:
                    phase.problems.append(
                        f"client thread {thread}: probe barrier broken"
                    )
                return
        part = index // SLICE_OPS
        t0 = time.perf_counter()
        try:
            if op["op"] == "query":
                client.results(**op["params"])
                with lock:
                    phase.query_ms.append((time.perf_counter() - t0) * 1e3)
                    phase.query_slice.append(part)
                    phase.ops_done += 1
                continue
            record = submit[op["kind"]](op["request"])
            if tracer is not None:
                tracer.sample("serve.submit_ms",
                              (time.perf_counter() - t0) * 1e3)
            with span("serve.http"):
                _follow(client, record)
            elapsed = time.perf_counter() - t0
            final = client.job(record["job_id"])
        except Exception as error:
            # Anything one operation raises (an HTTP status, a reset or
            # truncated response, bad JSON) is a counted failure; it
            # must not end the thread and shorten the run.
            with lock:
                phase.op_errors += 1
                phase.ops_done += 1
                phase.problems.append(f"{op['op']}: {error!r}")
            continue
        with lock:
            phase.ops_done += 1
            phase.job_s.append(elapsed)
            phase.job_slice.append(part)
            failed = (final["status"] != "done") + final["points_errors"]
            if failed:
                phase.failed += failed
                phase.problems.append(
                    f"job {final['job_id']} {final['status']} "
                    f"({final['points_errors']} error rows): {final['error']}"
                )
            if op.get("resubmit"):
                continue
            phase.points += final["points_computed"] + final["points_cached"]
            phase.queue_wait_s += final["started_s"] - final["created_s"]
            phase.run_s += final["finished_s"] - final["started_s"]
            if op["kind"] != "exploration":
                phase.done.append((op["request"], final))


def run_phase(server: Server, seed: int, seconds: float,
              tracer: Optional[Tracer] = None) -> Phase:
    """Drive ``server`` with ``THREADS`` closed-loop clients.

    Each thread sends ``seconds * OPS_PER_S`` operations; CPU counts this
    process and the server's whole process tree, less the probes.
    """
    phase = Phase()
    lock = threading.Lock()
    ops = max(1, round(seconds * OPS_PER_S))
    barrier = threading.Barrier(THREADS, action=phase.speed.probe)
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(server.url, seed, k, ops, phase, lock, barrier, tracer),
        )
        for k in range(THREADS)
    ]
    cpu0 = common.self_cpu_s() + common.tree_cpu_s(server.proc.pid)
    phase.speed.probe()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.speed.probe()
    phase.cpu_s = (common.self_cpu_s() + common.tree_cpu_s(server.proc.pid)
                   - cpu0 - phase.speed.spent_s)
    phase.peak_rss_mb = (common.self_peak_rss_mb()
                         + common.tree_peak_rss_mb(server.proc.pid))
    if phase.ops_done != ops * THREADS:
        phase.op_errors += ops * THREADS - phase.ops_done
        phase.problems.append(
            f"client threads finished {phase.ops_done} of "
            f"{ops * THREADS} operations"
        )
    return phase


def check(server: Server, phase: Phase, seed: int) -> List[str]:
    """The serve correctness gate; stops ``server``.

    * rows served by ``GET /v1/results`` for a seeded sample of jobs
      equal an in-process serial computation of the same points;
    * after shutdown, the store file reopens to exactly the served rows.
    """
    from repro.results.store import ResultStore
    from repro.serve.client import ServiceClient
    from repro.spec import SweepRunner, preset

    errors = list(phase.problems[:5])
    served = {
        row["spec_hash"]: row
        for row in ServiceClient(server.url).results(limit=10**9)["results"]
    }
    rng = random.Random(f"serve-check/{seed}")
    sample = rng.sample(phase.done, min(CHECK_JOBS, len(phase.done)))
    if not sample:
        errors.append("serve-mix completed no run or sweep job to check")
    for request, _final in sample:
        base = preset(request["preset"]).with_overrides(request["overrides"])
        expected = {
            point.spec_hash: point.metrics
            for point in SweepRunner(base, request.get("grid", {})).run(
                parallel=False
            )
        }
        errors += common.compare_rows(
            "served vs in-process serial",
            {k: row["metrics"] for k, row in served.items()}, expected,
        )
    if stop_server(server) != 0:
        errors.append(f"server exited with status {server.proc.returncode}")
    reopened = ResultStore(server.store_path)
    errors += common.compare_rows(
        "served vs reopened store",
        {r.spec_hash: r.metrics for r in reopened},
        {k: row["metrics"] for k, row in served.items()}, rtol=0.0,
    )
    if len(reopened) != len(served):
        errors.append(f"store round-trip: {len(reopened)} rows on disk, "
                      f"{len(served)} served")
    return errors


def _instruments(server: Server) -> Dict[str, float]:
    with urlopen(server.url + "/metrics", timeout=30) as response:
        body = json.loads(response.read())
    return layers.instrument_totals(body["instruments"])


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One benchmark invocation of ``serve-mix``."""
    from repro.sim import _ckernel

    workdir = common.fresh_dir("serve-mix")
    setup_speed = common.HostSpeed()
    setup_samples = []
    server = None
    for k in range(common.SETUP_REPEATS):
        if server is not None:
            stop_server(server)
        setup_speed.probe()
        t0 = time.monotonic()
        server = start_server(workdir, f"setup{k}", seed)
        setup_samples.append(time.monotonic() - t0)
    setup_speed.probe()
    out: Dict[str, Any] = {"ckernel": _ckernel.load() is not None,
                           "workdir": workdir}
    try:
        if not trace:
            phase = run_phase(server, seed, seconds)
            checked = phase
            job_s = phase.at_reference(phase.job_s, phase.job_slice)
            query_ms = phase.at_reference(phase.query_ms, phase.query_slice)
            out["metrics"] = {
                "setup_s": common.reference_median(setup_samples,
                                                   setup_speed),
                "points_per_s": phase.points_per_s,
                "cpu_ms_per_point": (phase.cpu_s * phase.speed.run_scale()
                                     * 1e3 / phase.points),
                "peak_rss_mb": phase.peak_rss_mb,
                "job_s_p50": common.percentile(job_s, 50),
                "job_s_p90": common.percentile(job_s, 90),
                "query_ms_p50": common.percentile(query_ms, 50),
                "query_ms_p90": common.percentile(query_ms, 90),
            }
            out["diagnostics"] = {"as_measured": {
                "points_per_s": phase.points / sum(phase.slice_s()),
                "cpu_ms_per_point": phase.cpu_s * 1e3 / phase.points,
                "host_scale": phase.speed.run_scale(),
            }}
            errors = check(server, phase, seed)
        else:
            plain = run_phase(server, seed, seconds / 2)
            errors = check(server, plain, seed)
            checked = plain
            server = start_server(workdir, "traced", seed, traced=True)
            tracer = Tracer()
            layers.install(tracer)
            before = _instruments(server)
            phase = run_phase(server, seed, seconds / 2, tracer)
            inst = layers.delta(_instruments(server), before)
            tracer.unwrap_all()
            stop_server(server)
            with open(server.dump_path) as fh:
                served = json.load(fh)
            overhead = plain.points_per_s / phase.points_per_s - 1.0
            out["metrics"] = layers.per_layer(
                [tracer.snapshot(), served], inst,
                {"queue_wait_s": phase.queue_wait_s, "run_s": phase.run_s},
                out["ckernel"], overhead,
            )
            out["trace_path"] = os.path.join(
                common.TRACES, f"serve-mix-seed{seed}.json"
            )
            trace_json = tracer.chrome_trace()
            trace_json["traceEvents"] += served["trace"]["traceEvents"]
            write_json(out["trace_path"], trace_json)
    finally:
        stop_server(server)
    out.update(
        errors=errors,
        attempted=len(checked.job_s) + checked.points
        + len(checked.query_ms) + checked.op_errors,
        failed=checked.failed + checked.op_errors,
        samples={"jobs": len(phase.job_s), "queries": len(phase.query_ms),
                 "points": phase.points, "threads": THREADS,
                 "beyond_job_p90": common.beyond(phase.job_s, 90),
                 "beyond_query_p90": common.beyond(phase.query_ms, 90)},
    )
    return out
