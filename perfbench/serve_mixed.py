"""The ``serve-mixed`` workload: ingest beside fits on one live server.

``python -m repro serve`` runs in its own process (serial executor, WAL
on, snapshots every 5 s, data dir inside the checkout).  This process is
the whole load generator: one thread per connection, two connections,
closed loop.

* Connection 1 streams JSON ingest batches (500 rows x 13 dims) into
  tenant ``bench-0``.
* Connection 2 requests 6-budget linear fits on tenant ``bench-1``, which
  setup loaded with :data:`B_BATCHES` batches.

Every request body is generated and JSON-encoded before any clock starts;
a request's latency runs from send to the last response byte, and what
the generator does between requests (decoding responses, bookkeeping) is
timed separately.  After the job the server drains, and every served fit
is recomputed offline by ``repro.serve.check`` in strict mode: fits with
the same seed on the static tenant must carry one digest, and that digest
must recompute.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.experiments.config import PRIVACY_BUDGETS
from repro.serve.check import verify_report
from repro.serve.loadgen import fit_seed, synthetic_batch
from repro.session import ExecutionPolicy

ROWS = 500
DIMS = 13
B_BATCHES = 20
INGEST_BODIES = 64
FIT_SEEDS = 32
SNAPSHOT_INTERVAL = 5.0
#: Requests per second of ``--seconds`` in the fixed job, per connection:
#: each connection stays busy for about half the run on an idle 2-core
#: box, which leaves room for a box twice as slow within the run budget.
INGESTS_PER_SECOND = 100
FITS_PER_SECOND = 60
TENANT_A, TENANT_B = "bench-0", "bench-1"
TOTAL_EPSILON = 1e9


def server_args(data_dir: Path, port_file: Path, telemetry: str) -> list[str]:
    return [
        "serve", "--data-dir", str(data_dir), "--port", "0",
        "--port-file", str(port_file), "--executor", "serial",
        "--telemetry", telemetry, "--snapshot-interval", str(SNAPSHOT_INTERVAL),
    ]


def server_policy(telemetry: str) -> dict:
    """The policy the CLI resolves for :func:`server_args` (for the record)."""
    return ExecutionPolicy.resolve(
        explicit={"executor": "serial", "telemetry": telemetry},
        base=ExecutionPolicy(scale="smoke", telemetry="summary", failure_mode="fallback"),
    ).to_dict()


class Bodies:
    """Every request body of one run, encoded up front."""

    def __init__(self, seed: int, job_seconds: int) -> None:
        self.seed = seed
        encode = lambda body: json.dumps(body).encode()  # noqa: E731
        self.tenants = [
            encode({"tenant": name, "total_epsilon": TOTAL_EPSILON})
            for name in (TENANT_A, TENANT_B)
        ]
        self.load_b = [self._ingest(TENANT_B, 1, b) for b in range(B_BATCHES)]
        self.ingests = [self._ingest(TENANT_A, 0, b) for b in range(INGEST_BODIES)]
        self.fit_seeds = [fit_seed(seed, 1, i % FIT_SEEDS) for i in range(FITS_PER_SECOND * job_seconds)]
        self.fits = [
            encode({"tenant": TENANT_B, "task": "linear", "dims": DIMS,
                    "epsilons": list(PRIVACY_BUDGETS), "seed": s})
            for s in self.fit_seeds
        ]
        self.n_ingests = INGESTS_PER_SECOND * job_seconds

    def _ingest(self, tenant: str, index: int, batch: int) -> bytes:
        X, y = synthetic_batch(self.seed, index, batch, ROWS, DIMS)
        return json.dumps(
            {"tenant": tenant, "task": "linear", "dims": DIMS, "x": X.tolist(), "y": y.tolist()}
        ).encode()


def _post(conn: http.client.HTTPConnection, path: str, body: bytes) -> tuple[int, bytes]:
    conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


class Server:
    """One ``repro serve`` process with its own data dir."""

    def __init__(self, root: Path, work: Path, name: str, telemetry: str, events_out=None) -> None:
        self.dir = work / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.data_dir = self.dir / "data"
        port_file = self.dir / "port"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        if events_out is None:
            command = [sys.executable, "-m", "repro"]
        else:
            command = [sys.executable, str(root / "perfbench" / "serve_launch.py"),
                       "--events-out", str(events_out)]
        self.log = open(self.dir / "server.log", "wb")
        self.process = subprocess.Popen(
            command + server_args(self.data_dir, port_file, telemetry),
            cwd=root, env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + 60.0
        while not port_file.exists() or not port_file.read_text().strip():
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.kill()
                raise RuntimeError(f"server failed to start; see {self.dir / 'server.log'}")
            time.sleep(0.005)
        self.port = int(port_file.read_text())

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60.0)

    def load(self, bodies: Bodies) -> None:
        """Create both tenants, load tenant B, wait for ``/readyz``."""
        conn = self.connect()
        try:
            for body in bodies.tenants:
                _expect(_post(conn, "/v1/tenants", body))
            for body in bodies.load_b:
                _expect(_post(conn, "/v1/ingest", body))
            conn.request("GET", "/readyz")
            response = conn.getresponse()
            ready = json.loads(response.read())
            if response.status != 200 or ready.get("tenants") != 2:
                raise RuntimeError(f"server not ready: {ready}")
        finally:
            conn.close()

    def stop(self) -> int:
        """Graceful drain via ``/v1/shutdown``; waits for the process."""
        try:
            conn = self.connect()
            _post(conn, "/v1/shutdown", b"")
            conn.close()
        except OSError:
            pass
        try:
            code = self.process.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self.log.close()
        return code

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self.log.close()


def _expect(reply: tuple[int, bytes]) -> dict:
    status, raw = reply
    if status != 200:
        raise RuntimeError(f"setup request failed with {status}: {raw[:200]!r}")
    return json.loads(raw)


def setup(root: Path, work: Path, name: str, bodies: Bodies, telemetry: str, events_out=None):
    """Boot a server and load it; returns ``(server, setup seconds)``."""
    t0 = time.perf_counter()
    server = Server(root, work, name, telemetry, events_out)
    try:
        server.load(bodies)
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - t0


def _stream(server: Server, kind: str, bodies: list[bytes], count: int, start: threading.Barrier, out: dict) -> None:
    path = "/v1/ingest" if kind == "ingest" else "/v1/fit"
    conn = server.connect()
    latencies, replies = [], []
    generator = 0.0
    try:
        start.wait()
        for i in range(count):
            body = bodies[i % len(bodies)]
            t0 = time.perf_counter()
            conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = response.read()
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            replies.append((response.status, json.loads(raw) if raw else {}))
            generator += time.perf_counter() - t1
    finally:
        conn.close()
    out[kind] = {"latencies": latencies, "replies": replies, "generator_s": generator}


def run_job(server: Server, bodies: Bodies) -> dict:
    """The fixed job: both connections closed-loop, started together."""
    start = threading.Barrier(3, timeout=60.0)
    out: dict = {}
    threads = [
        threading.Thread(target=_stream, args=(server, "ingest", bodies.ingests, bodies.n_ingests, start, out)),
        threading.Thread(target=_stream, args=(server, "fit", bodies.fits, len(bodies.fits), start, out)),
    ]
    for thread in threads:
        thread.start()
    start.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    out["window"] = (started, time.perf_counter())
    if set(out) != {"ingest", "fit", "window"}:
        raise RuntimeError("a load-generator connection died")
    return out


def check(job: dict, bodies: Bodies, data_dir: Path) -> tuple[int, int, dict]:
    """Count failures; recompute every served fit offline (strict)."""
    failed = 0
    for status, reply in job["ingest"]["replies"]:
        if status != 200 or reply.get("rows_accepted") != ROWS:
            failed += 1
    by_seed: dict[int, dict] = {}
    seen: dict[int, list[str]] = {}
    spends = []
    for seed, (status, reply) in zip(bodies.fit_seeds, job["fit"]["replies"]):
        if status != 200:
            failed += 1
            continue
        spends.append(float(reply["spent_epsilon"]))
        by_seed.setdefault(seed, {"seed": seed, "epsilons": reply["epsilons"],
                                  "n_rows": reply["n_rows"], "digest": reply["digest"]})
        seen.setdefault(seed, []).append(reply["digest"])
    report = {
        "config": {"task": "linear", "dims": DIMS, "seed": bodies.seed,
                   "batches": B_BATCHES, "rows_per_batch": ROWS},
        "tenants": [
            {"tenant": TENANT_A, "accepted_epsilon": 0.0, "fits": []},
            {"tenant": TENANT_B, "accepted_epsilon": math.fsum(spends),
             "fits": list(by_seed.values())},
        ],
    }
    verdict = verify_report(report, data_dir, strict=True)
    bad_seeds = {
        int(v["detail"].split()[1].rstrip(":")) for v in verdict["violations"]
        if v["kind"] == "digest_mismatch"
    }
    for seed, digests in seen.items():
        if seed in bad_seeds:
            failed += len(digests)
        else:
            failed += sum(d != by_seed[seed]["digest"] for d in digests)
    if any(v["kind"] != "digest_mismatch" for v in verdict["violations"]):
        failed += 1  # the ledger disagrees with the accepted spends
    attempted = len(job["ingest"]["replies"]) + len(job["fit"]["replies"])
    return attempted, failed, verdict


def tail(samples: list[float]) -> dict:
    """Median and the highest percentile with >= 10 samples beyond it (ms)."""
    ordered = sorted(samples)
    n = len(ordered)
    result = {"n": n, "p50_ms": 1e3 * ordered[n // 2] if n else None}
    for p in (99.9, 99.0, 95.0, 90.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            index = min(n - 1, math.ceil(n * p / 100.0) - 1)
            result.update(tail_pct=p, tail_ms=1e3 * ordered[index])
            break
    return result


def summarize(job: dict) -> dict:
    """Client-side figures of one job (the record's serve section)."""
    ingest, fit = job["ingest"], job["fit"]
    window = job["window"][1] - job["window"][0]
    ingest_wall = sum(ingest["latencies"]) + ingest["generator_s"]
    fit_wall = sum(fit["latencies"]) + fit["generator_s"]
    return {
        "window_s": window,
        "ingest_stream_s": ingest_wall,
        "fit_stream_s": fit_wall,
        "ingest": tail(ingest["latencies"]),
        "fit": tail(fit["latencies"]),
        "ingest_rows_per_s": ROWS * len(ingest["latencies"]) / ingest_wall,
        "fits_per_s": len(fit["latencies"]) / fit_wall,
        "client_wait_s": sum(ingest["latencies"]) + sum(fit["latencies"]),
        "generator_s": ingest["generator_s"] + fit["generator_s"],
    }
