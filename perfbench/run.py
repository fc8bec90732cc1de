"""The repository's benchmark: three workloads, end-to-end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figure6 --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists and which layers it
loads): ``figure6`` and ``fm-full-sweep`` (:mod:`protocol`) and
``serve-mixed`` (:mod:`serve_mixed`).  Inputs derive from ``--seed``.

``--trace 0`` runs the workload in this process with program telemetry
off and prints the end-to-end metrics:

``setup_s``
    Median over several fresh set-ups: process start until the table is
    loaded, or until the server answers ``/readyz`` with tenant B loaded.
``wall_s``
    Median seconds of the timed protocol call (a fresh session each time,
    repeated while ``--seconds`` allows); for ``serve-mixed``, seconds the
    two connections spend waiting on their fixed job of requests.
``peak_rss_mb``
    The larger of this process's and its largest child's peak RSS.

``--trace 1`` runs the same job once untraced and once with telemetry
``trace`` and the :mod:`layers` wrappers (``serve-mixed``: two jobs of
half the size), and prints the per-layer metrics (``layers.PER_LAYER``).  The line before the result holds the
full record: machine and policy fingerprint, seeds, score digest,
correctness verdicts, CPU seconds of the timed work and, for
``serve-mixed``, latency percentiles and throughput per connection.

Outputs are checked: protocol scores against ``reference.json`` at a
relative tolerance of 1e-9, served fits by offline recomputation.  The
last line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("figure6", "fm-full-sweep", "serve-mixed")
PROTOCOL_SETUPS = 5
SERVE_SETUPS = 3


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Fingerprint
# ----------------------------------------------------------------------
def _blas_threads() -> int | None:
    """numpy's bundled OpenBLAS thread count, read through ctypes."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def fingerprint(policy: dict, seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(),
            "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        },
        "policy": policy,
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# Protocol workloads
# ----------------------------------------------------------------------
def _probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process until its table is loaded."""
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe",
         "--workload", workload, "--seed", str(seed), "--seconds", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=120,
    )
    return float(done.stdout.decode().split()[-1]) - t0


def run_protocol(args) -> tuple[dict, dict]:
    import layers
    import protocol
    import reference
    from repro.obs import TraceRecorder, use_recorder

    given = protocol.inputs(args.workload, args.seed)
    expected = reference.expected(args.workload, given["variant"])
    policy = protocol.policy(args.workload, given["protocol_seed"]).to_dict()
    record = {"fingerprint": fingerprint(policy, args.seed), "inputs": given}
    attempted = failed = 0
    digests, bad = set(), []

    def checked(unit):
        nonlocal attempted, failed
        n, f, keys = protocol.gate(unit["scores"], unit["cells"], expected["scores"])
        attempted += n
        failed += f
        bad.extend(keys)
        digests.add(protocol.digest(unit["scores"]))
        return unit

    if args.trace:
        dataset = protocol.load(args.workload, given)
        untraced = checked(protocol.run_unit(args.workload, dataset, given))
        layers.install()
        loader = TraceRecorder("trace")
        with use_recorder(loader):
            dataset = protocol.load(args.workload, given)
        traced = checked(protocol.run_unit(args.workload, dataset, given, "trace"))
        recorder = traced["session"].recorder
        # The loader's span ids are its own; negate them to keep ids unique.
        loads = [dict(s, id=-s["id"], bparent=None) for s in layers.bench_events(loader.events())]
        spans = loads + layers.bench_events(recorder.events())
        rows = layers.layer_totals(spans, traced["root_id"])
        values = layers.per_layer(
            spans, recorder.summary()["counters"], rows,
            traced["wall_s"], untraced["wall_s"],
        )
        metrics = {name: _metric(values[name], unit) for name, unit, _ in layers.PER_LAYER}
        record["dropped_events"] = recorder.export().get("dropped", 0)
    else:
        setups = [_probe_setup(args.workload, args.seed) for _ in range(PROTOCOL_SETUPS)]
        dataset = protocol.load(args.workload, given)
        deadline = time.perf_counter() + args.seconds
        units = [checked(protocol.run_unit(args.workload, dataset, given))]
        while time.perf_counter() + units[-1]["wall_s"] <= deadline:
            units.append(checked(protocol.run_unit(args.workload, dataset, given)))
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "wall_s": _metric(statistics.median(u["wall_s"] for u in units), "s"),
            "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        }
        record["setup_samples_s"] = setups
        record["wall_samples_s"] = [u["wall_s"] for u in units]
        record["cpu_samples_s"] = [u["cpu_s"] for u in units]
    if len(digests) > 1:
        failed = attempted  # units of one run disagreed bit-for-bit
    record.update(
        digest=sorted(digests),
        reference_digest=expected["digest"],
        digest_matches_reference=digests == {expected["digest"]},
        gate_failures=sorted(set(bad)),
    )
    return record, {"attempted": attempted, "failed": failed, "metrics": metrics}


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def _proc_cpu_seconds(pid: int) -> float:
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def run_serve(args, work: Path) -> tuple[dict, dict]:
    import layers
    import serve_mixed as sm

    # A traced run serves two jobs (untraced, then traced): half size each.
    bodies = sm.Bodies(args.seed, max(1, args.seconds // 2) if args.trace else args.seconds)
    record = {"fingerprint": fingerprint(sm.server_policy("trace" if args.trace else "off"), args.seed)}
    attempted = failed = 0

    def job_on(server):
        try:
            cpu0 = _proc_cpu_seconds(server.process.pid)
            job = sm.run_job(server, bodies)
            job["cpu_s"] = _proc_cpu_seconds(server.process.pid) - cpu0
        finally:
            server.stop()
        n, f, verdict = sm.check(job, bodies, server.data_dir)
        nonlocal attempted, failed
        attempted += n
        failed += f
        job["summary"] = sm.summarize(job)
        job["summary"]["offline_check"] = {k: verdict[k] for k in ("ok", "digests_checked", "violations")}
        return job

    if args.trace:
        server, _ = sm.setup(ROOT, work, "untraced", bodies, "off")
        untraced = job_on(server)
        events = work / "events.json"
        server, _ = sm.setup(ROOT, work, "traced", bodies, "trace", events_out=events)
        traced = job_on(server)
        dump = json.loads(events.read_text())
        start, end = traced["window"]
        spans = [s for s in dump["spans"] if start <= s["t"] <= end]
        request_path = [s for s in spans if s["name"] != layers.PREFIX + "serve.snapshot"]
        rows = layers.self_times(request_path)
        wall = traced["summary"]["client_wait_s"]
        rows["unattributed"] = wall - sum(rows.values())
        totals = layers.function_totals(spans)
        outside = {
            kind: 1e3 * (sum(traced[kind]["latencies"]) - totals.get(f"serve.app_{kind}", {}).get("s", 0.0))
            / max(1, len(traced[kind]["latencies"]))
            for kind in ("ingest", "fit")
        }
        values = layers.per_layer(
            spans, dump["counters"], rows, wall,
            untraced["summary"]["client_wait_s"], outside,
        )
        metrics = {name: _metric(values[name], unit) for name, unit, _ in layers.PER_LAYER}
        record["serve"] = {"untraced": untraced["summary"], "traced": traced["summary"]}
        record["dropped_events"] = dump["dropped_events"]
    else:
        setups = []
        for i in range(SERVE_SETUPS):
            server, seconds = sm.setup(ROOT, work, f"setup-{i}", bodies, "off")
            setups.append(seconds)
            if i < SERVE_SETUPS - 1:
                server.stop()
        job = job_on(server)
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "wall_s": _metric(job["summary"]["client_wait_s"], "s"),
            "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        }
        record["setup_samples_s"] = setups
        record["server_cpu_s"] = job["cpu_s"]
        record["serve"] = job["summary"]
    return record, {"attempted": attempted, "failed": failed, "metrics": metrics}


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        import protocol

        protocol.load(args.workload, protocol.inputs(args.workload, args.seed))
        print(time.perf_counter())
        return 0
    # SIGTERM unwinds like an exception, so servers and pools are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    try:
        if args.workload == "serve-mixed":
            record, result = run_serve(args, work)
        else:
            record, result = run_protocol(args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it, or it never existed
            pass
    record.update(workload=args.workload, seconds=args.seconds, trace=args.trace)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
