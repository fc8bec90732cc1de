"""Request bodies decode with orjson: stdlib-json float bits, stricter wire rules.

The transport parses every body with ``orjson.loads``.  For any finite
float64 it yields the same bits as ``json.loads`` — checked here for the
numbers a client's ``json.dumps`` writes and for hand-written decimal
tokens — so rows ingested over HTTP leave exactly the moments a direct
``MomentAccumulator.update`` would.  The rules that do differ (non-finite
numbers, lone surrogates, a BOM, invalid UTF-8, integers of 2**64 and up)
are rejections with a 400 that change no state.
"""

import http.client
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.accumulator import MomentAccumulator
from repro.obs import load_trace, summarize_trace
from repro.runtime.blas import blas_core
from repro.serve.app import ServeApp
from repro.serve.check import offline_fit_digest
from repro.serve.client import ServeClient
from repro.serve.http import ServeHTTP
from repro.serve.loadgen import synthetic_batch
from repro.session import ExecutionPolicy, Session

#: float64 values whose text or bits are easy to get wrong.
EDGE_FLOATS = (
    0.0,
    -0.0,
    5e-324,  # smallest subnormal
    -5e-324,
    2.225073858507201e-308,  # largest subnormal
    2.2250738585072014e-308,  # smallest normal
    1.7976931348623157e308,  # largest finite
    -1.7976931348623157e308,
    0.30000000000000004,  # needs all 17 significant digits
    1e-05,  # json.dumps writes the exponent form
    1e16,
    1.0,
)

_doubles = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.integers(min_value=-(2**63), max_value=2**64 - 1),  # ints used as floats
)


def _same_bits(raw: bytes) -> None:
    ours = np.asarray(orjson.loads(raw), dtype=float)
    stdlib = np.asarray(json.loads(raw), dtype=float)
    assert ours.shape == stdlib.shape
    assert ours.tobytes() == stdlib.tobytes()


class TestFloatBitsMatchStdlib:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_doubles, max_size=64))
    def test_json_dumps_of_float64_lists(self, values):
        _same_bits(json.dumps(values).encode())

    @settings(max_examples=300, deadline=None)
    @given(
        sign=st.sampled_from(["", "-"]),
        digits=st.text("0123456789", min_size=1, max_size=20),
        fraction=st.one_of(st.none(), st.text("0123456789", min_size=1, max_size=20)),
        marker=st.sampled_from(["e", "E"]),
        exp_sign=st.sampled_from(["", "+", "-"]),
        exponent=st.one_of(st.none(), st.integers(0, 330)),
    )
    def test_hand_written_decimal_tokens(
        self, sign, digits, fraction, marker, exp_sign, exponent
    ):
        token = sign + (digits.lstrip("0") or "0")
        if fraction is not None:
            token += "." + fraction
        if exponent is not None:
            token += f"{marker}{exp_sign}{exponent:02d}"
        if not math.isfinite(float(token)):
            return  # overflow is a wire-rule rejection, pinned below
        _same_bits(f"[{token}]".encode())

    def test_exponent_and_integer_forms(self):
        _same_bits(b"[1E2, 1e-05, 1e+100, 2.5E-3, 0E0, 3, -0, 9007199254740993]")


def _policy():
    return ExecutionPolicy(
        scale="smoke", telemetry="summary", executor="serial",
        failure_mode="fallback",
    )


@pytest.fixture
def server(tmp_path):
    """A live background server on an ephemeral port, torn down cleanly."""
    app = ServeApp(tmp_path / "data", Session(_policy()))
    http_server = ServeHTTP(app, port=0, snapshot_interval=0.0)
    thread = http_server.start_background()
    yield http_server
    http_server.request_stop()
    thread.join(15.0)
    assert not thread.is_alive()


def _client(server):
    return ServeClient("127.0.0.1", server.bound_port, timeout=30)


def _rows():
    """Random rows plus edge rows, as the plain lists a client would send."""
    X, y = synthetic_batch(11, 0, 0, 200, 3)
    x = X.tolist() + [
        [5e-324, -0.0, 0.0],
        [2.2250738585072014e-308, -5e-324, 1e-05],
        [0.1, 0.2, 0.30000000000000004],
        [1, 0, 0],  # integer tokens
    ]
    return x, y.tolist() + [-0.0, 5e-324, 1.0, -1]


def _moments(acc: MomentAccumulator) -> tuple:
    snap = acc.snapshot()
    return (
        snap.n,
        snap.S2.tobytes(),
        snap.S1.tobytes(),
        snap.Sxy.tobytes(),
        float(snap.Sy).hex(),
        float(snap.Syy).hex(),
    )


def _served_moments(server, name="acme", dims=3) -> tuple:
    tenant = server.app.registry.get(name)
    with tenant.locked():
        return _moments(tenant.accumulator("linear", dims))


#: ``fit_digest`` of the fit below before request bodies moved to orjson
#: (stdlib ``json.loads``), per OpenBLAS kernel (``blas_core()``; GEMM
#: rounding differs between kernels): the decoder change must not move a
#: released bit.
STDLIB_DECODE_DIGEST = dict.fromkeys(
    ("SkylakeX", "Haswell"),
    "dfd3a4ba01ca009fd93df26c41aaefcb6907218a59565066e875a9941e9adb80",
)


class TestIngestOverHttpIsBitExact:
    def test_moments_and_fit_digest(self, server):
        x, y = _rows()
        with _client(server) as client:
            client.create_tenant("acme", 10.0)
            client.ingest("acme", "linear", 3, x[:100], y[:100])
            client.ingest("acme", "linear", 3, x[100:], y[100:])
            direct = MomentAccumulator(dim=3)
            direct.update(np.asarray(x[:100], dtype=float), np.asarray(y[:100], dtype=float))
            direct.update(np.asarray(x[100:], dtype=float), np.asarray(y[100:], dtype=float))
            assert _served_moments(server) == _moments(direct)
            result = client.fit("acme", "linear", 3, [0.5, 1.0], seed=42)
        assert result["n_rows"] == len(x)
        assert result["digest"] == offline_fit_digest("linear", direct, [0.5, 1.0], 42)
        pin = STDLIB_DECODE_DIGEST.get(blas_core())
        if pin is not None:  # a kernel with no pin has the offline recomputation
            assert result["digest"] == pin


_VALID_INGEST = (
    b'{"tenant": "acme", "task": "linear", "dims": 3, '
    b'"x": [[0.1, 0.2, 0.3]], "y": [0.5]%s}'
)


def _ingest_with_x(value: bytes) -> bytes:
    return _VALID_INGEST.replace(b"[[0.1,", b"[[" + value + b",") % b""


#: Bodies the decoder rejects.  Each would otherwise be accepted or reach
#: the app: a lone surrogate or a BOM around a valid ingest, a NaN row.
REJECTED = {
    "nan": ("/v1/ingest", _ingest_with_x(b"NaN")),
    "infinity": ("/v1/ingest", _ingest_with_x(b"Infinity")),
    "minus-infinity": ("/v1/ingest", _ingest_with_x(b"-Infinity")),
    "overflow": ("/v1/ingest", _ingest_with_x(b"1e400")),
    "lone-surrogate": ("/v1/ingest", _VALID_INGEST % b', "note": "\\ud800"'),
    "bom": ("/v1/ingest", b"\xef\xbb\xbf" + _VALID_INGEST % b""),
    "invalid-utf8": ("/v1/ingest", _VALID_INGEST % b', "note": "\xff"'),
    "seed-2**64": (
        "/v1/fit",
        b'{"tenant": "acme", "task": "linear", "dims": 3, '
        b'"epsilons": [0.5], "seed": 18446744073709551616}',
    ),
}


def _post_raw(port: int, path: str, body: bytes) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestWireRules:
    @pytest.fixture
    def seeded(self, server):
        with _client(server) as client:
            client.create_tenant("acme", 10.0)
            X, y = synthetic_batch(11, 0, 0, 60, 3)
            client.ingest("acme", "linear", 3, X.tolist(), y.tolist())
            client.fit("acme", "linear", 3, [0.5], seed=1)
        return server

    def _state(self, server) -> tuple:
        journal = server.app.registry._journal_path("acme").read_bytes()
        with _client(server) as client:
            status = client.status("acme")
        return status, journal, _served_moments(server)

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejected_with_400_and_no_state_change(self, seeded, case):
        path, body = REJECTED[case]
        before = self._state(seeded)
        status, payload = _post_raw(seeded.bound_port, path, body)
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert not payload["error"]["retryable"]
        assert self._state(seeded) == before

    def test_the_valid_template_is_accepted(self, seeded):
        status, payload = _post_raw(seeded.bound_port, "/v1/ingest", _VALID_INGEST % b"")
        assert status == 200 and payload["rows_accepted"] == 1

    def test_largest_64_bit_seed_is_accepted(self, seeded):
        with _client(seeded) as client:
            result = client.fit("acme", "linear", 3, [0.5], seed=2**64 - 1)
        assert len(result["digest"]) == 64


class TestDecodeTelemetry:
    def test_every_handled_request_opens_a_decode_span(self, server):
        with _client(server) as client:
            client.create_tenant("acme", 10.0)
            X, y = synthetic_batch(11, 0, 0, 20, 3)
            client.ingest("acme", "linear", 3, X.tolist(), y.tolist())
            client.status("acme")
        spans = server.app.session.recorder.summary()["spans"]
        assert spans["serve.decode"]["count"] == 3

    def test_serve_cli_writes_a_trace_that_reports_decode(self, tmp_path):
        port_file = tmp_path / "port.txt"
        trace = tmp_path / "serve.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--data-dir", str(tmp_path / "data"), "--port", "0",
                "--port-file", str(port_file), "--snapshot-interval", "0",
                "--trace", str(trace),
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 30.0
            while not port_file.exists() and proc.poll() is None:
                assert time.monotonic() < deadline, "service never published its port"
                time.sleep(0.05)
            with ServeClient("127.0.0.1", int(port_file.read_text()), timeout=30) as client:
                client.create_tenant("acme", 10.0)
                client.shutdown()
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
        assert proc.returncode == 0, out.decode(errors="replace")
        report = summarize_trace(load_trace(trace))
        assert any(line.startswith("serve.decode ") for line in report.splitlines())
