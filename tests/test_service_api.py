"""End-to-end tests for the measurement-as-a-service control plane.

Everything here talks to a real listening socket (``ServerThread`` +
``ServiceClient``) except the fuzz section, which drives the HTTP parser
and the dispatch table directly — hostile inputs must map to typed 4xx
responses, never tracebacks, and a socket adds nothing to that property.
"""

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parallel import execute_study
from repro.service import (
    ClientError,
    ServerThread,
    ServiceClient,
)
from repro.service import configs
from repro.service.api import Api, Request, handle_request
from repro.service.queue import JobQueue
from repro.service.registry import RunRegistry
from repro.service.results import study_digest
from repro.service.server import read_request
from repro.service.errors import PayloadTooLargeError, ProtocolError

# One study task (fast path) and a nine-task span (cancel window).
WEEK = {"scale": "small", "seed": 3,
        "start": "2013-06-01", "end": "2013-06-07"}
SPAN = {"scale": "small", "seed": 3,
        "start": "2013-06-01", "end": "2013-07-15"}


def direct_digest(payload):
    """The digest `repro run` would produce for this submission."""
    config, _ = configs.build_config(payload)
    return study_digest(execute_study(config, workers=1).data)


def client_for(server):
    return ServiceClient("127.0.0.1", server.port, timeout=30.0)


class Gate:
    """execute_fn wrapper that parks each run after its first task."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()

    def execute(self, config, **kwargs):
        def hold(day):
            self.started.set()
            assert self.release.wait(timeout=60), "gate never released"

        return execute_study(config, progress=hold, **kwargs)


class TestLifecycle:
    def test_submit_poll_results_figures(self, tmp_path):
        with ServerThread(tmp_path / "state") as server:
            client = client_for(server)
            run = client.submit(WEEK)
            assert run["id"] == configs.run_id_for(
                configs.build_config(WEEK)[0]
            )
            assert run["state"] in ("queued", "running")
            final = client.wait(run["id"])
            assert final["state"] == "done"
            assert final["error"] == ""
            assert final["attempts"] == 1

            results = client.results(run["id"])
            assert results["digest"] == direct_digest(WEEK)
            assert results["summary"]["days"] == 1
            assert "fig02" in results["figures"]
            # date-narrowed studies cannot render the month-pinned figure
            assert "fig04" in results["unrendered"]

            lines = client.figure(run["id"], "fig02")
            assert lines[0].startswith("Figure 2")
            with pytest.raises(ClientError) as excinfo:
                client.figure(run["id"], "fig99")
            assert excinfo.value.status == 404

            detail = client.run(run["id"], days=True)
            progress = detail["progress"]
            assert progress["completed"] == progress["planned_tasks"] == 1
            assert len(progress["days"]) == 1

    def test_resubmission_is_idempotent(self, tmp_path):
        with ServerThread(tmp_path / "state") as server:
            client = client_for(server)
            first = client.submit(WEEK)
            client.wait(first["id"])
            again = client.submit(WEEK)
            assert again["id"] == first["id"]
            assert again["state"] == "done"  # untouched, not re-queued
            assert client.runs()["total"] == 1

    def test_results_conflict_while_not_done(self, tmp_path):
        gate = Gate()
        with ServerThread(tmp_path / "state",
                          execute_fn=gate.execute) as server:
            client = client_for(server)
            run = client.submit(SPAN)
            assert gate.started.wait(timeout=30)
            with pytest.raises(ClientError) as excinfo:
                client.results(run["id"])
            assert excinfo.value.status == 409
            gate.release.set()
            client.wait(run["id"])

    def test_typed_errors_on_bad_requests(self, tmp_path):
        with ServerThread(tmp_path / "state") as server:
            client = client_for(server)
            cases = [
                ({"scale": "galactic"}, "'scale' must be one of"),
                ({"sedd": 1}, "unknown config key"),
                ({"seed": "seven"}, "'seed' must be an integer"),
                ({"start": "June 1st"}, "not an ISO date"),
                ({"start": "2014-01-01", "end": "2013-01-01"},
                 "'start' (2014-01-01) must be before 'end' (2013-01-01)"),
                # the span the study would run is checked, not the request
                ({"start": "2018-01-01"},
                 "'start' (2018-01-01) must be before 'end' (2017-12-31)"),
                ({"end": "2013-01-01"},
                 "'start' (2013-07-01) must be before 'end' (2013-01-01)"),
                ({"start": "2014-01-01", "end": "2014-01-01"},
                 "'start' (2014-01-01) must be before 'end' (2014-01-01)"),
            ]
            for payload, fragment in cases:
                with pytest.raises(ClientError) as excinfo:
                    client.submit(payload)
                assert excinfo.value.status == 400
                assert excinfo.value.code == "bad_request"
                assert fragment in str(excinfo.value)

            with pytest.raises(ClientError) as excinfo:
                client.run("no-such-run")
            assert excinfo.value.status == 404
            with pytest.raises(ClientError) as excinfo:
                client._request("POST", "/v1/healthz")
            assert excinfo.value.status == 405
            with pytest.raises(ClientError) as excinfo:
                client._request("GET", "/v2/anything")
            assert excinfo.value.status == 404

    def test_healthz_and_metricsz(self, tmp_path):
        with ServerThread(tmp_path / "state") as server:
            client = client_for(server)
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["max_active"] == 2
            run = client.submit(WEEK)
            client.wait(run["id"])
            text = client.metricsz()
            assert "repro_service_runs_submitted" in text
            assert "repro_service_runs_completed" in text
            assert "repro_service_http_requests" in text
            # exposition format: every non-comment line is name{...} value
            for line in text.splitlines():
                if line and not line.startswith("#"):
                    assert line.startswith("repro_"), line


class TestPagination:
    def test_offset_limit_walk(self, tmp_path):
        with ServerThread(tmp_path / "state", max_active=4) as server:
            client = client_for(server)
            ids = []
            for seed in range(1, 6):
                payload = dict(WEEK, seed=seed)
                ids.append(client.submit(payload)["id"])
            for run_id in ids:
                client.wait(run_id)

            seen = []
            offset = 0
            while offset is not None:
                page = client.runs(offset=offset, limit=2)
                assert page["total"] == 5
                assert len(page["runs"]) <= 2
                seen.extend(run["id"] for run in page["runs"])
                offset = page["next_offset"]
            assert seen == ids  # submission order, no dupes, no gaps

            done = client.runs(state="done")
            assert done["total"] == 5
            assert client.runs(state="failed")["total"] == 0

    def test_bad_pagination_params(self, tmp_path):
        with ServerThread(tmp_path / "state") as server:
            client = client_for(server)
            for path in ("/v1/runs?offset=-1", "/v1/runs?limit=0",
                         "/v1/runs?limit=xyz", "/v1/runs?limit=9999",
                         "/v1/runs?state=bogus"):
                with pytest.raises(ClientError) as excinfo:
                    client._request("GET", path)
                assert excinfo.value.status == 400


class TestCancelResume:
    def test_cancel_running_then_resume_is_field_identical(self, tmp_path):
        gate = Gate()
        with ServerThread(tmp_path / "state",
                          execute_fn=gate.execute) as server:
            client = client_for(server)
            run = client.submit(SPAN)
            assert gate.started.wait(timeout=30)

            flagged = client.cancel(run["id"])
            assert flagged["state"] == "running"
            assert flagged["cancel_requested"] is True
            gate.release.set()

            cancelled = client.wait(run["id"])
            assert cancelled["state"] == "cancelled"

            resumed = client.resume(run["id"])
            assert resumed["state"] == "queued"
            final = client.wait(run["id"])
            assert final["state"] == "done"
            assert final["attempts"] == 2

            # resumed from checkpoints, not recomputed from scratch
            progress = client.run(run["id"])["progress"]
            assert progress["checkpoint_hits"] >= 1
            # the acceptance bar: field-identical to an uninterrupted run
            assert client.results(run["id"])["digest"] == \
                direct_digest(SPAN)

    def test_cancel_queued_run_never_executes(self, tmp_path):
        gate = Gate()
        with ServerThread(tmp_path / "state", max_active=1,
                          execute_fn=gate.execute) as server:
            client = client_for(server)
            running = client.submit(SPAN)
            assert gate.started.wait(timeout=30)
            queued = client.submit(dict(WEEK, seed=99))
            assert queued["state"] == "queued"

            cancelled = client.cancel(queued["id"])
            assert cancelled["state"] == "cancelled"
            assert cancelled["attempts"] == 0  # never reached a worker

            gate.release.set()
            client.wait(running["id"])
            # the cancelled run can still be resumed later
            client.resume(queued["id"])
            final = client.wait(queued["id"])
            assert final["state"] == "done"

    def test_cancel_done_run_conflicts(self, tmp_path):
        with ServerThread(tmp_path / "state") as server:
            client = client_for(server)
            run = client.submit(WEEK)
            client.wait(run["id"])
            with pytest.raises(ClientError) as excinfo:
                client.cancel(run["id"])
            assert excinfo.value.status == 409
            with pytest.raises(ClientError) as excinfo:
                client.resume(run["id"])
            assert excinfo.value.status == 409


class TestRestartAdoption:
    def test_interrupted_run_resumes_after_restart(self, tmp_path):
        """A server that died mid-run re-adopts and finishes the run."""
        state = tmp_path / "state"
        config, normalized = configs.build_config(SPAN)
        run_id = configs.run_id_for(config)

        # Offline: simulate a server that crashed mid-execution — the
        # registry says `running`, the checkpoint tier holds a prefix.
        registry = RunRegistry(state)
        registry.create(run_id, normalized)
        registry.transition(run_id, "queued")
        registry.transition(run_id, "running")

        from repro.core.parallel import CancelToken, RunCancelled, RetryPolicy

        token = CancelToken()
        seen = []

        def cancel_after_two(day):
            seen.append(day)
            if len(seen) >= 2:
                token.set()

        with pytest.raises(RunCancelled):
            execute_study(
                config,
                workers=1,
                checkpoint_root=registry.checkpoint_root(run_id),
                resume=True,
                retry=RetryPolicy(retries=2),
                cancel=token,
                progress=cancel_after_two,
            )

        with ServerThread(state) as server:
            client = client_for(server)
            final = client.wait(run_id)
            assert final["state"] == "done"
            progress = client.run(run_id)["progress"]
            assert progress["checkpoint_hits"] >= 2
            assert client.results(run_id)["digest"] == direct_digest(SPAN)
            assert "repro_service_runs_adopted" in client.metricsz()

    def test_queued_run_survives_restart(self, tmp_path):
        state = tmp_path / "state"
        config, normalized = configs.build_config(WEEK)
        run_id = configs.run_id_for(config)
        registry = RunRegistry(state)
        registry.create(run_id, normalized)
        registry.transition(run_id, "queued")

        with ServerThread(state) as server:
            client = client_for(server)
            final = client.wait(run_id)
            assert final["state"] == "done"

    def test_stranded_created_record_is_adopted(self, tmp_path):
        """A record wedged in ``created`` (older registries persisted
        create and queue separately) is promoted and executed."""
        state = tmp_path / "state"
        config, normalized = configs.build_config(WEEK)
        run_id = configs.run_id_for(config)
        registry = RunRegistry(state)
        registry.create(run_id, normalized)  # crash before queue: stuck

        with ServerThread(state) as server:
            client = client_for(server)
            final = client.wait(run_id)
            assert final["state"] == "done"

    def test_resubmitting_a_stranded_created_record_queues_it(
        self, tmp_path
    ):
        state = tmp_path / "state"
        config, normalized = configs.build_config(WEEK)
        run_id = configs.run_id_for(config)
        RunRegistry(state / "runs-seed").create(run_id, normalized)

        registry = RunRegistry(state / "runs-seed")
        queue = JobQueue(registry)  # never started: promotion only
        record = queue.submit(WEEK)
        assert record.run_id == run_id
        assert record.state == "queued"
        assert queue.queue_depth == 1


class TestRegistryInvariants:
    def test_terminal_entry_clears_cancel_flag(self, tmp_path):
        """A cancel that races a natural finish must not leave a
        terminal ``done`` record advertising cancel_requested."""
        registry = RunRegistry(tmp_path / "state")
        config, normalized = configs.build_config(WEEK)
        run_id = configs.run_id_for(config)
        registry.create(run_id, normalized, state="queued")
        registry.transition(run_id, "running")
        registry.request_cancel(run_id)
        record = registry.transition(run_id, "done")
        assert record.cancel_requested is False
        # and the persisted record agrees after a restart
        assert RunRegistry(tmp_path / "state").get(run_id) \
            .cancel_requested is False

    def test_submit_persists_straight_into_queued(self, tmp_path):
        """No crash window between create and queue: the first persisted
        record is already ``queued``."""
        registry = RunRegistry(tmp_path / "state")
        queue = JobQueue(registry)  # never started: persistence only
        record = queue.submit(WEEK)
        assert record.state == "queued"
        on_disk = json.loads(
            registry.record_path(record.run_id).read_text(encoding="utf-8")
        )
        assert on_disk["state"] == "queued"


class TestConcurrentSubmissions:
    def test_eight_runs_bounded_and_isolated(self, tmp_path):
        """Eight clients submit at once: the queue respects max_active
        and every run's digest matches its own direct execution."""
        probe = {"active": 0, "peak": 0}
        lock = threading.Lock()

        def counting_execute(config, **kwargs):
            with lock:
                probe["active"] += 1
                probe["peak"] = max(probe["peak"], probe["active"])
            try:
                time.sleep(0.05)  # hold the slot long enough to overlap
                return execute_study(config, **kwargs)
            finally:
                with lock:
                    probe["active"] -= 1

        payloads = [dict(WEEK, seed=seed) for seed in range(1, 9)]
        with ServerThread(tmp_path / "state", max_active=2,
                          execute_fn=counting_execute) as server:

            def submit(payload):
                return client_for(server).submit(payload)["id"]

            with ThreadPoolExecutor(max_workers=8) as pool:
                ids = list(pool.map(submit, payloads))
            assert len(set(ids)) == 8  # per-seed run identity

            client = client_for(server)
            digests = {}
            for run_id in ids:
                final = client.wait(run_id, timeout=120)
                assert final["state"] == "done", final["error"]
                digests[run_id] = client.results(run_id)["digest"]

        assert probe["peak"] <= 2  # the scheduler honoured max_active
        assert len(set(digests.values())) == 8  # no cross-run bleed
        for payload, run_id in zip(payloads, ids):
            assert digests[run_id] == direct_digest(payload)


# ----------------------------------------------------------------------
# Fuzz: hostile inputs produce typed 4xx, never a traceback or 500.


@pytest.fixture(scope="module")
def fuzz_api(tmp_path_factory):
    state = tmp_path_factory.mktemp("fuzz-state")
    registry = RunRegistry(state)
    queue = JobQueue(registry)  # never started: nothing executes
    return Api(registry, queue)


def parse_raw(raw: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


JSONISH = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(raw=st.binary(max_size=2048))
    def test_parser_never_leaks_a_traceback(self, raw):
        try:
            request = parse_raw(raw)
        except (ProtocolError, PayloadTooLargeError) as exc:
            assert exc.status in (400, 413)
        else:
            assert request is None or isinstance(request, Request)

    @settings(max_examples=150, deadline=None)
    @given(
        method=st.sampled_from(
            ["GET", "POST", "PUT", "DELETE", "PATCH", "OPTIONS", ""]
        ),
        path=st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=60,
        ),
        body=st.binary(max_size=200),
    )
    def test_dispatch_never_500s_on_junk(self, fuzz_api, method, path, body):
        response = handle_request(
            fuzz_api, Request(method, path, {}, body)
        )
        assert response.status != 500
        if response.status >= 400:
            error = json.loads(response.body)["error"]
            assert error["code"] in (
                "bad_request", "malformed_request", "not_found",
                "method_not_allowed", "conflict",
            )

    @settings(max_examples=100, deadline=None)
    @given(payload=JSONISH)
    def test_submissions_validate_or_run_never_crash(self, fuzz_api, payload):
        body = json.dumps(payload).encode("utf-8")
        response = handle_request(
            fuzz_api, Request("POST", "/v1/studies", {}, body)
        )
        assert response.status in (200, 201, 400)
        document = json.loads(response.body)
        if response.status == 400:
            assert document["error"]["code"] == "bad_request"
        else:
            assert document["run"]["state"] == "queued"

    @settings(max_examples=60, deadline=None)
    @given(
        params=st.dictionaries(
            st.sampled_from(["offset", "limit", "state", "days", "x"]),
            st.text(max_size=8),
            max_size=3,
        )
    )
    def test_list_params_validate(self, fuzz_api, params):
        response = handle_request(
            fuzz_api, Request("GET", "/v1/runs", params, b"")
        )
        assert response.status in (200, 400)

    def test_oversized_body_is_413(self, tmp_path):
        with ServerThread(tmp_path / "state") as server:
            client = client_for(server)
            import http.client

            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30
            )
            try:
                connection.request(
                    "POST", "/v1/studies",
                    headers={"Content-Length": str(10 << 20)},
                )
                response = connection.getresponse()
                assert response.status == 413
                error = json.loads(response.read())["error"]
                assert error["code"] == "payload_too_large"
            finally:
                connection.close()

    def test_malformed_socket_bytes_get_400(self, tmp_path):
        import socket

        with ServerThread(tmp_path / "state") as server:
            for raw in (
                b"NOT A REQUEST\r\n\r\n",
                b"GET\r\n\r\n",
                b"BREW /v1/runs HTTP/1.1\r\n\r\n",
                b"GET /v1/runs HTTP/9.9\r\n\r\n",
                b"GET /v1/runs HTTP/1.1\r\nbroken header\r\n\r\n",
            ):
                with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=30
                ) as sock:
                    sock.sendall(raw)
                    reply = sock.recv(65536)
                assert reply.startswith(b"HTTP/1.1 400"), raw
