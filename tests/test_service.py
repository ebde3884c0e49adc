"""Tests for the radiation-solve service layer.

The contract under test: solves are content-addressed — a burst of N
identical requests performs exactly one ray trace (coalescing + cache
collapse the rest) and returns bit-identical divq to a direct
``run_ups`` — while overload, deadlines, and worker failures surface
as :class:`ServiceError`, never as hangs or wrong answers.
"""

import json
import math
import os
import threading
import time

import numpy as np
import pytest

from repro.perf.metrics import MetricsRegistry, set_metrics
from repro.service import (
    RadiationService,
    ResultCache,
    ServiceClient,
    ServiceConfig,
    SubmissionQueue,
)
from repro.service.schema import CachedSolve
from repro.ups import ProblemSpec, RMCRTSpec, GridSpec, parse_ups, run_ups
from repro.util.errors import ServiceError


@pytest.fixture(autouse=True)
def registry():
    """Fresh process-default registry per test (service publishes into
    the default when not handed one explicitly)."""
    fresh = MetricsRegistry()
    previous = set_metrics(fresh)
    yield fresh
    set_metrics(previous)


def counters_of(metrics_path) -> dict:
    """Counter totals by name from a ``--metrics`` file."""
    totals = {}
    for c in json.loads(metrics_path.read_text())["counters"]:
        totals[c["name"]] = totals.get(c["name"], 0) + c["value"]
    return totals


def small_spec(seed=1, rays=3) -> ProblemSpec:
    return ProblemSpec(
        grid=GridSpec(resolution=12, levels=2, refinement_ratio=2, patch_size=6),
        rmcrt=RMCRTSpec(n_divq_rays=rays, random_seed=seed),
    )


def tiny_spec(seed=0) -> ProblemSpec:
    """Single-level serial problem — milliseconds per solve."""
    return ProblemSpec(
        grid=GridSpec(resolution=8, levels=1), rmcrt=RMCRTSpec(n_divq_rays=1, random_seed=seed)
    )


class TestCacheAndCoalesce:
    def test_burst_of_identical_requests_is_one_solve(self):
        spec = small_spec()
        reference = run_ups(spec)
        with RadiationService(ServiceConfig(workers=2)) as svc:
            client = ServiceClient(svc)
            results = client.solve_many([spec] * 6, timeout=60)
            stats = svc.stats()
        assert stats["solves"] == 1
        assert stats["coalesced"] + stats["cache_hits_memory"] == 5
        for result in results:
            np.testing.assert_array_equal(result.divq, reference.divq)
        assert sum(not r.cache_hit and not r.coalesced for r in results) == 1

    def test_sequential_duplicates_hit_cache(self):
        spec = small_spec()
        with ServiceClient(ServiceConfig(workers=1)) as client:
            first = client.solve(spec, timeout=60)
            second = client.solve(spec, timeout=60)
            third = client.solve(spec, timeout=60)
        assert not first.cache_hit
        assert second.cache_hit and third.cache_hit
        assert second.attempts == 0 and second.worker == -1
        np.testing.assert_array_equal(first.divq, second.divq)
        # the original solve's cost rides along with the cached payload
        assert second.solve_time_s == first.solve_time_s

    def test_distinct_seeds_are_distinct_solves(self):
        with ServiceClient(ServiceConfig(workers=2)) as client:
            a, b = client.solve_many(
                [small_spec(seed=1), small_spec(seed=2)], timeout=60
            )
        assert a.fingerprint != b.fingerprint
        assert not np.array_equal(a.divq, b.divq)

    def test_disk_cache_warm_starts_new_service(self, tmp_path, registry):
        spec = small_spec()
        cache_dir = tmp_path / "results"
        with ServiceClient(
            ServiceConfig(workers=1, cache_dir=str(cache_dir))
        ) as client:
            first = client.solve(spec, timeout=60)
        registry.clear()  # new service process, fresh series
        with ServiceClient(
            ServiceConfig(workers=1, cache_dir=str(cache_dir))
        ) as client:
            second = client.solve(spec, timeout=60)
            stats = client.service.stats()
        assert stats["solves"] == 0
        assert stats["cache_hits_disk"] == 1
        np.testing.assert_array_equal(first.divq, second.divq)

    def test_no_cache_config_re_solves_every_request(self):
        spec = tiny_spec()
        config = ServiceConfig(workers=1, cache_capacity=0, coalesce=False)
        with ServiceClient(config) as client:
            for _ in range(3):
                result = client.solve(spec, timeout=60)
                assert not result.cache_hit and not result.coalesced
            stats = client.service.stats()
        assert stats["solves"] == 3

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(capacity=4, directory=tmp_path)
        cache.put(CachedSolve("ab" * 32, np.ones((2, 2, 2)), 8, 0.1))
        (tmp_path / ("ab" * 32 + ".json")).write_text("{not json")
        fresh = ResultCache(capacity=4, directory=tmp_path)
        assert fresh.get("ab" * 32) is None

    def test_spectral_specs_cache_separately_from_gray(self):
        """A gray spec and its gray-limit spectral twin return the same
        numbers but run different code paths — they must occupy
        distinct cache entries, never coalesce into one solve."""
        from repro.ups import SpectralSpec

        gray = tiny_spec()
        spectral = tiny_spec()
        spectral.spectral = SpectralSpec(
            bands=1, temperature=1000.0, kappa_exponent=0.0, emissivity="gray"
        )
        with ServiceClient(ServiceConfig(workers=2)) as client:
            a, b = client.solve_many([gray, spectral], timeout=60)
            stats = client.service.stats()
        assert stats["solves"] == 2
        assert a.fingerprint != b.fingerprint
        assert not a.cache_hit and not b.cache_hit
        assert not a.coalesced and not b.coalesced
        # the gray limit is the numerical identity, through the service too
        np.testing.assert_array_equal(a.divq, b.divq)


class TestBackpressureAndDeadlines:
    def test_full_pipeline_rejects_with_backpressure(self):
        release = threading.Event()

        def blocking_hook(fingerprint, attempt):
            release.wait(timeout=30.0)

        config = ServiceConfig(
            workers=1,
            max_queue=1,
            max_batch=1,
            shard_queue_depth=1,
            submit_timeout_s=0.05,
            fault_hook=blocking_hook,
        )
        svc = RadiationService(config)
        try:
            handles = []
            with pytest.raises(ServiceError, match="backpressure|full"):
                for seed in range(10):
                    handles.append(svc.submit(tiny_spec(seed=seed)))
            assert svc.stats()["rejected"] >= 1
            release.set()
            for handle in handles:
                handle.result(timeout=60)
        finally:
            release.set()
            svc.stop()

    def test_expired_deadline_fails_the_request(self):
        spec = tiny_spec()
        with RadiationService(ServiceConfig(workers=1)) as svc:
            handle = svc.submit(spec, deadline_s=0.0)
            with pytest.raises(ServiceError, match="deadline"):
                handle.result(timeout=60)
            assert svc.stats()["expired"] >= 1

    def test_queue_close_unblocks_getters(self):
        q = SubmissionQueue(maxsize=2)
        q.close()
        assert q.get(timeout=1.0) is None
        with pytest.raises(ServiceError):
            q.put(object())


class TestRetries:
    def test_transient_failure_retried_to_success(self):
        failed_once = set()

        def flaky_hook(fingerprint, attempt):
            if fingerprint not in failed_once:
                failed_once.add(fingerprint)
                raise RuntimeError("injected transient fault")

        config = ServiceConfig(workers=1, max_retries=2, fault_hook=flaky_hook)
        spec = small_spec()
        reference = run_ups(spec)
        with RadiationService(config) as svc:
            result = svc.submit(spec).result(timeout=60)
            stats = svc.stats()
        assert result.attempts == 2
        assert stats["retries"] == 1
        np.testing.assert_array_equal(result.divq, reference.divq)

    def test_permanent_failure_exhausts_retries(self):
        def broken_hook(fingerprint, attempt):
            raise RuntimeError("injected permanent fault")

        config = ServiceConfig(
            workers=1, max_retries=1, retry_backoff_s=0.001, fault_hook=broken_hook
        )
        with RadiationService(config) as svc:
            handle = svc.submit(tiny_spec())
            with pytest.raises(ServiceError, match="failed after 2 attempt"):
                handle.result(timeout=60)
            assert svc.stats()["failed"] == 1

    def test_failure_fails_coalesced_riders_too(self):
        def broken_hook(fingerprint, attempt):
            raise RuntimeError("injected fault")

        config = ServiceConfig(
            workers=1, max_retries=0, retry_backoff_s=0.001,
            batch_window_s=0.05, fault_hook=broken_hook,
        )
        spec = tiny_spec()
        with RadiationService(config) as svc:
            handles = [svc.submit(spec) for _ in range(3)]
            for handle in handles:
                with pytest.raises(ServiceError):
                    handle.result(timeout=60)


class TestProcessBackend:
    def test_process_solve_matches_run_ups(self):
        spec = small_spec()
        reference = run_ups(spec)
        with ServiceClient(ServiceConfig(workers=1, backend="process")) as client:
            result = client.solve(spec, timeout=120)
        np.testing.assert_array_equal(result.divq, reference.divq)
        assert result.rays_traced == reference.rays_traced

    def test_unknown_backend_rejected(self):
        with pytest.raises(ServiceError):
            RadiationService(ServiceConfig(backend="fpga"))

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_spectral_solve_records_its_solve_time(self, backend):
        """Every solve, gray or spectral, times itself under one name,
        so the service never records a spectral solve as free."""
        from repro.ups import SpectralSpec

        spec = tiny_spec()
        spec.spectral = SpectralSpec(bands=3, temperature=1400.0, kappa_exponent=0.8)
        with ServiceClient(ServiceConfig(workers=1, backend=backend)) as client:
            result = client.solve(spec, timeout=120)
        assert result.solve_time_s > 0.0


class TestLifecycle:
    def test_submit_after_stop_raises(self):
        svc = RadiationService(ServiceConfig(workers=1))
        svc.start()
        svc.stop()
        with pytest.raises(ServiceError):
            svc.submit(tiny_spec())

    def test_stop_drains_submitted_work(self):
        spec = tiny_spec()
        svc = RadiationService(ServiceConfig(workers=1))
        handles = [svc.submit(spec) for _ in range(4)]
        svc.stop()
        for handle in handles:
            assert handle.done()
            handle.result(timeout=0)

    def test_registry_clear_between_service_solves(self, registry):
        """The satellite contract: long-lived processes clear() the
        registry between workloads and series start from zero."""
        spec = tiny_spec()
        with ServiceClient(ServiceConfig(workers=1)) as client:
            client.solve(spec, timeout=60)
            assert client.service.stats()["solves"] == 1
            registry.clear()
            assert client.service.stats()["solves"] == 0
            client.solve(tiny_spec(seed=9), timeout=60)
            assert client.service.stats()["solves"] == 1
        assert registry.value("service.requests") == 1


UPS_TEXT = """
<Uintah_specification>
  <Grid>
    <resolution> 12 </resolution>
    <levels> 2 </levels>
    <refinement_ratio> 2 </refinement_ratio>
    <patch_size> 6 </patch_size>
  </Grid>
  <RMCRT>
    <nDivQRays> 3 </nDivQRays>
    <randomSeed> 1 </randomSeed>
  </RMCRT>
  <Scheduler type="serial"/>
</Uintah_specification>
"""


class TestCLI:
    def test_submit_cli_duplicates_hit_cache(self, tmp_path, capsys):
        from repro.__main__ import main

        ups = tmp_path / "small.ups"
        ups.write_text(UPS_TEXT)
        metrics_path = tmp_path / "metrics.json"
        out_dir = tmp_path / "out"
        rc = main(
            [
                "submit", str(ups), str(ups),
                "--metrics", str(metrics_path), "--out", str(out_dir),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cache-hit" in out
        assert counters_of(metrics_path)["service.cache.hits"] >= 1
        reference = run_ups(parse_ups(UPS_TEXT))
        for npz in sorted(out_dir.glob("*.npz")):
            with np.load(npz) as arrays:
                np.testing.assert_array_equal(arrays["divq"], reference.divq)

    def test_spool_serve_submit_roundtrip(self, tmp_path, monkeypatch):
        from repro.service import cli
        from repro.service.cli import cmd_serve, cmd_submit

        ups = tmp_path / "small.ups"
        ups.write_text(UPS_TEXT)
        spool = tmp_path / "spool"
        metrics_path = tmp_path / "serve_metrics.json"
        serve_rc = {}
        # (served, outstanding, sidecars in the outbox) at every publish
        publishes = []
        first_pass_done = threading.Event()
        publish_status = cli._publish_status

        def recording_publish(spool_dir, svc, shard_id, served, outstanding,
                              *args, **kwargs):
            sidecars = len(list((spool_dir / "outbox").glob("*.json")))
            publishes.append((served, outstanding, sidecars))
            publish_status(spool_dir, svc, shard_id, served,
                           outstanding, *args, **kwargs)
            first_pass_done.set()

        monkeypatch.setattr(cli, "_publish_status", recording_publish)

        def serve():
            # the solve is held 0.1 s so that its done-callback's ring
            # cannot share one wait with the requests' rings, even when
            # the submitting thread is starved of the GIL between its
            # rename and its ring
            serve_rc["rc"] = cmd_serve(
                [
                    "--spool", str(spool), "--metrics", str(metrics_path),
                    "--max-requests", "2", "--idle-timeout", "60",
                    "--inject-slowdown", "0.1",
                ]
            )

        t0 = time.monotonic()
        server = threading.Thread(target=serve, daemon=True)
        server.start()
        # submitted once the server waits on its bell: the requests ring
        # it, and the solve rings it again
        assert first_pass_done.wait(60)
        rc = cmd_submit(
            ["--spool", str(spool), str(ups), str(ups), "--timeout", "60"]
        )
        assert rc == 0
        server.join(timeout=60)
        wall = time.monotonic() - t0
        assert not server.is_alive() and serve_rc["rc"] == 0
        results = sorted((spool / "outbox").glob("*.npz"))
        assert len(results) == 2
        reference = run_ups(parse_ups(UPS_TEXT))
        for npz in results:
            with np.load(npz) as arrays:
                np.testing.assert_array_equal(arrays["divq"], reference.divq)
        # status is published on change or on the 0.5 s cadence, not
        # every pass: a claim and a settle per request, the first
        # publish, the exit publish, and the heartbeats in between
        counters = counters_of(metrics_path)
        assert counters["service.spool.status_published"] == len(publishes)
        assert len(publishes) <= 2 * 2 + 2 + math.ceil(wall / 0.5)
        assert counters["service.spool.passes"] >= 2
        assert counters["service.spool.rung"] >= 2
        # a result is in the outbox before any status reports it settled
        for served, outstanding, sidecars in publishes:
            assert sidecars >= served - outstanding
        assert publishes[-1][:2] == (2, 0)
        final = json.loads((spool / "status.json").read_text())
        assert final["shard"]["exited"] and final["shard"]["served"] == 2

    def test_rejected_request_is_answered_once_and_settled(self, tmp_path):
        from repro.service.cli import cmd_serve
        from repro.service.spool import wait_result, write_request

        spool = tmp_path / "spool"
        metrics_path = tmp_path / "serve_metrics.json"
        write_request(spool / "inbox", "bad", "<Uintah_specification><Grid>")
        serve_rc = {}

        def serve():
            serve_rc["rc"] = cmd_serve(
                ["--spool", str(spool), "--metrics", str(metrics_path),
                 "--idle-timeout", "60", "--tsdb-interval", "0"]
            )

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        meta = wait_result(
            spool / "outbox", "bad", time.monotonic() + 60, alive=server.is_alive
        )
        (spool / "serve.stop").write_text("stop\n")
        server.join(timeout=60)
        assert not server.is_alive() and serve_rc["rc"] == 0
        assert meta is not None and meta["error"]
        assert list((spool / "outbox").glob("*")) == [spool / "outbox" / "bad.json"]
        assert list((spool / "claimed" / "shard0").glob("*")) == []
        assert list((spool / "inbox").glob("*")) == []
        assert counters_of(metrics_path)["service.spool.claimed"] == 1
        final = json.loads((spool / "status.json").read_text())
        assert final["shard"]["served"] == 0 and final["shard"]["exited"]

    @staticmethod
    def serve_bad_then_good(tmp_path, bad_text):
        """Serve a bad request and the good one queued behind it; returns
        the bad one's answer once the good one has been served."""
        from repro.service.cli import cmd_serve
        from repro.service.spool import wait_result, write_request

        spool = tmp_path / "spool"
        write_request(spool / "inbox", "a_bad", bad_text)
        write_request(spool / "inbox", "b_good", UPS_TEXT)
        serve_rc = {}

        def serve():
            serve_rc["rc"] = cmd_serve(
                ["--spool", str(spool), "--idle-timeout", "60", "--tsdb-interval", "0"]
            )

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        deadline = time.monotonic() + 60
        bad = wait_result(spool / "outbox", "a_bad", deadline, alive=server.is_alive)
        good = wait_result(spool / "outbox", "b_good", deadline, alive=server.is_alive)
        (spool / "serve.stop").write_text("stop\n")
        server.join(timeout=60)
        assert not server.is_alive() and serve_rc["rc"] == 0
        assert good is not None and good["error"] is None
        with np.load(spool / "outbox" / "b_good.npz") as arrays:
            np.testing.assert_array_equal(arrays["divq"], run_ups(parse_ups(UPS_TEXT)).divq)
        assert list((spool / "claimed" / "shard0").glob("*")) == []
        final = json.loads((spool / "status.json").read_text())
        assert final["shard"]["served"] == 1
        assert bad is not None
        return bad

    def test_a_zero_refinement_ratio_is_rejected_and_the_next_request_served(
        self, tmp_path
    ):
        """A spec whose fingerprint cannot even be taken (ratio 0 divides
        by zero building its grid) is answered with an error, and the
        server lives on to serve the request behind it."""
        bad = self.serve_bad_then_good(
            tmp_path, UPS_TEXT.replace("<refinement_ratio> 2 <", "<refinement_ratio> 0 <")
        )
        assert "refinement_ratio must be >= 1" in bad["error"]

    def test_a_non_numeric_value_is_rejected_and_the_next_request_served(self, tmp_path):
        """A value its tag cannot convert is a typed error naming the
        tag: the server answers it and lives on, nothing left claimed."""
        bad = self.serve_bad_then_good(
            tmp_path, UPS_TEXT.replace("<nDivQRays> 3 <", "<nDivQRays> three <")
        )
        assert bad["error"] == "<nDivQRays> expects an integer, got 'three'"

    def test_request_without_a_ring_is_served_by_the_poll(self, tmp_path, monkeypatch):
        from repro.service import cli
        from repro.service.spool import wait_result
        from repro.util.atomic import atomic_write_text

        spool = tmp_path / "spool"
        metrics_path = tmp_path / "serve_metrics.json"
        first_pass_done = threading.Event()
        publish_status = cli._publish_status

        def signalling_publish(*args, **kwargs):
            publish_status(*args, **kwargs)
            first_pass_done.set()

        monkeypatch.setattr(cli, "_publish_status", signalling_publish)
        serve_rc = {}

        def serve():
            serve_rc["rc"] = cli.cmd_serve(
                ["--spool", str(spool), "--metrics", str(metrics_path),
                 "--idle-timeout", "60", "--tsdb-interval", "0"]
            )

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        assert first_pass_done.wait(60)
        # renamed into the inbox after the first pass's glob, with no
        # ring; a rejected request settles in the pass and wakes nobody
        t0 = time.monotonic()
        atomic_write_text(spool / "inbox" / "quiet.ups", "<Uintah_specification><Grid>")
        meta = wait_result(
            spool / "outbox", "quiet", t0 + 60, alive=server.is_alive
        )
        waited = time.monotonic() - t0
        (spool / "serve.stop").write_text("stop\n")
        server.join(timeout=60)
        assert not server.is_alive() and serve_rc["rc"] == 0
        assert meta is not None and meta["error"]
        # a poll is at most 50 ms; the idle timeout it would otherwise
        # wait out is 60 s
        assert waited < 5.0
        counters = counters_of(metrics_path)
        assert counters["service.spool.claimed"] == 1
        assert counters["service.spool.rung"] == 0

    @pytest.mark.parametrize("cause", ["file", "unwritable"])
    @pytest.mark.parametrize("command", ["serve", "submit"])
    def test_unusable_spool_is_a_typed_error(self, tmp_path, capsys, command, cause):
        from repro.__main__ import main

        spool = tmp_path / "spool"
        if cause == "file":
            spool.write_text("not a directory\n")
        else:
            spool.mkdir(mode=0o500)
            try:
                (spool / "probe").mkdir()
            except PermissionError:
                pass
            else:
                pytest.skip("this process writes through directory permissions")
        ups = tmp_path / "small.ups"
        ups.write_text(UPS_TEXT)
        argv = {
            "serve": ["serve", "--spool", str(spool), "--idle-timeout", "0"],
            "submit": ["submit", "--spool", str(spool), str(ups), "--timeout", "1"],
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestSpoolWait:
    """The spool's one wait rule, the bell that cuts a wait short, and
    the two things that wait, pinned without a clock."""

    def test_poll_delay_bounds_and_monotonicity(self):
        from repro.service.spool import poll_delay

        assert poll_delay(0.0) == 0.0005
        assert poll_delay(0.5) == 0.05 and poll_delay(3600.0) == 0.05
        waited = [i * 1e-3 for i in range(0, 700)]
        delays = [poll_delay(w) for w in waited]
        assert delays == sorted(delays)
        assert all(0.0005 <= d <= 0.05 for d in delays)
        # past the floor a wait is never more than a tenth of the wait so far
        assert all(d <= 0.1 * w + 1e-15 for w, d in zip(waited, delays) if w >= 0.005)

    def test_poll_delay_schedule_reaches_the_cap_in_59_wakeups(self):
        from repro.service.spool import poll_delay

        waited, wakeups = 0.0, 0
        while poll_delay(waited) < 0.05:
            waited += poll_delay(waited)
            wakeups += 1
        assert wakeups == 59
        assert waited == pytest.approx(0.5336, abs=5e-4)

    @pytest.mark.parametrize("complete", ["result", "error"])
    def test_done_callback_fires_exactly_once(self, complete):
        from repro.service.schema import SolveHandle, SolveRequest

        handle = SolveHandle(SolveRequest(spec=tiny_spec()))
        fired = []
        handle.add_done_callback(lambda: fired.append("early"))
        assert fired == []
        if complete == "result":
            handle.set_result("a result")
        else:
            handle.set_error(ServiceError("failed"))
        assert fired == ["early"]
        # a late completion is dropped and wakes nobody again
        handle.set_result("late")
        handle.set_error(ServiceError("later"))
        assert fired == ["early"]
        # registered after completion: called at once, once
        handle.add_done_callback(lambda: fired.append("late"))
        assert fired == ["early", "late"]
        if complete == "result":
            assert handle.result(timeout=0) == "a result"
        else:
            with pytest.raises(ServiceError, match="failed"):
                handle.result(timeout=0)

    def test_wait_result_reads_before_it_sleeps(self, tmp_path, monkeypatch):
        from repro.service import spool

        def no_wait(bell, timeout):
            raise AssertionError("waited with the result already published")

        monkeypatch.setattr(spool.Bell, "wait", no_wait)
        spool.write_result(tmp_path, "t1", error="boom")
        assert spool.wait_result(tmp_path, "t1", time.monotonic() + 60) == {
            "error": "boom"
        }
        assert list(tmp_path.glob("*.bell")) == []
        # a dead server, or a deadline already past, ends the wait unslept
        assert spool.wait_result(
            tmp_path, "t2", time.monotonic() + 60, alive=lambda: False
        ) is None
        assert list(tmp_path.glob("*.bell")) == []
        assert spool.wait_result(tmp_path, "t2", time.monotonic() - 1) is None
        assert list(tmp_path.glob("*.bell")) == []

    def test_wait_result_sleeps_by_the_rule(self, tmp_path, monkeypatch):
        from repro.service import spool

        class FakeClock:
            """monotonic() advances only by what the bell's wait is asked
            for; the result is published once 40 ms have been waited."""

            def __init__(self):
                self.now, self.slept = 100.0, []

            def monotonic(self):
                return self.now

            def wait(self, seconds):  # stands in for Bell.wait
                self.slept.append(seconds)
                self.now += seconds
                if self.now - 100.0 >= 0.04:
                    spool.write_result(tmp_path, "t1", error="late")
                return False

        clock = FakeClock()
        monkeypatch.setattr(spool, "time", clock)
        monkeypatch.setattr(spool.Bell, "wait", clock.wait)
        assert spool.wait_result(tmp_path, "t1", 160.0) == {"error": "late"}
        assert list(tmp_path.glob("*.bell")) == []
        waited, expected = 0.0, []
        while waited < 0.04:
            expected.append(spool.poll_delay(waited))
            waited += expected[-1]
        assert clock.slept == pytest.approx(expected)
        # the read lands within a tenth of the wait after the result
        assert waited <= 0.04 * 1.1 + 1e-12

    def test_unrung_bell_is_not_ready(self, tmp_path):
        from repro.service.spool import Bell

        with Bell(tmp_path / "b.bell") as bell:
            assert not bell.wait(0)
            # a ringer that opened and closed its end leaves no EOF behind
            os.close(os.open(bell.path, os.O_WRONLY | os.O_NONBLOCK))
            assert not bell.wait(0)

    def test_a_ring_wakes_once_and_drains(self, tmp_path):
        from repro.service.spool import Bell, ring

        with Bell(tmp_path / "b.bell") as bell:
            ring(bell.path)
            ring(bell.path)
            bell.ring()
            assert bell.wait(60)
            assert not bell.wait(0)
            # a full pipe is already rung: more rings neither block nor
            # fail, and one wait drains them all
            for _ in range(1 << 17):
                bell.ring()
            ring(bell.path)
            assert bell.wait(60)
            assert not bell.wait(0)

    def test_wait_result_wakes_on_the_ring(self, tmp_path, monkeypatch):
        from repro.service import spool

        monkeypatch.setattr(spool, "poll_delay", lambda waited: 60.0)
        waiting = threading.Event()
        bell_wait = spool.Bell.wait

        def signalling_wait(bell, timeout):
            waiting.set()
            return bell_wait(bell, timeout)

        monkeypatch.setattr(spool.Bell, "wait", signalling_wait)

        def publish():
            assert waiting.wait(60)
            spool.write_result(tmp_path, "t1", error="rung")

        publisher = threading.Thread(target=publish, daemon=True)
        publisher.start()
        t0 = time.monotonic()
        assert spool.wait_result(tmp_path, "t1", t0 + 120) == {"error": "rung"}
        assert time.monotonic() - t0 < 30  # the ring, not the 60 s poll
        publisher.join(timeout=60)
        assert not publisher.is_alive()
        assert list(tmp_path.glob("*.bell")) == []

    def test_ring_without_a_holder_is_silent(self, tmp_path):
        from repro.service import spool

        spool.ring(tmp_path / "missing.bell")
        os.mkfifo(tmp_path / "unheld.bell")
        spool.ring(tmp_path / "unheld.bell")
        plain = tmp_path / "plain.bell"
        plain.write_text("x")
        spool.ring(plain)
        assert plain.read_text() == "x"
        # a client that left without removing its bell: the result still
        # publishes, and nothing blocks on the orphaned pipe
        spool.Bell(tmp_path / "gone.bell").close()
        spool.write_result(tmp_path, "gone", error="late")
        assert spool.read_result_meta(tmp_path, "gone") == {"error": "late"}


class TestJournal:
    """The write-ahead request journal and warm restart."""

    def test_record_forget_outstanding(self, tmp_path, registry):
        from repro.service import RequestJournal
        from repro.ups import spec_fingerprint

        j = RequestJournal(tmp_path)
        spec = tiny_spec()
        fp = spec_fingerprint(spec)
        j.record(fp, spec)
        assert len(j) == 1
        out = j.outstanding()
        assert len(out) == 1 and out[0] == spec
        j.forget(fp)
        assert len(j) == 0 and j.outstanding() == []
        j.forget(fp)  # idempotent

    def test_corrupt_entry_skipped_and_deleted(self, tmp_path, registry):
        from repro.service import RequestJournal

        j = RequestJournal(tmp_path)
        j.record("ab12", tiny_spec())
        (tmp_path / "cd34.json").write_text("{truncated")
        out = j.outstanding()
        assert len(out) == 1
        assert not (tmp_path / "cd34.json").exists()
        assert registry.value("service.journal.corrupt") == 1

    def test_settles_through_request_lifecycle(self, tmp_path):
        cfg = ServiceConfig(workers=1, journal_dir=str(tmp_path))
        with RadiationService(cfg) as svc:
            svc.submit(tiny_spec()).result(60)
            assert len(svc.journal) == 0  # recorded then forgotten

    def test_warm_restart_replays_outstanding(self, tmp_path):
        """A crashed service's journal entries are re-solved (or served
        from the preloaded disk cache) by the next incarnation."""
        from repro.service import RequestJournal
        from repro.ups import spec_fingerprint

        jdir, cdir = tmp_path / "journal", tmp_path / "cache"
        solved, unsolved = tiny_spec(seed=1), tiny_spec(seed=2)

        # incarnation 1 solves one spec, then "crashes" with both
        # journaled (simulate by journaling after the fact)
        with RadiationService(
            ServiceConfig(workers=1, cache_dir=str(cdir))
        ) as first:
            first.submit(solved).result(60)
        j = RequestJournal(jdir)
        j.record(spec_fingerprint(solved), solved)
        j.record(spec_fingerprint(unsolved), unsolved)

        with RadiationService(
            ServiceConfig(workers=1, journal_dir=str(jdir), cache_dir=str(cdir))
        ) as second:
            report = second.recover_journal()
            assert report["replayed"] == 2
            assert report["cache_preloaded"] >= 1
            results = [h.result(60) for h in report["handles"]]
            assert any(r.cache_hit for r in results)  # solved came from disk
            assert len(second.journal) == 0

    def test_queue_reject_rolls_back_journal(self, tmp_path):
        """A submit bounced by backpressure must not leave a journal
        entry behind — no promise was made."""
        cfg = ServiceConfig(workers=1, journal_dir=str(tmp_path))
        with RadiationService(cfg) as svc:

            def full_queue(pending, timeout=None):
                raise ServiceError("queue full")

            svc.queue.put = full_queue
            with pytest.raises(ServiceError, match="queue full"):
                svc.submit(tiny_spec())
            assert len(svc.journal) == 0


class TestFaultPlanIntegration:
    """repro.resilience.FaultPlan as the service's fault-injection API."""

    def test_solve_fault_retries_then_succeeds(self, registry):
        from repro.resilience import FaultPlan, FaultEvent
        from repro.ups import spec_fingerprint

        spec = tiny_spec()
        plan = FaultPlan(
            [FaultEvent(kind="solve-fault", match=spec_fingerprint(spec)[:8])]
        )
        with RadiationService(ServiceConfig(workers=1, fault_plan=plan)) as svc:
            result = svc.submit(spec).result(60)
        assert result.attempts == 2
        assert registry.value("service.worker.retries") == 1

    def test_worker_death_routes_to_survivor(self, registry):
        from repro.resilience import FaultPlan, FaultEvent

        plan = FaultPlan([FaultEvent(kind="worker-death", target=0)])
        with RadiationService(ServiceConfig(workers=2, fault_plan=plan)) as svc:
            results = [
                svc.submit(tiny_spec(seed=s)).result(60) for s in range(4)
            ]
        assert all(r.worker == 1 for r in results)
        assert registry.value("service.worker.deaths", worker=0) == 1

    def test_all_workers_dead_rejected(self):
        from repro.resilience import FaultPlan, FaultEvent

        plan = FaultPlan(
            [
                FaultEvent(kind="worker-death", target=0),
                FaultEvent(kind="worker-death", target=1),
            ]
        )
        with pytest.raises(ServiceError, match="kills all"):
            RadiationService(ServiceConfig(workers=2, fault_plan=plan))

    def test_explicit_hook_and_plan_compose(self):
        from repro.resilience import FaultPlan, FaultEvent

        seen = []
        plan = FaultPlan([FaultEvent(kind="solve-fault", attempts=1)])
        cfg = ServiceConfig(
            workers=1, fault_plan=plan,
            fault_hook=lambda fp, attempt: seen.append(attempt),
        )
        with RadiationService(cfg) as svc:
            result = svc.submit(tiny_spec()).result(60)
        assert result.attempts == 2
        assert seen == [1, 2]  # explicit hook observed both attempts
