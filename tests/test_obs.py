"""End-to-end telemetry (ISSUE 9): metrics, traces, exposition.

Pinned here:

* the metrics registry contract — get-or-create instruments, label
  children, kind-mismatch refusal, deterministic Prometheus text 0.0.4;
* the span model — deterministic correlation ids (the journal digest),
  lifecycle ordering, journal-row stitching for finished fleet sweeps;
* the exposition plane — the ``metrics``/``trace`` wire verbs, the
  ``--metrics-port`` HTTP scrape endpoint, the ``repro metrics`` /
  ``repro trace`` CLI (live and ``--store`` offline);
* internal consistency — ``repro_journal_appends_total`` equals the
  number of task rows every watcher saw.

Byte-identity of the *science* under telemetry is the sibling file,
``tests/test_obs_determinism.py``.
"""

import asyncio
import json
import urllib.request

import pytest

from repro import obs
from repro.pipeline import BackendSpec, CircuitSpec, SweepSpec, run_sweep
from repro.service import ServiceError, SweepClient, SweepServer
from repro.store import ArtifactStore, MemoryBackend, reset_memory_spaces
from repro.store.journal import journal_spec_digest


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with telemetry disabled — the module
    global must never leak between tests (or into the rest of the suite)."""
    obs.disable()
    yield
    obs.disable()


def small_spec(**overrides):
    defaults = dict(
        backends=(BackendSpec(kind="device", name="quito", gate_noise=False),),
        circuits=(CircuitSpec(root=0),),
        shots=(200,),
        methods=("Bare", "CMC"),
        trials=2,
        seed=11,
        full_max_qubits=5,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_get_or_create_and_inc(self):
        reg = obs.MetricsRegistry()
        c = reg.counter("repro_things_total", "Things")
        c.inc()
        c.inc(2)
        assert reg.counter("repro_things_total") is c  # same family
        assert c.value == 3

    def test_labelled_children_are_independent_series(self):
        reg = obs.MetricsRegistry()
        c = reg.counter("repro_ops_total", "Ops", ("op",))
        c.labels(op="get").inc()
        c.labels(op="get").inc()
        c.labels(op="put").inc(5)
        assert c.labels(op="get").value == 2
        assert c.labels(op="put").value == 5
        assert c.value == 7  # family total sums children

    def test_gauge_set_inc_dec(self):
        reg = obs.MetricsRegistry()
        g = reg.gauge("repro_depth", "Depth")
        g.set(10)
        g.inc(3)
        g.dec()
        assert g.value == 12

    def test_histogram_buckets_sum_count(self):
        reg = obs.MetricsRegistry()
        h = reg.histogram("repro_lat_seconds", "Latency", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(5.55)

    def test_kind_mismatch_raises_at_registration(self):
        reg = obs.MetricsRegistry()
        reg.counter("repro_x", "X")
        with pytest.raises(ValueError, match="is a counter"):
            reg.gauge("repro_x", "X")

    def test_snapshot_mirrors_state(self):
        reg = obs.MetricsRegistry()
        reg.counter("repro_a_total", "A", ("k",)).labels(k="v").inc(4)
        reg.gauge("repro_b", "B").set(1.5)
        snap = reg.snapshot()
        assert snap["repro_a_total"]["kind"] == "counter"
        assert snap["repro_a_total"]["series"] == [
            {"labels": {"k": "v"}, "value": 4.0}
        ]
        assert snap["repro_b"]["series"][0]["value"] == 1.5
        json.dumps(snap)  # the wire verb's payload must be JSON-ready

    def test_prometheus_text_format(self):
        reg = obs.MetricsRegistry()
        reg.counter("repro_b_total", "Bs", ("op",)).labels(op='q"x').inc()
        reg.counter("repro_a_total", "As").inc(2)
        h = reg.histogram("repro_h_seconds", "H", buckets=(0.5, 1.0))
        h.observe(0.2)
        h.observe(2.0)
        text = obs.render_prometheus(reg)
        lines = text.splitlines()
        # metrics sort by name; HELP/TYPE precede samples
        assert lines[0] == "# HELP repro_a_total As"
        assert lines[1] == "# TYPE repro_a_total counter"
        assert lines[2] == "repro_a_total 2"
        assert 'repro_b_total{op="q\\"x"} 1' in lines  # label escaping
        assert 'repro_h_seconds_bucket{le="0.5"} 1' in lines
        assert 'repro_h_seconds_bucket{le="1"} 1' in lines
        assert 'repro_h_seconds_bucket{le="+Inf"} 2' in lines  # cumulative
        assert "repro_h_seconds_count 2" in lines
        assert text.endswith("\n")
        # deterministic: identical state renders byte-identically
        assert obs.render_prometheus(reg) == text

    def test_enable_disable_roundtrip(self):
        assert obs.active() is None and not obs.enabled()
        t = obs.enable()
        assert obs.active() is t and obs.enabled()
        assert obs.enable() is t  # idempotent
        fresh = obs.Telemetry()
        assert obs.enable(fresh) is fresh  # explicit scope replaces
        obs.disable()
        assert obs.active() is None

    def test_telemetry_proxies_reach_registry_and_spans(self):
        t = obs.Telemetry()
        t.counter("repro_c_total", "C").inc()
        t.gauge("repro_g", "G").set(2)
        t.histogram("repro_h_seconds", "H").observe(0.1)
        t.span("abc", "submit", sweep_id="abc-1")
        snap = t.snapshot()
        assert set(snap) == {"repro_c_total", "repro_g", "repro_h_seconds"}
        assert "repro_c_total" in t.prometheus()
        assert t.spans.events("abc")[0]["span"] == "submit"


# ----------------------------------------------------------------------
# Trace ids and the span buffer
# ----------------------------------------------------------------------
class TestTraceModel:
    def test_sweep_trace_id_is_the_journal_digest(self):
        spec = small_spec()
        assert obs.sweep_trace_id(spec) == journal_spec_digest(spec)

    def test_task_trace_id_is_deterministic_in_coordinate(self):
        assert obs.task_trace_id("ab12", 3, (0, 1)) == "ab12.p3.t0_1"
        assert obs.task_trace_id("ab12", 3, [0, 1]) == "ab12.p3.t0_1"

    def test_sweep_events_matches_task_level_ids(self):
        buf = obs.SpanBuffer()
        buf.record("d1g3", "submit", sweep_id="d1g3-1")
        buf.record("d1g3.p0.t0", "execute")
        buf.record("other", "submit", sweep_id="other-1")
        events = buf.sweep_events("d1g3-1")
        assert [e["span"] for e in events] == ["submit", "execute"]

    def test_sort_spans_lifecycle_order(self):
        events = [
            {"span": "watch"},
            {"span": "execute", "n": 1},
            {"span": "submit"},
            {"span": "execute", "n": 2},
            {"span": "mystery"},
        ]
        ordered = obs.sort_spans(events)
        assert [e["span"] for e in ordered] == [
            "submit", "execute", "execute", "watch", "mystery",
        ]
        # stable within a kind
        assert [e.get("n") for e in ordered if e["span"] == "execute"] == [1, 2]

    def test_buffer_is_bounded(self):
        buf = obs.SpanBuffer(maxlen=4)
        for i in range(10):
            buf.record("t", "execute", n=i)
        events = buf.events("t")
        assert len(events) == 4 and events[0]["n"] == 6

    def test_failing_sink_never_raises_into_the_recorder(self):
        buf = obs.SpanBuffer()

        def bad_sink(event):
            raise RuntimeError("sink down")

        buf.add_sink(bad_sink)
        event = buf.record("t", "submit")  # must not raise
        assert event["span"] == "submit"

    def test_spans_from_journal_rows_stitches_tasks(self):
        rows = [
            {"kind": "header"},
            {
                "kind": "task", "point": 0, "trials": [0, 1],
                "trace": "ab12.p0.t0_1", "duration": 0.25,
                "cache_hits": 2, "cache_misses": 1,
            },
            {"kind": "task", "point": 1, "trials": [0]},  # pre-1.7 row
        ]
        spans = obs.spans_from_journal_rows(rows, trace="ab12")
        assert [s["span"] for s in spans] == [
            "execute", "journal_row", "execute", "journal_row",
        ]
        assert spans[0]["task"] == "ab12.p0.t0_1"
        assert spans[0]["dur"] == 0.25 and spans[0]["cache_hits"] == 2
        assert spans[1]["row"] == 1  # original journal line index
        # the trace-less row synthesized its id from the coordinate
        assert spans[2]["task"] == "ab12.p1.t0"


# ----------------------------------------------------------------------
# The exposition plane: wire verbs, HTTP endpoint, CLI
# ----------------------------------------------------------------------
def _serve(tmp_path, **kwargs):
    return SweepServer(tmp_path / "store", port=0, workers=2, **kwargs)


class TestExposition:
    def test_metrics_and_trace_wire_verbs(self, tmp_path):
        spec = small_spec()

        async def body():
            server = await _serve(tmp_path, metrics_port=0).start()
            try:
                async with SweepClient(port=server.port) as client:
                    sweep_id = await client.submit(spec)
                    rows = [e async for e in client.watch(sweep_id)]
                    as_json = await client.metrics(format="json")
                    as_prom = await client.metrics(format="prometheus")
                    spans = await client.trace(sweep_id)
                    with pytest.raises(ServiceError, match="format"):
                        await client.request(op="metrics", format="xml")
                return sweep_id, rows, as_json, as_prom, spans
            finally:
                await server.close()

        sweep_id, rows, as_json, as_prom, spans = asyncio.run(body())
        assert as_json["enabled"] is True
        metrics = as_json["metrics"]
        appends = metrics["repro_journal_appends_total"]["series"][0]["value"]
        assert appends == len(rows) == spec.num_tasks
        assert metrics["repro_sweeps_submitted_total"]["series"][0]["value"] == 1
        assert "repro_journal_appends_total" in as_prom["prometheus"]
        # the span chain covers the full lifecycle, in order
        kinds = [s["span"] for s in spans]
        assert kinds[0] == "submit" and kinds[1] == "plan"
        assert kinds.count("execute") == spec.num_tasks
        assert kinds.count("journal_row") == spec.num_tasks
        assert kinds.count("watch") == spec.num_tasks
        submit = spans[0]
        assert submit["sweep_id"] == sweep_id
        assert submit["trace"] == journal_spec_digest(spec)

    def test_metrics_verb_reports_disabled_plainly(self, tmp_path):
        async def body():
            server = await _serve(tmp_path).start()  # no --metrics-port
            try:
                async with SweepClient(port=server.port) as client:
                    as_json = await client.metrics(format="json")
                    spans = await client.request(op="trace", sweep_id="x-1")
                return as_json, spans
            finally:
                await server.close()

        as_json, trace_resp = asyncio.run(body())
        assert as_json["enabled"] is False and as_json["metrics"] == {}
        assert trace_resp["enabled"] is False and trace_resp["spans"] == []

    def test_http_scrape_endpoint(self, tmp_path):
        spec = small_spec()

        async def body():
            server = await _serve(tmp_path, metrics_port=0).start()
            try:
                assert server.metrics_port not in (None, 0)  # bound port
                async with SweepClient(port=server.port) as client:
                    sweep_id = await client.submit(spec)
                    [e async for e in client.watch(sweep_id)]
                base = f"http://127.0.0.1:{server.metrics_port}"

                def fetch(path):
                    with urllib.request.urlopen(base + path, timeout=10) as r:
                        return r.headers.get("Content-Type", ""), r.read()

                prom = await asyncio.to_thread(fetch, "/metrics")
                js = await asyncio.to_thread(fetch, "/metrics/json")
                return prom, js
            finally:
                await server.close()

        (prom_type, prom_body), (json_type, json_body) = asyncio.run(body())
        assert prom_type.startswith("text/plain") and "0.0.4" in prom_type
        text = prom_body.decode("utf-8")
        assert "# TYPE repro_journal_appends_total counter" in text
        assert json_type.startswith("application/json")
        payload = json.loads(json_body.decode("utf-8"))
        series = payload["repro_journal_appends_total"]["series"]
        assert series[0]["value"] == spec.num_tasks

    def test_jsonl_sink_captures_span_stream(self, tmp_path):
        spec = small_spec(trials=1)

        async def body():
            server = await _serve(tmp_path, obs_sink=True).start()
            try:
                async with SweepClient(port=server.port) as client:
                    sweep_id = await client.submit(spec)
                    [e async for e in client.watch(sweep_id)]
                return sweep_id
            finally:
                await server.close()

        asyncio.run(body())
        store = ArtifactStore(tmp_path / "store")
        sink = obs.JsonlEventSink(store.backend)
        events = sink.read_events()
        assert {e["span"] for e in events} >= {"submit", "plan", "execute"}

    def test_cli_metrics_and_trace_live(self, tmp_path, capsys):
        from repro.cli import main

        spec = small_spec(trials=1)

        async def body():
            server = await _serve(tmp_path, metrics_port=0).start()
            try:
                async with SweepClient(port=server.port) as client:
                    sweep_id = await client.submit(spec)
                    [e async for e in client.watch(sweep_id)]
                port = str(server.port)
                rc_m = await asyncio.to_thread(
                    main, ["metrics", "--port", port]
                )
                rc_j = await asyncio.to_thread(
                    main, ["metrics", "--port", port, "--format", "json"]
                )
                rc_t = await asyncio.to_thread(
                    main, ["trace", sweep_id, "--port", port]
                )
                return rc_m, rc_j, rc_t, sweep_id
            finally:
                await server.close()

        rc_m, rc_j, rc_t, sweep_id = asyncio.run(body())
        out = capsys.readouterr().out
        assert rc_m == rc_j == rc_t == 0
        assert "# TYPE repro_journal_appends_total counter" in out
        assert '"repro_journal_appends_total"' in out
        assert f"trace {sweep_id}" in out and "journal_row" in out

    def test_cli_trace_stitches_offline_from_store(self, tmp_path, capsys):
        # no server, telemetry never enabled: the journal alone carries
        # enough to reconstruct the task spans
        from repro.cli import main
        from repro.pipeline import run_sweep

        spec = small_spec()
        run_sweep(spec, store=ArtifactStore(tmp_path / "store"))
        digest = journal_spec_digest(spec)
        rc = main(
            ["trace", f"{digest}-1", "--store", str(tmp_path / "store")]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("execute") == spec.num_tasks
        assert out.count("journal_row") == spec.num_tasks
        assert f"{digest}.p0.t0" in out

    def test_cli_trace_missing_journal_is_a_clean_error(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as err:
            main(["trace", "feedface00000000-1", "--store", str(tmp_path)])
        assert err.value.code == 2
        assert "no journal" in capsys.readouterr().err

    def test_cli_metrics_against_disabled_server(self, tmp_path, capsys):
        from repro.cli import main

        async def body():
            server = await _serve(tmp_path).start()
            try:
                return await asyncio.to_thread(
                    main, ["metrics", "--port", str(server.port)]
                )
            finally:
                await server.close()

        rc = asyncio.run(body())
        assert rc == 0
        assert "telemetry disabled" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Hot-path counters observed through real runs
# ----------------------------------------------------------------------
class TestHotPathCounters:
    def test_backend_ops_and_fsyncs_counted(self):
        reset_memory_spaces("obs-ops")
        telemetry = obs.enable(obs.Telemetry())
        try:
            backend = MemoryBackend("obs-ops")
            backend.put_atomic("objects/aa/x.json", b"x")
            backend.get("objects/aa/x.json")
            backend.get("objects/aa/x.json")
            snap = telemetry.snapshot()
        finally:
            obs.disable()
            reset_memory_spaces("obs-ops")
        ops = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in snap["repro_backend_ops_total"]["series"]
        }
        key_get = (("backend", "mem"), ("op", "get"))
        key_put = (("backend", "mem"), ("op", "put_atomic"))
        assert ops[key_get] == 2 and ops[key_put] == 1
        lat = snap["repro_backend_op_seconds"]["series"]
        assert sum(s["count"] for s in lat) == 3

    def test_calcache_counters_match_warm_sweep_accounting(self):
        # a warm rerun hits twice per (trial, method): once restoring from
        # the store tier (first circuit), once from memory (second
        # circuit) — the counters must see every hit, whichever tier
        reset_memory_spaces("obs-warm")
        spec = small_spec(
            circuits=(CircuitSpec(root=0), CircuitSpec(root=1)),
            methods=("Bare", "Linear", "CMC"),
        )
        store = ArtifactStore("mem://obs-warm")
        try:
            run_sweep(spec, store=store)  # cold: fills the store tier
            telemetry = obs.enable(obs.Telemetry())
            warm = run_sweep(spec, store=store)
            snap = telemetry.snapshot()
        finally:
            obs.disable()
            reset_memory_spaces("obs-warm")
        assert warm.cache_misses == 0 and warm.cache_hits == 8
        lookups = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in snap["repro_calcache_lookups_total"]["series"]
        }
        assert lookups == {
            (("result", "hit"), ("tier", "calibration")): warm.cache_hits
        }
        saved = snap["repro_cache_saved_shots_total"]["series"][0]["value"]
        assert saved == warm.saved_shots
        restores = snap["repro_calcache_store_restores_total"]["series"]
        assert restores[0]["value"] == 4  # (Linear, CMC) x 2 trials

    def test_admission_refusals_counted_by_kind(self, tmp_path):
        spec = small_spec()

        async def body():
            server = await _serve(
                tmp_path, metrics_port=0, max_pending_tasks=0
            ).start()
            try:
                async with SweepClient(port=server.port) as client:
                    first = await client.submit(spec)
                    with pytest.raises(ServiceError):
                        await client.submit(small_spec(seed=99))
                    [e async for e in client.watch(first)]
                    snap = await client.metrics(format="json")
                return snap
            finally:
                await server.close()

        snap = asyncio.run(body())
        series = snap["metrics"]["repro_admission_refusals_total"]["series"]
        assert {s["labels"]["kind"] for s in series} == {"saturated"}
        assert sum(s["value"] for s in series) == 1

    def test_journal_appends_equal_watch_rows(self, tmp_path):
        # the consistency invariant the CI smoke asserts in miniature
        spec = small_spec()

        async def body():
            server = await _serve(tmp_path, metrics_port=0).start()
            try:
                async with SweepClient(port=server.port) as client:
                    a = await client.submit(spec)
                    b = await client.submit(small_spec(seed=23))
                    rows_a = [e async for e in client.watch(a)]
                    rows_b = [e async for e in client.watch(b)]
                    snap = await client.metrics(format="json")
                return len(rows_a) + len(rows_b), snap
            finally:
                await server.close()

        total_rows, snap = asyncio.run(body())
        appends = snap["metrics"]["repro_journal_appends_total"]["series"]
        assert sum(s["value"] for s in appends) == total_rows
