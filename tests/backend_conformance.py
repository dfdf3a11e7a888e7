"""Backend conformance suite: the contract every store transport must pass.

This file IS the :class:`~repro.store.backends.StoreBackend` contract.
Every test is parametrized over every backend — local directory,
in-memory space, object store (fake client) — plus each of them wrapped
in a :class:`~repro.store.faults.FaultyBackend` injecting latency and
seeded retryable transients, so a transport is certified **including**
its behaviour under an unreliable link.  A future backend (real S3,
redis, …) is certified by adding one fixture line here, not by
re-reviewing its callers.

The contract, by section below:

1.  **Blob semantics** — put/get bit-exactness (hypothesis), overwrite,
    delete accounting, sorted committed-only listings, stat truth.
2.  **Atomic-commit visibility** — a writer killed mid-``put_atomic``
    (fault-injected through the backend's own crash-debris model) never
    exposes a partial object: readers see the old value or absence.
3.  **Conditional ops** — ``put_if_absent`` / ``delete_if_equals``
    create/remove exactly-once under contention (the lease algebra).
4.  **Journal streams** — durable appends, offset tailing, torn-append
    withholding, truncation repair.
5.  **Concurrent-writer refusal** — two opens of one spec's journal on
    one backend: the second raises, a dead holder is reclaimed.
6.  **GC safety** — aged crash debris is collected with exact byte
    accounting; fresh debris and committed artifacts survive; dry-run
    and real run agree.
7.  **Artifact codec round-trips** — ArtifactStore payloads (arrays,
    tuple-keyed dicts, nested containers) come back bit-identical
    through every transport (hypothesis).

Run directly (`pytest tests/backend_conformance.py`) or via the CI
matrix job, which executes it once per backend family
(``REPRO_CONFORMANCE_BACKEND=dir|mem|s3``).
"""

import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.store import (
    ArtifactStore,
    FakeObjectClient,
    Fault,
    FaultyBackend,
    LocalDirBackend,
    MemoryBackend,
    NonFiniteValueError,
    ObjectStoreBackend,
    SweepJournal,
    TransientStoreError,
    deep_equal,
    reset_memory_spaces,
)
from repro.store.faults import BackendCrash

# ----------------------------------------------------------------------
# The backend matrix
# ----------------------------------------------------------------------
_FAMILIES = ("dir", "mem", "s3")
_ONLY = os.environ.get("REPRO_CONFORMANCE_BACKEND")

_names = []
for fam in _FAMILIES if _ONLY is None else (_ONLY,):
    _names.extend([fam, f"{fam}+faults"])


def _make_backend(name, tmp_path, mem_counter=[0]):
    fam, _, faulty = name.partition("+")
    if fam == "dir":
        inner = LocalDirBackend(tmp_path / "store")
    elif fam == "mem":
        mem_counter[0] += 1
        space = f"conformance-{mem_counter[0]}"
        reset_memory_spaces(space)
        inner = MemoryBackend(space)
    elif fam == "s3":
        inner = ObjectStoreBackend("bucket", "tier", client=FakeObjectClient())
    else:  # pragma: no cover - config error
        raise ValueError(f"unknown backend family {fam!r}")
    if faulty:
        # An unreliable-but-recoverable link: every op sleeps a little,
        # and the first call of each primitive raises a retryable
        # transient *before* touching the store (deterministic script, so
        # accounting assertions stay exact).  The suite drives all such
        # backends through `op()` below, which retries — certifying that
        # retried sequences leave identical state.  Seeded *random*
        # storms are soaked separately in TestTransientSoak.
        return FaultyBackend(
            inner,
            faults=tuple(
                Fault(op=name, nth=1, kind="raise")
                for name in (
                    "put_atomic", "put_if_absent", "get", "stat",
                    "list_prefix", "delete", "append_line", "read_from",
                )
            ),
            latency=0.0002,
        )
    return inner


@pytest.fixture(params=_names)
def backend(request, tmp_path):
    b = _make_backend(request.param, tmp_path)
    yield b
    if isinstance(b, FaultyBackend):
        b = b.inner
    if isinstance(b, MemoryBackend):
        reset_memory_spaces(b.name)


def op(fn, *args, **kwargs):
    """Run one backend op, retrying injected transients (bounded).

    This is the client discipline the contract asks of callers: a
    :class:`TransientStoreError` means "the store may or may not have
    seen it — retry"; every mutation in the interface is safe to retry
    (atomic full-object puts, conditional ops, idempotent deletes).
    """
    for _ in range(50):
        try:
            return fn(*args, **kwargs)
        except TransientStoreError:
            continue
    raise AssertionError("transient storm outlasted 50 retries")


# ----------------------------------------------------------------------
# 1. Blob semantics
# ----------------------------------------------------------------------
class TestBlobContract:
    def test_get_absent_is_none(self, backend):
        assert op(backend.get, "objects/ab/nope.json") is None
        assert not op(backend.exists, "objects/ab/nope.json")
        assert op(backend.stat, "objects/ab/nope.json") is None

    def test_put_get_bytes_roundtrip(self, backend):
        payload = bytes(range(256)) * 3
        op(backend.put_atomic, "objects/aa/x.json", payload)
        assert op(backend.get, "objects/aa/x.json") == payload
        assert op(backend.exists, "objects/aa/x.json")
        assert op(backend.stat, "objects/aa/x.json").size == len(payload)

    def test_overwrite_is_last_writer_wins(self, backend):
        op(backend.put_atomic, "objects/aa/x.json", b"old")
        op(backend.put_atomic, "objects/aa/x.json", b"newer")
        assert op(backend.get, "objects/aa/x.json") == b"newer"

    def test_delete_returns_bytes_freed_and_is_idempotent(self, backend):
        op(backend.put_atomic, "objects/aa/x.json", b"12345")
        assert op(backend.delete, "objects/aa/x.json") == 5
        assert op(backend.delete, "objects/aa/x.json") == 0
        assert op(backend.get, "objects/aa/x.json") is None

    def test_list_prefix_sorted_and_scoped(self, backend):
        keys = ["objects/ab/2.json", "objects/aa/1.json", "journals/j.jsonl"]
        for k in keys:
            op(backend.put_atomic, k, b"x")
        assert op(backend.list_prefix, "objects/") == [
            "objects/aa/1.json", "objects/ab/2.json"
        ]
        assert op(backend.list_prefix, "journals/") == ["journals/j.jsonl"]

    def test_list_prefix_is_a_raw_string_prefix(self, backend):
        # key-granular prefixes answer identically on every backend:
        # 'objects/a' matches objects/ab/... the way object stores list
        for k in ("objects/ab/1.json", "objects/ac/2.json",
                  "objects/ba/3.json"):
            op(backend.put_atomic, k, b"x")
        assert op(backend.list_prefix, "objects/a") == [
            "objects/ab/1.json", "objects/ac/2.json"
        ]
        assert op(backend.list_prefix, "objects/ab/1.js") == [
            "objects/ab/1.json"
        ]
        assert op(backend.list_prefix, "objects/zz") == []

    def test_list_prefix_never_shows_crash_debris(self, backend):
        op(backend.put_atomic, "objects/aa/good.json", b"x")
        backend.spill_partial("objects/aa/bad.json", b"half")
        listed = op(backend.list_prefix, "objects/")
        assert listed == ["objects/aa/good.json"]
        assert backend.partial_keys("objects/") != []

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.binary(min_size=0, max_size=2048))
    def test_arbitrary_bytes_survive_bit_exact(self, backend, data):
        key = "objects/hh/blob.json"
        op(backend.put_atomic, key, data)
        assert op(backend.get, key) == data
        assert op(backend.stat, key).size == len(data)


# ----------------------------------------------------------------------
# 2. Atomic-commit visibility
# ----------------------------------------------------------------------
class TestAtomicCommit:
    def test_killed_mid_put_exposes_nothing(self, backend):
        faulty = FaultyBackend(
            backend, faults=(Fault(op="put_atomic", nth=1, kind="partial"),)
        )
        with pytest.raises(BackendCrash):
            faulty.put_atomic("objects/aa/x.json", b"A" * 1000)
        # the half-written object is invisible to every read path
        assert op(backend.get, "objects/aa/x.json") is None
        assert not op(backend.exists, "objects/aa/x.json")
        assert op(backend.list_prefix, "objects/") == []
        # ... but its debris is accounted for (gc's business, section 6)
        assert backend.partial_keys("objects/") != []

    def test_killed_mid_overwrite_keeps_old_value(self, backend):
        op(backend.put_atomic, "objects/aa/x.json", b"committed-v1")
        faulty = FaultyBackend(
            backend, faults=(Fault(op="put_atomic", nth=1, kind="partial"),)
        )
        with pytest.raises(BackendCrash):
            faulty.put_atomic("objects/aa/x.json", b"torn-v2" * 100)
        assert op(backend.get, "objects/aa/x.json") == b"committed-v1"

    def test_retry_after_lost_ack_converges(self, backend):
        # ack lost *after* the write: the retry re-puts identical bytes —
        # the exact discipline content-addressed artifacts rely on
        faulty = FaultyBackend(
            backend, faults=(Fault(op="put_atomic", nth=1, kind="after"),)
        )
        with pytest.raises(TransientStoreError):
            faulty.put_atomic("objects/aa/x.json", b"payload")
        faulty.put_atomic("objects/aa/x.json", b"payload")  # retry
        assert op(backend.get, "objects/aa/x.json") == b"payload"


# ----------------------------------------------------------------------
# 3. Conditional ops (the lease algebra)
# ----------------------------------------------------------------------
class TestConditionalOps:
    def test_put_if_absent_first_wins(self, backend):
        assert op(backend.put_if_absent, "journals/a.lock", b"111") is True
        assert op(backend.put_if_absent, "journals/a.lock", b"222") is False
        assert op(backend.get, "journals/a.lock") == b"111"

    def test_put_if_absent_after_delete_succeeds(self, backend):
        op(backend.put_if_absent, "journals/a.lock", b"111")
        op(backend.delete, "journals/a.lock")
        assert op(backend.put_if_absent, "journals/a.lock", b"222") is True
        assert op(backend.get, "journals/a.lock") == b"222"

    def test_delete_if_equals_only_removes_expected_content(self, backend):
        op(backend.put_if_absent, "journals/a.lock", b"stale-pid")
        assert op(backend.delete_if_equals, "journals/a.lock", b"other") is False
        assert op(backend.get, "journals/a.lock") == b"stale-pid"
        assert op(backend.delete_if_equals, "journals/a.lock", b"stale-pid") is True
        assert op(backend.get, "journals/a.lock") is None
        # absent key: nothing to remove
        assert op(backend.delete_if_equals, "journals/a.lock", b"x") is False

    def test_delete_if_equals_exactly_once_under_contention(self, backend):
        # N racers steal one stale lease: exactly one wins, and the
        # object is never transiently absent-then-restored (a racing
        # put_if_absent during a steal must not mint a second lease)
        import threading

        op(backend.put_if_absent, "journals/a.lock", b"stale")
        wins = []
        barrier = threading.Barrier(6)

        def race():
            barrier.wait()
            if op(backend.delete_if_equals, "journals/a.lock", b"stale"):
                wins.append(1)

        threads = [threading.Thread(target=race) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert op(backend.get, "journals/a.lock") is None

    def test_release_is_conditional_on_own_lease(self, backend):
        # releasing a lease another holder now owns must not evict them
        op(backend.put_if_absent, "journals/a.lock", b"theirs")
        assert op(backend.delete_if_equals, "journals/a.lock", b"mine") is False
        assert op(backend.get, "journals/a.lock") == b"theirs"

    def test_steal_then_reacquire_sequence(self, backend):
        # the journal's stale-lease reclaim, spelled in primitives
        op(backend.put_if_absent, "journals/a.lock", b"99999999")  # dead pid
        current = op(backend.get, "journals/a.lock")
        assert op(backend.delete_if_equals, "journals/a.lock", current)
        assert op(backend.put_if_absent, "journals/a.lock", b"live") is True


# ----------------------------------------------------------------------
# 4. Journal streams
# ----------------------------------------------------------------------
class TestJournalStreams:
    def test_append_and_read_from_offsets(self, backend):
        key = "journals/x.jsonl"
        assert op(backend.read_from, key, 0) is None
        op(backend.append_line, key, b"one\n")
        op(backend.append_line, key, b"two\n")
        data, size = op(backend.read_from, key, 0)
        assert data == b"one\ntwo\n" and size == 8
        tail, size2 = op(backend.read_from, key, 4)
        assert tail == b"two\n" and size2 == 8
        past, size3 = op(backend.read_from, key, 99)
        assert past == b"" and size3 == 8  # caller detects truncation

    def test_read_from_limit_caps_bytes_not_size(self, backend):
        key = "journals/x.jsonl"
        op(backend.append_line, key, b"0123456789\n")
        data, size = op(backend.read_from, key, 0, 4)
        assert data == b"0123" and size == 11
        data, size = op(backend.read_from, key, 6, 100)
        assert data == b"6789\n" and size == 11

    def test_truncate_repairs_torn_tail(self, backend):
        key = "journals/x.jsonl"
        op(backend.append_line, key, b'{"ok": 1}\n')
        op(backend.append_line, key, b'{"torn')  # fragment, no newline
        data, size = op(backend.read_from, key, 0)
        op(backend.truncate, key, size - len(b'{"torn'))
        data, _ = op(backend.read_from, key, 0)
        assert data == b'{"ok": 1}\n'
        op(backend.truncate, key, 10 ** 6)  # longer than the stream: no-op
        assert op(backend.read_from, key, 0)[0] == b'{"ok": 1}\n'

    def test_put_atomic_resets_stream(self, backend):
        # the fresh-run header rewrite: whole-object replace shrinks the
        # stream; a follower's next read sees size < offset and resets
        key = "journals/x.jsonl"
        op(backend.append_line, key, b"a" * 100 + b"\n")
        op(backend.put_atomic, key, b"header\n")
        data, size = op(backend.read_from, key, 0)
        assert data == b"header\n" and size == 7

    def test_torn_append_is_withheld_from_line_readers(self, backend):
        # what follow() relies on: only newline-terminated bytes parse.
        # The crash injector wraps the *base* transport — stacking it on
        # an already-scripted wrapper would entangle the two op counters.
        base = backend.inner if isinstance(backend, FaultyBackend) else backend
        key = "journals/x.jsonl"
        faulty = FaultyBackend(
            base,
            faults=(Fault(op="append_line", nth=2, kind="partial"),),
        )
        faulty.append_line(key, b'{"n": 1}\n')
        with pytest.raises(BackendCrash):
            faulty.append_line(key, b'{"n": 2}\n')
        data, _ = op(backend.read_from, key, 0)
        complete = data[: data.rfind(b"\n") + 1]
        assert [json.loads(l) for l in complete.splitlines()] == [{"n": 1}]


# ----------------------------------------------------------------------
# 5. Concurrent-writer refusal (journal lease on every backend)
# ----------------------------------------------------------------------
def _tiny_spec(seed=3):
    from repro.pipeline import BackendSpec, CircuitSpec, SweepSpec

    return SweepSpec(
        backends=(BackendSpec(kind="device", name="quito", gate_noise=False),),
        circuits=(CircuitSpec(),),
        shots=(200,),
        methods=("Bare",),
        trials=1,
        seed=seed,
        full_max_qubits=5,
    )


class TestConcurrentWriterRefusal:
    def test_second_open_refused_dead_holder_reclaimed(self, backend):
        if isinstance(backend, FaultyBackend):
            pytest.skip("lease protocol is exercised on the reliable variants")
        store = ArtifactStore(backend)
        spec = _tiny_spec()
        held = SweepJournal.open(store, spec)
        try:
            with pytest.raises(ValueError, match="in use"):
                SweepJournal.open(store, spec)
            with pytest.raises(ValueError, match="in use"):
                SweepJournal.open(store, spec, resume=True)
        finally:
            held.close()
        # released: reopens fine
        SweepJournal.open(store, spec).close()
        # a dead holder's lease is reclaimed, not fatal
        from repro.store.journal import journal_key

        lock = journal_key(spec)[: -len(".jsonl")] + ".lock"
        backend.put_if_absent(lock, b"999999999")
        journal = SweepJournal.open(store, spec)
        journal.close()
        assert backend.get(lock) is None

    def test_live_foreign_pid_refused(self, backend):
        if isinstance(backend, FaultyBackend):
            pytest.skip("lease protocol is exercised on the reliable variants")
        store = ArtifactStore(backend)
        spec = _tiny_spec()
        from repro.store.journal import journal_key

        lock = journal_key(spec)[: -len(".jsonl")] + ".lock"
        backend.put_if_absent(lock, b"1")  # pid 1: alive, not us
        with pytest.raises(ValueError, match="in use"):
            SweepJournal.open(store, spec)


# ----------------------------------------------------------------------
# 6. GC safety
# ----------------------------------------------------------------------
def _age_partials(store):
    """Make every piece of crash debris older than the gc grace period."""
    backend = store.backend
    inner = backend.inner if isinstance(backend, FaultyBackend) else backend
    old = __import__("time").time() - 2 * store.TMP_GRACE_SECONDS
    for key in inner.partial_keys(""):
        if isinstance(inner, LocalDirBackend):
            path = inner._path(key)
            os.utime(path, (old, old))
        elif isinstance(inner, MemoryBackend):
            with inner._space.lock:
                data, _ = inner._space.objects[key]
                inner._space.objects[key] = (data, old)
        else:  # fake object client
            with inner.client._lock:
                bucket = inner.client._bucket(inner.bucket)
                full = inner._k(key)
                data, _ = bucket[full]
                bucket[full] = (data, old)


class TestGcSafety:
    def test_gc_collects_aged_debris_exact_bytes(self, backend):
        store = ArtifactStore(backend)
        op(store.put, {"kind": "keep"}, {"v": (1, 2, 3)})
        backend.spill_partial("objects/zz/dead.json", b"x" * 64)
        _age_partials(store)
        report = op(store.gc, dry_run=True)
        assert report["removed"] == 1 and report["freed_bytes"] == 64
        # dry run touched nothing
        assert len(op(lambda: list(store.entries()))) == 1
        assert op(store.gc) == report  # the real run keeps the promise
        assert backend.partial_keys("objects/") == []
        # committed data untouched
        assert len(op(lambda: list(store.entries()))) == 1

    def test_gc_spares_fresh_debris(self, backend):
        store = ArtifactStore(backend)
        backend.spill_partial("objects/zz/live.json", b"x" * 10)
        assert op(store.gc) == {"removed": 0, "freed_bytes": 0}
        assert backend.partial_keys("objects/") != []

    def test_gc_collects_journal_lease_debris_too(self, backend):
        # a writer killed inside a conditional put on the lease leaves
        # litter under journals/, not objects/ — gc must account for it
        store = ArtifactStore(backend)
        backend.spill_partial("journals/ab.lock", b"x" * 21)
        _age_partials(store)
        report = op(store.gc, dry_run=True)
        assert report == {"removed": 1, "freed_bytes": 21}
        assert op(store.gc) == report
        assert backend.partial_keys("") == []


# ----------------------------------------------------------------------
# 6b. Seeded transient soak: a retried op sequence converges exactly
# ----------------------------------------------------------------------
class TestTransientSoak:
    @pytest.mark.parametrize("family", _FAMILIES if _ONLY is None else [_ONLY])
    @pytest.mark.parametrize("storm_seed", [7, 1234])
    def test_retried_random_storm_matches_reference(
        self, family, storm_seed, tmp_path
    ):
        """Under a seeded ~25% pre-op transient rate, a caller that
        retries each primitive lands on exactly the state an un-faulted
        run produces — every mutation in the contract is retry-safe."""
        import random

        backend = FaultyBackend(
            _make_backend(family, tmp_path),
            transient_rate=0.25,
            seed=storm_seed,
        )
        reference = {}
        rng = random.Random(99)
        for i in range(120):
            key = f"objects/{rng.randrange(4):02d}/k{rng.randrange(8)}.json"
            roll = rng.random()
            data = f"payload-{i}".encode()
            if roll < 0.55:
                op(backend.put_atomic, key, data)
                reference[key] = data
            elif roll < 0.75:
                created = op(backend.put_if_absent, key, data)
                assert created == (key not in reference)
                reference.setdefault(key, data)
            else:
                freed = op(backend.delete, key)
                assert freed == len(reference.pop(key, b""))
        assert op(backend.list_prefix, "objects/") == sorted(reference)
        for key, data in reference.items():
            assert op(backend.get, key) == data
        assert backend.log  # the storm actually fired

    def teardown_method(self):
        reset_memory_spaces()


# ----------------------------------------------------------------------
# 7. Artifact codec round-trips through every transport
# ----------------------------------------------------------------------
_scalars = st.one_of(
    st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
    # Non-finite floats are refused by design (test_infinite_payload_refused).
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
    st.text(max_size=12),
    st.none(),
)
_arrays = st.one_of(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1, max_size=8,
    ).map(np.asarray),
    st.lists(st.integers(-1000, 1000), min_size=1, max_size=8).map(
        lambda xs: np.asarray(xs, dtype=np.int64)
    ),
)
_payloads = st.recursive(
    st.one_of(_scalars, _arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(min_size=1, max_size=6), children, max_size=4),
        st.dictionaries(
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
            children, max_size=3,
        ),
    ),
    max_leaves=12,
)


_unique_salt = iter(range(10 ** 9))


class TestArtifactRoundTrips:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(payload=_payloads)
    def test_payloads_bit_exact_through_store(self, backend, payload):
        # One fresh key per example: an artifact's payload is a pure
        # function of its key (the store's documented precondition — a
        # packed backend's conditional-put commit makes re-putting
        # *different* content under one key a first-writer-wins no-op).
        store = ArtifactStore(backend)
        key = {"kind": "conformance", "salt": next(_unique_salt)}
        op(store.put, key, payload)
        restored = op(store.get, key)
        assert deep_equal(restored, payload)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_infinite_payload_refused(self, backend, value):
        store = ArtifactStore(backend)
        key = {"kind": "conformance", "salt": next(_unique_salt)}
        with pytest.raises(NonFiniteValueError):
            op(store.put, key, {"metrics": {"error": value}})
        assert op(lambda: list(store.entries())) == []

    def test_calibration_shaped_payload(self, backend):
        store = ArtifactStore(backend)
        key = {"kind": "calibration", "version": "x", "key": (1, "CMC", 2000)}
        payload = {
            "state": {
                "matrix": np.linspace(0.0, 1.0, 16).reshape(4, 4),
                "patches": {(0, 1): np.eye(2), (2, 3): np.eye(2) * 0.5},
            },
            "shots_spent": 1234,
            "circuits_executed": 8,
        }
        op(store.put, key, payload)
        restored = op(store.get, key)
        assert deep_equal(restored, payload)
        assert restored["state"]["matrix"].dtype == np.float64
        infos = op(lambda: list(store.entries()))
        assert len(infos) == 1 and infos[0].kind == "calibration"
        assert infos[0].has_arrays
        assert op(store.delete, infos[0].digest) == infos[0].size_bytes
        assert op(lambda: list(store.entries())) == []
