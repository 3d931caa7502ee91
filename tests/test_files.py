"""Files are published whole: :func:`repro.codec.publish` and its readers.

Every file the package writes (a checkpoint, a store, a training shard and
its manifest, a Prometheus exposition) goes through ``publish``: a sibling
temporary file, then one ``os.replace``.  A fault or a kill at any step
leaves the old file whole, or no file at all — never a mix — and a reader
that mapped the old file keeps reading it, even when the new one is
smaller.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro.codec as codec
from repro.codec import ProtocolError, Record, encode, publish, read_record
from repro.obs import MetricsRegistry

SRC = Path(__file__).resolve().parents[1] / "src"


def record(rows: int) -> Record:
    """A store-shaped record of ``rows`` rows: several buffers, so a
    publish takes several writes."""
    return Record("store", {
        "meta": {"format_version": 5, "dim": 4, "rows": rows},
        "embeddings": np.arange(rows * 4, dtype=np.float64).reshape(rows, 4),
        "versions": np.zeros(rows, np.int64),
        "reads": np.arange(rows * 3, dtype=np.int32).reshape(rows, 3),
    })


class Fault(Exception):
    pass


def boom(*args) -> None:
    raise Fault()


def faulty_open(fail_at: int, fault):
    """``open`` whose files call ``fault()`` in place of write number
    ``fail_at`` (counted from 0 across the files it opens)."""
    real_open, writes = open, [0]

    class Writer:
        def __init__(self, handle):
            self.handle = handle

        def write(self, data):
            if writes[0] == fail_at:
                fault()
            writes[0] += 1
            return self.handle.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return self.handle.__exit__(*exc_info)

    return lambda *args, **kwargs: Writer(real_open(*args, **kwargs))


def steps_of(message) -> int:
    """Where a publish of ``message`` can fail: before each of its writes
    (``0 .. parts - 1``) and at the rename (``parts``)."""
    return len(codec.encode_parts(message)[0]) + 1


class TestPublish:
    def test_a_publish_replaces_the_file_whole(self, tmp_path):
        path = tmp_path / "file"
        publish(path, record(3))
        publish(path, record(5))
        assert read_record(path, "store")["meta"]["rows"] == 5
        assert [entry.name for entry in tmp_path.iterdir()] == ["file"]

    @pytest.mark.parametrize("had_file", [True, False])
    def test_a_fault_after_any_write_step_leaves_the_old_file_or_none(
        self, tmp_path, monkeypatch, had_file
    ):
        """A fault after any step — creating the staging file, each write
        — or at the rename leaves the old bytes (or no file) and no
        staging file behind."""
        path = tmp_path / "file"
        old = bytes(encode(record(3)))
        for fail_at in range(steps_of(record(7))):
            if had_file:
                path.write_bytes(old)
            monkeypatch.setattr(codec, "open", faulty_open(fail_at, boom), raising=False)
            monkeypatch.setattr(codec.os, "replace", boom)
            with pytest.raises(Fault):
                publish(path, record(7))
            monkeypatch.undo()
            if had_file:
                assert path.read_bytes() == old, fail_at
            assert [entry.name for entry in tmp_path.iterdir()] == (
                ["file"] if had_file else []
            ), fail_at

    def test_a_kill_after_any_write_step_leaves_the_old_file(self, tmp_path):
        """SIGKILL mid-publish runs no cleanup: the staging file may stay
        behind, but the path holds the old file whole."""
        path = tmp_path / "file"
        old = bytes(encode(record(3)))
        for fail_at in range(steps_of(record(7))):
            path.write_bytes(old)
            script = textwrap.dedent(f"""
                import os, signal, sys
                sys.path.insert(0, {str(Path(__file__).parent)!r})
                import repro.codec as codec
                from test_files import faulty_open, record

                def kill(*args):
                    os.kill(os.getpid(), signal.SIGKILL)

                codec.open = faulty_open({fail_at}, kill)
                codec.os.replace = kill
                codec.publish({str(path)!r}, record(7))
            """)
            done = subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": str(SRC)},
                capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == -9, done.stderr
            assert path.read_bytes() == old, fail_at

    def test_a_message_that_does_not_encode_creates_nothing(self, tmp_path):
        with pytest.raises(ProtocolError):
            publish(tmp_path / "file", Record("store", {"bad": (1, 2)}))
        assert list(tmp_path.iterdir()) == []

    def test_the_prometheus_exposition_is_published(self, tmp_path, monkeypatch):
        published = []
        monkeypatch.setattr(
            "repro.obs.metrics.publish", lambda path, data: published.append(path)
        )
        registry = MetricsRegistry()
        registry.counter("requests_total").inc()
        assert registry.write_prometheus(tmp_path / "metrics.prom") == 1
        assert published == [tmp_path / "metrics.prom"]


class TestReadRecord:
    def test_a_file_of_another_kind_is_refused(self, tmp_path):
        publish(tmp_path / "file", record(2))
        with pytest.raises(ProtocolError, match="expected a checkpoint file, got a 'store'"):
            read_record(tmp_path / "file", "checkpoint")

    def test_an_empty_or_truncated_file_is_refused(self, tmp_path):
        path = tmp_path / "file"
        frame = bytes(encode(record(2)))
        for cut in (0, 3, len(frame) // 2, len(frame) - 1):
            path.write_bytes(frame[:cut])
            with pytest.raises(ProtocolError, match="file"):
                read_record(path, "store")

    def test_arrays_are_writable_copy_on_write_views(self, tmp_path):
        path = tmp_path / "file"
        publish(path, record(2))
        before = path.read_bytes()
        payload = read_record(path, "store")
        payload["embeddings"][:] = -1.0
        assert path.read_bytes() == before

    def test_a_shrinking_rebuild_does_not_kill_a_live_reader(self, tmp_path):
        """The reader maps a store, a rebuild publishes one a quarter its
        size at the same path, then the reader touches every row it
        mapped.  Rewriting the file in place would truncate it under the
        mapping (SIGBUS on the first page past the new end)."""
        script = textwrap.dedent(f"""
            import numpy as np
            from repro.store import AggregateStore

            def build(rows):
                return AggregateStore.create(
                    {str(tmp_path / "store")!r},
                    meta={{"dim": 16}},
                    embeddings=np.arange(rows * 16, dtype=np.float64).reshape(rows, 16),
                    versions=np.zeros(rows, np.int64),
                    reads=np.zeros((rows, 3), np.int32),
                )

            rows = 20_000
            live = build(rows)
            build(rows // 4)
            got = live.blocks_for(np.arange(rows))[0]
            assert (got.ravel() == np.arange(rows * 16)).all()
        """)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, (done.returncode, done.stderr[-2000:])
