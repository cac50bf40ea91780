"""SimCache durability: sharded layout, concurrent writers,
corrupt-pickle quarantine, and stats reporting."""

from __future__ import annotations

import multiprocessing
import os
import pickle

from repro.sim import simulate
from repro.sweep import SimJob
from repro.sweep.cache import SHARD_PREFIX, SimCache


def tiny_result():
    from repro.workflow.dag import FileSpec, Task, Workflow

    wf = Workflow("cache-probe")
    wf.add_file(FileSpec("in", 1e6))
    wf.add_file(FileSpec("out", 1e6))
    wf.add_task(Task("t0", 1.0, inputs=("in",), outputs=("out",)))
    return simulate(wf, 1, "regular")


def job_fingerprint() -> str:
    from repro.montage.generator import montage_workflow

    return SimJob(montage_workflow(0.4), 2).fingerprint()


def _racing_writer(args) -> bool:
    directory, key, payload_path = args
    with open(payload_path, "rb") as fh:
        result = pickle.load(fh)
    cache = SimCache(directory)
    for _ in range(25):
        cache.put(key, result)
    return cache.get(key) is not None


class TestShardedLayout:
    def test_entries_live_in_prefix_shards(self, tmp_path):
        cache = SimCache(tmp_path)
        key = job_fingerprint()
        cache.put(key, tiny_result())
        expected = tmp_path / key[:SHARD_PREFIX] / f"{key}.pkl"
        assert expected.is_file()
        assert not (tmp_path / f"{key}.pkl").exists()


class TestConcurrentWriters:
    def test_racing_puts_on_same_key(self, tmp_path):
        # Many processes hammering put() on one key must never leave a
        # torn file: every reader afterwards sees a complete pickle.
        key = "ee" * 32
        payload = tmp_path / "payload.pkl"
        with open(payload, "wb") as fh:
            pickle.dump(tiny_result(), fh)
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(4) as pool:
            outcomes = pool.map(
                _racing_writer, [(str(tmp_path), key, str(payload))] * 4
            )
        assert all(outcomes)
        fresh = SimCache(tmp_path)
        assert fresh.get(key) is not None
        # No leftover temp files from the atomic-publish dance.
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_concurrent_blob_writers(self, tmp_path):
        a, b = SimCache(tmp_path), SimCache(tmp_path)
        a.put_blob("ff" * 32, {"shard": 1})
        b.put_blob("ff" * 32, {"shard": 2})
        assert SimCache(tmp_path).get_blob("ff" * 32)["shard"] in (1, 2)


class TestCorruptEntries:
    def test_truncated_pickle_is_miss_and_quarantined(self, tmp_path):
        cache = SimCache(tmp_path)
        key = "aa" * 32
        cache.put(key, tiny_result())
        path = tmp_path / key[:SHARD_PREFIX] / f"{key}.pkl"
        path.write_bytes(path.read_bytes()[:10])

        fresh = SimCache(tmp_path)
        assert fresh.get(key) is None
        assert fresh.misses == 1
        # Quarantined: the corrupt bytes moved aside, not re-read.
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()
        # ...and a rewrite repairs the entry at the original path.
        fresh.put(key, tiny_result())
        assert SimCache(tmp_path).get(key) is not None

    def test_garbage_pickle_is_miss(self, tmp_path):
        cache = SimCache(tmp_path)
        key = "bb" * 32
        (tmp_path / key[:SHARD_PREFIX]).mkdir()
        (tmp_path / key[:SHARD_PREFIX] / f"{key}.pkl").write_bytes(
            b"\x80\x05garbage"
        )
        assert cache.get(key) is None

    def test_corrupt_blob_quarantined(self, tmp_path):
        cache = SimCache(tmp_path)
        key = "cc" * 32
        cache.put_blob(key, [1, 2, 3])
        blob = tmp_path / key[:SHARD_PREFIX] / f"{key}.blob.pkl"
        blob.write_bytes(b"junk")
        assert cache.get_blob(key) is None
        assert not blob.exists()


class TestStats:
    def test_stats_snapshot(self, tmp_path):
        cache = SimCache(tmp_path)
        r = tiny_result()
        cache.put("aa" * 32, r)
        cache.put("ab" * 32, r)
        cache.get("aa" * 32)
        cache.get("zz" * 32)
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "memory_entries": 2,
            "disk_entries": 2,
            "hit_rate": 0.5,
        }
        # A fresh cache loads a disk hit into memory.
        fresh = SimCache(tmp_path)
        assert fresh.get("ab" * 32) is not None
        assert fresh.stats()["memory_entries"] == 1

    def test_clear_resets_counters_keeps_disk(self, tmp_path):
        cache = SimCache(tmp_path)
        cache.put("aa" * 32, tiny_result())
        cache.get("aa" * 32)
        cache.clear()
        assert cache.stats()["hits"] == 0
        assert cache.stats()["disk_entries"] == 1
        assert cache.get("aa" * 32) is not None  # from disk

    def test_sweep_verbose_prints_stats(self, capsys):
        from repro.cli import main

        assert (
            main(["sweep", "--degree", "0.4", "--processors", "1,2",
                  "--verbose"])
            == 0
        )
        assert "cache:" in capsys.readouterr().out


def test_os_replace_is_atomic_publish(tmp_path):
    # Guard the mechanism the concurrency story rests on: os.replace
    # within a directory never exposes a missing or partial target.
    target = tmp_path / "x.pkl"
    for i in range(5):
        tmp = tmp_path / f"t{i}"
        tmp.write_bytes(pickle.dumps(i, protocol=pickle.HIGHEST_PROTOCOL))
        os.replace(tmp, target)
        assert pickle.loads(target.read_bytes()) == i
