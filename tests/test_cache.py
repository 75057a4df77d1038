"""Cache, MSHR, and DRAM model tests."""

import pytest

from repro.arch.config import CacheConfig
from repro.sim import Cache, DRAMModel


def flat_next_level(latency=500):
    def next_level(line, now):
        return now + latency

    return next_level


def small_cache(sets=4, ways=2, mshrs=4, hit_latency=10, next_latency=500):
    config = CacheConfig(
        size_bytes=sets * ways * 128, associativity=ways, line_bytes=128,
        mshr_entries=mshrs,
    )
    return Cache(config, hit_latency, next_mem=flat_next_level(next_latency))


class TestHitMiss:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        assert cache.probe(0, now=0) == 500
        assert cache.stats.misses == 1
        # Before the fill returns, a re-access merges with the MSHR.
        assert cache.probe(0, now=100) == 500
        assert cache.stats.mshr_merges == 1
        assert cache.stats.hits == 0
        # After the fill, it hits.
        assert cache.probe(0, now=600) == 610
        assert cache.stats.hits == 1

    def test_lru_eviction(self):
        cache = small_cache(sets=1, ways=2)
        line = 128
        for addr in (0 * line, 1 * line):
            cache.probe(addr, 0)
        # Fill both, then touch line0 to make line1 the LRU victim.
        cache.probe(0, 1000)
        cache.probe(2 * line, 1001)  # evicts line1
        hits = cache.stats.hits
        cache.probe(0, 2000)
        assert cache.stats.hits == hits + 1
        cache.probe(1 * line, 2500)
        assert cache.stats.hits == hits + 1

    def test_hit_rate_stat(self):
        cache = small_cache()
        cache.probe(0, 0)
        cache.probe(0, 1000)
        cache.probe(0, 1001)
        assert cache.stats.accesses == 3
        assert cache.stats.hits == 2
        assert cache.stats.hit_rate == pytest.approx(2 / 3)


class TestMSHR:
    def test_full_returns_none_with_retry_time(self):
        cache = small_cache(mshrs=2)
        cache.probe(0, 0)
        cache.probe(128 * 4, 1)
        assert cache.probe(128 * 8, 2) is None
        assert cache.retry_at == 500
        assert cache.stats.mshr_full_events == 1

    def test_retry_after_fill_succeeds(self):
        cache = small_cache(mshrs=1)
        cache.probe(0, 0)
        assert cache.probe(128, 1) is None
        hits = cache.stats.hits
        assert cache.probe(128, 501) == 501 + 500
        assert cache.stats.hits == hits

    def test_capacity_never_exceeded(self):
        cache = small_cache(mshrs=3)
        accepted = sum(
            cache.probe(i * 128 * 4, i) is not None for i in range(10)
        )
        assert accepted == 3

    def test_lower_level_exhaustion_propagates(self):
        """An L1 miss the L2 cannot take (its MSHRs are full) stalls
        with the L2's free-up time and takes no L1 MSHR entry."""
        l2 = small_cache(mshrs=1)
        config = CacheConfig(size_bytes=4 * 2 * 128, associativity=2,
                             line_bytes=128, mshr_entries=4)
        l1 = Cache(config, hit_latency=1, next_cache=l2)
        assert l1.probe(0, 0) == 500
        assert l1.probe(128, 1) is None
        assert l1.retry_at == 500
        assert l1.stats.misses == 2
        assert 128 not in l1.mshr


class TestWriteEvict:
    def test_global_store_evicts(self):
        cache = small_cache()
        cache.probe(0, 0)
        cache.probe(0, 1000)
        assert cache.stats.hits == 1
        cache.probe_no_allocate(0, 1500)
        assert cache.stats.evictions == 1
        cache.probe(0, 2000)
        assert cache.stats.hits == 1

    def test_write_allocate_for_local(self):
        cache = small_cache()
        cache.probe(0, 0, is_write=True)
        cache.probe(0, 1000)
        assert cache.stats.hits == 1
        assert cache.stats.write_accesses == 1


class TestCapacityContention:
    def test_hit_rate_collapses_past_capacity(self):
        """The Figure 5a mechanism: working set > capacity -> thrash."""

        def run(ws_lines):
            cache = small_cache(sets=8, ways=4, mshrs=32)  # 4 KB
            now = 0.0
            for sweep in range(8):
                for i in range(ws_lines):
                    cache.probe(i * 128, now)
                    now += 600  # spaced out: misses always fill in time
            return cache.stats.hit_rate

        fits = run(16)
        thrashes = run(64)
        assert fits > 0.8
        assert thrashes < 0.2
        assert fits > thrashes


class TestDRAM:
    def test_latency_plus_transfer(self):
        dram = DRAMModel(latency=400, bytes_per_cycle=8.0, line_bytes=128)
        ready = dram.access(0, now=0)
        assert ready == pytest.approx(16 + 400)

    def test_bandwidth_queueing(self):
        dram = DRAMModel(latency=400, bytes_per_cycle=8.0, line_bytes=128)
        first = dram.access(0, 0)
        second = dram.access(128, 0)  # queued behind the first transfer
        assert second == pytest.approx(first + 16)
        assert dram.transactions == 2
        assert dram.bytes_transferred == 256

    def test_idle_channel_no_queue(self):
        dram = DRAMModel(latency=400, bytes_per_cycle=8.0)
        dram.access(0, 0)
        later = dram.access(128, 10_000)
        assert later == pytest.approx(10_000 + 16 + 400)
