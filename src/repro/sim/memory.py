"""The SM's view of the memory system: L1 -> L2 slice -> DRAM.

Completion times are computed eagerly at request time: the model is
deterministic, so a request's full path (hit level, bandwidth queueing,
latency) is known the moment it is issued.  That property is what lets
the SM core loop skip idle cycles safely.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.caches import BandwidthServer, SectorCache
from repro.sim.config import GPUConfig


@dataclass
class MemoryStats:
    """Counters for reporting (Figures 19 and 21)."""

    l1_hits: int = 0
    l2_hits: int = 0
    dram_accesses: int = 0
    total_sectors: int = 0
    smem_words: int = 0


class MemorySystem:
    """Global-memory hierarchy plus the SMEM bandwidth server."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.l1 = SectorCache(config.l1_sectors, config.l1_assoc)
        self.l2 = SectorCache(config.l2_sectors, config.l2_assoc)
        self.l2_bw = BandwidthServer(config.l2_sectors_per_cycle, "l2")
        self.dram_bw = BandwidthServer(config.dram_sectors_per_cycle, "dram")
        self.smem_bw = BandwidthServer(float(config.smem_words_per_cycle),
                                       "smem")
        self.stats = MemoryStats()
        # Optional profiler, attached by the SM simulator.  Recording
        # here (rather than at the issue sites in the SM core) covers
        # every requester uniformly — warp loads/stores AND the TMA
        # engine, whose traffic never occupies an issue slot.  The
        # hit-level mix is stamped at bandwidth-service time so traces
        # show when the hierarchy actually served the data (including
        # the post-retire drain).  Note the Figure-3 utilization
        # timeline is separate: it counts warp-issued sectors at issue
        # time in the SM core, preserving the figures' semantics.
        self.profiler = None

    def access_sector(self, now: float, sector: int) -> float:
        """One 32-byte sector request; returns data-ready time."""
        cfg = self.config
        self.stats.total_sectors += 1
        prof = self.profiler
        if self.l1.access(sector):
            self.stats.l1_hits += 1
            if prof is not None:
                prof.record_mem(now, 0)
            return now + cfg.l1_latency
        service = self.l2_bw.submit(now)
        if self.l2.access(sector):
            self.stats.l2_hits += 1
            if prof is not None:
                prof.record_mem(service, 1)
            return service + cfg.l2_latency
        self.stats.dram_accesses += 1
        dram_done = self.dram_bw.submit(service)
        if prof is not None:
            prof.record_mem(dram_done, 2)
        return dram_done + cfg.dram_latency

    def access_global(self, now: float, sectors: tuple[int, ...]) -> float:
        """A warp-wide global access; ready when the last sector lands."""
        if not sectors:
            return now + self.config.l1_latency
        access = self.access_sector
        sector_times = iter(sectors)
        ready = access(now, next(sector_times))
        for sector in sector_times:
            landed = access(now, sector)
            if landed > ready:
                ready = landed
        return ready

    def access_smem(self, now: float, words: int) -> float:
        """A warp-wide shared-memory access."""
        self.stats.smem_words += words
        service = self.smem_bw.submit(now, max(1, words))
        return service + self.config.smem_latency

    def drain_time(self) -> float:
        """When all submitted memory traffic finishes service.

        Kernel completion waits for stores to drain; without this a
        pipeline that front-loads its loads would appear to beat the
        bandwidth roofline by retiring before its stores are serviced.
        """
        return max(self.l2_bw.free_at, self.dram_bw.free_at,
                   self.smem_bw.free_at)

    def l2_utilization(self, elapsed: float) -> float:
        return self.l2_bw.utilization(elapsed)

    def dram_utilization(self, elapsed: float) -> float:
        return self.dram_bw.utilization(elapsed)

    def smem_utilization(self, elapsed: float) -> float:
        return self.smem_bw.utilization(elapsed)
