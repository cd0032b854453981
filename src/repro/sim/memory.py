"""The SM's view of the memory system: L1 -> L2 slice -> DRAM.

Completion times are computed eagerly at request time: the model is
deterministic, so a request's full path (hit level, bandwidth queueing,
latency) is known the moment it is issued.  That property is what lets
the SM core loop skip idle cycles safely.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fexec.barriers import INFINITY
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
        return self.access_global(now, (sector,))

    def access_global(self, now: float, sectors: tuple[int, ...]) -> float:
        """A warp-wide global access; ready when the last sector lands.

        The sectors are served in order in one loop, each by L1, else
        the L2 slice, else DRAM; the hit counters are added at the end.
        """
        cfg = self.config
        if not sectors:
            return now + cfg.l1_latency
        prof = self.profiler
        l1_access = self.l1.access
        l2_access = self.l2.access
        l2_submit = self.l2_bw.submit
        l1_hits = l2_hits = dram = 0
        ready = -INFINITY
        for sector in sectors:
            if l1_access(sector):
                l1_hits += 1
                if prof is not None:
                    prof.record_mem(now, 0)
                landed = now + cfg.l1_latency
            else:
                service = l2_submit(now)
                if l2_access(sector):
                    l2_hits += 1
                    if prof is not None:
                        prof.record_mem(service, 1)
                    landed = service + cfg.l2_latency
                else:
                    dram += 1
                    dram_done = self.dram_bw.submit(service)
                    if prof is not None:
                        prof.record_mem(dram_done, 2)
                    landed = dram_done + cfg.dram_latency
            if landed > ready:
                ready = landed
        stats = self.stats
        stats.total_sectors += len(sectors)
        stats.l1_hits += l1_hits
        stats.l2_hits += l2_hits
        stats.dram_accesses += dram
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
