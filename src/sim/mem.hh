/**
 * @file
 * Shared memory-system timing model: a set-associative L1 cache with
 * a finite number of outstanding misses (MSHRs) in front of an
 * AXI/DRAM channel with fixed latency and finite bandwidth.
 *
 * This mirrors the paper's memory system (Section III-E and VI): all
 * task units share one L1; the cache is blocking beyond its MSHR
 * count ("limited support for multiple outstanding cache misses");
 * DRAM transfers serialize on the AXI channel.
 *
 * The model is timing-only: functional data lives in the shared
 * ir::MemImage and is read/written by the TXU at issue time.
 */

#ifndef TAPAS_SIM_MEM_HH
#define TAPAS_SIM_MEM_HH

#include <cstdint>
#include <vector>

#include "arch/params.hh"
#include "obs/sink.hh"
#include "sim/fault.hh"
#include "support/logging.hh"
#include "support/stats.hh"

namespace tapas::sim {

/** Outcome of presenting one request to the cache. */
struct CacheResult
{
    /** False: no port or MSHR this cycle; retry later. */
    bool accepted = false;

    /**
     * Set on rejection when the cause was MSHR exhaustion (vs port
     * contention). An MSHR-full reject repeats identically every
     * cycle until an MSHR retires, which is what lets a tile sleep
     * through the stall span (see DataBox::stallWake).
     */
    bool mshrFull = false;

    /** Cycle at which the data is available to the requester. */
    uint64_t completesAt = 0;

    /** True if the access hit (for stats/tests). */
    bool hit = false;

    /**
     * Injected fault: the response will never arrive. The requester
     * (data box) must time the request out and reissue it.
     */
    bool dropped = false;
};

/** Shared L1 cache + DRAM channel timing model. */
class SharedCache
{
  public:
    explicit SharedCache(const arch::MemSystemParams &params);

    /** Reset per-cycle port bookkeeping; retire finished MSHRs. */
    void beginCycle(uint64_t now);

    /**
     * Present one word access.
     *
     * @param addr byte address
     * @param is_store true for stores
     * @param now current cycle
     */
    CacheResult request(uint64_t addr, bool is_store, uint64_t now);

    /** Invalidate all lines (fresh run on a reused model). */
    void reset();

    /**
     * Attach (or detach, with nullptr) a fault injector perturbing
     * accepted responses (lost/delayed data). Not owned; usually
     * driven by AcceleratorSim::setFaultInjector().
     */
    void setFaultInjector(FaultInjector *f) { injector = f; }

    /** Attached injector, or nullptr (data boxes consult this). */
    FaultInjector *faultInjector() { return injector; }

    /**
     * A data box timed out a dropped response and reissued the
     * request (recovery bookkeeping + sink notification).
     */
    void
    noteReissue(uint64_t now)
    {
        if (injector)
            ++injector->memReissues;
        if (!hasSinks)
            return;
        for (obs::TraceSink *s : sinks)
            s->faultRecovered(now, "mem_reissue", ~0u);
    }

    /**
     * Attach a trace sink to observe misses and port/MSHR stalls.
     * Usually driven by AcceleratorSim::addSink(); not owned.
     */
    void
    addSink(obs::TraceSink *sink)
    {
        sinks.push_back(sink);
        hasSinks = true;
    }

    /** Detach a previously attached sink (no-op if absent). */
    void
    removeSink(obs::TraceSink *sink)
    {
        for (size_t i = 0; i < sinks.size(); ++i) {
            if (sinks[i] == sink) {
                sinks.erase(sinks.begin() + static_cast<long>(i));
                break;
            }
        }
        hasSinks = !sinks.empty();
    }

    /**
     * Earliest cycle at which a busy MSHR retires (its fill lands
     * and beginCycle frees it), or ~0 when none are busy. Tile-sleep
     * wake bound for MSHR-full stall spans.
     */
    uint64_t
    nextMshrRetireAt() const
    {
        uint64_t wake = ~0ull;
        if (outstanding == 0)
            return wake;
        for (const Mshr &m : mshrs) {
            if (m.busy && m.readyAt < wake)
                wake = m.readyAt;
        }
        return wake;
    }

    /**
     * Cycle of the most recent MSHR allocation. A reject witnessed
     * in a cycle that also allocated an MSHR is not a valid
     * stall-span witness: the rejected request might merge into the
     * new MSHR (or hit its line) on the next attempt.
     */
    uint64_t lastMshrAllocCycle() const { return mshrAllocCycle; }

    /**
     * Bulk-account `n` skipped cycles of one MSHR-full stall span
     * starting at cycle `begin`: the span's per-cycle retry would
     * have rejected once per cycle. Sinks get the span as one event.
     */
    void
    bulkStallRejects(uint64_t begin, uint64_t n)
    {
        mshrRejects += n;
        emitStall(begin, /*mshr_full=*/true, n);
    }

    /** MSHRs currently tracking an in-flight miss (counter track). */
    unsigned
    outstandingMisses() const
    {
#ifndef NDEBUG
        unsigned n = 0;
        for (const Mshr &m : mshrs) {
            if (m.busy)
                ++n;
        }
        tapas_assert(n == outstanding,
                     "MSHR counter out of sync: counted %u, "
                     "maintained %u", n, outstanding);
#endif
        return outstanding;
    }

    // --- statistics ---------------------------------------------------

    StatGroup stats{"l1cache"};
    Counter hits{stats, "hits", "cache hits"};
    Counter misses{stats, "misses", "cache misses"};
    Counter mshrMerges{stats, "mshr_merges",
                       "misses merged into an in-flight MSHR"};
    Counter portRejects{stats, "port_rejects",
                        "requests rejected: all ports busy"};
    Counter mshrRejects{stats, "mshr_rejects",
                        "requests rejected: all MSHRs busy"};
    Counter writebacks{stats, "writebacks", "dirty evictions"};
    Counter accesses{stats, "accesses", "total accepted accesses"};

    double
    hitRate() const
    {
        uint64_t total = hits.value() + misses.value();
        return total ? static_cast<double>(hits.value()) / total : 0.0;
    }

  private:
    struct Line
    {
        uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        uint64_t lastUse = 0;
        uint64_t readyAt = 0; ///< fill completion time
    };

    struct Mshr
    {
        bool busy = false;
        uint64_t lineAddr = 0;
        uint64_t readyAt = 0;
    };

    uint64_t lineAddrOf(uint64_t addr) const
    {
        return addr / params.lineBytes;
    }

    /** Cycles to move one line over the DRAM channel. */
    unsigned
    lineTransferCycles() const
    {
        unsigned words = params.lineBytes / 8;
        return std::max(1u, words / params.dramWordsPerCycle);
    }

    void
    emitMiss(uint64_t now)
    {
        if (!hasSinks)
            return;
        for (obs::TraceSink *s : sinks)
            s->cacheMiss(now);
    }

    void
    emitStall(uint64_t now, bool mshr_full, uint64_t n = 1)
    {
        if (!hasSinks)
            return;
        for (obs::TraceSink *s : sinks)
            s->cacheStall(now, mshr_full, n);
    }

    /** Perturb an accepted result per the attached injector. */
    void applyResponseFault(CacheResult &res, uint64_t now);

    arch::MemSystemParams params;
    FaultInjector *injector = nullptr;
    unsigned numSets;
    std::vector<Line> lines;       // numSets x ways
    std::vector<Mshr> mshrs;
    unsigned portsUsed = 0;

    /**
     * Busy MSHRs, maintained incrementally (allocate / retire) so
     * outstandingMisses() and the begin-of-cycle retire scan are
     * O(1) when no miss is in flight; asserted against the full
     * scan in debug builds.
     */
    unsigned outstanding = 0;

    /** Cycle of the last MSHR allocation (stall-span witness). */
    uint64_t mshrAllocCycle = ~0ull;

    uint64_t dramNextFree = 0;
    std::vector<obs::TraceSink *> sinks;
    bool hasSinks = false; ///< cached !sinks.empty() for emit paths
};

} // namespace tapas::sim

#endif // TAPAS_SIM_MEM_HH
