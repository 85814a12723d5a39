/**
 * @file
 * Data box (paper Section III-E, Fig. 8): the per-task-unit block that
 * connects the TXU's memory operations to the shared cache. It models
 * the in-arbiter tree (one request issued per cycle), the staging
 * buffer table (finite entries; full table back-pressures the TXU),
 * and the response demux (ticket-based completion back to the issuing
 * dataflow node).
 */

#ifndef TAPAS_SIM_DATABOX_HH
#define TAPAS_SIM_DATABOX_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/mem.hh"

namespace tapas::sim {

/** Handle identifying one in-flight memory request. */
using MemTicket = uint32_t;

/** Per-task-unit arbiter + staging buffers in front of the cache. */
class DataBox
{
  public:
    /**
     * @param cache the shared L1
     * @param staging_entries allocator-table capacity (Fig. 8)
     * @param issue_width requests granted per cycle by the in-arbiter
     */
    DataBox(SharedCache &cache, unsigned staging_entries,
            unsigned issue_width, std::string stat_name);

    /**
     * Try to accept a request from a dataflow node of the instance
     * in queue slot `owner`.
     *
     * @return true and a ticket if a staging entry was free.
     */
    bool submit(uint64_t addr, bool is_store, uint64_t now,
                unsigned owner, MemTicket &ticket);

    /**
     * Poll a ticket; when complete the ticket is consumed.
     *
     * @return true once the response has arrived.
     */
    bool poll(MemTicket ticket, uint64_t now);

    /** Issue queued requests into the cache (call once per cycle). */
    void tick(uint64_t now);

    /** A request the last tick() issued: its owner and completion. */
    struct Issue
    {
        unsigned owner;       ///< queue slot passed to submit()
        uint64_t completesAt; ///< response cycle (~0: lost)
    };

    /**
     * Requests the last tick() issued, first issues and watchdog
     * reissues alike. An instance parked on an unissued ticket holds
     * no timer for it, so its unit reads this to wake the owner at
     * the response cycle.
     */
    const std::vector<Issue> &issued() const { return lastIssued; }

    /** Entries currently occupied (tests/stats). */
    unsigned occupancy() const { return occupied; }

    /**
     * Tile-sleep constraint from this box, evaluated at the end of a
     * quiet cycle `now`:
     *
     *   0        must be ticked next cycle (veto sleep)
     *   ~0       no constraint
     *   other    earliest cycle this box's state can change
     *
     * In-flight responses are timed by their polling dataflow nodes,
     * and staging-full submit retries are bulk-accounted by
     * accountSkipped(), so an empty issue queue constrains only
     * through lost responses: each one is reissued by the watchdog
     * at issuedAt + memTimeoutCycles, and the earliest of those is
     * the wake. A non-empty queue is skippable only when this
     * cycle's head attempt was rejected for MSHR exhaustion and no
     * MSHR was allocated this cycle: that reject then provably
     * repeats every cycle (no accepts anywhere during a quiet span,
     * so the cache's line/MSHR state is frozen) until the earliest
     * MSHR retires, which bounds the wake too.
     */
    uint64_t
    stallWake(uint64_t now) const
    {
        const uint64_t lost = lostResponseWake();
        if (issueQueue.empty())
            return lost;
        if (headRejectCycle != now || !headRejectMshrFull ||
            cache.lastMshrAllocCycle() == now) {
            return 0;
        }
        return std::min(lost, cache.nextMshrRetireAt());
    }

    /**
     * Forget stall witnesses (fresh run: cycle numbers restart, so
     * a stale witness could alias a new cycle and wrongly validate
     * a span).
     */
    void
    resetStallWitness()
    {
        headRejectCycle = ~0ull;
        headRejectMshrFull = false;
        fullRejectCycle = ~0ull;
        fullRejectsThisCycle = 0;
    }

    /**
     * Bulk-account the skipped cycles (base, upto] after a quiet
     * cycle `base`: a head rejected at `base` would have retried
     * (and been rejected) once per cycle; every submit rejected at
     * `base` would likewise have retried per cycle while the staging
     * table stayed full. The witnesses then move to `upto`, whose
     * rejects are now accounted too, so a sleeping tile can accrue
     * its span in pieces.
     */
    void
    accountSkipped(uint64_t base, uint64_t upto)
    {
        const uint64_t n = upto - base;
        if (!issueQueue.empty() && headRejectCycle == base) {
            cacheRetries += n;
            cache.bulkStallRejects(base + 1, n);
            headRejectCycle = upto;
        }
        if (fullRejectCycle == base) {
            fullRejects += n * fullRejectsThisCycle;
            fullRejectCycle = upto;
        }
    }

    /**
     * Completion cycle of an in-flight ticket, or 0 while it is
     * still waiting to issue (tile-sleep wake computation; only
     * meaningful for a busy ticket).
     */
    uint64_t
    completesAt(MemTicket ticket) const
    {
        const Entry &e = entries[ticket];
        return e.issued ? e.completesAt : 0;
    }

    StatGroup stats;
    Counter submitted{stats, "requests", "memory requests accepted"};
    Counter fullRejects{stats, "full_rejects",
                        "requests rejected: staging table full"};
    Counter cacheRetries{stats, "cache_retries",
                         "issue attempts the cache rejected"};
    Counter timeoutReissues{stats, "timeout_reissues",
                            "lost responses timed out and reissued"};

  private:
    /** completesAt of a response an injected fault swallowed. */
    static constexpr uint64_t kLostResponse = ~0ull;

    /**
     * Earliest cycle the lost-response watchdog reissues a swallowed
     * request, or ~0 when none is lost (always, without an injector).
     */
    uint64_t lostResponseWake() const;

    struct Entry
    {
        bool busy = false;
        bool issued = false;
        bool store = false;
        unsigned owner = 0; ///< queue slot of the submitting instance
        uint64_t addr = 0;
        uint64_t completesAt = 0;
        uint64_t issuedAt = 0; ///< for the lost-response watchdog
    };

    SharedCache &cache;
    std::vector<Entry> entries;
    std::deque<MemTicket> issueQueue;
    std::vector<Issue> lastIssued;
    unsigned issueWidth;
    unsigned occupied = 0;

    // Stall-span witnesses for the idle-cycle fast-forward: what
    // this box's per-cycle retries did in the current cycle.
    uint64_t headRejectCycle = ~0ull;  ///< head retry rejected then
    bool headRejectMshrFull = false;   ///< ...because MSHRs were full
    uint64_t fullRejectCycle = ~0ull;  ///< submit hit a full table
    unsigned fullRejectsThisCycle = 0; ///< how many, that cycle
};

} // namespace tapas::sim

#endif // TAPAS_SIM_DATABOX_HH
