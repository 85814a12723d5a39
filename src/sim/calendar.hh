/**
 * @file
 * Wakeup calendar for the simulator's tile sleep: a bucketed timing
 * wheel over future simulated cycles.
 *
 * AcceleratorSim::run() puts a tile to sleep when its next possible
 * state change is provably in the future (an in-flight memory
 * response, a fixed-latency op, an MSHR-retire bound, a drawn tile
 * freeze) and records that cycle here, next to the units' own timers
 * (a ready-queue head's args-RAM completion) and the next drawn
 * queue corruption. The top-level cycle loop then uses the
 * calendar's earliest entry as the fast-forward target when every
 * tile is asleep; nothing else bounds the jump but the run's
 * lifecycle caps.
 *
 * Entries are *conservative hints with lazy deletion*: a tile woken
 * early by an external poke (a dispatch, a child join, a call
 * return) simply leaves its entry behind. A stale entry makes the
 * loop process one quiet cycle it could have skipped — never the
 * reverse — so correctness needs only that no scheduled cycle is
 * ever lost. schedule() therefore never fails and cancel() does not
 * exist.
 *
 * Layout: a power-of-two window of occupancy bits indexed by
 * cycle & (window-1). Scheduling is restricted to cycles within one
 * window of the cursor, so a set bit maps back to a unique absolute
 * cycle; farther events overflow into a side list that is re-bucketed
 * as the cursor approaches (min-tracked, so nextEventAt() stays O(1)
 * in the common case). Advancing across a span longer than the
 * window degenerates to a bulk clear, keeping long jumps O(window/64)
 * instead of O(span).
 */

#ifndef TAPAS_SIM_CALENDAR_HH
#define TAPAS_SIM_CALENDAR_HH

#include <cstdint>
#include <vector>

namespace tapas::sim {

/** Bucketed timing wheel of future wake-up cycles. */
class WakeupCalendar
{
  public:
    /** nextEventAt() result when nothing is scheduled. */
    static constexpr uint64_t kNone = ~0ull;

    /** @param window_bits log2 of the wheel span (buckets = 2^bits) */
    explicit WakeupCalendar(unsigned window_bits = 12);

    /** Forget everything and restart the wheel at `now`. */
    void reset(uint64_t now);

    /**
     * Record a wake-up at `cycle` (must be > the current cursor).
     * Within-window cycles set a wheel bit; farther ones go to the
     * overflow list.
     */
    void schedule(uint64_t cycle);

    /**
     * Move the cursor to `now`, dropping every entry at or before it
     * (those cycles have been processed) and re-bucketing overflow
     * entries that came within the window.
     */
    void advanceTo(uint64_t now);

    /**
     * Earliest scheduled cycle after the cursor, or kNone. Stale
     * entries (tiles already woken by a poke) may be returned — the
     * caller treats the result as an upper bound on how far it may
     * fast-forward, so early is always safe.
     */
    uint64_t nextEventAt() const;

    /** Entries currently live (tests/diagnostics). */
    uint64_t scheduledCount() const
    {
        return wheelCount + overflow.size();
    }

  private:
    uint64_t bucketOf(uint64_t cycle) const
    {
        return cycle & (window - 1);
    }

    /** Pull overflow entries now inside the window onto the wheel. */
    void drainOverflow();

    uint64_t window;              ///< bucket count (power of two)
    std::vector<uint64_t> bits;   ///< window/64 occupancy words
    uint64_t cursor = 0;          ///< entries are in (cursor, cursor+window]
    uint64_t wheelCount = 0;      ///< set bits (O(1) emptiness test)
    std::vector<uint64_t> overflow; ///< cycles beyond the window
    uint64_t overflowMin = kNone; ///< min of `overflow` (lazy refresh)
};

} // namespace tapas::sim

#endif // TAPAS_SIM_CALENDAR_HH
