/**
 * @file
 * Deterministic fault injection and structured simulation failure.
 *
 * The FaultInjector perturbs a running AcceleratorSim with seeded,
 * per-cycle/per-event probabilities, modeling the transient hardware
 * faults a deployed TAPAS accelerator would have to survive:
 *
 *  - dropped spawn handshakes at the spawn ports (a corrupted
 *    ready/valid pulse on a handshake the port would accept): the
 *    spawner's retry logic re-presents the spawn with bounded
 *    exponential backoff;
 *  - task-queue entry corruption (a bit flip in the queue BRAM):
 *    every queue entry carries a checksum over its marshaled
 *    arguments — the hardware analogue is ECC on the Ntasks RAM —
 *    verified at dispatch; a mismatch re-marshals and re-enqueues the
 *    instance, charged against a per-task retry budget;
 *  - lost or delayed memory responses (an AXI beat that never
 *    arrives): the data box times out the outstanding request and
 *    reissues it, like an AXI master with a watchdog on outstanding
 *    transactions;
 *  - transiently stuck TXU tiles (a frozen pipeline stage): the tile
 *    stops firing for a bounded number of cycles and then resumes.
 *
 * Each of the five categories draws from its own support/rng.hh
 * sub-stream, seeded from FaultConfig::seed, so a (seed, config) pair
 * produces a bit-identical fault schedule on every run, and how many
 * draws one category makes never shifts another's. Spawn drops and
 * memory drops/delays are drawn per event. The two per-cycle
 * categories, queue corruption and tile freezes, are drawn as
 * geometric inter-arrival times: the simulator asks for the next
 * arrival cycle and keeps it as a timer (the wakeup calendar for
 * queue corruption, the tile's sleep bound for a freeze), so cycles
 * it fast-forwards over cannot move a draw. A zero rate for a
 * category consumes no randomness at all and schedules no arrival,
 * so an attached injector with all rates at zero perturbs nothing
 * (tests pin this).
 *
 * Alongside injection, SimFailure turns what used to be process
 * aborts (watchdog deadlock, cycle-limit overrun, exhausted retry
 * budgets) into structured, recoverable failure values that the
 * driver layer threads into RunResult, so one wedged configuration
 * cannot tear down a multi-threaded sweep.
 */

#ifndef TAPAS_SIM_FAULT_HH
#define TAPAS_SIM_FAULT_HH

#include <array>
#include <cstdint>
#include <string>

#include "support/rng.hh"
#include "support/stats.hh"

namespace tapas::sim {

/** How a simulation ended when it did not retire the root task. */
struct SimFailure
{
    enum class Kind : uint8_t {
        None,        ///< run completed normally
        Deadlock,    ///< watchdog: no progress for watchdogCycles
        CycleLimit,  ///< exceeded maxCycles
        FaultBudget, ///< a task exhausted its fault-retry budget
        SpawnFailed, ///< root spawn rejected by an empty accelerator
        Interrupted, ///< cooperative stop (deadline or cancel)
    };

    Kind kind = Kind::None;

    /** Human-readable diagnostic (per-unit state dump on deadlock). */
    std::string detail;

    bool failed() const { return kind != Kind::None; }
};

/** Stable snake_case name of a failure kind ("deadlock", ...). */
const char *failureKindName(SimFailure::Kind kind);

/** Rates and recovery knobs for one injector. */
struct FaultConfig
{
    /** Seed for the fault schedule (same seed = same schedule). */
    uint64_t seed = 0x7a7a5u;

    /**
     * Probability a spawn-port handshake is dropped, per handshake
     * the port would accept (a rejected spawn completes none).
     */
    double spawnDropRate = 0;

    /** Probability of a queue-RAM bit flip, per cycle. */
    double queueCorruptRate = 0;

    /** Probability an accepted memory response is lost, per access. */
    double memDropRate = 0;

    /** Probability an accepted memory response is late, per access. */
    double memDelayRate = 0;

    /** Probability a tile freezes, per tile per unfrozen cycle. */
    double tileStuckRate = 0;

    /** Extra cycles a delayed memory response takes. */
    unsigned memDelayCycles = 32;

    /** Cycles before an outstanding request is timed out/reissued. */
    unsigned memTimeoutCycles = 512;

    /** Cycles a stuck tile stays frozen. */
    unsigned tileStuckCycles = 16;

    /** Re-enqueues one task instance may consume before failing. */
    unsigned maxTaskRetries = 8;

    /** Cap on the spawn-retry exponential backoff, in cycles. */
    unsigned maxSpawnBackoff = 64;

    /** Any injection actually enabled? */
    bool
    any() const
    {
        return spawnDropRate > 0 || queueCorruptRate > 0 ||
               memDropRate > 0 || memDelayRate > 0 ||
               tileStuckRate > 0;
    }

    /** All five injection rates set to `rate` (CLI --fault-rate). */
    static FaultConfig
    uniform(double rate, uint64_t seed)
    {
        FaultConfig cfg;
        cfg.seed = seed;
        cfg.spawnDropRate = rate;
        cfg.queueCorruptRate = rate;
        cfg.memDropRate = rate;
        cfg.memDelayRate = rate;
        cfg.tileStuckRate = rate;
        return cfg;
    }
};

/**
 * Draws the fault schedule and accumulates fault/recovery counters.
 * Attach to a simulation with AcceleratorSim::setFaultInjector();
 * not owned, must outlive the run. The injection/recovery *behavior*
 * lives in the simulator components (unit/exec/databox/mem); this
 * class only decides *when* and counts *what happened*.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig &config);

    const FaultConfig &config() const { return cfg; }

    /** Arrival-cycle sentinel: a zero-rate category never fires. */
    static constexpr uint64_t kNever = ~0ull;

    /** Drop this spawn handshake? (counts on true) */
    bool
    dropSpawn()
    {
        if (!draw(Stream::SpawnDrop, cfg.spawnDropRate))
            return false;
        ++spawnDrops;
        return true;
    }

    /** First cycle at or after `from` with a queue-RAM bit flip. */
    uint64_t
    nextCorruptionFrom(uint64_t from)
    {
        return arrival(Stream::QueueCorrupt, cfg.queueCorruptRate,
                       from);
    }

    /** What happens to this accepted memory response? */
    enum class MemFault : uint8_t { None, Delay, Drop };

    MemFault
    memFault()
    {
        if (draw(Stream::MemDrop, cfg.memDropRate)) {
            ++memDrops;
            return MemFault::Drop;
        }
        if (draw(Stream::MemDelay, cfg.memDelayRate)) {
            ++memDelays;
            return MemFault::Delay;
        }
        return MemFault::None;
    }

    /**
     * First cycle at or after `from` at which a running tile
     * freezes. One sub-stream serves every tile, drawn in simulation
     * order.
     */
    uint64_t
    nextStickFrom(uint64_t from)
    {
        return arrival(Stream::TileStuck, cfg.tileStuckRate, from);
    }

    /** Uniform pick in [0, bound) for queue-corruption targeting. */
    uint64_t
    pick(uint64_t bound)
    {
        return rng(Stream::QueueCorrupt).below(bound);
    }

    /** Nonzero 32-bit corruption mask (the bits that flipped). */
    uint32_t
    corruptionMask()
    {
        uint32_t m =
            static_cast<uint32_t>(rng(Stream::QueueCorrupt).next());
        return m ? m : 1u;
    }

    /**
     * Backoff before the Nth consecutive retry of a dropped spawn:
     * exponential, capped at maxSpawnBackoff cycles.
     */
    uint64_t
    spawnBackoff(unsigned attempt) const
    {
        unsigned shift = attempt < 16 ? attempt : 16;
        uint64_t delay = 1ull << shift;
        return delay < cfg.maxSpawnBackoff ? delay
                                           : cfg.maxSpawnBackoff;
    }

    // --- statistics ---------------------------------------------------

    StatGroup stats{"fault"};

    // Injected faults.
    Counter spawnDrops{stats, "spawn_drops",
                       "spawn handshakes dropped at a port"};
    Counter queueCorruptions{stats, "queue_corruptions",
                             "queue entries hit by a bit flip"};
    Counter memDrops{stats, "mem_drops", "memory responses lost"};
    Counter memDelays{stats, "mem_delays", "memory responses delayed"};
    Counter tileStalls{stats, "tile_stalls",
                       "transient tile pipeline freezes"};

    // Recovery actions.
    Counter spawnRetries{stats, "spawn_retries",
                         "spawn re-presentations after a drop"};
    Counter taskReplays{stats, "task_replays",
                        "instances re-enqueued after checksum "
                        "mismatch"};
    Counter memReissues{stats, "mem_reissues",
                        "memory requests reissued after timeout"};

  private:
    /** One seeded sub-stream per fault category. */
    enum class Stream : uint8_t {
        SpawnDrop,
        QueueCorrupt,
        MemDrop,
        MemDelay,
        TileStuck,
    };

    Rng &rng(Stream s) { return streams[static_cast<size_t>(s)]; }

    /** Bernoulli draw; a zero rate consumes no randomness. */
    bool draw(Stream s, double p) { return p > 0 && rng(s).chance(p); }

    /**
     * Geometric inter-arrival draw: the first cycle at or after
     * `from` on which a per-cycle Bernoulli(p) trial succeeds. Rate 1
     * fires at `from`; a zero rate consumes no randomness and
     * returns kNever.
     */
    uint64_t arrival(Stream s, double p, uint64_t from);

    FaultConfig cfg;
    std::array<Rng, 5> streams;
};

} // namespace tapas::sim

#endif // TAPAS_SIM_FAULT_HH
