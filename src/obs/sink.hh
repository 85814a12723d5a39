/**
 * @file
 * Observability sink interface: the one funnel through which the
 * cycle-level simulator reports *what happened when* to any number of
 * attached observers (timeline tracers, profilers, statistics).
 *
 * The simulator emits task-lifetime events (spawn / dispatch /
 * suspend / retire, with parent identity and tile placement),
 * spawn-port arbitration rejections, cache misses and structural
 * stalls, plus periodic queue-occupancy and outstanding-miss samples.
 * A sink overrides only what it cares about; every hook defaults to a
 * no-op, so an attached-but-uninterested sink costs one virtual call
 * per event. With no sinks attached the simulator skips emission
 * entirely.
 *
 * This module depends only on src/support/ so that both the simulator
 * and the driver can link it without cycles.
 */

#ifndef TAPAS_OBS_SINK_HH
#define TAPAS_OBS_SINK_HH

#include <cstdint>
#include <string>
#include <vector>

namespace tapas::obs {

/** What a sink needs to know about one task unit up front. */
struct UnitInfo
{
    /** Static task name (unique per accelerator). */
    std::string name;

    /** Number of execution tiles in this unit. */
    unsigned tiles = 1;
};

/** Receives simulator events; override only what you observe. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Called once at attach time with the accelerator's units. */
    virtual void configure(const std::vector<UnitInfo> &/*units*/) {}

    /**
     * A task instance was accepted into a task queue.
     * `parent_sid` is ~0u for the root (host-launched) instance.
     */
    virtual void
    taskSpawn(uint64_t /*cycle*/, unsigned /*sid*/, unsigned /*slot*/,
              unsigned /*parent_sid*/, unsigned /*parent_slot*/)
    {}

    /** An instance was allocated tile `tile` (entered EXE). */
    virtual void
    taskDispatch(uint64_t /*cycle*/, unsigned /*sid*/,
                 unsigned /*slot*/, unsigned /*tile*/)
    {}

    /** An instance vacated its tile (blocked at sync / task call). */
    virtual void
    taskSuspend(uint64_t /*cycle*/, unsigned /*sid*/,
                unsigned /*slot*/)
    {}

    /** An instance completed and joined its parent. */
    virtual void
    taskRetire(uint64_t /*cycle*/, unsigned /*sid*/, unsigned /*slot*/)
    {}

    /**
     * Emitted immediately before the taskSuspend/taskRetire that
     * closes a tile residency: of the residency's cycles, how many
     * the instance spent making no dataflow progress because every
     * in-flight node was blocked on a memory response (`mem_stall`)
     * or on spawn-port back-pressure (`spawn_stall`). The remaining
     * residency cycles carried compute. Counted only while a sink is
     * attached; enables cycle-exact critical-path attribution
     * (obs/critpath.hh).
     */
    virtual void
    residencyStalls(uint64_t /*cycle*/, unsigned /*sid*/,
                    unsigned /*slot*/, uint64_t /*mem_stall*/,
                    uint64_t /*spawn_stall*/)
    {}

    /**
     * `n` spawns aimed at unit `sid` were rejected, from `cycle` on:
     * `queue_full` distinguishes a full task queue from losing the
     * one-accept-per-cycle port arbitration. A live reject has n = 1.
     * A stall span the simulator skipped or slept through arrives as
     * one event when the span is accounted, with `cycle` its first
     * cycle, so it may follow events of later cycles.
     */
    virtual void
    spawnRejected(uint64_t /*cycle*/, unsigned /*sid*/,
                  bool /*queue_full*/, uint64_t /*n*/)
    {}

    /** The shared L1 recorded a (non-merged or merged) miss. */
    virtual void cacheMiss(uint64_t /*cycle*/) {}

    /**
     * The shared L1 rejected `n` requests, from `cycle` on:
     * `mshr_full` distinguishes MSHR exhaustion from port contention.
     * Spans arrive as one event, as in spawnRejected().
     */
    virtual void
    cacheStall(uint64_t /*cycle*/, bool /*mshr_full*/, uint64_t /*n*/)
    {}

    /**
     * A fault was injected. `kind` is a stable snake_case label
     * ("spawn_drop", "queue_corrupt", "mem_drop", "mem_delay",
     * "tile_stuck"); `sid` is the afflicted unit, or ~0u for the
     * shared memory system.
     */
    virtual void
    faultInjected(uint64_t /*cycle*/, const char * /*kind*/,
                  unsigned /*sid*/)
    {}

    /**
     * A recovery action fired ("spawn_retry", "task_replay",
     * "mem_reissue"); `sid` as in faultInjected().
     */
    virtual void
    faultRecovered(uint64_t /*cycle*/, const char * /*kind*/,
                   unsigned /*sid*/)
    {}

    /**
     * The run stopped cooperatively at a cycle boundary (deadline or
     * cancellation) before the root task retired. `reason` is a
     * stable token ("deadline", "cancelled", "cycle_deadline").
     */
    virtual void
    runInterrupted(uint64_t /*cycle*/, const char * /*reason*/)
    {}

    /** A checkpoint snapshot was committed at this cycle. */
    virtual void checkpointWritten(uint64_t /*cycle*/) {}

    /** Periodic sample: queue occupancy of unit `sid`. */
    virtual void
    queueSample(uint64_t /*cycle*/, unsigned /*sid*/,
                unsigned /*occupancy*/)
    {}

    /** Periodic sample: outstanding L1 misses (busy MSHRs). */
    virtual void missSample(uint64_t /*cycle*/, unsigned /*outstanding*/)
    {}
};

} // namespace tapas::obs

#endif // TAPAS_OBS_SINK_HH
