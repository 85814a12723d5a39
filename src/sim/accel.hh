/**
 * @file
 * Cycle-level simulator of a TAPAS-generated accelerator.
 *
 * The simulated microarchitecture follows the paper exactly at the
 * component level (Sections III-A..III-E, Figs. 3-8):
 *
 *  - one TaskUnit per static task: a task queue of Ntasks entries
 *    (states READY / EXE / SYNC / WAIT-CALL / COMPLETE, per Fig. 5),
 *    spawn/sync ports with one-accept-per-cycle arbitration, and
 *    Ntiles task-execution tiles;
 *  - each tile is a pipelined TXU executing the task's dataflow with
 *    latency-insensitive ready-valid firing: a node fires when its
 *    in-block producers are done, each static node accepts one new
 *    token per cycle (II = 1 per function unit), and multiple task
 *    instances overlap in the pipeline up to tilePipelineDepth;
 *  - per-tile data boxes arbitrate memory operations into the shared
 *    L1 cache, which models finite MSHRs and an AXI/DRAM channel;
 *  - spawns marshal the child's live-in arguments through the target
 *    unit's args RAM (spawnHandshake + cycles-per-arg), parent/child
 *    join uses the (SID, DyID) scheme of Fig. 5: detach-spawned
 *    children decrement the parent entry's child counter; task-call
 *    children route their return value back to the waiting call node;
 *  - a task instance blocked at a sync (children pending) or on a
 *    task call vacates its tile and waits in the queue, which is what
 *    allows unbounded-depth recursion without deadlocking the TXUs
 *    (paper Section IV-C); queue capacity then bounds the practical
 *    recursion depth, exactly as on the real hardware.
 *
 * Functional execution is exact: every fired node computes its real
 * value against the shared MemImage, so a simulation both measures
 * cycles and produces the program's actual output (verified against
 * the reference interpreter by the tests).
 */

#ifndef TAPAS_SIM_ACCEL_HH
#define TAPAS_SIM_ACCEL_HH

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "arch/firing_index.hh"
#include "support/cancel.hh"
#include "hls/compile.hh"
#include "ir/interp.hh"
#include "obs/profiler.hh"
#include "obs/sink.hh"
#include "sim/calendar.hh"
#include "sim/databox.hh"
#include "sim/fault.hh"
#include "sim/trace.hh"

namespace tapas::sim {

class AcceleratorSim;
class TaskUnit;

/**
 * Cycle-loop scheduling policy. Both produce byte-identical results
 * (cycle counts, stats, observability streams — pinned by
 * tests/sim_sched_test.cc); they differ only in host work per
 * simulated cycle.
 *
 *  - Scan: the original loop — every tile of every unit is visited
 *    every processed cycle, plus the whole-machine idle-skip jump.
 *  - Event: additionally puts *individual* tiles to sleep when their
 *    next possible state change is provably in the future, settling
 *    their stall/residency accounting in bulk on wake-up, and feeds
 *    the known wake cycles into a WakeupCalendar so the idle-skip
 *    jump is a calendar lookup instead of a full rescan.
 */
enum class Scheduler : uint8_t {
    Scan,  ///< legacy full scan each cycle
    Event, ///< active tiles only + wakeup calendar (default)
};

/** Result of presenting a spawn to a unit's spawn port. */
enum class SpawnOutcome : uint8_t {
    Accepted, ///< enqueued; the child will run
    Rejected, ///< port busy or queue full; retry next cycle
    Dropped,  ///< injected fault ate the handshake; retry w/ backoff
};

/** Dynamic task identity: (SID, DyID) of paper Fig. 5. */
struct TaskRef
{
    static constexpr unsigned kNone = ~0u;

    unsigned sid = kNone;
    unsigned slot = 0;

    bool valid() const { return sid != kNone; }
};

/** One TXU tile: data box + per-cycle firing bookkeeping. */
struct Tile
{
    Tile(SharedCache &cache, unsigned staging, unsigned issue_width,
         unsigned firing_slots, std::string name)
        : box(cache, staging, issue_width, std::move(name)),
          firedMark(firing_slots, 0)
    {}

    DataBox box;

    /** Slots of the instances currently in this tile's pipeline. */
    std::vector<unsigned> active;

    /**
     * Per-firing-slot generation stamp: slot `s` accepted a token in
     * cycle `c` iff firedMark[s] == c + 1 (0 = never). Stamping with
     * the cycle number replaces the per-cycle clear of the old
     * instruction-pointer set — stale stamps can never match the
     * current cycle. Indexed by arch::FiringIndex slot.
     */
    std::vector<uint64_t> firedMark;

    /** Tokens accepted this cycle (profiler's fired_any signal). */
    unsigned firedThisCycle = 0;

    /** Injected transient freeze: no firing until this cycle. */
    uint64_t stuckUntil = 0;

    /** Forget all firing history (start of a run()). */
    void
    resetFiring()
    {
        firedMark.assign(firedMark.size(), 0);
        firedThisCycle = 0;
        box.resetStallWitness();
    }
};

/**
 * Executes one dynamic task instance over the task's dataflow.
 * Owned by a queue entry; attached to a tile while in state EXE.
 */
class InstanceExec
{
  public:
    enum class Status : uint8_t {
        Running,   ///< making progress (or stalled on memory/spawn)
        WaitSync,  ///< blocked at sync with children outstanding
        WaitCall,  ///< blocked on a task call's return value
        Done,      ///< task completed (join the parent)
    };

    InstanceExec(AcceleratorSim &sim, const arch::Task &task,
                 const arch::FiringIndex &fidx, TaskRef self);

    /** Provide the marshaled arguments; instance becomes runnable. */
    void start(const std::vector<ir::RtValue> &args);

    /**
     * Return to the freshly-constructed state while keeping every
     * buffer's capacity: queue entries pool one InstanceExec per slot
     * and reset it on reuse instead of reallocating frames, register
     * files and node-state vectors per spawn.
     */
    void reset();

    /** Advance one cycle on the given tile. */
    Status step(uint64_t now, Tile &tile);

    /** Deliver a task-call return value (wakes a WaitCall). */
    void deliverCallResult(const ir::CallInst *site, ir::RtValue v);

    /** Return value produced by the task's Ret (function tasks). */
    ir::RtValue returnValue() const { return retVal; }

    /** Outstanding memory requests (suspension is deferred on >0). */
    unsigned outstandingMem() const { return memInFlight; }

    /** Dynamic nodes fired so far (stats). */
    uint64_t firedCount() const { return firedNodes; }

    /**
     * Count in-flight nodes by phase across every live frame:
     * executing (fixed-latency ops), waiting on memory tickets, and
     * retrying a back-pressured spawn. Used by the cycle-attribution
     * profiler to classify a unit's cycle.
     */
    void phaseCensus(unsigned &exec, unsigned &mem,
                     unsigned &spawn) const;

    /**
     * Idle-skip wake computation: the earliest future cycle at which
     * this instance's internal timers can change its state, assuming
     * the current cycle made no progress anywhere.
     *
     * Returns 0 when the instance must be ticked next cycle (a block
     * not yet swept, a spawn re-presenting under back-pressure, an
     * unissued memory request, a delivered-but-unconsumed call
     * result), or kNoWake when it holds no timer at all (blocked
     * purely on external progress — a sync join or call return,
     * which the unit owning the child provides at its own wake).
     *
     * With `spawn_waits` non-null, a spawn re-presenting under
     * ordinary back-pressure (no drop streak, rejected this very
     * cycle) pushes its target task sid there instead of vetoing:
     * the caller may sleep the tile as a registered spawn-waiter,
     * provided the target queue is full and pokes it on every entry
     * free (see TaskUnit::pokeSpawnWaiters).
     */
    uint64_t nextWake(uint64_t now, const DataBox &box,
                      bool allow_bulk,
                      std::vector<unsigned> *spawn_waits
                      = nullptr) const;

    /** nextWake() sentinel: no internal timer. */
    static constexpr uint64_t kNoWake = ~0ull;

  private:
    enum class Phase : uint8_t {
        Waiting,
        Exec,       ///< fixed latency, completes at doneAt
        Mem,        ///< waiting on a data-box ticket
        SpawnRetry, ///< spawn target busy/full; retry
        SyncWait,
        CallWait,
        LeafCall,   ///< a callee frame is executing
        DoneNode,
    };

    struct NodeState
    {
        Phase phase = Phase::Waiting;
        uint64_t doneAt = 0;
        MemTicket ticket = 0;
        bool callDelivered = false;
        ir::RtValue callValue;

        /** Earliest cycle a SpawnRetry node re-presents its spawn. */
        uint64_t nextRetryAt = 0;

        /** Consecutive dropped handshakes (backoff exponent). */
        unsigned spawnDropStreak = 0;
    };

    /** One activation record: the task body or an inlined leaf call. */
    struct Frame
    {
        const ir::Function *func = nullptr;
        std::vector<ir::RtValue> regs;     // by instruction id
        std::vector<ir::RtValue> argVals;  // leaf formals
        const ir::CallInst *returnTo = nullptr; // caller's call inst
        const ir::BasicBlock *bb = nullptr;
        std::vector<NodeState> nst;        // per instruction in bb

        /** FiringIndex base of `func` (firing slot = base + id). */
        unsigned fireBase = 0;

        /**
         * Set by enterBlock(), cleared by step()'s first sweep over
         * the new block. A fresh block's nodes are fireable without
         * any timer expiring, so idle-skip must not engage while one
         * exists (nextWake() returns 0).
         */
        bool fresh = true;

        // Decoded form of `func` and of the current block `bb`, the
        // function's constant pool resolved against this run's
        // memory image (ir/lower.hh), and the id of the block that
        // branched here (phi routing; kNoSucc at function entry).
        const ir::LoweredFunc *lf = nullptr;
        const ir::LoweredBlock *lbb = nullptr;
        const ir::RtValue *pool = nullptr;
        uint32_t prevId = ir::kNoSucc;

        /**
         * Nodes of the current block in DoneNode phase, maintained
         * on every transition. Block completion and the terminator's
         * quiescence check read this instead of rescanning nst, so a
         * missed or doubled update shows up as a cycle-count change
         * (tests/sim_lower_test.cc pins cycles per workload).
         */
        uint32_t doneCount = 0;
    };

    /** Operand fetch: indexed load + 2-bit tag switch. */
    ir::RtValue evalRef(const Frame &frame, ir::OperandRef r) const;

    void enterBlock(Frame &frame, const ir::BasicBlock *bb,
                    uint64_t now);

    /** Micro-op of node `idx` in `frame`'s current block. */
    const ir::MicroOp &opAt(const Frame &frame, size_t idx) const;

    /**
     * Fire node `idx` (micro-op `mop`), whose dependences step() has
     * found ready. May still back off: the per-cycle firing token is
     * taken, or the data box rejects a memory request.
     */
    void fire(Frame &frame, size_t idx, const ir::MicroOp &mop,
              uint64_t now, Tile &tile);

    /** Fill spawnScratch with the detach/call argument template. */
    void marshalArgs(const Frame &frame, const ir::MicroOp &mop);

    /** Task unit spawned by a Detach or task-Call micro-op. */
    const arch::Task &spawnTarget(const ir::MicroOp &mop) const;

    /**
     * Present the spawn of a Detach or task-Call node to its target
     * unit: on acceptance the node moves to Exec (detach handshake)
     * or CallWait; otherwise it enters/extends SpawnRetry. Returns
     * whether the spawn was accepted.
     */
    bool presentSpawn(Frame &frame, NodeState &st,
                      const ir::MicroOp &mop, uint64_t now);

    /** Re-present a SpawnRetry node's spawn once its backoff ends. */
    void retrySpawn(Frame &frame, NodeState &st,
                    const ir::MicroOp &mop, uint64_t now);

    /** Enter/extend SpawnRetry after a Rejected/Dropped spawn. */
    void noteSpawnFailure(NodeState &st, SpawnOutcome oc,
                          uint64_t now);

    /** Handle a completed terminator: block transition / task end. */
    Status finishBlock(uint64_t now);

    /** Push a leaf-call frame; actuals are taken from spawnScratch. */
    void pushLeafFrame(const ir::CallInst *call);

    /**
     * Live top frame / frame-pool allocation. frames[0..nFrames) are
     * live; popped frames stay in the deque with their buffer
     * capacities intact and are recycled by acquireFrame().
     */
    Frame &topFrame() { return frames[nFrames - 1]; }
    Frame &acquireFrame();

    AcceleratorSim &sim;
    const arch::Task &task;
    const arch::FiringIndex &fidx;
    TaskRef self;

    /**
     * Marshaled arguments, resolved to dense slots at start():
     * ir::Argument formals land in taskArgVals by argument index;
     * enclosing-task ir::Instruction values land directly in the task
     * frame's regs (their ids never collide with instructions the
     * task executes — ids are function-wide and those producers live
     * outside the task's blocks). argInstMark flags the latter so the
     * dependence check can tell "marshaled live-in" from "produced
     * here" in O(1); taskArgPresent backs the unmarshaled-use assert.
     */
    std::vector<ir::RtValue> taskArgVals;
    std::vector<uint8_t> taskArgPresent;
    std::vector<uint8_t> argInstMark;

    /**
     * Activation-record stack. A deque, not a vector: fire() can
     * push a leaf-call frame while step() still holds a reference to
     * the current frame, and deque growth never invalidates
     * references to existing elements. Only frames[0..nFrames) are
     * live; the tail holds recycled frames (see acquireFrame()).
     */
    std::deque<Frame> frames;
    size_t nFrames = 0;

    /** enterBlock() phi-resolution scratch (hoisted allocation). */
    std::vector<ir::RtValue> phiScratch;

    /** Spawn/call argument marshaling scratch (hoisted allocation). */
    std::vector<ir::RtValue> spawnScratch;

    /** The design's decoded program and `task`'s function in it. */
    const ir::LoweredProgram &low;
    const ir::LoweredFunc &taskLf;

    ir::RtValue retVal;
    bool done = false;
    unsigned memInFlight = 0;
    uint64_t firedNodes = 0;
};

/** Task-queue entry states (paper Fig. 5). */
enum class EntryState : uint8_t {
    Free,
    Ready,    ///< spawned / woken, not allocated a tile
    Exe,      ///< attached to a tile
    Sync,     ///< vacated tile, waiting for child join counter
    WaitCall, ///< vacated tile, waiting for a task-call return
};

/** One task unit: queue + tiles + ports (paper Fig. 3 bottom). */
class TaskUnit
{
  public:
    TaskUnit(AcceleratorSim &sim, const arch::Task &task,
             const arch::Dataflow &df,
             const arch::TaskUnitParams &params, SharedCache &cache);

    /**
     * Spawn-port arbitration: accept at most one spawn per cycle and
     * only while a queue entry is free. With a fault injector
     * attached the handshake itself may be dropped (the spawner
     * retries with backoff).
     */
    SpawnOutcome trySpawn(const std::vector<ir::RtValue> &args,
                          TaskRef parent,
                          const ir::CallInst *caller_site,
                          uint64_t now);

    void beginCycle(uint64_t now);
    void tick(uint64_t now);

    /**
     * An injected bit flip hit this unit's queue RAM: corrupt the
     * checksum of a randomly chosen not-yet-dispatched entry. Flips
     * landing on empty or executing entries are absorbed (those bits
     * live in tile flip-flops, not the ECC-guarded queue BRAM).
     */
    void injectQueueCorruption(uint64_t now, FaultInjector &inj);

    /** Entry counts per state [Free,Ready,Exe,Sync,WaitCall]. */
    std::array<unsigned, 5> stateCounts() const;

    /** A detach-spawned child of `slot` finished. */
    void childJoined(unsigned slot, uint64_t now);

    /** A task-called child of `slot` returned `v` for `site`. */
    void callReturned(unsigned slot, const ir::CallInst *site,
                      ir::RtValue v, uint64_t now);

    /** Child-counter increment when `slot` spawns. */
    void noteChildSpawned(unsigned slot);

    /** Current child join counter of `slot` (sync resolution). */
    int childCountOf(unsigned slot) const
    {
        return entries.at(slot).childCount;
    }

    bool idle() const { return occupied == 0; }

    const arch::Task &task() const { return _task; }

    /** Entries currently not Free (tests/stats); O(1). */
    unsigned occupancy() const { return occupied; }

    /**
     * Idle-skip wake computation over the whole unit: the earliest
     * future cycle at which a dispatch or an on-tile instance timer
     * can make progress, assuming the current cycle was quiet. 0
     * means the unit must be ticked every cycle (pending issue-queue
     * work, a dispatchable entry, a spawn under back-pressure);
     * InstanceExec::kNoWake means the unit holds no timers.
     */
    uint64_t nextWake(uint64_t now, bool allow_stall_bulk) const;

    /**
     * Account `n` skipped quiet cycles: per-tile busy-cycle counters
     * and (when a profiler is attached) bulk cycle attribution in the
     * same bucket profileCycle() would have picked each cycle, so the
     * "buckets sum to cycles x units" invariant survives skipping.
     */
    void accountSkipped(uint64_t n, uint64_t base);

    /** Zero the tiles' firing stamps (start of a run()). */
    void
    resetFiring()
    {
        for (auto &t : tiles)
            t->resetFiring();
        spawnRejectCycle = ~0ull;
        spawnRejectsThisCycle = 0;
        resetSleep();
    }

    /** Wake every sleeping tile without settling (start of a run). */
    void
    resetSleep()
    {
        tileSleepUntil.assign(tiles.size(), 0);
        tileSleepBase.assign(tiles.size(), 0);
        tileSpawnWaits.assign(tiles.size(), {});
        spawnWaiters.clear();
        sleepingTiles = 0;
        tileSlept = 0;
        tickCycle = ~0ull;
        tickTilePos = 0;
    }

    /** Tiles currently asleep under the event scheduler (tests). */
    unsigned sleepingTileCount() const { return sleepingTiles; }

    /**
     * Tile-cycles covered by sleep spans instead of per-cycle ticks.
     * Diagnostic only — deliberately NOT a stats Counter, so modeled
     * results stay byte-identical across schedulers.
     */
    uint64_t tileSleptCycles() const { return tileSlept; }

    /**
     * End-of-run settle: close out every still-sleeping tile through
     * `upto` (the last processed cycle). The run may end — root
     * retire, failure, interrupt — while a tile is mid-span; scan
     * mode would have ticked it quietly through that cycle, so its
     * bulk accounting must land before stats are read.
     */
    void
    settleAllSleeping(uint64_t upto)
    {
        for (size_t ti = 0; ti < tiles.size(); ++ti) {
            if (tileSleepUntil[ti] != 0)
                settleTile(static_cast<unsigned>(ti), upto);
        }
    }

    // --- statistics ---------------------------------------------------

    StatGroup stats;
    Counter spawnsAccepted{stats, "spawns", "task instances enqueued"};
    Counter spawnRejects{stats, "spawn_rejects",
                         "spawns rejected (port busy or queue full)"};
    Counter instancesDone{stats, "completed", "task instances retired"};
    Counter tileBusyCycles{stats, "tile_busy_cycles",
                           "cycles x tiles with >=1 active instance"};
    Counter syncSuspends{stats, "sync_suspends",
                         "instances that vacated a tile at a sync"};
    Counter callSuspends{stats, "call_suspends",
                         "instances that vacated a tile on a task call"};
    Scalar avgSpawnToDispatch{stats, "spawn_to_dispatch",
                              "avg cycles from spawn to tile dispatch"};

  private:
    struct QueueEntry
    {
        EntryState state = EntryState::Free;
        std::unique_ptr<InstanceExec> exec;
        TaskRef parent;
        const ir::CallInst *callerSite = nullptr;
        int childCount = 0;
        uint64_t readyAt = 0;     ///< args-RAM transfer completion
        uint64_t spawnedAt = 0;
        int tile = -1;
        bool everDispatched = false; ///< spawn-latency sampling

        // Residency stall attribution (counted only while a trace
        // sink is attached — see residencyStalls()): cycles of the
        // current tile residency in which the instance fired nothing
        // and every in-flight node was blocked on memory / a spawn.
        uint64_t residMem = 0;
        uint64_t residSpawn = 0;

        // Fault-tolerance state (populated only with an injector):
        // a golden copy of the marshaled arguments, the checksum the
        // queue RAM is supposed to hold (models ECC), and how many
        // replays this instance has burned from its retry budget.
        std::vector<ir::RtValue> savedArgs;
        uint32_t checksum = 0;
        unsigned faultRetries = 0;
    };

    /** Checksum over an entry's marshaled arguments (models ECC). */
    static uint32_t argsChecksum(const std::vector<ir::RtValue> &args,
                                 unsigned sid, unsigned slot);

    /**
     * Dispatch-time checksum verification: on mismatch re-marshal
     * and re-enqueue the instance (or fail the run once the retry
     * budget is gone). Returns false when the entry was consumed by
     * recovery and must not dispatch this cycle.
     */
    bool verifyEntryChecksum(unsigned slot, uint64_t now);

    void dispatch(uint64_t now);
    void retire(unsigned slot, uint64_t now);
    void detachFromTile(unsigned slot);

    // --- event-scheduler tile sleep ------------------------------------

    /**
     * Earliest future cycle at which the given (quiet this cycle)
     * tile can possibly change state: the min over its data box's
     * stall wake and every resident instance's internal timers.
     * Returns 0 when the tile must be ticked next cycle,
     * InstanceExec::kNoWake when it holds no timer at all (empty, or
     * every resident blocked purely on an external poke).
     *
     * Side effect: fills waitScratch with the target sid of every
     * resident spawn retry that is sleepable only as a spawn-waiter
     * (one entry per retrying node). On a nonzero return the caller
     * must register those waits before sleeping the tile.
     */
    uint64_t tileWake(const Tile &tile, uint64_t now);

    /**
     * Close out a sleeping tile's skipped span: bulk-account the
     * quiet cycles (sleepBase, upto] exactly as scan mode would have
     * accrued them one by one — tile-busy counters plus the data
     * box's stall/retry witnesses — then mark the tile awake. The
     * tile's next real tick restamps every witness.
     */
    void settleTile(unsigned t, uint64_t upto);

    /**
     * External poke (dispatch, child join, call return) landing on a
     * possibly-sleeping tile at cycle `now`. No-op when awake.
     * Settles through `now` when the tile's position in this cycle's
     * tile loop has already passed (scan mode would have ticked it
     * quietly before the poke arrived, and it reacts next cycle),
     * through `now - 1` otherwise (it still gets its step this
     * cycle, in scan order).
     */
    void wakeTileForPoke(unsigned t, uint64_t now);

    /** No free entry in the task queue (spawns reject queue-full). */
    bool queueFull() const
    {
        return occupied >= static_cast<unsigned>(entries.size());
    }

    /**
     * Register the just-slept tile `t` as a spawn-waiter on every
     * target collected in waitScratch (aggregated per target with a
     * retrying-node count). Each registered target pokes the tile
     * whenever one of its queue entries frees — the only event that
     * can turn the repeating queue-full rejection into an accept.
     * Also pulls this tile's rejects back out of the targets' skip
     * witnesses: from now on the settle credit accounts them.
     */
    void registerSpawnWaits(unsigned t, uint64_t now);

    /**
     * An entry of THIS unit's queue just freed (retire): wake every
     * registered spawn-waiter tile so its next re-present runs live
     * and can take the slot in scan order.
     */
    void pokeSpawnWaiters(uint64_t now);

    /** SoA per-tile sleep state: wake cycle (0 = awake)... */
    std::vector<uint64_t> tileSleepUntil;
    /** ...and the last cycle the tile actually ticked. */
    std::vector<uint64_t> tileSleepBase;

    /**
     * Spawn-waiter registry: (unit, tile) pairs — possibly of other
     * units — sleeping on this unit's queue being full. Registered
     * by registerSpawnWaits(), poked by pokeSpawnWaiters(), torn
     * down by the waiter's settleTile().
     */
    std::vector<std::pair<TaskUnit *, unsigned>> spawnWaiters;

    /** Per sleeping tile: (target sid, retrying-node count) pairs it
        is spawn-waiting on; the count drives the settle-time
        queue-full reject credit on the target. */
    std::vector<std::vector<std::pair<unsigned, unsigned>>>
        tileSpawnWaits;

    /** tileWake() spawn-target scratch (hoisted alloc). */
    std::vector<unsigned> waitScratch;

    /** pokeSpawnWaiters() scratch: pokes settle waiters, which
        unregisters them mid-iteration, so it drains a copy. */
    std::vector<std::pair<TaskUnit *, unsigned>> pokeScratch;

    /** Count of nonzero tileSleepUntil entries. */
    unsigned sleepingTiles = 0;

    /** Lifetime tile-cycles settled from sleep spans (diagnostic). */
    uint64_t tileSlept = 0;

    /** May tick() put quiet tiles to sleep? (set by run()) */
    bool eventSleep = false;

    /**
     * Where this cycle's tile loop currently stands: tick() stamps
     * tickCycle on entry and tickTilePos before processing each tile
     * (tiles.size() once the loop is done). wakeTileForPoke() uses
     * the pair to decide whether a same-cycle poke arrived before or
     * after the target tile's position in scan order.
     */
    uint64_t tickCycle = ~0ull;
    size_t tickTilePos = 0;

    /** Attribute this cycle to a profiler bucket (profiler only). */
    void profileCycle(uint64_t now);

    /**
     * Shared classification core of profileCycle()/accountSkipped():
     * which bucket does this unit's current state land in, given
     * whether any token fired? Quiet (skipped) cycles pass false.
     */
    obs::CycleBucket classifyCycle(bool fired_any) const;

    AcceleratorSim &sim;
    const arch::Task &_task;
    const arch::Dataflow &df;
    arch::TaskUnitParams params;

    /** Dense firing-slot assignment for this task's instructions. */
    arch::FiringIndex fidx;

    std::vector<QueueEntry> entries;
    std::vector<std::unique_ptr<Tile>> tiles;
    std::deque<unsigned> readyQueue;
    bool spawnAcceptedThisCycle = false;
    bool dispatchedThisCycle = false;

    // Stall-span witness for the idle-cycle fast-forward: how many
    // spawns this unit rejected queue-full in the current cycle.
    // Each corresponds to a spawner re-presenting every cycle, so a
    // skipped span multiplies them (see accountSkipped()).
    uint64_t spawnRejectCycle = ~0ull;
    unsigned spawnRejectsThisCycle = 0;

    /** Entries not Free, maintained at spawn/retire (O(1) queries). */
    unsigned occupied = 0;

    /** tick()'s per-tile copy of the active list (hoisted alloc). */
    std::vector<unsigned> stepScratch;

    uint64_t dispatchLatSum = 0;
    uint64_t dispatchCount = 0;

    friend class AcceleratorSim;
};

/** The whole accelerator: units + shared memory system. */
class AcceleratorSim
{
  public:
    /**
     * @param design the compiled accelerator
     * @param mem shared functional memory (globals already laid out)
     */
    AcceleratorSim(const hls::AcceleratorDesign &design,
                   ir::MemImage &mem);

    /**
     * Run the accelerator: spawn the root task with `top_args` and
     * simulate until it completes — or until it fails. A run that
     * deadlocks, exceeds maxCycles, or exhausts a fault-retry budget
     * does NOT abort the process: it returns (a zero RtValue) with
     * failure() populated, including a per-unit diagnostic dump.
     *
     * @return the root task's return value (zero on failure)
     */
    ir::RtValue run(const std::vector<ir::RtValue> &top_args);

    /** How the last run() ended (kind None means success). */
    const SimFailure &failure() const { return failure_; }

    /**
     * Record a failure; the main loop stops at the next cycle
     * boundary. First failure wins.
     */
    void
    reportFailure(SimFailure::Kind kind, std::string detail)
    {
        if (!failure_.failed())
            failure_ = SimFailure{kind, std::move(detail)};
    }

    /** Cycles consumed by the last run(). */
    uint64_t cycles() const { return _cycles; }

    /**
     * Progress events observed so far (spawns, firings, completions,
     * joins). A host-side measure of how much simulation work a run
     * performed — the numerator of bench/sim_throughput's
     * events-per-host-second metric. Monotonic across runs.
     */
    uint64_t progressCount() const { return progressEvents; }

    /** Total dynamic spawns across all units in the last run. */
    uint64_t totalSpawns() const;

    /** Simulated seconds for the last run at `mhz`. */
    double
    seconds(double mhz) const
    {
        return static_cast<double>(_cycles) / (mhz * 1e6);
    }

    // --- services used by InstanceExec / TaskUnit ----------------------

    /** Route a spawn to a unit (non-Accepted => spawner retries). */
    SpawnOutcome spawnTask(unsigned sid,
                           const std::vector<ir::RtValue> &args,
                           TaskRef parent,
                           const ir::CallInst *caller_site,
                           uint64_t now);

    /** Child of `parent` joined (detach join). */
    void notifyChildDone(TaskRef parent, uint64_t now);

    /** Task-called child returned a value to `parent` at `site`. */
    void notifyCallDone(TaskRef parent, const ir::CallInst *site,
                        ir::RtValue v, uint64_t now);

    /**
     * Record a known-future tile wake in the calendar (event
     * scheduler). Hints only: a stale or early entry costs one
     * processed quiet cycle, never correctness.
     */
    void
    scheduleWake(uint64_t cycle)
    {
        calendar.schedule(cycle);
    }

    /** Root task finished. */
    void rootDone(ir::RtValue v);

    /** Something happened; feeds the deadlock watchdog. */
    void progressEvent() { ++progressEvents; }

    /**
     * Un-count a speculative firing that turned out not to happen: a
     * load/store whose data-box submit was rejected retracts the
     * progressEvent() its firing charged up front (exec.cc). A
     * retry-every-cycle stall thus counts zero progress — the event
     * stream measures activity, not attempts — which is what lets
     * the event scheduler sleep a tile that is only being rejected,
     * and keeps the watchdog an honest no-forward-progress detector.
     */
    void retractProgressEvent() { --progressEvents; }

    // --- observability -------------------------------------------------

    /** Unit name / tile-count descriptors, in sid order. */
    std::vector<obs::UnitInfo> unitInfos() const;

    /**
     * Attach a trace sink; it receives configure() immediately and
     * every observability event until removeSink(). The sink must
     * outlive the simulation (the sim does not take ownership).
     */
    void addSink(obs::TraceSink *sink);

    /** Detach a previously attached sink (no-op if absent). */
    void removeSink(obs::TraceSink *sink);

    /**
     * Attach (or detach, with nullptr) a task-lifetime tracer.
     * Convenience wrapper over addSink()/removeSink() kept for the
     * pre-obs API.
     */
    void setTracer(TaskTracer *t);

    /**
     * Attach (or detach, with nullptr) a cycle-attribution profiler;
     * it is configured with the unit list immediately. While attached,
     * every unit classifies each simulated cycle into exactly one
     * CycleBucket, so bucket totals sum to cycles() x numUnits.
     */
    void setProfiler(obs::CycleProfiler *p);

    /** Attached profiler, or nullptr. */
    obs::CycleProfiler *profiler() { return prof; }

    /**
     * Attach (or detach, with nullptr) a fault injector; it also
     * hooks the shared cache. Not owned; must outlive the run.
     * Attach before run(): mid-run attachment misses the checksum
     * baseline of already-queued entries.
     */
    void
    setFaultInjector(FaultInjector *f)
    {
        faultInj = f;
        cache.setFaultInjector(f);
    }

    /** Attached fault injector, or nullptr. */
    FaultInjector *faultInjector() { return faultInj; }

    void
    emitFault(uint64_t cycle, const char *kind, unsigned sid)
    {
        if (!hasSinks)
            return;
        for (obs::TraceSink *s : sinks)
            s->faultInjected(cycle, kind, sid);
    }

    void
    emitRecovery(uint64_t cycle, const char *kind, unsigned sid)
    {
        if (!hasSinks)
            return;
        for (obs::TraceSink *s : sinks)
            s->faultRecovered(cycle, kind, sid);
    }

    /** Any trace sink attached? (skip event bookkeeping if not) */
    bool observed() const { return hasSinks; }

    void
    emitSpawn(uint64_t cycle, unsigned sid, unsigned slot,
              TaskRef parent)
    {
        if (!hasSinks)
            return;
        for (obs::TraceSink *s : sinks) {
            s->taskSpawn(cycle, sid, slot,
                         parent.valid() ? parent.sid : ~0u,
                         parent.slot);
        }
    }

    void
    emitDispatch(uint64_t cycle, unsigned sid, unsigned slot,
                 unsigned tile)
    {
        if (!hasSinks)
            return;
        for (obs::TraceSink *s : sinks)
            s->taskDispatch(cycle, sid, slot, tile);
    }

    void
    emitResidency(uint64_t cycle, unsigned sid, unsigned slot,
                  uint64_t mem, uint64_t spawn)
    {
        if (!hasSinks)
            return;
        for (obs::TraceSink *s : sinks)
            s->residencyStalls(cycle, sid, slot, mem, spawn);
    }

    void
    emitSuspend(uint64_t cycle, unsigned sid, unsigned slot)
    {
        if (!hasSinks)
            return;
        for (obs::TraceSink *s : sinks)
            s->taskSuspend(cycle, sid, slot);
    }

    void
    emitRetire(uint64_t cycle, unsigned sid, unsigned slot)
    {
        if (!hasSinks)
            return;
        for (obs::TraceSink *s : sinks)
            s->taskRetire(cycle, sid, slot);
    }

    void
    emitSpawnReject(uint64_t cycle, unsigned sid, bool queue_full)
    {
        if (!hasSinks)
            return;
        for (obs::TraceSink *s : sinks)
            s->spawnRejected(cycle, sid, queue_full);
    }

    /**
     * Cycles between queue-occupancy / cache-counter samples sent to
     * trace sinks (counter-track resolution in the Perfetto export).
     */
    uint64_t sampleInterval = 16;

    ir::MemImage &mem() { return _mem; }

    const hls::AcceleratorDesign &design() const { return _design; }

    const arch::AcceleratorParams &params() const
    {
        return _design.params;
    }

    TaskUnit &unit(unsigned sid) { return *units.at(sid); }

    SharedCache &cacheModel() { return cache; }

    /** Dump all stat groups (units + cache + global). */
    void dumpStats(std::ostream &os) const;

    StatGroup stats{"accel"};
    Counter rootRuns{stats, "runs", "root task invocations"};
    Histogram taskLifetime{stats, "task_lifetime",
                           "cycles from spawn to retire", 8};
    Distribution spawnLatency{stats, "spawn_latency",
                              "cycles from spawn to first dispatch"};

    /** Maximum cycles before declaring a hang. */
    uint64_t maxCycles = 2'000'000'000ull;

    /** Cycles without progress before declaring deadlock. */
    uint64_t watchdogCycles = 1'000'000;

    /**
     * Idle-cycle fast-forward: when a cycle makes no progress and
     * every unit is quiescent (only in-flight memory responses,
     * fixed-latency ops, or delayed spawn retries pending), jump
     * straight to the earliest wake-up cycle instead of spinning.
     * Cycle-exact by construction — modeled cycle counts, stats, and
     * observability streams are identical either way (pinned by
     * tests/sim_perf_test.cc). Auto-disabled while a fault injector
     * with any nonzero rate is attached: those draw from the RNG
     * every cycle, so skipping would change the fault schedule.
     */
    bool idleSkip = true;

    /**
     * Cycle-loop scheduling policy (see Scheduler). Event mode is
     * byte-identical to Scan on every workload — including fault
     * injection, tracing, and checkpoint/resume — and is the
     * default; Scan remains selectable as the reference
     * implementation and differential-test oracle.
     */
    Scheduler scheduler = Scheduler::Event;

    /** The design's decoded micro-op tables, shared by all tiles. */
    const ir::LoweredProgram &
    loweredProgram() const
    {
        return *_design.lowered;
    }

    /** Resolved constant pool of lowered function `func_index`. */
    const ir::RtValue *
    constPool(uint32_t func_index) const
    {
        return lowPools[func_index].data();
    }

    /**
     * Cooperative cancellation (not owned; must outlive the run).
     * Polled every cancelPollInterval cycles — the only place the
     * simulator reads a wall clock — and honored at the top of the
     * next cycle: the run stops with SimFailure::Kind::Interrupted
     * and _cycles holding the boundary it stopped at. Null = never
     * polled; the zero-observer fast path is untouched.
     */
    const CancelToken *cancelToken = nullptr;

    /**
     * Deterministic *simulated-cycle* deadline: stop with Interrupted
     * before executing cycle `deadlineCycles` (0 = none). Unlike the
     * wall-clock token this is exact and reproducible — the
     * interrupt lands on the same boundary every run — so tests and
     * checkpoint cadences are built on it. A deadline at or past the
     * run's natural cycle count never fires (the run completes), and
     * a non-firing deadline leaves the run byte-identical: the
     * idle-skip wake is capped at the deadline, which only binds when
     * the deadline would have been reached anyway.
     */
    uint64_t deadlineCycles = 0;

    /** Cycles between cancel-token polls (amortizes clock reads). */
    uint64_t cancelPollInterval = 4096;

    /**
     * Checkpoint cadence: invoke onCheckpoint at each multiple of
     * checkpointEveryCycles the run reaches (0 = off; the idle-skip
     * wake is capped so boundaries are landed on exactly). The hook
     * runs between cycles — the simulator state is quiescent — and
     * must not mutate the simulation.
     */
    uint64_t checkpointEveryCycles = 0;
    std::function<void(uint64_t)> onCheckpoint;

    /** Cycles the last run() fast-forwarded over (diagnostics). */
    uint64_t skippedCycles() const { return idleSkipped; }

    /**
     * Tile-cycles the event scheduler covered with per-tile sleep
     * spans in the last run() (summed over units; 0 in scan mode).
     * Diagnostic only — never folded into stats or RunResult.
     */
    uint64_t tileSleptCycles() const
    {
        uint64_t total = 0;
        for (const auto &u : units)
            total += u->tileSleptCycles();
        return total;
    }

  private:
    /**
     * The state dump attached to deadlock / cycle-limit failures:
     * per-unit queue occupancy and entry-state breakdown,
     * outstanding cache misses, and the last cycle that made
     * progress.
     */
    std::string diagnosticDump(uint64_t now,
                               uint64_t last_progress_cycle) const;

    const hls::AcceleratorDesign &_design;
    ir::MemImage &_mem;
    SharedCache cache;
    std::vector<std::unique_ptr<TaskUnit>> units;

    /** Per-function constant pools with global addresses patched
     *  against _mem (resolved at the first run()). */
    std::vector<std::vector<ir::RtValue>> lowPools;

    uint64_t _cycles = 0;
    uint64_t idleSkipped = 0;

    /** Future tile wakes (event scheduler); reset each run(). */
    WakeupCalendar calendar;
    uint64_t progressEvents = 0;
    std::vector<obs::TraceSink *> sinks;
    bool hasSinks = false; ///< cached !sinks.empty() for emit paths
    obs::CycleProfiler *prof = nullptr;
    TaskTracer *tracer = nullptr; ///< setTracer() adapter bookkeeping
    FaultInjector *faultInj = nullptr;
    SimFailure failure_;
    bool rootFinished = false;
    ir::RtValue rootValue;
};

} // namespace tapas::sim

#endif // TAPAS_SIM_ACCEL_HH
