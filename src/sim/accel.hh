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
#include <bit>
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

/** Result of presenting a spawn to a unit's spawn port. */
enum class SpawnOutcome : uint8_t {
    Accepted, ///< enqueued; the child will run
    Rejected, ///< port busy or queue full; retry next cycle
    Dropped,  ///< injected fault ate the handshake; retry w/ backoff
};

/**
 * A set of indices below a fixed bound, one bit each in 64-bit
 * words: O(1) insert and erase, and an ascending walk that skips 64
 * absent indices per count-trailing-zeros. A task unit keeps its
 * free queue slots and the tiles its tick must visit in one.
 */
class IndexSet
{
  public:
    /** Resize to indices [0, n), all present. */
    void
    fill(size_t n)
    {
        words.assign((n + 63) / 64, ~0ull);
        if (n & 63)
            words.back() = (1ull << (n & 63)) - 1;
    }

    void insert(size_t i) { words[i >> 6] |= 1ull << (i & 63); }
    void erase(size_t i) { words[i >> 6] &= ~(1ull << (i & 63)); }

    /** Smallest member >= `from`, or npos when there is none. */
    size_t
    next(size_t from) const
    {
        size_t w = from >> 6;
        if (w >= words.size())
            return npos;
        uint64_t bits = words[w] & (~0ull << (from & 63));
        while (bits == 0) {
            if (++w == words.size())
                return npos;
            bits = words[w];
        }
        return (w << 6) + static_cast<size_t>(std::countr_zero(bits));
    }

    static constexpr size_t npos = ~size_t{0};

  private:
    std::vector<uint64_t> words;
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

    /** Cycle of the next drawn freeze (FaultInjector::kNever: none). */
    uint64_t nextStickAt = ~0ull;

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

    /** Dynamic nodes fired so far (stats). */
    uint64_t firedCount() const { return firedNodes; }

    /**
     * Add the in-flight nodes by phase across every live frame:
     * executing (fixed-latency ops), waiting on memory tickets, and
     * retrying a back-pressured spawn. Used by the cycle-attribution
     * profiler to classify a unit's cycle and by residency stall
     * attribution. O(1): reads the counts setPhase() maintains.
     */
    void
    phaseCensus(unsigned &exec, unsigned &mem, unsigned &spawn) const
    {
#ifndef NDEBUG
        checkPhaseCounts();
#endif
        exec += phaseCount[0];
        mem += phaseCount[1];
        spawn += phaseCount[2];
    }

    /**
     * Tile-sleep wake computation: the earliest future cycle at
     * which this instance's internal timers can change its state,
     * assuming the current cycle made no progress on its tile.
     *
     * Returns 0 when the instance must be ticked next cycle (a block
     * not yet swept, a spawn re-presenting after a dropped
     * handshake, a delivered-but-unconsumed call result), or kNoWake
     * when it holds no timer at all (blocked purely on external
     * progress — a sync join or call return, which pokes the tile —
     * or on an unissued memory request, which DataBox::stallWake
     * governs).
     *
     * A spawn re-presenting under ordinary back-pressure (no drop
     * streak, rejected this very cycle) pushes its target task sid
     * onto `spawn_waits` instead of vetoing: the caller may sleep the
     * tile as a registered spawn-waiter, provided the target queue is
     * full and pokes it on every entry free (see
     * TaskUnit::pokeSpawnWaiters).
     */
    uint64_t nextWake(uint64_t now, const DataBox &box,
                      std::vector<unsigned> &spawn_waits) const;

    /** nextWake() sentinel: no internal timer. */
    static constexpr uint64_t kNoWake = ~0ull;

    /**
     * Resident parking, read after a step() that returned Running
     * and emitted no progress event: until this cycle, stepping the
     * instance again would fire nothing and change nothing. It is
     * the earliest timer of the top frame (the only frame step()
     * sweeps) — an Exec node's doneAt or an issued ticket's
     * completesAt — or kNoWake when it holds neither. 0 when the
     * instance must step next cycle anyway: a fresh block, a ready
     * node that could not fire (token clash, staging-full submit)
     * or a spawn retry.
     *
     * The rest of its wakeups come from outside, so the owning unit
     * delivers them: an unissued ticket's issue (DataBox::issued()),
     * a dispatch and a task-call return.
     */
    uint64_t parkWake() const { return parkAt; }

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
         * any timer expiring, so its tile must not sleep while one
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

    /**
     * phaseCount slot of each Phase: Exec, Mem and SpawnRetry are
     * counted; every other phase maps to slot 3, a scratch slot that
     * is never read (nodes enter Waiting by bulk assignment in
     * enterBlock(), uncounted).
     */
    static constexpr uint8_t kPhaseSlot[] = {3, 0, 1, 2, 3, 3, 3, 3};

    /** Move node `st` to phase `p`, keeping phaseCount exact. */
    void
    setPhase(NodeState &st, Phase p)
    {
        --phaseCount[kPhaseSlot[static_cast<size_t>(st.phase)]];
        ++phaseCount[kPhaseSlot[static_cast<size_t>(p)]];
        st.phase = p;
    }

    /** Debug cross-check: recount phaseCount from the node states. */
    void checkPhaseCounts() const;

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
    uint64_t parkAt = 0; ///< see parkWake()

    /**
     * Nodes of every live frame in Exec, Mem and SpawnRetry (slots
     * 0-2, see kPhaseSlot), maintained by setPhase() on every phase
     * transition the way Frame::doneCount is, so phaseCensus() never
     * rescans node states. A frame leaves a block only once every
     * node is DoneNode, so block entry and frame pops need no update.
     */
    std::array<uint32_t, 4> phaseCount{};
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
     * Start of a run(): zero the tiles' firing stamps and freezes,
     * draw each tile's first freeze arrival, unpark every instance
     * and wake every tile.
     */
    void resetFiring();

    /** Wake every sleeping tile without settling (start of a run). */
    void
    resetSleep()
    {
        tileSleepUntil.assign(tiles.size(), 0);
        tickSet.fill(tiles.size());
        nextDue = InstanceExec::kNoWake;
        tileSleepBase.assign(tiles.size(), 0);
        tileSpawnWaits.assign(tiles.size(), {});
        spawnWaiters.clear();
        tileSlept = 0;
        tickCycle = ~0ull;
        tickTilePos = 0;
    }

    /**
     * Tile-cycles covered by sleep spans instead of per-cycle ticks.
     * Diagnostic only — deliberately NOT a stats Counter, so modeled
     * results do not depend on whether a tile slept.
     */
    uint64_t tileSleptCycles() const { return tileSlept; }

    /**
     * End-of-run settle: close out every still-sleeping tile through
     * `upto` (the last processed cycle). The run may end — root
     * retire, failure, interrupt — while a tile is mid-span;
     * per-cycle ticking would have stepped it quietly through that
     * cycle, so its bulk accounting must land before stats are read.
     */
    void
    settleAllSleeping(uint64_t upto)
    {
        for (size_t ti = 0; ti < tiles.size(); ++ti) {
            if (tileSleepUntil[ti] != 0)
                settleTile(static_cast<unsigned>(ti), upto);
        }
    }

    /**
     * Sample-boundary accrual: every sleeping tile accounts its span
     * through `upto` (this processed cycle) and keeps sleeping, so
     * the cumulative stall totals a sink samples now are the ones
     * per-cycle ticking would show.
     */
    void
    accrueAllSleeping(uint64_t upto)
    {
        for (size_t ti = 0; ti < tiles.size(); ++ti) {
            if (tileSleepUntil[ti] != 0)
                accrueTile(static_cast<unsigned>(ti), upto);
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

        /**
         * Resident parking: tick() skips this instance while
         * parkUntil > now (InstanceExec::parkWake()). A data-box
         * issue lowers it to the response cycle; a dispatch and a
         * call return clear it.
         */
        uint64_t parkUntil = 0;

        // Fault-tolerance state (populated only with an injector):
        // a golden copy of the marshaled arguments, the checksum the
        // queue RAM is supposed to hold (models ECC), and how many
        // replays this instance has burned from its retry budget.
        std::vector<ir::RtValue> savedArgs;
        uint32_t checksum = 0;
        unsigned faultRetries = 0;
    };

    /**
     * Residency stall attribution for `n` cycles in which `e` fired
     * nothing, from its current phase census (counted only while a
     * trace sink is attached).
     */
    void chargeResidency(QueueEntry &e, uint64_t n);

    /**
     * Issue-time wake: lower the parkUntil of every instance whose
     * request tile `t`'s data box just issued to its response cycle
     * (an unissued ticket holds no timer of its own).
     */
    void wakeIssueOwners(unsigned t);

#ifndef NDEBUG
    /**
     * Debug audit of a parked resident: step it anyway and assert
     * that it fired nothing, made no progress, kept running and did
     * not outlive a timer.
     */
    void auditParked(QueueEntry &e, uint64_t now, Tile &tile);
#endif

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

    /**
     * The ready-queue head is the only entry dispatch() looks at, so
     * its args-RAM completion is this unit's one timer: put it on the
     * wakeup calendar whenever a spawn or a replay sets it or the
     * head changes, so a fast-forward lands on it.
     */
    void scheduleHeadReady(uint64_t now);

    void retire(unsigned slot, uint64_t now);
    void detachFromTile(unsigned slot);

    // --- tile sleep ----------------------------------------------------

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
     * Bulk-account a sleeping tile's quiet cycles (sleepBase, upto]
     * exactly as per-cycle ticking would have accrued them one by
     * one — tile-busy counters, the data box's stall/retry
     * witnesses, residency stalls, spawn-waiter reject credit — and
     * advance sleepBase to `upto`. The tile keeps sleeping.
     */
    void accrueTile(unsigned t, uint64_t upto);

    /**
     * Close out a sleeping tile's skipped span: accrueTile() through
     * `upto`, unregister its spawn waits, and mark it awake. The
     * tile's next real tick restamps every witness.
     */
    void settleTile(unsigned t, uint64_t upto);

    /**
     * External poke (dispatch, child join, call return) landing on a
     * possibly-sleeping tile at cycle `now`. No-op when awake.
     * Settles through `now` when the tile's position in this cycle's
     * tile loop has already passed (per-cycle ticking would have
     * stepped it quietly before the poke arrived, and it reacts next
     * cycle), through `now - 1` otherwise (it still gets its step
     * this cycle, in tile order).
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
     */
    void registerSpawnWaits(unsigned t);

    /**
     * An entry of THIS unit's queue just freed (retire): wake every
     * registered spawn-waiter tile so its next re-present runs live
     * and can take the slot in tile order.
     */
    void pokeSpawnWaiters(uint64_t now);

    /** SoA per-tile sleep state: wake cycle (0 = awake)... */
    std::vector<uint64_t> tileSleepUntil;
    /** ...and the last cycle the tile actually ticked. */
    std::vector<uint64_t> tileSleepBase;

    /**
     * Tiles tick() visits this cycle, in index order: the awake ones
     * plus sleepers whose timer is due (markDueTiles()). A sleep
     * removes its tile and a settle adds it back, so pokes during
     * the walk are seen when the walk re-reads the set.
     */
    IndexSet tickSet;

    /**
     * Lower bound on every sleeping tile's wake cycle (kNoWake:
     * none): until it passes, no sleeper is due and markDueTiles()
     * is not needed.
     */
    uint64_t nextDue = InstanceExec::kNoWake;

    /** Add every due sleeper to tickSet and recompute nextDue. */
    void markDueTiles(uint64_t now);

    /**
     * Earliest drawn freeze over all tiles (FaultInjector::kNever
     * without an injector): beginCycle() looks at the tiles only
     * once it has passed.
     */
    uint64_t nextStickMin = ~0ull;

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

    /** Lifetime tile-cycles settled from sleep spans (diagnostic). */
    uint64_t tileSlept = 0;

    /**
     * Where this cycle's tile loop currently stands: tick() stamps
     * tickCycle on entry and tickTilePos before processing each tile
     * (tiles.size() once the loop is done). wakeTileForPoke() uses
     * the pair to decide whether a same-cycle poke arrived before or
     * after the target tile's position in tile order.
     */
    uint64_t tickCycle = ~0ull;
    size_t tickTilePos = 0;

    /** Attribute this cycle to a profiler bucket (profiler only). */
    void profileCycle();

    /**
     * Shared classification core of profileCycle() and run()'s
     * fast-forward: which bucket does this unit's current state land
     * in, given whether any token fired? Quiet (skipped) cycles pass
     * false.
     */
    obs::CycleBucket classifyCycle(bool fired_any) const;

    AcceleratorSim &sim;
    const arch::Task &_task;
    const arch::Dataflow &df;
    arch::TaskUnitParams params;

    /** Dense firing-slot assignment for this task's instructions. */
    arch::FiringIndex fidx;

    std::vector<QueueEntry> entries;
    /** Free entries; trySpawn() takes the lowest. */
    IndexSet freeSlots;
    std::vector<std::unique_ptr<Tile>> tiles;
    std::deque<unsigned> readyQueue;
    bool spawnAcceptedThisCycle = false;
    bool dispatchedThisCycle = false;

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
     * Record a known-future timer in the calendar: a sleeping tile's
     * wake bound or a ready-queue head's args-RAM completion. Hints
     * only: a stale or early entry costs one processed quiet cycle,
     * never correctness.
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
     * run() sleep a tile that is only being rejected, and keeps the
     * watchdog an honest no-forward-progress detector.
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

    /** `n` rejects from `cycle` on: more than one for a span. */
    void
    emitSpawnReject(uint64_t cycle, unsigned sid, bool queue_full,
                    uint64_t n = 1)
    {
        if (!hasSinks)
            return;
        for (obs::TraceSink *s : sinks)
            s->spawnRejected(cycle, sid, queue_full, n);
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
    uint64_t skippedCycles() const { return cyclesSkipped; }

    /**
     * Tile-cycles the last run() covered with per-tile sleep spans
     * (summed over units). Diagnostic only — never folded into stats
     * or RunResult.
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
    uint64_t cyclesSkipped = 0;

    /**
     * Every timer that can end a quiet span: sleeping tiles' wake
     * bounds, ready-queue heads' args-RAM completions and the next
     * queue-corruption arrival; reset each run().
     */
    WakeupCalendar calendar;

    /** Tiles not asleep, over all units (0 enables fast-forward). */
    size_t awakeTiles = 0;
    uint64_t progressEvents = 0;
    std::vector<obs::TraceSink *> sinks;
    bool hasSinks = false; ///< cached !sinks.empty() for emit paths
    obs::CycleProfiler *prof = nullptr;
    TaskTracer *tracer = nullptr; ///< setTracer() adapter bookkeeping
    FaultInjector *faultInj = nullptr;
    SimFailure failure_;
    bool rootFinished = false;
    ir::RtValue rootValue;

    friend class TaskUnit; // keeps awakeTiles as tiles sleep and wake
};

} // namespace tapas::sim

#endif // TAPAS_SIM_ACCEL_HH
