/**
 * @file
 * TaskUnit: task queue, spawn/join ports, tile dispatch (paper
 * Sections III-A/III-B, Figs. 4-5).
 */

#include "sim/accel.hh"

#include <algorithm>

namespace tapas::sim {

using ir::RtValue;

TaskUnit::TaskUnit(AcceleratorSim &sim, const arch::Task &task,
                   const arch::Dataflow &df,
                   const arch::TaskUnitParams &params,
                   SharedCache &cache)
    : stats("unit." + task.name()), sim(sim), _task(task), df(df),
      params(params), fidx(task)
{
    tapas_assert(params.ntasks >= 1 && params.ntiles >= 1,
                 "task unit needs a queue and at least one tile");
    entries.resize(params.ntasks);
    freeSlots.fill(params.ntasks);
    unsigned staging =
        std::max<unsigned>(4, static_cast<unsigned>(
                                  df.numMemPorts()) + 4);
    for (unsigned t = 0; t < params.ntiles; ++t) {
        tiles.push_back(std::make_unique<Tile>(
            cache, staging, /*issue_width=*/1, fidx.slots(),
            "box." + task.name() + "." + std::to_string(t)));
    }
    resetSleep();
}

SpawnOutcome
TaskUnit::trySpawn(const std::vector<RtValue> &args, TaskRef parent,
                   const ir::CallInst *caller_site, uint64_t now)
{
    FaultInjector *inj = sim.faultInjector();
    if (spawnAcceptedThisCycle) {
        ++spawnRejects;
        sim.emitSpawnReject(now, _task.sid(), /*queue_full=*/false);
        return SpawnOutcome::Rejected;
    }
    // The lowest free slot: the slot names the instance (TaskRef,
    // trace ids, the fault checksum), so the pick order is fixed.
    const size_t free_slot = freeSlots.next(0);
    if (free_slot != IndexSet::npos) {
        const auto slot = static_cast<unsigned>(free_slot);
        QueueEntry &e = entries[slot];
        // An injected fault may eat the ready/valid handshake the
        // port was about to complete; the spawner backs off and
        // retries. A rejected spawn completes no handshake, so there
        // is nothing to drop: a spawner sleeping against a full
        // queue misses no draw.
        if (inj && inj->dropSpawn()) {
            sim.emitFault(now, "spawn_drop", _task.sid());
            return SpawnOutcome::Dropped;
        }
        spawnAcceptedThisCycle = true;
        freeSlots.erase(slot);
        e.state = EntryState::Ready;
        e.parent = parent;
        e.callerSite = caller_site;
        e.childCount = 0;
        e.spawnedAt = now;
        e.tile = -1;
        e.everDispatched = false;
        e.readyAt = now + sim.params().spawnHandshake +
                    static_cast<uint64_t>(args.size()) *
                        sim.params().spawnCyclesPerArg;
        if (inj) {
            e.savedArgs = args; // golden copy for checksum replay
            e.checksum = argsChecksum(args, _task.sid(), slot);
            e.faultRetries = 0;
        }
        // One pooled InstanceExec per queue slot: later spawns into
        // the same slot reset it instead of reallocating its frames,
        // register files and node-state vectors.
        if (!e.exec) {
            e.exec = std::make_unique<InstanceExec>(
                sim, _task, fidx, TaskRef{_task.sid(), slot});
        } else {
            e.exec->reset();
        }
        e.exec->start(args);
        readyQueue.push_back(slot);
        scheduleHeadReady(now);
        ++occupied;
        ++spawnsAccepted;
        sim.emitSpawn(now, _task.sid(), slot, parent);
        sim.progressEvent();
        return SpawnOutcome::Accepted;
    }
    ++spawnRejects;
    sim.emitSpawnReject(now, _task.sid(), /*queue_full=*/true);
    return SpawnOutcome::Rejected;
}

uint32_t
TaskUnit::argsChecksum(const std::vector<RtValue> &args, unsigned sid,
                       unsigned slot)
{
    // FNV-1a over the marshaled argument words plus the entry's
    // identity, standing in for the ECC bits of the queue BRAM.
    uint32_t h = 2166136261u;
    auto mix = [&h](uint64_t word) {
        for (unsigned b = 0; b < 8; ++b) {
            h ^= static_cast<uint32_t>(word & 0xffu);
            h *= 16777619u;
            word >>= 8;
        }
    };
    mix((static_cast<uint64_t>(sid) << 32) | slot);
    for (const RtValue &v : args)
        mix(static_cast<uint64_t>(v.i));
    return h;
}

void
TaskUnit::injectQueueCorruption(uint64_t now, FaultInjector &inj)
{
    unsigned slot =
        static_cast<unsigned>(inj.pick(entries.size()));
    QueueEntry &e = entries[slot];
    // Only not-yet-dispatched entries live in the guarded queue BRAM;
    // flips landing elsewhere hit tile flip-flops and are absorbed
    // (re-executing a partially run task would not be idempotent).
    if (e.state != EntryState::Ready || e.everDispatched)
        return;
    e.checksum ^= inj.corruptionMask();
    ++inj.queueCorruptions;
    sim.emitFault(now, "queue_corrupt", _task.sid());
}

bool
TaskUnit::verifyEntryChecksum(unsigned slot, uint64_t now)
{
    FaultInjector *inj = sim.faultInjector();
    if (!inj)
        return true;
    QueueEntry &e = entries[slot];
    uint32_t expect = argsChecksum(e.savedArgs, _task.sid(), slot);
    if (e.checksum == expect)
        return true;

    if (e.faultRetries >= inj->config().maxTaskRetries) {
        sim.reportFailure(
            SimFailure::Kind::FaultBudget,
            "task '" + _task.name() + "' slot " +
                std::to_string(slot) + " exhausted its " +
                std::to_string(inj->config().maxTaskRetries) +
                "-replay fault budget on queue corruption");
        return false;
    }
    ++e.faultRetries;
    ++inj->taskReplays;
    sim.emitRecovery(now, "task_replay", _task.sid());

    // Re-marshal from the golden argument copy: fresh instance state,
    // fresh checksum, and the args-RAM transfer latency is paid again.
    e.exec->reset();
    e.exec->start(e.savedArgs);
    e.checksum = expect;
    e.readyAt = now + sim.params().spawnHandshake +
                static_cast<uint64_t>(e.savedArgs.size()) *
                    sim.params().spawnCyclesPerArg;
    readyQueue.pop_front();
    readyQueue.push_back(slot);
    scheduleHeadReady(now);
    sim.progressEvent();
    return false;
}

std::array<unsigned, 5>
TaskUnit::stateCounts() const
{
    std::array<unsigned, 5> counts{};
    for (const QueueEntry &e : entries)
        ++counts[static_cast<size_t>(e.state)];
    return counts;
}

void
TaskUnit::resetFiring()
{
    FaultInjector *inj = sim.faultInjector();
    nextStickMin = FaultInjector::kNever;
    for (auto &t : tiles) {
        t->resetFiring();
        t->stuckUntil = 0;
        t->nextStickAt = inj ? inj->nextStickFrom(0)
                             : FaultInjector::kNever;
        nextStickMin = std::min(nextStickMin, t->nextStickAt);
    }
    // Park cycles are stamps of the previous run's clock too.
    for (QueueEntry &e : entries)
        e.parkUntil = 0;
    resetSleep();
}

void
TaskUnit::scheduleHeadReady(uint64_t now)
{
    if (readyQueue.empty())
        return;
    const uint64_t at = entries[readyQueue.front()].readyAt;
    if (at > now)
        sim.scheduleWake(at);
}

void
TaskUnit::beginCycle(uint64_t now)
{
    spawnAcceptedThisCycle = false;
    dispatchedThisCycle = false;
    // Nothing per tile: the firing marks are generation-stamped by
    // cycle, and tick() zeroes each tile's fired_any tally when it
    // visits the tile (a tile it does not visit is asleep, and
    // slept off a quiet cycle with a zero tally).
    if (now < nextStickMin)
        return;
    // Tile freezes arrive at each tile's drawn cycle. A sleeping
    // tile's wake bound includes that cycle (tileWake), so the tile
    // is due now and settles in tick() before taking the freeze.
    FaultInjector &inj = *sim.faultInjector();
    nextStickMin = FaultInjector::kNever;
    for (size_t ti = 0; ti < tiles.size(); ++ti) {
        Tile &t = *tiles[ti];
        if (now >= t.nextStickAt) {
            tapas_assert(tileSleepUntil[ti] == 0 ||
                             tileSleepUntil[ti] == now,
                         "tile slept past its freeze");
            t.stuckUntil = now + inj.config().tileStuckCycles;
            t.nextStickAt = inj.nextStickFrom(t.stuckUntil);
            ++inj.tileStalls;
            sim.emitFault(now, "tile_stuck", _task.sid());
        }
        nextStickMin = std::min(nextStickMin, t.nextStickAt);
    }
}

void
TaskUnit::dispatch(uint64_t now)
{
    // One dispatch per unit per cycle, in spawn order.
    if (readyQueue.empty())
        return;
    unsigned slot = readyQueue.front();
    QueueEntry &e = entries[slot];
    tapas_assert(e.state == EntryState::Ready,
                 "non-ready entry in the ready queue");
    if (e.readyAt > now)
        return; // args still streaming into the args RAM
    if (!verifyEntryChecksum(slot, now))
        return; // entry consumed by fault recovery this cycle

    // Least-loaded tile with pipeline capacity (skipping frozen ones).
    int best = -1;
    for (unsigned t = 0; t < tiles.size(); ++t) {
        if (now < tiles[t]->stuckUntil)
            continue;
        if (tiles[t]->active.size() >= params.tilePipelineDepth)
            continue;
        if (best < 0 ||
            tiles[t]->active.size() < tiles[best]->active.size()) {
            best = static_cast<int>(t);
        }
    }
    if (best < 0)
        return; // every tile pipeline is full

    // A dispatch is an external poke: a sleeping chosen tile settles
    // its skipped span and takes the instance this very cycle (the
    // tile loop runs after dispatch, so tile order is preserved).
    wakeTileForPoke(static_cast<unsigned>(best), now);

    readyQueue.pop_front();
    scheduleHeadReady(now);
    e.state = EntryState::Exe;
    e.residMem = 0;
    e.residSpawn = 0;
    e.parkUntil = 0;
    e.tile = best;
    tiles[best]->active.push_back(slot);
    dispatchedThisCycle = true;
    dispatchLatSum += now - e.spawnedAt;
    ++dispatchCount;
    if (!e.everDispatched) {
        e.everDispatched = true;
        sim.spawnLatency.sample(
            static_cast<double>(now - e.spawnedAt));
    }
    sim.emitDispatch(now, _task.sid(), slot,
                     static_cast<unsigned>(best));
    avgSpawnToDispatch = dispatchCount
        ? static_cast<double>(dispatchLatSum) / dispatchCount
        : 0.0;
    sim.progressEvent();
}

void
TaskUnit::detachFromTile(unsigned slot)
{
    QueueEntry &e = entries[slot];
    if (e.tile < 0)
        return;
    auto &act = tiles[e.tile]->active;
    for (size_t i = 0; i < act.size(); ++i) {
        if (act[i] == slot) {
            act.erase(act.begin() + static_cast<long>(i));
            break;
        }
    }
    e.tile = -1;
}

void
TaskUnit::retire(unsigned slot, uint64_t now)
{
    QueueEntry &e = entries[slot];
    // Tapir requires a sync before a task completes; a nonzero join
    // counter here would orphan children (their join would hit a
    // recycled entry).
    tapas_assert(e.childCount == 0,
                 "task '%s' instance %u completed with %d unsynced "
                 "children (missing sync before reattach/ret)",
                 _task.name().c_str(), slot, e.childCount);
    RtValue ret = e.exec->returnValue();
    TaskRef parent = e.parent;
    const ir::CallInst *site = e.callerSite;

    detachFromTile(slot);
    // Keep the pooled exec object (and its buffer capacities) alive;
    // the next spawn into this slot resets and restarts it.
    e.savedArgs.clear();
    e.state = EntryState::Free;
    freeSlots.insert(slot);
    --occupied;
    // The freed slot is what every registered spawn-waiter sleeps
    // on: wake them before anything else can race for it.
    if (!spawnWaiters.empty())
        pokeSpawnWaiters(now);
    ++instancesDone;
    sim.taskLifetime.sample(now - e.spawnedAt);
    sim.emitResidency(now, _task.sid(), slot, e.residMem,
                      e.residSpawn);
    sim.emitRetire(now, _task.sid(), slot);
    sim.progressEvent();

    if (!parent.valid()) {
        sim.rootDone(ret);
    } else if (site) {
        sim.notifyCallDone(parent, site, ret, now);
    } else {
        sim.notifyChildDone(parent, now);
    }
}

void
TaskUnit::tick(uint64_t now)
{
    tickCycle = now;
    tickTilePos = 0;
    dispatch(now);
    if (now >= nextDue)
        markDueTiles(now);

    // Visit the awake and due tiles in index order. Re-reading the
    // set after each tile picks up pokes that woke a later tile.
    for (size_t ti = tickSet.next(0); ti != IndexSet::npos;
         ti = tickSet.next(ti + 1)) {
        tickTilePos = ti;
        Tile &tile = *tiles[ti];
        if (tileSleepUntil[ti] != 0) {
            // Timer due: close out the skipped span, then take the
            // normal per-cycle path below.
            settleTile(static_cast<unsigned>(ti), now - 1);
        }
        tile.firedThisCycle = 0;
        const uint64_t progressBefore = sim.progressCount();
        if (!tile.active.empty())
            ++tileBusyCycles;
        if (now < tile.stuckUntil) {
            // Frozen pipeline: no firing, but outstanding memory
            // requests keep draining through the data box.
            tile.box.tick(now);
            wakeIssueOwners(static_cast<unsigned>(ti));
            continue;
        }
        // Copy: instances may retire/suspend during iteration (the
        // scratch vector is a member, so no per-cycle allocation).
        const bool counting = sim.observed();
        stepScratch = tile.active;
        for (unsigned slot : stepScratch) {
            QueueEntry &e = entries[slot];
            tapas_assert(e.state == EntryState::Exe,
                         "active slot not in EXE");
            if (e.parkUntil > now) {
                // Parked: this step would fire nothing.
#ifndef NDEBUG
                auditParked(e, now, tile);
#endif
                if (counting)
                    chargeResidency(e, 1);
                continue;
            }
            const uint64_t eventsBefore = sim.progressCount();
            const uint64_t firedBefore = e.exec->firedCount();
            const InstanceExec::Status st = e.exec->step(now, tile);
            if (counting && e.exec->firedCount() == firedBefore)
                chargeResidency(e, 1);
            switch (st) {
              case InstanceExec::Status::Running:
                // A quiet step parks the instance until its timer.
                e.parkUntil = sim.progressCount() == eventsBefore
                                  ? e.exec->parkWake()
                                  : 0;
                break;
              case InstanceExec::Status::WaitSync:
                if (e.childCount == 0)
                    break; // joined during this very cycle
                detachFromTile(slot);
                e.state = EntryState::Sync;
                ++syncSuspends;
                sim.emitResidency(now, _task.sid(), slot, e.residMem,
                                  e.residSpawn);
                sim.emitSuspend(now, _task.sid(), slot);
                break;
              case InstanceExec::Status::WaitCall:
                detachFromTile(slot);
                e.state = EntryState::WaitCall;
                ++callSuspends;
                sim.emitResidency(now, _task.sid(), slot, e.residMem,
                                  e.residSpawn);
                sim.emitSuspend(now, _task.sid(), slot);
                break;
              case InstanceExec::Status::Done:
                retire(slot, now);
                break;
            }
        }
        tile.box.tick(now);
        wakeIssueOwners(static_cast<unsigned>(ti));

        // Tile sleep: a tile that just went through a provably
        // quiet cycle (no firing, no progress event from its
        // instances) may sleep until its earliest internal timer.
        // The fired/progress gate is only a cheap pre-filter;
        // correctness rests on tileWake()'s veto logic. A frozen
        // tile never gets here: it stays awake until it thaws.
        if (tile.firedThisCycle == 0 &&
            sim.progressCount() == progressBefore) {
            uint64_t w = tileWake(tile, now);
            if (w > now + 1) {
                tileSleepUntil[ti] = w;
                tileSleepBase[ti] = now;
                tickSet.erase(ti);
                nextDue = std::min(nextDue, w);
                --sim.awakeTiles;
                if (w != InstanceExec::kNoWake)
                    sim.scheduleWake(w);
                if (!waitScratch.empty())
                    registerSpawnWaits(static_cast<unsigned>(ti));
            }
        }
    }
    tickTilePos = tiles.size();
}

void
TaskUnit::markDueTiles(uint64_t now)
{
    nextDue = InstanceExec::kNoWake;
    for (size_t ti = 0; ti < tiles.size(); ++ti) {
        const uint64_t w = tileSleepUntil[ti];
        if (w == 0)
            continue;
        if (w <= now)
            tickSet.insert(ti);
        else
            nextDue = std::min(nextDue, w);
    }
}

void
TaskUnit::wakeIssueOwners(unsigned t)
{
    for (const DataBox::Issue &is : tiles[t]->box.issued()) {
        QueueEntry &e = entries[is.owner];
#ifndef NDEBUG
        tapas_assert(e.state == EntryState::Exe &&
                         e.tile == static_cast<int>(t),
                     "tile %u issued a request for slot %u, which "
                     "is not its resident",
                     t, is.owner);
#endif
        e.parkUntil = std::min(e.parkUntil, is.completesAt);
    }
}

#ifndef NDEBUG
void
TaskUnit::auditParked(QueueEntry &e, uint64_t now, Tile &tile)
{
    // Step the parked instance anyway: it must fire nothing, make no
    // progress, keep running and still be parkable, and no timer may
    // have been missed (issue wakes may have lowered parkUntil below
    // its own timers, never the other way round).
    const uint64_t events = sim.progressCount();
    const uint64_t fired = e.exec->firedCount();
    const InstanceExec::Status st = e.exec->step(now, tile);
    tapas_assert(st == InstanceExec::Status::Running &&
                     sim.progressCount() == events &&
                     e.exec->firedCount() == fired,
                 "parked instance of '%s' acted at cycle %llu",
                 _task.name().c_str(),
                 static_cast<unsigned long long>(now));
    tapas_assert(e.exec->parkWake() != 0 &&
                     e.exec->parkWake() >= e.parkUntil,
                 "parked instance of '%s' missed a timer at cycle "
                 "%llu (parked until %llu, wakes at %llu)",
                 _task.name().c_str(),
                 static_cast<unsigned long long>(now),
                 static_cast<unsigned long long>(e.parkUntil),
                 static_cast<unsigned long long>(e.exec->parkWake()));
}
#endif

uint64_t
TaskUnit::tileWake(const Tile &tile, uint64_t now)
{
    // Per-tile stall spans may be bulk-accounted (stallWake): an
    // MSHR-full head reject repeats identically every cycle until an
    // MSHR retires no matter what other tiles do (rejects never
    // allocate, and MSHR-full is classified before port contention).
    // Spawn retries report their targets into waitScratch instead of
    // vetoing: a retry against a full queue repeats verbatim until
    // the target frees an entry, and retire() — the only free site —
    // pokes every registered waiter, so the span stays exactly
    // bounded. The tile's next drawn freeze is a timer like any
    // other. Parked residents count like the rest: nextWake() sweeps
    // every frame, so it never exceeds a resident's parkUntil, and
    // while the tile sleeps its box issues nothing, so no issue wake
    // can arrive early.
    waitScratch.clear();
    uint64_t wake = std::min(tile.box.stallWake(now), tile.nextStickAt);
    if (wake == 0)
        return 0;
    for (unsigned slot : tile.active) {
        uint64_t w =
            entries[slot].exec->nextWake(now, tile.box, waitScratch);
        if (w <= now + 1)
            return 0; // due next cycle: no span to sleep
        wake = std::min(wake, w);
    }
    // A spawn-waiter sleep is only sound against a full queue: a
    // non-full target (the reject was port contention, not
    // queue-full) could accept the very next re-present, so the
    // tile must stay awake and retry live.
    for (unsigned sid : waitScratch) {
        if (!sim.unit(sid).queueFull())
            return 0;
    }
    return wake;
}

void
TaskUnit::registerSpawnWaits(unsigned t)
{
    auto &waits = tileSpawnWaits[t];
    tapas_assert(waits.empty(), "stale spawn-wait registrations");
    // Aggregate waitScratch (one sid per retrying node) into
    // per-target counts: each count is one queue-full reject the
    // target tallies per slept cycle at settle time.
    for (unsigned sid : waitScratch) {
        bool found = false;
        for (auto &[tsid, cnt] : waits) {
            if (tsid == sid) {
                ++cnt;
                found = true;
                break;
            }
        }
        if (!found)
            waits.emplace_back(sid, 1u);
    }
    for (const auto &[tsid, cnt] : waits)
        sim.unit(tsid).spawnWaiters.emplace_back(this, t);
}

void
TaskUnit::pokeSpawnWaiters(uint64_t now)
{
    // Settling a waiter unregisters it from every target it waits
    // on (mutating this list), so drain a copy. wakeTileForPoke's
    // tile-position test decides whether the waiter's re-present
    // still runs this cycle or next, exactly as tile order would.
    pokeScratch = spawnWaiters;
    for (const auto &[u, t] : pokeScratch)
        u->wakeTileForPoke(t, now);
}

void
TaskUnit::chargeResidency(QueueEntry &e, uint64_t n)
{
    // Residency stall attribution: a cycle in which the instance
    // fired nothing and holds no executing node was spent entirely
    // blocked — on memory responses or on spawn back-pressure, memory
    // winning ties (same priority as classifyCycle()). Everything
    // else (including pipeline fill at a block boundary) is compute.
    unsigned ex = 0, mm = 0, sp = 0;
    e.exec->phaseCensus(ex, mm, sp);
    if (ex == 0) {
        if (mm > 0)
            e.residMem += n;
        else if (sp > 0)
            e.residSpawn += n;
    }
}

void
TaskUnit::accrueTile(unsigned t, uint64_t upto)
{
    Tile &tile = *tiles[t];
    const uint64_t base = tileSleepBase[t];
    tapas_assert(upto >= base, "settling a tile backwards");
    const uint64_t n = upto - base;
    if (n == 0)
        return;
    // Exactly what n ticked quiet cycles would have accrued: the
    // busy-cycle count (membership is frozen while asleep — detach
    // needs a step, dispatch pokes), the data box's per-cycle
    // retry/reject witnesses (moved along to `upto`), and, under
    // sinks, each resident's residency stalls from its frozen
    // census.
    if (!tile.active.empty())
        tileBusyCycles += n;
    tile.box.accountSkipped(base, upto);
    if (sim.observed()) {
        for (unsigned slot : tile.active)
            chargeResidency(entries[slot], n);
    }
    // Each slept cycle re-presented every retrying node against its
    // (provably still-full) target queue, so the target tallies one
    // queue-full reject per node per cycle — exactly what live
    // ticking would have counted.
    for (const auto &[tsid, cnt] : tileSpawnWaits[t]) {
        sim.unit(tsid).spawnRejects += n * cnt;
        sim.emitSpawnReject(base + 1, tsid, /*queue_full=*/true,
                            n * cnt);
    }
    tileSlept += n;
    tileSleepBase[t] = upto;
}

void
TaskUnit::settleTile(unsigned t, uint64_t upto)
{
    accrueTile(t, upto);
    // Spawn-waiter teardown: unregister from every target.
    auto &waits = tileSpawnWaits[t];
    for (const auto &[tsid, cnt] : waits) {
        auto &reg = sim.unit(tsid).spawnWaiters;
        for (size_t i = 0; i < reg.size(); ++i) {
            if (reg[i].first == this && reg[i].second == t) {
                reg[i] = reg.back();
                reg.pop_back();
                break;
            }
        }
    }
    waits.clear();
    tileSleepUntil[t] = 0;
    tickSet.insert(t);
    ++sim.awakeTiles;
}

void
TaskUnit::wakeTileForPoke(unsigned t, uint64_t now)
{
    if (tileSleepUntil[t] == 0)
        return;
    // Did this cycle's tile loop already pass tile t? Then live
    // ticking would have stepped it quietly at `now` before the poke
    // arrived (count `now` into the settled span; it reacts at
    // now+1). Otherwise it still gets its step this cycle, in tile
    // order.
    const bool passed = tickCycle == now && tickTilePos > t;
    settleTile(t, passed ? now : now - 1);
}

void
TaskUnit::childJoined(unsigned slot, uint64_t now)
{
    QueueEntry &e = entries.at(slot);
    tapas_assert(e.state != EntryState::Free,
                 "join for a freed entry in '%s'",
                 _task.name().c_str());
    tapas_assert(e.childCount > 0, "join underflow in '%s'",
                 _task.name().c_str());
    --e.childCount;
    sim.progressEvent();
    // A join landing on an on-tile parent is an external poke: its
    // tile holds no timer for it (InstanceExec::nextWake treats sync
    // joins as externally driven), so a sleeping tile must be woken
    // here.
    if (e.tile >= 0)
        wakeTileForPoke(static_cast<unsigned>(e.tile), now);
    if (e.childCount == 0 && e.state == EntryState::Sync) {
        e.state = EntryState::Ready;
        e.readyAt = 0;
        readyQueue.push_back(slot);
    }
}

void
TaskUnit::callReturned(unsigned slot, const ir::CallInst *site,
                       RtValue v, uint64_t now)
{
    QueueEntry &e = entries.at(slot);
    tapas_assert(e.state != EntryState::Free,
                 "call return for a freed entry");
    e.exec->deliverCallResult(site, v);
    e.parkUntil = 0;
    sim.progressEvent();
    // Same poke rule as childJoined: a call result delivered to an
    // instance still resident on a tile (it had not suspended yet)
    // makes that instance steppable next cycle.
    if (e.tile >= 0)
        wakeTileForPoke(static_cast<unsigned>(e.tile), now);
    if (e.state == EntryState::WaitCall) {
        e.state = EntryState::Ready;
        e.readyAt = 0;
        readyQueue.push_back(slot);
    }
}

void
TaskUnit::noteChildSpawned(unsigned slot)
{
    QueueEntry &e = entries.at(slot);
    tapas_assert(e.state == EntryState::Exe,
                 "spawn from a non-executing entry");
    ++e.childCount;
}

obs::CycleBucket
TaskUnit::classifyCycle(bool fired_any) const
{
    if (occupancy() == 0)
        return obs::CycleBucket::Idle;

    // Executing instances are exactly the tiles' residents.
    unsigned exec_n = 0, mem_n = 0, spawn_n = 0;
    for (const auto &t : tiles) {
        for (unsigned slot : t->active)
            entries[slot].exec->phaseCensus(exec_n, mem_n, spawn_n);
    }

    // Exactly one bucket per unit per cycle, most-productive first:
    // any firing or in-flight compute counts as busy; otherwise the
    // dominant blocker wins. An occupied unit with no executing
    // instance is backed up in its queue (sync / wait-call / tiles
    // full), which is the queue-pressure bucket.
    if (fired_any || exec_n > 0)
        return obs::CycleBucket::Busy;
    if (mem_n > 0)
        return obs::CycleBucket::StallMem;
    if (spawn_n > 0)
        return obs::CycleBucket::StallSpawn;
    return obs::CycleBucket::QueueFull;
}

void
TaskUnit::profileCycle()
{
    obs::CycleProfiler *prof = sim.profiler();
    if (!prof)
        return;

    // A sleeping tile fired nothing, so only awake ones are read.
    bool fired_any = dispatchedThisCycle;
    for (size_t ti = tickSet.next(0); !fired_any && ti != IndexSet::npos;
         ti = tickSet.next(ti + 1))
        fired_any = tiles[ti]->firedThisCycle > 0;

    prof->note(_task.sid(), classifyCycle(fired_any));
}

} // namespace tapas::sim
