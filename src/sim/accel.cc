/**
 * @file
 * AcceleratorSim: top-level cycle loop and inter-unit routing.
 */

#include "sim/accel.hh"

#include <algorithm>
#include <ostream>
#include <string>

#include "support/logging.hh"

namespace tapas::sim {

using ir::RtValue;

AcceleratorSim::AcceleratorSim(const hls::AcceleratorDesign &design,
                               ir::MemImage &mem)
    : _design(design), _mem(mem), cache(design.params.mem)
{
    tapas_assert(design.lowered,
                 "accelerator design without micro-op tables");

    const arch::TaskGraph &tg = *design.taskGraph;
    for (const auto &task : tg.tasks()) {
        units.push_back(std::make_unique<TaskUnit>(
            *this, *task, design.dataflow(task->sid()),
            design.params.forTask(task->sid()), cache));
    }
    tapas_assert(!units.empty(), "accelerator with no task units");
}

SpawnOutcome
AcceleratorSim::spawnTask(unsigned sid,
                          const std::vector<RtValue> &args,
                          TaskRef parent,
                          const ir::CallInst *caller_site,
                          uint64_t now)
{
    return units.at(sid)->trySpawn(args, parent, caller_site, now);
}

void
AcceleratorSim::notifyChildDone(TaskRef parent, uint64_t now)
{
    units.at(parent.sid)->childJoined(parent.slot, now);
}

void
AcceleratorSim::notifyCallDone(TaskRef parent,
                               const ir::CallInst *site, RtValue v,
                               uint64_t now)
{
    units.at(parent.sid)->callReturned(parent.slot, site, v, now);
}

void
AcceleratorSim::rootDone(RtValue v)
{
    rootFinished = true;
    rootValue = v;
}

std::vector<obs::UnitInfo>
AcceleratorSim::unitInfos() const
{
    std::vector<obs::UnitInfo> infos;
    for (const auto &u : units) {
        infos.push_back(obs::UnitInfo{
            u->task().name(),
            static_cast<unsigned>(u->tiles.size())});
    }
    return infos;
}

void
AcceleratorSim::addSink(obs::TraceSink *sink)
{
    tapas_assert(sink, "null trace sink");
    sink->configure(unitInfos());
    sinks.push_back(sink);
    hasSinks = true;
    cache.addSink(sink);
}

void
AcceleratorSim::removeSink(obs::TraceSink *sink)
{
    for (size_t i = 0; i < sinks.size(); ++i) {
        if (sinks[i] == sink) {
            sinks.erase(sinks.begin() + static_cast<long>(i));
            break;
        }
    }
    hasSinks = !sinks.empty();
    cache.removeSink(sink);
}

void
AcceleratorSim::setTracer(TaskTracer *t)
{
    if (tracer)
        removeSink(tracer);
    tracer = t;
    if (tracer)
        addSink(tracer);
}

void
AcceleratorSim::setProfiler(obs::CycleProfiler *p)
{
    prof = p;
    if (prof)
        prof->configure(unitInfos());
}

RtValue
AcceleratorSim::run(const std::vector<RtValue> &top_args)
{
    // Bind the shared constant pools to this simulation's memory
    // image once; every instance frame then indexes them read-only.
    if (lowPools.empty()) {
        const ir::LoweredProgram &lp = *_design.lowered;
        lowPools.reserve(lp.numFuncs());
        for (size_t i = 0; i < lp.numFuncs(); ++i)
            lowPools.push_back(
                ir::LoweredProgram::resolvePool(lp.at(i), _mem));
    }

    ++rootRuns;
    rootFinished = false;
    failure_ = SimFailure{};
    rootValue = RtValue{};
    idleSkipped = 0;
    for (auto &u : units)
        u->resetFiring(); // stale stamps from a previous run()

    // Idle-skip stays exact only while nothing consumes RNG per
    // cycle; a fault injector with any nonzero rate does.
    const bool skip_allowed =
        idleSkip && !(faultInj && faultInj->config().any());

    // Event scheduler: individual quiet tiles may sleep through
    // their stall spans (settled in bulk on wake-up). Requires the
    // same preconditions as the whole-machine skip, plus no trace
    // sinks: sinks consume per-cycle cache-stall events that bulk
    // accounting would drop. With tile sleep off, event mode
    // degenerates to the scan loop — trivially byte-identical.
    const bool tile_sleep = scheduler == Scheduler::Event &&
                            skip_allowed && !hasSinks;
    calendar.reset(0);
    for (auto &u : units)
        u->eventSleep = tile_sleep;

    // The host (ARM) writes the arguments and kicks the root unit.
    // With a fault injector the kick handshake itself may be dropped;
    // the host re-presents it each cycle until the port takes it, up
    // to the task-retry budget.
    bool rootSpawned = false;
    unsigned rootDrops = 0;

    uint64_t last_progress = progressEvents;
    uint64_t last_progress_cycle = 0;

    // Cooperative-interruption bookkeeping. The wall-clock token is
    // polled on an amortized cadence (poll at cycle 0 covers
    // "cancelled before the first cycle"); the simulated-cycle
    // deadline is exact. Checkpoints fire at the first boundary at
    // or past each multiple of the cadence.
    uint64_t cancel_poll_at = 0;
    uint64_t next_ckpt = checkpointEveryCycles;

    uint64_t last_ticked = 0; ///< last cycle the units were ticked
    uint64_t cyc = 0;
    for (; !rootFinished && !failure_.failed(); ++cyc) {
        if (deadlineCycles && cyc >= deadlineCycles) {
            reportFailure(SimFailure::Kind::Interrupted,
                          "cycle deadline of " +
                              std::to_string(deadlineCycles) +
                              " reached");
            if (hasSinks) {
                for (obs::TraceSink *s : sinks)
                    s->runInterrupted(cyc, "cycle_deadline");
            }
            break;
        }
        if (cancelToken && cyc >= cancel_poll_at) {
            cancel_poll_at = cyc + cancelPollInterval;
            if (cancelToken->shouldStop()) {
                const char *why =
                    cancelReasonName(cancelToken->reason());
                reportFailure(SimFailure::Kind::Interrupted,
                              std::string("run ") + why +
                                  " at cycle " + std::to_string(cyc));
                if (hasSinks) {
                    for (obs::TraceSink *s : sinks)
                        s->runInterrupted(cyc, why);
                }
                break;
            }
        }
        if (next_ckpt && cyc >= next_ckpt) {
            while (next_ckpt <= cyc)
                next_ckpt += checkpointEveryCycles;
            if (onCheckpoint)
                onCheckpoint(cyc);
            if (hasSinks) {
                for (obs::TraceSink *s : sinks)
                    s->checkpointWritten(cyc);
            }
        }
        if (cyc > maxCycles) {
            reportFailure(
                SimFailure::Kind::CycleLimit,
                "accelerator exceeded " + std::to_string(maxCycles) +
                    " cycles\n" +
                    diagnosticDump(cyc, last_progress_cycle));
            break;
        }

        cache.beginCycle(cyc);
        for (auto &u : units)
            u->beginCycle(cyc);

        if (!rootSpawned) {
            SpawnOutcome oc = units[0]->trySpawn(top_args, TaskRef{},
                                                 nullptr, cyc);
            if (oc == SpawnOutcome::Accepted) {
                rootSpawned = true;
            } else if (oc == SpawnOutcome::Rejected) {
                reportFailure(
                    SimFailure::Kind::SpawnFailed,
                    "root spawn rejected on an empty accelerator");
                break;
            } else if (faultInj &&
                       ++rootDrops >
                           faultInj->config().maxTaskRetries) {
                reportFailure(
                    SimFailure::Kind::FaultBudget,
                    "root spawn handshake dropped " +
                        std::to_string(rootDrops) +
                        " times; retry budget exhausted");
                break;
            }
        }

        // Transient bit flips in queue RAMs: at most one per cycle,
        // landing on a uniformly chosen unit.
        if (faultInj && faultInj->corruptThisCycle()) {
            unsigned sid = faultInj->pick(
                static_cast<unsigned>(units.size()));
            units[sid]->injectQueueCorruption(cyc, *faultInj);
        }

        if (tile_sleep)
            calendar.advanceTo(cyc); // entries <= cyc settle below

        for (auto &u : units)
            u->tick(cyc);
        last_ticked = cyc;

        if (prof) {
            for (auto &u : units)
                u->profileCycle(cyc);
        }
        if (observed() && cyc % sampleInterval == 0) {
            for (unsigned sid = 0; sid < units.size(); ++sid) {
                for (obs::TraceSink *s : sinks)
                    s->queueSample(cyc, sid, units[sid]->occupancy());
            }
            unsigned out = cache.outstandingMisses();
            for (obs::TraceSink *s : sinks)
                s->missSample(cyc, out);
        }

        if (progressEvents != last_progress) {
            last_progress = progressEvents;
            last_progress_cycle = cyc;
        } else if (cyc - last_progress_cycle > watchdogCycles) {
            reportFailure(
                SimFailure::Kind::Deadlock,
                "accelerator deadlock at cycle " +
                    std::to_string(cyc) + " (no progress for " +
                    std::to_string(watchdogCycles) +
                    " cycles). Recursion deeper than the task queues "
                    "(Ntasks) causes this, exactly as on the FPGA — "
                    "raise Ntasks.\n" +
                    diagnosticDump(cyc, last_progress_cycle));
            break;
        }

        // Idle-cycle fast-forward: this cycle was quiet (no progress
        // event), so the next state change can only come from a unit
        // timer — an in-flight memory response, a fixed-latency op,
        // an args-RAM transfer, a spawn-backoff deadline. Jump to
        // the earliest of those instead of spinning. Any unit that
        // must be ticked every cycle (pending issue-queue work,
        // per-cycle spawn retries, an unswept block) vetoes the jump
        // with a zero wake. Capping at the watchdog deadline, the
        // cycle limit, and the next trace-sample boundary keeps
        // failures and observability streams byte-identical to the
        // unskipped simulation.
        if (skip_allowed && rootSpawned && last_progress_cycle != cyc) {
            // Event mode: sleeping tiles are excluded from the unit
            // rescan below; the calendar holds their wake bounds.
            // (kNone == kNoWake, so an empty calendar is neutral.)
            uint64_t wake = tile_sleep ? calendar.nextEventAt()
                                       : InstanceExec::kNoWake;
            bool can_skip = true;
            for (auto &u : units) {
                uint64_t w = u->nextWake(cyc, !hasSinks);
                if (w == 0) {
                    can_skip = false;
                    break;
                }
                wake = std::min(wake, w);
            }
            if (can_skip) {
                wake = std::min(
                    wake, last_progress_cycle + watchdogCycles + 1);
                wake = std::min(wake, maxCycles + 1);
                // Land exactly on lifecycle boundaries: the cycle
                // deadline must fire at its cycle, and a checkpoint
                // boundary should not be overshot. Neither cap binds
                // unless the boundary is inside the skip span, so a
                // non-firing deadline keeps the run byte-identical.
                if (deadlineCycles)
                    wake = std::min(wake, deadlineCycles);
                if (next_ckpt)
                    wake = std::min(wake, next_ckpt);
                if (hasSinks) {
                    wake = std::min(
                        wake,
                        (cyc / sampleInterval + 1) * sampleInterval);
                }
                if (wake > cyc + 1) {
                    uint64_t skipped = wake - cyc - 1;
                    for (auto &u : units)
                        u->accountSkipped(skipped, cyc);
                    idleSkipped += skipped;
                    cyc = wake - 1; // for-loop ++ lands on `wake`
                }
            }
        }
    }

    if (tile_sleep) {
        // Tiles still asleep when the run ended: account their spans
        // through the last processed cycle (a sleeping tile can only
        // exist after at least one tick, so last_ticked is live).
        for (auto &u : units)
            u->settleAllSleeping(last_ticked);
    }

    _cycles = cyc;
    if (failure_.failed()) {
        // An interrupt is a requested stop, not a malfunction; the
        // caller reports it through the structured result instead.
        if (failure_.kind != SimFailure::Kind::Interrupted) {
            tapas_warn("accelerator run failed (%s): %s",
                       failureKindName(failure_.kind),
                       failure_.detail.c_str());
        }
        return RtValue{};
    }
    return rootValue;
}

std::string
AcceleratorSim::diagnosticDump(uint64_t now,
                               uint64_t last_progress_cycle) const
{
    std::string out;
    out += "  last progress at cycle " +
           std::to_string(last_progress_cycle) + " (now " +
           std::to_string(now) + ")\n";
    out += "  outstanding cache misses: " +
           std::to_string(cache.outstandingMisses()) + "\n";
    for (const auto &u : units) {
        std::array<unsigned, 5> c = u->stateCounts();
        out += "  unit " + u->task().name() + ": occupancy " +
               std::to_string(u->occupancy()) + "/" +
               std::to_string(u->entries.size()) + " [free=" +
               std::to_string(c[0]) + " ready=" +
               std::to_string(c[1]) + " exe=" + std::to_string(c[2]) +
               " sync=" + std::to_string(c[3]) + " waitcall=" +
               std::to_string(c[4]) + "], ready-queue depth " +
               std::to_string(u->readyQueue.size()) + "\n";
    }
    return out;
}

uint64_t
AcceleratorSim::totalSpawns() const
{
    uint64_t n = 0;
    for (const auto &u : units)
        n += u->spawnsAccepted.value();
    return n;
}

void
AcceleratorSim::dumpStats(std::ostream &os) const
{
    stats.dump(os);
    cache.stats.dump(os);
    for (const auto &u : units)
        u->stats.dump(os);
}

} // namespace tapas::sim
