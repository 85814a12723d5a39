/**
 * @file
 * InstanceExec: dataflow execution of one dynamic task instance
 * (the per-tile TXU pipeline of paper Section III-C).
 *
 * Instances execute from the design's ahead-of-time decoded micro-op
 * tables (ir/lower.hh): operand fetch is an indexed load plus a 2-bit
 * tag switch, in-block dependences and latencies are pre-resolved,
 * spawn and call argument lists come from per-site templates, and
 * block completion reads the incrementally maintained
 * Frame::doneCount instead of rescanning node states. Every path of
 * a node — its first firing, spawn retries, wake computation and
 * call delivery — reads the same MicroOp.
 */

#include "sim/accel.hh"

#include <algorithm>

namespace tapas::sim {

using ir::BasicBlock;
using ir::Instruction;
using ir::LoweredBlock;
using ir::MicroDep;
using ir::MicroKind;
using ir::MicroOp;
using ir::OperandRef;
using ir::RtValue;
using ir::Value;

InstanceExec::InstanceExec(AcceleratorSim &sim, const arch::Task &task,
                           const arch::FiringIndex &fidx, TaskRef self)
    : sim(sim), task(task), fidx(fidx), self(self),
      low(sim.loweredProgram()), taskLf(low.funcOf(task.function()))
{}

void
InstanceExec::reset()
{
    // Queue entries pool one InstanceExec per slot: return to the
    // freshly-constructed state but keep every buffer's capacity.
    // taskArgVals/taskArgPresent/argInstMark are re-assigned by the
    // next start().
    nFrames = 0;
    retVal = RtValue{};
    done = false;
    memInFlight = 0;
    firedNodes = 0;
}

InstanceExec::Frame &
InstanceExec::acquireFrame()
{
    if (nFrames == frames.size())
        frames.emplace_back();
    Frame &f = frames[nFrames++];
    f.func = nullptr;
    f.returnTo = nullptr;
    f.bb = nullptr;
    f.fresh = true;
    f.fireBase = 0;
    f.lf = nullptr;
    f.lbb = nullptr;
    f.pool = nullptr;
    f.prevId = ir::kNoSucc;
    f.doneCount = 0;
    f.argVals.clear();
    f.nst.clear();
    return f;
}

void
InstanceExec::start(const std::vector<RtValue> &args)
{
    const auto &formals = task.args();
    tapas_assert(args.size() == formals.size(),
                 "task '%s' spawned with %zu args, expects %zu",
                 task.name().c_str(), args.size(), formals.size());

    Frame &f = acquireFrame();
    f.func = task.function();
    f.fireBase = fidx.baseOf(f.func);
    f.regs.assign(f.func->numInstructions(), RtValue{});
    f.lf = &taskLf;
    f.pool = sim.constPool(taskLf.index);

    // Resolve the marshaled live-ins to dense slots once, here, so
    // the per-cycle operand path never touches an associative
    // container: Argument formals by argument index, enclosing-task
    // Instruction values straight into the frame's register file.
    taskArgVals.assign(f.func->numArgs(), RtValue{});
    taskArgPresent.assign(f.func->numArgs(), 0);
    argInstMark.assign(f.func->numInstructions(), 0);
    for (size_t i = 0; i < formals.size(); ++i) {
        const Value *v = formals[i];
        if (v->valueKind() == Value::Kind::Argument) {
            unsigned idx =
                static_cast<const ir::Argument *>(v)->index();
            taskArgVals[idx] = args[i];
            taskArgPresent[idx] = 1;
        } else {
            tapas_assert(v->valueKind() == Value::Kind::Instruction,
                         "task '%s' marshals a non-argument, "
                         "non-instruction live-in",
                         task.name().c_str());
            unsigned id = static_cast<const Instruction *>(v)->id();
            f.regs[id] = args[i];
            argInstMark[id] = 1;
        }
    }
}

RtValue
InstanceExec::evalRef(const Frame &frame, OperandRef r) const
{
    switch (r.tag) {
      case OperandRef::Tag::Const:
        return frame.pool[r.index];
      case OperandRef::Tag::Arg:
        if (frame.returnTo)
            return frame.argVals[r.index];
        tapas_assert(r.index < taskArgPresent.size() &&
                     taskArgPresent[r.index],
                     "task '%s' uses unmarshaled argument #%u",
                     task.name().c_str(), r.index);
        return taskArgVals[r.index];
      default: // Reg
        // Values defined in enclosing tasks were marshaled straight
        // into the task frame's registers by start(); ids are
        // function-wide, so they never collide with instructions the
        // task itself executes.
        return frame.regs[r.index];
    }
}

void
InstanceExec::enterBlock(Frame &frame, const BasicBlock *bb,
                         uint64_t now)
{
    frame.prevId = frame.bb ? static_cast<uint32_t>(frame.bb->id())
                            : ir::kNoSucc;
    frame.bb = bb;
    frame.lbb = &frame.lf->blocks[bb->id()];
    frame.nst.assign(bb->size(), NodeState{});
    frame.doneCount = 0;
    frame.fresh = true; // nodes fireable before any timer expires

    // Phis are wires out of the instance's registers: resolve all of
    // them in parallel at block entry, zero cost.
    const LoweredBlock &lb = *frame.lbb;
    if (lb.numPhis == 0)
        return;
    tapas_assert(frame.prevId != ir::kNoSucc,
                 "phi in a task/function entry block");
    const ir::PhiRoute &route = frame.lf->routeFor(lb, frame.prevId);
    const OperandRef *oprs =
        frame.lf->operands.data() + route.operandBegin;
    phiScratch.clear();
    phiScratch.reserve(lb.numPhis);
    for (uint32_t i = 0; i < lb.numPhis; ++i)
        phiScratch.push_back(evalRef(frame, oprs[i]));
    for (uint32_t i = 0; i < lb.numPhis; ++i) {
        frame.regs[lb.firstId + i] = phiScratch[i];
        frame.nst[i].phase = Phase::DoneNode;
        frame.nst[i].doneAt = now;
    }
    frame.doneCount = lb.numPhis;
}

const MicroOp &
InstanceExec::opAt(const Frame &frame, size_t idx) const
{
    return frame.lf->ops[frame.lbb->opBegin + idx];
}

void
InstanceExec::marshalArgs(const Frame &frame, const MicroOp &mop)
{
    const OperandRef *oprs = frame.lf->operands.data() + mop.opBegin;
    spawnScratch.clear();
    spawnScratch.reserve(mop.opCount);
    for (uint16_t i = 0; i < mop.opCount; ++i)
        spawnScratch.push_back(evalRef(frame, oprs[i]));
}

const arch::Task &
InstanceExec::spawnTarget(const MicroOp &mop) const
{
    if (mop.kind == MicroKind::Detach)
        return *task.childForDetach(
            ir::cast<const ir::DetachInst>(mop.inst));
    return *task.calleeForCall(ir::cast<const ir::CallInst>(mop.inst));
}

bool
InstanceExec::presentSpawn(Frame &frame, NodeState &st,
                           const MicroOp &mop, uint64_t now)
{
    marshalArgs(frame, mop);
    const bool detach = mop.kind == MicroKind::Detach;
    const ir::CallInst *site =
        detach ? nullptr : ir::cast<const ir::CallInst>(mop.inst);
    SpawnOutcome oc = sim.spawnTask(spawnTarget(mop).sid(),
                                    spawnScratch, self, site, now);
    if (oc != SpawnOutcome::Accepted) {
        noteSpawnFailure(st, oc, now);
        return false;
    }
    if (detach) {
        // The spawn-port handshake completes after the op latency.
        sim.unit(self.sid).noteChildSpawned(self.slot);
        st.phase = Phase::Exec;
        st.doneAt = now + std::max(1u, mop.latency);
    } else {
        st.phase = Phase::CallWait; // task call: await the value
    }
    st.spawnDropStreak = 0;
    return true;
}

void
InstanceExec::fire(Frame &frame, size_t idx, const MicroOp &mop,
                   uint64_t now, Tile &tile)
{
    const ir::LoweredFunc &lf = *frame.lf;
    const OperandRef *oprs = lf.operands.data() + mop.opBegin;

    // One token per static function unit per cycle (II = 1). The
    // stamp now+1 marks "fired in cycle `now`" (0 = never), so the
    // mark table needs no per-cycle clearing.
    uint64_t &mark = tile.firedMark[frame.fireBase + mop.id];
    if (mark == now + 1)
        return;
    mark = now + 1;
    ++tile.firedThisCycle;

    NodeState &st = frame.nst[idx];

    auto finish_fixed = [&](unsigned latency) {
        st.phase = Phase::Exec;
        st.doneAt = now + std::max(1u, latency);
    };

    ++firedNodes;
    sim.progressEvent();

    switch (mop.kind) {
      case MicroKind::Binary:
        frame.regs[mop.id] = ir::evalBinary(
            mop.op, mop.type, evalRef(frame, oprs[0]),
            evalRef(frame, oprs[1]));
        finish_fixed(mop.latency);
        return;
      case MicroKind::Cmp:
        frame.regs[mop.id] = ir::evalCmp(
            mop.op, mop.pred, mop.srcType, evalRef(frame, oprs[0]),
            evalRef(frame, oprs[1]));
        finish_fixed(mop.latency);
        return;
      case MicroKind::Select: {
        bool c = evalRef(frame, oprs[0]).truthy();
        frame.regs[mop.id] = evalRef(frame, c ? oprs[1] : oprs[2]);
        finish_fixed(mop.latency);
        return;
      }
      case MicroKind::Cast:
        frame.regs[mop.id] = ir::evalCast(
            mop.op, mop.srcType, mop.type, evalRef(frame, oprs[0]));
        finish_fixed(mop.latency);
        return;
      case MicroKind::Gep: {
        uint64_t addr = evalRef(frame, oprs[0]).ptr();
        const int64_t *strides = lf.strides.data() + mop.strideBegin;
        for (uint16_t i = 1; i < mop.opCount; ++i) {
            int64_t index = evalRef(frame, oprs[i]).i;
            addr += static_cast<uint64_t>(index * strides[i - 1]);
        }
        frame.regs[mop.id] = RtValue::fromPtr(addr);
        finish_fixed(mop.latency);
        return;
      }
      case MicroKind::Alloca:
        // Stack RAM bump; space is taken from the shared image and
        // intentionally not recycled (see DESIGN.md).
        frame.regs[mop.id] =
            RtValue::fromPtr(sim.mem().alloc(mop.allocaBytes, 8));
        finish_fixed(mop.latency);
        return;
      case MicroKind::Load: {
        uint64_t addr = evalRef(frame, oprs[0]).ptr();
        MemTicket ticket;
        if (!tile.box.submit(addr, false, now, ticket)) {
            mark = 0; // no structural issue happened
            --tile.firedThisCycle;
            --firedNodes;
            sim.retractProgressEvent();
            return;
        }
        if (mop.memIsFloat) {
            frame.regs[mop.id] = RtValue::fromFloat(
                mop.memBits == 32 ? sim.mem().loadF32(addr)
                                  : sim.mem().loadF64(addr));
        } else {
            frame.regs[mop.id] = RtValue::fromInt(
                sim.mem().loadInt(addr, mop.memSize));
        }
        st.phase = Phase::Mem;
        st.ticket = ticket;
        ++memInFlight;
        return;
      }
      case MicroKind::Store: {
        // Operand order: [0] = value, [1] = address.
        uint64_t addr = evalRef(frame, oprs[1]).ptr();
        MemTicket ticket;
        if (!tile.box.submit(addr, true, now, ticket)) {
            mark = 0;
            --tile.firedThisCycle;
            --firedNodes;
            sim.retractProgressEvent();
            return;
        }
        RtValue v = evalRef(frame, oprs[0]);
        if (mop.memIsFloat) {
            if (mop.memBits == 32)
                sim.mem().storeF32(addr, static_cast<float>(v.f));
            else
                sim.mem().storeF64(addr, v.f);
        } else {
            sim.mem().storeInt(addr, mop.memSize, v.i);
        }
        st.phase = Phase::Mem;
        st.ticket = ticket;
        ++memInFlight;
        return;
      }
      case MicroKind::Call:
        if (mop.calleeHasDetach) {
            // Task call: spawn the callee's task unit, await value.
            tapas_assert(!frame.returnTo,
                         "task call inside an inlined leaf call");
            presentSpawn(frame, st, mop, now);
            return;
        }
        // Leaf call: push an inlined activation record.
        marshalArgs(frame, mop);
        st.phase = Phase::LeafCall;
        pushLeafFrame(ir::cast<const ir::CallInst>(mop.inst));
        return;
      case MicroKind::Br:
        finish_fixed(mop.latency);
        return;
      case MicroKind::Ret:
        if (mop.opCount != 0)
            retVal = evalRef(frame, oprs[0]);
        finish_fixed(mop.latency);
        return;
      case MicroKind::Detach:
        presentSpawn(frame, st, mop, now);
        return;
      case MicroKind::Reattach:
        // Join latency is a run-time parameter (params().joinLatency),
        // deliberately not baked into the tables: the same lowered
        // design may be simulated under different parameterizations.
        finish_fixed(sim.params().joinLatency);
        return;
      case MicroKind::Sync:
        st.phase = Phase::SyncWait; // resolved against the counter
        return;
      case MicroKind::PhiNode:
      default:
        tapas_panic("TXU cannot execute '%s'", ir::opcodeName(mop.op));
    }
}

void
InstanceExec::retrySpawn(Frame &frame, NodeState &st,
                         const MicroOp &mop, uint64_t now)
{
    // Re-attempt the spawn each cycle (ready/valid back-pressure)
    // — except while backing off after a dropped handshake.
    if (now < st.nextRetryAt)
        return;
    if (st.spawnDropStreak > 0) {
        // This re-presentation is fault recovery, not ordinary
        // back-pressure: count it and tell the sinks.
        if (FaultInjector *inj = sim.faultInjector()) {
            ++inj->spawnRetries;
            sim.emitRecovery(now, "spawn_retry", self.sid);
        }
    }
    if (presentSpawn(frame, st, mop, now))
        sim.progressEvent();
}

void
InstanceExec::noteSpawnFailure(NodeState &st, SpawnOutcome oc,
                               uint64_t now)
{
    st.phase = Phase::SpawnRetry;
    if (oc == SpawnOutcome::Dropped) {
        FaultInjector *inj = sim.faultInjector();
        st.nextRetryAt =
            now + (inj ? inj->spawnBackoff(st.spawnDropStreak) : 1);
        ++st.spawnDropStreak;
    } else {
        // Ordinary back-pressure: same retry-every-cycle cadence as
        // without an injector (a rejection also ends a drop streak).
        st.nextRetryAt = now;
        st.spawnDropStreak = 0;
    }
}

void
InstanceExec::pushLeafFrame(const ir::CallInst *call)
{
    Frame &f = acquireFrame();
    f.func = call->callee();
    f.fireBase = fidx.baseOf(f.func);
    f.regs.assign(f.func->numInstructions(), RtValue{});
    f.argVals.assign(spawnScratch.begin(), spawnScratch.end());
    f.returnTo = call;
    f.lf = &low.funcOf(f.func);
    f.pool = sim.constPool(f.lf->index);
}

uint64_t
InstanceExec::nextWake(uint64_t now, const DataBox &box,
                       bool allow_bulk,
                       std::vector<unsigned> *spawn_waits) const
{
    uint64_t wake = kNoWake;
    for (size_t fi = 0; fi < nFrames; ++fi) {
        const Frame &frame = frames[fi];
        // A block that has not had a full firing sweep yet can fire
        // nodes next cycle with no timer involved: must tick.
        if (!frame.bb || frame.fresh)
            return 0;
        for (size_t i = 0; i < frame.nst.size(); ++i) {
            const NodeState &st = frame.nst[i];
            switch (st.phase) {
              case Phase::Exec:
                wake = std::min(wake, std::max(st.doneAt, now + 1));
                break;
              case Phase::Mem: {
                uint64_t c = box.completesAt(st.ticket);
                // An unissued ticket sits in the box's issue queue;
                // DataBox::stallWake governs that (veto or an
                // MSHR-retire bound), so it holds no timer here.
                if (c != 0)
                    wake = std::min(wake, std::max(c, now + 1));
                break;
              }
              case Phase::SpawnRetry: {
                if (st.nextRetryAt > now + 1) {
                    // Fault backoff: a real timer.
                    wake = std::min(wake, st.nextRetryAt);
                    break;
                }
                // Anything but plain back-pressure (rejected this
                // very cycle, no drop streak) must tick per cycle.
                if (st.spawnDropStreak > 0 || st.nextRetryAt != now)
                    return 0;
                // Re-presents next cycle. Rejected by a full target
                // queue, the rejection provably repeats each quiet
                // cycle — entries are freed only by timed
                // completions, which bound the skip globally — and
                // the target unit bulk-accounts the rejects.
                if (allow_bulk)
                    break;
                // Per-tile sleep: the target's frees are not
                // tile-locally boundable, but each free is an
                // observable event — report the target sid so the
                // tile can sleep as a registered spawn-waiter
                // (poked on every entry free), or veto if the
                // caller cannot register waits.
                if (!spawn_waits)
                    return 0;
                spawn_waits->push_back(
                    spawnTarget(opAt(frame, i)).sid());
                break;
              }
              case Phase::CallWait:
                if (st.callDelivered)
                    return 0; // consumed by the next step()
                break;
              default:
                // Waiting nodes unblock only via the timers above;
                // SyncWait / LeafCall / DoneNode hold no timer.
                break;
            }
        }
    }
    return wake;
}

void
InstanceExec::phaseCensus(unsigned &exec, unsigned &mem,
                          unsigned &spawn) const
{
    for (size_t fi = 0; fi < nFrames; ++fi) {
        for (const NodeState &st : frames[fi].nst) {
            switch (st.phase) {
              case Phase::Exec:
                ++exec;
                break;
              case Phase::Mem:
                ++mem;
                break;
              case Phase::SpawnRetry:
                ++spawn;
                break;
              default:
                break;
            }
        }
    }
}

InstanceExec::Status
InstanceExec::step(uint64_t now, Tile &tile)
{
    tapas_assert(!done, "stepping a finished instance");
    Frame &frame = topFrame();

    if (!frame.bb) {
        // First cycle: enter the task (or callee) entry block.
        const BasicBlock *entry =
            nFrames == 1 ? task.entry() : frame.func->entry();
        enterBlock(frame, entry, now);
        return Status::Running;
    }

    // This sweep gives every node of the block its firing chance, so
    // the block no longer blocks idle-skip (see Frame::fresh).
    frame.fresh = false;

    const MicroOp *ops = frame.lf->ops.data() + frame.lbb->opBegin;
    const MicroDep *depPool = frame.lf->deps.data();
    NodeState *nst = frame.nst.data();
    const size_t n = frame.nst.size();

    bool has_sync_wait = false;
    bool has_call_wait = false;
    bool busy = false; // Exec/Mem/SpawnRetry/LeafCall in flight

    for (size_t i = 0; i < n; ++i) {
        NodeState &st = nst[i];
        const MicroOp &mop = ops[i];
        if (st.phase == Phase::Waiting) {
            bool ready;
            // MicroKind orders the five terminators (Br..Sync) last.
            if (mop.kind >= MicroKind::Br) {
                // Terminators leave the block: wait for full
                // quiescence so no in-flight node outlives its block
                // activation.
                ready = frame.doneCount + 1 == n;
            } else {
                ready = true;
                const MicroDep *deps = depPool + mop.depBegin;
                for (uint16_t d = 0; d < mop.depCount; ++d) {
                    if (!frame.returnTo &&
                        argInstMark[deps[d].instId])
                        continue; // parent value marshaled as an arg
                    if (nst[deps[d].nstIdx].phase !=
                        Phase::DoneNode) {
                        ready = false;
                        break;
                    }
                }
            }
            if (ready)
                fire(frame, i, mop, now, tile);
            if (st.phase == Phase::Waiting)
                continue; // not ready, token clash, or mem reject
        }
        // Advance the fired node, then census its new phase.
        switch (st.phase) {
          case Phase::DoneNode:
            break;
          case Phase::Exec:
            if (st.doneAt <= now) {
                st.phase = Phase::DoneNode;
                ++frame.doneCount;
                sim.progressEvent();
            } else {
                busy = true;
            }
            break;
          case Phase::Mem:
            if (tile.box.poll(st.ticket, now)) {
                st.phase = Phase::DoneNode;
                st.doneAt = now;
                ++frame.doneCount;
                --memInFlight;
                sim.progressEvent();
            } else {
                busy = true;
            }
            break;
          case Phase::SyncWait:
            // Resolved below against the unit's join counter.
            has_sync_wait = true;
            break;
          case Phase::LeafCall:
            // Completed by the callee frame's Ret (see finishBlock).
            busy = true;
            break;
          case Phase::CallWait:
            if (!st.callDelivered) {
                has_call_wait = true;
                break;
            }
            if (!mop.isVoid)
                frame.regs[mop.id] = st.callValue;
            st.phase = Phase::DoneNode;
            st.doneAt = now;
            ++frame.doneCount;
            sim.progressEvent();
            break;
          case Phase::SpawnRetry:
            retrySpawn(frame, st, mop, now);
            if (st.phase == Phase::CallWait)
                has_call_wait = true;
            else
                busy = true; // Exec (detach accepted) or SpawnRetry
            break;
          default:
            break;
        }
    }

    // Sync resolution: the unit owns the join counter; ask it.
    if (has_sync_wait) {
        if (sim.unit(self.sid).childCountOf(self.slot) == 0) {
            for (size_t i = 0; i < n; ++i) {
                if (nst[i].phase == Phase::SyncWait) {
                    nst[i].phase = Phase::Exec;
                    nst[i].doneAt = now + 1;
                    sim.progressEvent();
                }
            }
            has_sync_wait = false;
            busy = true;
        }
    }

    // Block transition once everything in the block has completed.
    if (frame.doneCount == n)
        return finishBlock(now);

    if (has_sync_wait && memInFlight == 0 && !busy)
        return Status::WaitSync;
    if (has_call_wait && memInFlight == 0 && !busy)
        return Status::WaitCall;
    return Status::Running;
}

InstanceExec::Status
InstanceExec::finishBlock(uint64_t now)
{
    Frame &frame = topFrame();
    const MicroOp &t = frame.lf->ops[frame.lbb->opEnd - 1];

    switch (t.kind) {
      case MicroKind::Br: {
        uint32_t next =
            (t.opCount != 0 &&
             !evalRef(frame, frame.lf->operands[t.opBegin]).truthy())
                ? t.succ1
                : t.succ0;
        enterBlock(frame, frame.lf->blocks[next].bb, now);
        return Status::Running;
      }
      case MicroKind::Detach:
      case MicroKind::Sync:
        // Continue in this task; a detached body runs in the child.
        enterBlock(frame, frame.lf->blocks[t.succ1].bb, now);
        return Status::Running;
      case MicroKind::Reattach:
        tapas_assert(nFrames == 1,
                     "reattach inside an inlined leaf call");
        done = true;
        return Status::Done;
      case MicroKind::Ret: {
        if (nFrames > 1) {
            // Leaf call returns: deliver to the caller's call node.
            const ir::CallInst *site = frame.returnTo;
            RtValue v = retVal;
            --nFrames; // pop; the frame stays pooled for reuse
            Frame &caller = topFrame();
            size_t idx = site->id() - caller.lbb->firstId;
            const MicroOp &call = opAt(caller, idx);
            tapas_assert(call.inst == site,
                         "leaf return to a foreign call site");
            if (!call.isVoid)
                caller.regs[call.id] = v;
            caller.nst[idx].phase = Phase::DoneNode;
            caller.nst[idx].doneAt = now;
            ++caller.doneCount;
            sim.progressEvent();
            return Status::Running;
        }
        done = true;
        return Status::Done;
      }
      default:
        tapas_panic("bad block terminator at runtime");
    }
}

void
InstanceExec::deliverCallResult(const ir::CallInst *site, RtValue v)
{
    // Task calls only occur in the task frame (frames[0]).
    Frame &frame = frames[0];
    tapas_assert(frame.bb, "call result before instance started");
    size_t idx = site->id() - frame.lbb->firstId;
    tapas_assert(idx < frame.nst.size() &&
                 opAt(frame, idx).inst == site,
                 "call result for a node outside the current block");
    NodeState &st = frame.nst[idx];
    tapas_assert(st.phase == Phase::CallWait,
                 "call result for a node not waiting");
    st.callDelivered = true;
    st.callValue = v;
}

} // namespace tapas::sim
