#include "ir/interp.hh"

#include "ir/lower.hh"

namespace tapas::ir {

Interp::Interp(const Module &mod, MemImage &mem, Options opts)
    : mod(mod), mem(mem), opts(opts)
{
    if (opts.lowering)
        lowered = std::make_unique<LoweredProgram>(mod);
}

Interp::~Interp() = default;

RtValue
Interp::run(const Function &func, std::vector<RtValue> args)
{
    if (!lowered)
        return runFunction(func, std::move(args), 1);

    // Global addresses depend on the image layout, which must exist
    // by the first run; pools are shared by subsequent runs.
    if (pools.empty()) {
        pools.reserve(lowered->numFuncs());
        for (size_t i = 0; i < lowered->numFuncs(); ++i) {
            pools.push_back(
                LoweredProgram::resolvePool(lowered->at(i), mem));
        }
    }
    return runLowered(lowered->funcOf(&func), std::move(args), 1);
}

RtValue
Interp::evalOperand(const Frame &frame, const Value *v) const
{
    switch (v->valueKind()) {
      case Value::Kind::ConstantInt:
        return RtValue::fromInt(
            static_cast<const ConstantInt *>(v)->value());
      case Value::Kind::ConstantFloat:
        return RtValue::fromFloat(
            static_cast<const ConstantFloat *>(v)->value());
      case Value::Kind::Global:
        return RtValue::fromPtr(
            mem.addressOf(static_cast<const GlobalVar *>(v)));
      case Value::Kind::Argument: {
        auto *arg = static_cast<const Argument *>(v);
        tapas_assert(arg->parent() == frame.func,
                     "argument of a different function");
        return frame.args[arg->index()];
      }
      case Value::Kind::Instruction: {
        auto *inst = static_cast<const Instruction *>(v);
        return frame.regs[inst->id()];
      }
      default:
        tapas_panic("unexpected operand kind");
    }
}

RtValue
Interp::execLoad(const LoadInst *ld, uint64_t addr) const
{
    Type t = ld->type();
    if (t.isFloat()) {
        return RtValue::fromFloat(
            t.bits() == 32 ? mem.loadF32(addr) : mem.loadF64(addr));
    }
    return RtValue::fromInt(mem.loadInt(addr, t.sizeBytes()));
}

void
Interp::execStore(const StoreInst *st, const Frame &frame,
                  uint64_t addr)
{
    Type t = st->value()->type();
    RtValue v = evalOperand(frame, st->value());
    if (t.isFloat()) {
        if (t.bits() == 32)
            mem.storeF32(addr, static_cast<float>(v.f));
        else
            mem.storeF64(addr, v.f);
    } else {
        mem.storeInt(addr, t.sizeBytes(), v.i);
    }
}

RtValue
Interp::runFunction(const Function &func, std::vector<RtValue> args,
                    unsigned depth)
{
    tapas_assert(args.size() == func.numArgs(),
                 "@%s called with %zu args, expects %u",
                 func.name().c_str(), args.size(), func.numArgs());
    if (depth > opts.maxCallDepth) {
        tapas_fatal("interpreter call depth exceeded %u",
                    opts.maxCallDepth);
    }
    _stats.maxCallDepth = std::max(_stats.maxCallDepth, depth);
    ++_stats.calls;

    Frame frame;
    frame.func = &func;
    frame.args = std::move(args);
    frame.regs.resize(func.numInstructions());

    // Stack discipline for allocas in this frame.
    const uint64_t saved_bump = mem.bumpPtr();

    const BasicBlock *bb = func.entry();
    const BasicBlock *prev = nullptr;
    RtValue ret;

    while (true) {
        // Phis read their incoming values in parallel.
        {
            auto phis = bb->phis();
            if (!phis.empty()) {
                std::vector<RtValue> vals;
                vals.reserve(phis.size());
                for (const PhiInst *phi : phis) {
                    tapas_assert(prev, "phi in entry block");
                    vals.push_back(
                        evalOperand(frame, phi->incomingFor(prev)));
                }
                for (size_t i = 0; i < phis.size(); ++i)
                    frame.regs[phis[i]->id()] = vals[i];
                _stats.totalInsts += phis.size();
                _stats.opcodeCount[static_cast<size_t>(Opcode::Phi)] +=
                    phis.size();
                if (opts.observer) {
                    for (const PhiInst *phi : phis)
                        opts.observer->onInst(phi);
                }
            }
        }

        const BasicBlock *next = nullptr;
        for (size_t ii = bb->phis().size(); ii < bb->size(); ++ii) {
            const Instruction *inst = bb->instructions()[ii].get();

            if (++steps > opts.maxSteps)
                tapas_fatal("interpreter exceeded max step count");
            ++_stats.totalInsts;
            ++_stats.opcodeCount[static_cast<size_t>(inst->opcode())];
            if (opts.observer)
                opts.observer->onInst(inst);

            Opcode op = inst->opcode();
            if (isIntBinary(op) || isFloatBinary(op)) {
                frame.regs[inst->id()] = evalBinary(
                    op, inst->type(), evalOperand(frame, inst->operand(0)),
                    evalOperand(frame, inst->operand(1)));
                continue;
            }
            if (isCast(op)) {
                auto *c = cast<CastInst>(inst);
                frame.regs[inst->id()] = evalCast(
                    op, c->src()->type(), c->type(),
                    evalOperand(frame, c->src()));
                continue;
            }

            switch (op) {
              case Opcode::ICmp:
              case Opcode::FCmp: {
                auto *cmp = cast<CmpInst>(inst);
                frame.regs[inst->id()] = evalCmp(
                    op, cmp->pred(), cmp->lhs()->type(),
                    evalOperand(frame, cmp->lhs()),
                    evalOperand(frame, cmp->rhs()));
                break;
              }
              case Opcode::Select: {
                auto *sel = cast<SelectInst>(inst);
                bool c = evalOperand(frame, sel->cond()).truthy();
                frame.regs[inst->id()] = evalOperand(
                    frame, c ? sel->ifTrue() : sel->ifFalse());
                break;
              }
              case Opcode::Load: {
                auto *ld = cast<LoadInst>(inst);
                uint64_t addr = evalOperand(frame, ld->addr()).ptr();
                frame.regs[inst->id()] = execLoad(ld, addr);
                if (opts.observer) {
                    opts.observer->onMemAccess(
                        addr, ld->type().sizeBytes(), false);
                }
                break;
              }
              case Opcode::Store: {
                auto *st = cast<StoreInst>(inst);
                uint64_t addr = evalOperand(frame, st->addr()).ptr();
                execStore(st, frame, addr);
                if (opts.observer) {
                    opts.observer->onMemAccess(
                        addr, st->value()->type().sizeBytes(), true);
                }
                break;
              }
              case Opcode::Gep: {
                auto *gep = cast<GepInst>(inst);
                uint64_t addr = evalOperand(frame, gep->base()).ptr();
                for (unsigned i = 0; i < gep->numIndices(); ++i) {
                    int64_t idx = evalOperand(frame,
                                              gep->index(i)).i;
                    addr += static_cast<uint64_t>(
                        idx * static_cast<int64_t>(gep->stride(i)));
                }
                frame.regs[inst->id()] = RtValue::fromPtr(addr);
                break;
              }
              case Opcode::Alloca: {
                auto *al = cast<AllocaInst>(inst);
                frame.regs[inst->id()] =
                    RtValue::fromPtr(mem.alloc(al->sizeBytes(), 8));
                break;
              }
              case Opcode::Call: {
                auto *call = cast<CallInst>(inst);
                std::vector<RtValue> cargs;
                cargs.reserve(call->numArgs());
                for (unsigned i = 0; i < call->numArgs(); ++i)
                    cargs.push_back(evalOperand(frame, call->arg(i)));
                if (opts.observer)
                    opts.observer->onCallEnter(call->callee());
                RtValue r = runFunction(*call->callee(),
                                        std::move(cargs), depth + 1);
                if (opts.observer)
                    opts.observer->onCallExit(call->callee());
                if (!call->type().isVoid())
                    frame.regs[inst->id()] = r;
                break;
              }
              case Opcode::Br: {
                auto *br = cast<BranchInst>(inst);
                if (br->isConditional()) {
                    bool c = evalOperand(frame, br->cond()).truthy();
                    next = c ? br->ifTrue() : br->ifFalse();
                } else {
                    next = br->ifTrue();
                }
                break;
              }
              case Opcode::Ret: {
                auto *r = cast<RetInst>(inst);
                if (r->hasValue())
                    ret = evalOperand(frame, r->value());
                mem.setBumpPtr(saved_bump);
                return ret;
              }
              case Opcode::Detach: {
                // Serial elision: run the child immediately.
                auto *det = cast<DetachInst>(inst);
                ++_stats.spawns;
                if (opts.observer)
                    opts.observer->onDetach(det);
                next = det->detached();
                break;
              }
              case Opcode::Reattach: {
                auto *re = cast<ReattachInst>(inst);
                if (opts.observer)
                    opts.observer->onReattach(re);
                next = re->cont();
                break;
              }
              case Opcode::Sync: {
                // Children already done under serial elision.
                auto *sy = cast<SyncInst>(inst);
                if (opts.observer)
                    opts.observer->onSync(sy);
                next = sy->cont();
                break;
              }
              default:
                tapas_panic("interpreter: unhandled opcode '%s'",
                            opcodeName(op));
            }
        }

        tapas_assert(next, "block '%s' fell through",
                     bb->name().c_str());
        prev = bb;
        bb = next;
    }
}

/**
 * Lowered twin of runFunction: identical observable behaviour (stats,
 * observer callback order, step accounting, alloca stack discipline),
 * executing from the flat micro-op tables.
 */
RtValue
Interp::runLowered(const LoweredFunc &lf, std::vector<RtValue> args,
                   unsigned depth)
{
    const Function &func = *lf.func;
    tapas_assert(args.size() == func.numArgs(),
                 "@%s called with %zu args, expects %u",
                 func.name().c_str(), args.size(), func.numArgs());
    if (depth > opts.maxCallDepth) {
        tapas_fatal("interpreter call depth exceeded %u",
                    opts.maxCallDepth);
    }
    _stats.maxCallDepth = std::max(_stats.maxCallDepth, depth);
    ++_stats.calls;

    const std::vector<RtValue> &pool = pools[lf.index];
    std::vector<RtValue> regs(lf.numInsts);

    // Stack discipline for allocas in this frame.
    const uint64_t saved_bump = mem.bumpPtr();

    const LoweredBlock *lb = &lf.blocks[func.entry()->id()];
    uint32_t prev_id = kNoSucc;
    RtValue ret;

    auto evalRef = [&](const OperandRef &r) -> RtValue {
        switch (r.tag) {
          case OperandRef::Tag::Const:
            return pool[r.index];
          case OperandRef::Tag::Arg:
            return args[r.index];
          default:
            return regs[r.index];
        }
    };

    while (true) {
        // Phis read their incoming values in parallel.
        if (lb->numPhis != 0) {
            tapas_assert(prev_id != kNoSucc, "phi in entry block");
            const PhiRoute &route = lf.routeFor(*lb, prev_id);
            phiScratch.resize(lb->numPhis);
            for (uint32_t i = 0; i < lb->numPhis; ++i) {
                phiScratch[i] =
                    evalRef(lf.operands[route.operandBegin + i]);
            }
            for (uint32_t i = 0; i < lb->numPhis; ++i)
                regs[lb->firstId + i] = phiScratch[i];
            _stats.totalInsts += lb->numPhis;
            _stats.opcodeCount[static_cast<size_t>(Opcode::Phi)] +=
                lb->numPhis;
            if (opts.observer) {
                for (uint32_t i = 0; i < lb->numPhis; ++i)
                    opts.observer->onInst(lf.ops[lb->opBegin + i].inst);
            }
        }

        uint32_t next_id = kNoSucc;
        for (uint32_t oi = lb->opBegin + lb->numPhis; oi < lb->opEnd;
             ++oi) {
            const MicroOp &mop = lf.ops[oi];

            if (++steps > opts.maxSteps)
                tapas_fatal("interpreter exceeded max step count");
            ++_stats.totalInsts;
            ++_stats.opcodeCount[static_cast<size_t>(mop.op)];
            if (opts.observer)
                opts.observer->onInst(mop.inst);

            const OperandRef *oprs = lf.operands.data() + mop.opBegin;
            switch (mop.kind) {
              case MicroKind::Binary:
                regs[mop.id] = evalBinary(mop.op, mop.type,
                                          evalRef(oprs[0]),
                                          evalRef(oprs[1]));
                break;
              case MicroKind::Cast:
                regs[mop.id] = evalCast(mop.op, mop.srcType, mop.type,
                                        evalRef(oprs[0]));
                break;
              case MicroKind::Cmp:
                regs[mop.id] = evalCmp(mop.op, mop.pred, mop.srcType,
                                       evalRef(oprs[0]),
                                       evalRef(oprs[1]));
                break;
              case MicroKind::Select:
                regs[mop.id] = evalRef(
                    evalRef(oprs[0]).truthy() ? oprs[1] : oprs[2]);
                break;
              case MicroKind::Load: {
                uint64_t addr = evalRef(oprs[0]).ptr();
                if (mop.memIsFloat) {
                    regs[mop.id] = RtValue::fromFloat(
                        mop.memBits == 32 ? mem.loadF32(addr)
                                          : mem.loadF64(addr));
                } else {
                    regs[mop.id] = RtValue::fromInt(
                        mem.loadInt(addr, mop.memSize));
                }
                if (opts.observer) {
                    opts.observer->onMemAccess(addr, mop.memSize,
                                               false);
                }
                break;
              }
              case MicroKind::Store: {
                uint64_t addr = evalRef(oprs[1]).ptr();
                RtValue v = evalRef(oprs[0]);
                if (mop.memIsFloat) {
                    if (mop.memBits == 32)
                        mem.storeF32(addr, static_cast<float>(v.f));
                    else
                        mem.storeF64(addr, v.f);
                } else {
                    mem.storeInt(addr, mop.memSize, v.i);
                }
                if (opts.observer)
                    opts.observer->onMemAccess(addr, mop.memSize, true);
                break;
              }
              case MicroKind::Gep: {
                uint64_t addr = evalRef(oprs[0]).ptr();
                const int64_t *strides =
                    lf.strides.data() + mop.strideBegin;
                for (uint16_t i = 1; i < mop.opCount; ++i) {
                    addr += static_cast<uint64_t>(
                        evalRef(oprs[i]).i * strides[i - 1]);
                }
                regs[mop.id] = RtValue::fromPtr(addr);
                break;
              }
              case MicroKind::Alloca:
                regs[mop.id] =
                    RtValue::fromPtr(mem.alloc(mop.allocaBytes, 8));
                break;
              case MicroKind::Call: {
                const Function *callee =
                    cast<CallInst>(mop.inst)->callee();
                std::vector<RtValue> cargs;
                cargs.reserve(mop.opCount);
                for (uint16_t i = 0; i < mop.opCount; ++i)
                    cargs.push_back(evalRef(oprs[i]));
                if (opts.observer)
                    opts.observer->onCallEnter(callee);
                RtValue r = runLowered(lowered->at(mop.calleeIdx),
                                       std::move(cargs), depth + 1);
                if (opts.observer)
                    opts.observer->onCallExit(callee);
                if (!mop.isVoid)
                    regs[mop.id] = r;
                break;
              }
              case MicroKind::Br:
                next_id = (mop.opCount != 0 &&
                           !evalRef(oprs[0]).truthy())
                              ? mop.succ1
                              : mop.succ0;
                break;
              case MicroKind::Ret:
                if (mop.opCount != 0)
                    ret = evalRef(oprs[0]);
                mem.setBumpPtr(saved_bump);
                return ret;
              case MicroKind::Detach:
                // Serial elision: run the child immediately.
                ++_stats.spawns;
                if (opts.observer) {
                    opts.observer->onDetach(
                        cast<DetachInst>(mop.inst));
                }
                next_id = mop.succ0;
                break;
              case MicroKind::Reattach:
                if (opts.observer) {
                    opts.observer->onReattach(
                        cast<ReattachInst>(mop.inst));
                }
                next_id = mop.succ1;
                break;
              case MicroKind::Sync:
                // Children already done under serial elision.
                if (opts.observer)
                    opts.observer->onSync(cast<SyncInst>(mop.inst));
                next_id = mop.succ1;
                break;
              default:
                tapas_panic("interpreter: unhandled opcode '%s'",
                            opcodeName(mop.op));
            }
        }

        tapas_assert(next_id != kNoSucc, "block '%s' fell through",
                     lb->bb->name().c_str());
        prev_id = lb->bb->id();
        lb = &lf.blocks[next_id];
    }
}

} // namespace tapas::ir
