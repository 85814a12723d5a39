/**
 * @file
 * LoweredProgram construction: decode a module's functions into flat
 * micro-op tables (see lower.hh for the format).
 */

#include "ir/lower.hh"

#include "ir/basic_block.hh"
#include "ir/function.hh"
#include "ir/memimage.hh"
#include "ir/value.hh"
#include "support/logging.hh"

namespace tapas::ir {

namespace {

/** Builder for one function's tables. */
class FuncLowerer
{
  public:
    FuncLowerer(LoweredFunc &lf, const LowerOptions &opts)
        : lf(lf), opts(opts)
    {}

    void
    run(const Function &func)
    {
        lf.func = &func;
        lf.numInsts = static_cast<uint32_t>(func.numInstructions());
        lf.blocks.resize(func.numBlocks());

        // Predecessor lists drive phi-route construction.
        const auto preds = func.predecessorMap();

        for (const auto &bbp : func.basicBlocks())
            lowerBlock(*bbp, preds);
    }

  private:
    /** Pool slot for a constant operand (deduped by identity). */
    uint32_t
    poolSlot(const Value *v)
    {
        auto it = constSlot.find(v);
        if (it != constSlot.end())
            return it->second;
        auto slot = static_cast<uint32_t>(lf.constPool.size());
        switch (v->valueKind()) {
          case Value::Kind::ConstantInt:
            lf.constPool.push_back(RtValue::fromInt(
                static_cast<const ConstantInt *>(v)->value()));
            break;
          case Value::Kind::ConstantFloat:
            lf.constPool.push_back(RtValue::fromFloat(
                static_cast<const ConstantFloat *>(v)->value()));
            break;
          case Value::Kind::Global:
            // Address depends on the run's MemImage; patched by
            // LoweredProgram::resolvePool.
            lf.constPool.push_back(RtValue::fromInt(0));
            lf.globalSlots.emplace_back(
                slot, static_cast<const GlobalVar *>(v));
            break;
          default:
            tapas_panic("unexpected constant kind");
        }
        constSlot.emplace(v, slot);
        return slot;
    }

    /** Decode one operand into a tagged descriptor. */
    OperandRef
    refFor(const Value *v)
    {
        switch (v->valueKind()) {
          case Value::Kind::ConstantInt:
          case Value::Kind::ConstantFloat:
          case Value::Kind::Global:
            return {OperandRef::Tag::Const, poolSlot(v)};
          case Value::Kind::Argument: {
            auto *arg = static_cast<const Argument *>(v);
            tapas_assert(arg->parent() == lf.func,
                         "argument of a different function");
            return {OperandRef::Tag::Arg, arg->index()};
          }
          case Value::Kind::Instruction:
            return {OperandRef::Tag::Reg,
                    static_cast<const Instruction *>(v)->id()};
          default:
            tapas_panic("unexpected operand kind");
        }
    }

    /** Append a decoded operand; returns nothing, ranges are taken
     *  from `lf.operands.size()` before/after. */
    void pushRef(const Value *v) { lf.operands.push_back(refFor(v)); }

    /**
     * Record the in-block dependences of `inst`: its instruction
     * operands produced in the same block (the TXU's firing gate).
     */
    void
    collectDeps(MicroOp &mop, const Instruction *inst,
                const BasicBlock &bb, uint32_t first_id)
    {
        mop.depBegin = static_cast<uint32_t>(lf.deps.size());
        for (const Value *v : inst->operands()) {
            if (v->valueKind() != Value::Kind::Instruction)
                continue;
            auto *dep = static_cast<const Instruction *>(v);
            if (dep->parent() != &bb)
                continue;
            lf.deps.push_back({dep->id() - first_id, dep->id()});
        }
        mop.depCount =
            static_cast<uint16_t>(lf.deps.size() - mop.depBegin);
    }

    void
    lowerBlock(const BasicBlock &bb,
               const std::vector<std::vector<BasicBlock *>> &preds)
    {
        LoweredBlock &lb = lf.blocks.at(bb.id());
        lb.bb = &bb;
        lb.opBegin = static_cast<uint32_t>(lf.ops.size());

        const auto &phis = bb.phis();
        lb.numPhis = static_cast<uint32_t>(phis.size());
        tapas_assert(!bb.empty(), "lowering an empty block '%s'",
                     bb.name().c_str());
        lb.firstId = bb.instructions().front()->id();

        // Phi routes: one operand run per predecessor edge.
        lb.routeBegin = static_cast<uint32_t>(lf.routes.size());
        if (!phis.empty()) {
            const auto &plist = preds.at(bb.id());
            tapas_assert(!plist.empty(),
                         "block '%s' has phis but no predecessors",
                         bb.name().c_str());
            for (const BasicBlock *pred : plist) {
                PhiRoute route;
                route.predId = pred->id();
                route.operandBegin =
                    static_cast<uint32_t>(lf.operands.size());
                for (const PhiInst *phi : phis)
                    pushRef(phi->incomingFor(pred));
                lf.routes.push_back(route);
            }
        }
        lb.routeEnd = static_cast<uint32_t>(lf.routes.size());

        for (const auto &ip : bb.instructions())
            lowerInst(*ip, bb, lb.firstId);

        lb.opEnd = static_cast<uint32_t>(lf.ops.size());
    }

    void
    lowerInst(const Instruction &inst, const BasicBlock &bb,
              uint32_t first_id)
    {
        MicroOp mop;
        mop.inst = &inst;
        mop.id = inst.id();
        mop.op = inst.opcode();
        if (opts.latencyOf)
            mop.latency = opts.latencyOf(inst);
        mop.opBegin = static_cast<uint32_t>(lf.operands.size());

        const Opcode op = inst.opcode();
        if (op == Opcode::Phi) {
            // Resolved at block entry via routes; never fired.
            mop.kind = MicroKind::PhiNode;
            lf.ops.push_back(mop);
            return;
        }

        if (!inst.isTerminator())
            collectDeps(mop, &inst, bb, first_id);

        if (isIntBinary(op) || isFloatBinary(op)) {
            mop.kind = MicroKind::Binary;
            mop.type = inst.type();
            pushRef(inst.operand(0));
            pushRef(inst.operand(1));
        } else if (isCast(op)) {
            auto *c = cast<CastInst>(&inst);
            mop.kind = MicroKind::Cast;
            mop.srcType = c->src()->type();
            mop.type = c->type();
            pushRef(c->src());
        } else {
            switch (op) {
              case Opcode::ICmp:
              case Opcode::FCmp: {
                auto *cmp = cast<CmpInst>(&inst);
                mop.kind = MicroKind::Cmp;
                mop.pred = cmp->pred();
                mop.srcType = cmp->lhs()->type();
                pushRef(cmp->lhs());
                pushRef(cmp->rhs());
                break;
              }
              case Opcode::Select: {
                auto *sel = cast<SelectInst>(&inst);
                mop.kind = MicroKind::Select;
                pushRef(sel->cond());
                pushRef(sel->ifTrue());
                pushRef(sel->ifFalse());
                break;
              }
              case Opcode::Load: {
                auto *ld = cast<LoadInst>(&inst);
                mop.kind = MicroKind::Load;
                setMemShape(mop, ld->type());
                pushRef(ld->addr());
                break;
              }
              case Opcode::Store: {
                auto *st = cast<StoreInst>(&inst);
                mop.kind = MicroKind::Store;
                setMemShape(mop, st->value()->type());
                pushRef(st->value());
                pushRef(st->addr());
                break;
              }
              case Opcode::Gep: {
                auto *gep = cast<GepInst>(&inst);
                mop.kind = MicroKind::Gep;
                mop.strideBegin =
                    static_cast<uint32_t>(lf.strides.size());
                pushRef(gep->base());
                for (unsigned i = 0; i < gep->numIndices(); ++i) {
                    pushRef(gep->index(i));
                    lf.strides.push_back(
                        static_cast<int64_t>(gep->stride(i)));
                }
                break;
              }
              case Opcode::Alloca: {
                mop.kind = MicroKind::Alloca;
                mop.allocaBytes = cast<AllocaInst>(&inst)->sizeBytes();
                break;
              }
              case Opcode::Call: {
                auto *call = cast<CallInst>(&inst);
                mop.kind = MicroKind::Call;
                mop.isVoid = call->type().isVoid() ? 1 : 0;
                mop.calleeHasDetach =
                    call->callee()->hasDetach() ? 1 : 0;
                for (unsigned i = 0; i < call->numArgs(); ++i)
                    pushRef(call->arg(i));
                break;
              }
              case Opcode::Br: {
                auto *br = cast<BranchInst>(&inst);
                mop.kind = MicroKind::Br;
                if (br->isConditional())
                    pushRef(br->cond());
                mop.succ0 = br->ifTrue()->id();
                if (br->isConditional())
                    mop.succ1 = br->ifFalse()->id();
                break;
              }
              case Opcode::Ret: {
                auto *r = cast<RetInst>(&inst);
                mop.kind = MicroKind::Ret;
                if (r->hasValue())
                    pushRef(r->value());
                break;
              }
              case Opcode::Detach: {
                auto *det = cast<DetachInst>(&inst);
                mop.kind = MicroKind::Detach;
                mop.succ0 = det->detached()->id();
                mop.succ1 = det->cont()->id();
                // Spawn-argument template: the child task's marshaled
                // live-ins, resolved in this (parent) frame.
                if (opts.spawnArgsOf) {
                    if (const auto *sargs = opts.spawnArgsOf(det)) {
                        for (const Value *v : *sargs)
                            pushRef(v);
                    }
                }
                break;
              }
              case Opcode::Reattach: {
                mop.kind = MicroKind::Reattach;
                mop.succ1 = cast<ReattachInst>(&inst)->cont()->id();
                break;
              }
              case Opcode::Sync: {
                mop.kind = MicroKind::Sync;
                mop.succ1 = cast<SyncInst>(&inst)->cont()->id();
                break;
              }
              default:
                tapas_panic("lowering: unhandled opcode '%s'",
                            opcodeName(op));
            }
        }

        mop.opCount =
            static_cast<uint16_t>(lf.operands.size() - mop.opBegin);
        lf.ops.push_back(mop);
    }

    static void
    setMemShape(MicroOp &mop, Type t)
    {
        mop.memIsFloat = t.isFloat() ? 1 : 0;
        mop.memBits = static_cast<uint8_t>(t.bits());
        mop.memSize = static_cast<uint8_t>(t.sizeBytes());
    }

    LoweredFunc &lf;
    const LowerOptions &opts;
    std::unordered_map<const Value *, uint32_t> constSlot;
};

} // namespace

const LoweredBlock &
LoweredFunc::blockOf(const BasicBlock *bb) const
{
    const LoweredBlock &lb = blocks.at(bb->id());
    tapas_assert(lb.bb == bb, "lowered block table out of date");
    return lb;
}

const PhiRoute &
LoweredFunc::routeFor(const LoweredBlock &lb, uint32_t pred_id) const
{
    for (uint32_t r = lb.routeBegin; r < lb.routeEnd; ++r) {
        if (routes[r].predId == pred_id)
            return routes[r];
    }
    tapas_panic("block '%s' has no phi route from block id %u",
                lb.bb->name().c_str(), pred_id);
}

LoweredProgram::LoweredProgram(const Module &mod, LowerOptions opts)
{
    funcs.reserve(mod.functions().size());
    for (const auto &fp : mod.functions()) {
        auto idx = static_cast<uint32_t>(funcs.size());
        funcs.emplace_back();
        LoweredFunc &lf = funcs.back();
        lf.index = idx;
        FuncLowerer(lf, opts).run(*fp);
        byFunc.emplace(fp.get(), idx);
    }

    // Callee indices are only known once every function has a slot.
    for (auto &lf : funcs) {
        for (auto &mop : lf.ops) {
            if (mop.kind != MicroKind::Call)
                continue;
            const Function *callee =
                cast<CallInst>(mop.inst)->callee();
            auto it = byFunc.find(callee);
            tapas_assert(it != byFunc.end(),
                         "call to un-lowered function '%s'",
                         callee->name().c_str());
            mop.calleeIdx = it->second;
        }
    }
}

const LoweredFunc &
LoweredProgram::funcOf(const Function *f) const
{
    auto it = byFunc.find(f);
    tapas_assert(it != byFunc.end(),
                 "function '%s' was not lowered", f->name().c_str());
    return funcs[it->second];
}

std::vector<RtValue>
LoweredProgram::resolvePool(const LoweredFunc &lf, const MemImage &mem)
{
    std::vector<RtValue> pool = lf.constPool;
    for (const auto &[slot, g] : lf.globalSlots)
        pool[slot] = RtValue::fromPtr(mem.addressOf(g));
    return pool;
}

} // namespace tapas::ir
