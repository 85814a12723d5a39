/**
 * @file
 * Ahead-of-time micro-op lowering for the TAPAS parallel IR.
 *
 * Both execution engines (the golden serial-elision interpreter and
 * the accelerator simulator's per-tile dataflow firing) historically
 * walked `ir::Instruction` objects on every dynamic execution: each
 * firing re-dispatched on `Value::Kind` per operand, re-materialized
 * constants, re-resolved global addresses and re-discovered in-block
 * dependences. TAPAS's toolchain elaborates each task's dataflow graph
 * once at compile time (paper Section III, Fig. 4/6); this module does
 * the same for the software model.
 *
 * A `LoweredProgram` decodes every function of a module into flat,
 * immutable tables:
 *
 *  - `MicroOp`: one decoded record per instruction (opcode class,
 *    fixed execute latency, operand descriptors, in-block dependence
 *    list, successor block ids, memory access shape).
 *  - `OperandRef`: a 2-bit tag {const-pool slot, task-arg index,
 *    frame register id} plus an index — operand fetch at run time is
 *    an indexed load and a tag switch, never a `Value::Kind` walk.
 *  - A per-function `RtValue` constant pool. Integer and float
 *    constants are baked in; global addresses depend on the run's
 *    `MemImage` layout, so their slots are recorded in `globalSlots`
 *    and patched per run (`resolvePool`).
 *  - Per-block tables: phi routing per predecessor, node counts, the
 *    id base shared with the firing-state vectors.
 *  - Call and spawn argument templates: the operand descriptors for a
 *    call's actuals and — when the lowering client supplies the task
 *    graph's detach-site mapping — for a detach's marshaled child
 *    arguments.
 *
 * The tables are built once per compiled design (behind
 * `CompiledDesign`'s shared_ptr) and shared read-only across threads,
 * runs, DSE points and checkpoints. The simulator executes only from
 * the tables; the interpreter (ir/interp.hh) can also walk the
 * Instruction objects directly, and that walker is the independent
 * reference the tables are tested against.
 */

#ifndef TAPAS_IR_LOWER_HH
#define TAPAS_IR_LOWER_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/instruction.hh"
#include "ir/rtvalue.hh"
#include "ir/type.hh"

namespace tapas::ir {

class Module;
class MemImage;

/**
 * A pre-resolved operand: where a value comes from at run time.
 * Resolution replaces the per-use `Value::Kind` dispatch with an
 * indexed load and a small tag switch.
 */
struct OperandRef
{
    enum class Tag : uint8_t {
        Const, ///< `index` is a constant-pool slot
        Arg,   ///< `index` is a formal-argument position
        Reg,   ///< `index` is a frame register (instruction id)
    };

    Tag tag;
    uint32_t index;
};

/** Decoded execution class of a micro-op (coarser than `Opcode`). */
enum class MicroKind : uint8_t {
    PhiNode, ///< resolved at block entry, never fired
    Binary,  ///< int/float arithmetic via evalBinary
    Cmp,     ///< ICmp/FCmp via evalCmp
    Select,
    Cast,
    Gep,
    Alloca,
    Load,
    Store,
    Call,    ///< leaf call or task call (see calleeHasDetach)
    Br,
    Ret,
    Detach,
    Reattach,
    Sync,
};

/**
 * An in-block dataflow dependence of a micro-op. `nstIdx` indexes the
 * consumer block's node-state vector directly; `instId` is the
 * function-wide instruction id of the producer (needed for the
 * marshaled-live-in check in the simulator).
 */
struct MicroDep
{
    uint32_t nstIdx;
    uint32_t instId;
};

/** Block-id sentinel for "no successor on this edge". */
inline constexpr uint32_t kNoSucc = ~0u;

/** One decoded instruction. Immutable after lowering. */
struct MicroOp
{
    /** The source instruction (identity for observers/cold paths). */
    const Instruction *inst = nullptr;

    /** Function-wide instruction id (register / firing-mark index). */
    uint32_t id = 0;

    /** Fixed execute latency (0 unless `LowerOptions::latencyOf`). */
    uint32_t latency = 0;

    /** Operand descriptors: [opBegin, opBegin+opCount) in operands.
     *  For Detach this is the child task's marshaled-argument
     *  template (when `LowerOptions::spawnArgsOf` was supplied). */
    uint32_t opBegin = 0;
    uint16_t opCount = 0;

    /** In-block dependences: [depBegin, depBegin+depCount) in deps. */
    uint32_t depBegin = 0;
    uint16_t depCount = 0;

    /** Gep only: strides[strideBegin + i] pairs with operand 1+i. */
    uint32_t strideBegin = 0;

    /** Successor block ids (kNoSucc when absent).
     *  Br: succ0=ifTrue, succ1=ifFalse; Detach: succ0=detached,
     *  succ1=continue; Reattach/Sync: succ1=continue. */
    uint32_t succ0 = kNoSucc;
    uint32_t succ1 = kNoSucc;

    /** Alloca only: activation-record size in bytes. */
    uint64_t allocaBytes = 0;

    /** Call only: callee's LoweredProgram index (kNoSucc if none). */
    uint32_t calleeIdx = kNoSucc;

    MicroKind kind = MicroKind::PhiNode;
    Opcode op = Opcode::Add;
    CmpPred pred = CmpPred::EQ;

    /** Call only: result type is void (no register writeback). */
    uint8_t isVoid = 0;

    /** Call only: callee contains detach (task call, not leaf). */
    uint8_t calleeHasDetach = 0;

    /** Load/Store: accessed value shape. */
    uint8_t memIsFloat = 0;
    uint8_t memBits = 0;
    uint8_t memSize = 0;

    /** Result type (Binary), destination type (Cast). */
    Type type;

    /** Source type (Cast), operand type (Cmp). */
    Type srcType;
};

/**
 * Phi routing for one predecessor edge: entering the block from
 * predecessor block `predId` reads `numPhis` consecutive operand
 * descriptors starting at `operandBegin` (one per phi, in phi order).
 */
struct PhiRoute
{
    uint32_t predId;
    uint32_t operandBegin;
};

/** Dense per-block table; blocks are indexed by `BasicBlock::id()`. */
struct LoweredBlock
{
    const BasicBlock *bb = nullptr;

    /** Micro-op range [opBegin, opEnd) — one per instruction,
     *  phis included, in block order. nst[i] <-> ops[opBegin+i]. */
    uint32_t opBegin = 0;
    uint32_t opEnd = 0;

    /** Leading phi count (ops [opBegin, opBegin+numPhis)). */
    uint32_t numPhis = 0;

    /** Instruction id of the block's first instruction. */
    uint32_t firstId = 0;

    /** Phi routes [routeBegin, routeEnd), one per predecessor. */
    uint32_t routeBegin = 0;
    uint32_t routeEnd = 0;

    uint32_t numOps() const { return opEnd - opBegin; }
};

/** One function's flat decoded program. */
struct LoweredFunc
{
    const Function *func = nullptr;

    /** Position within the owning LoweredProgram (pool index). */
    uint32_t index = 0;

    /** func->numInstructions() (register-file size). */
    uint32_t numInsts = 0;

    std::vector<MicroOp> ops;
    std::vector<OperandRef> operands;
    std::vector<MicroDep> deps;
    std::vector<PhiRoute> routes;
    std::vector<int64_t> strides;
    std::vector<LoweredBlock> blocks;

    /** Constant pool template; global-address slots hold 0 until
     *  patched against a run's MemImage (see resolvePool). */
    std::vector<RtValue> constPool;

    /** Slots of `constPool` holding global addresses. */
    std::vector<std::pair<uint32_t, const GlobalVar *>> globalSlots;

    const LoweredBlock &blockOf(const BasicBlock *bb) const;

    /** Route lookup for a block entry; panics if `predId` is not a
     *  recorded predecessor (mirrors PhiInst::incomingFor). */
    const PhiRoute &routeFor(const LoweredBlock &lb,
                             uint32_t predId) const;
};

/** Client hooks parameterizing the lowering. */
struct LowerOptions
{
    /** Fixed execute latency per instruction (e.g. the accelerator's
     *  operation model). Null bakes latency 0 everywhere — fine for
     *  clients that do not consume latencies (the interpreter). */
    std::function<unsigned(const Instruction &)> latencyOf;

    /** Marshaled child-task arguments for a detach site (the task
     *  graph's spawn-argument list). Null leaves detach templates
     *  empty — fine for serial-elision execution. */
    std::function<const std::vector<Value *> *(const DetachInst *)>
        spawnArgsOf;
};

/**
 * A whole module lowered to flat decoded programs. Immutable after
 * construction; safe to share read-only across threads.
 */
class LoweredProgram
{
  public:
    explicit LoweredProgram(const Module &mod,
                            LowerOptions opts = LowerOptions());

    /** Lowered form of `f`; panics if `f` is not in the module. */
    const LoweredFunc &funcOf(const Function *f) const;

    size_t numFuncs() const { return funcs.size(); }
    const LoweredFunc &at(size_t i) const { return funcs.at(i); }

    /**
     * Materialize `lf`'s constant pool against a laid-out memory
     * image: copies the template and patches global-address slots.
     */
    static std::vector<RtValue> resolvePool(const LoweredFunc &lf,
                                            const MemImage &mem);

  private:
    std::vector<LoweredFunc> funcs;
    std::unordered_map<const Function *, uint32_t> byFunc;
};

} // namespace tapas::ir

#endif // TAPAS_IR_LOWER_HH
