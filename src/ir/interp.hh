/**
 * @file
 * Reference interpreter for the TAPAS parallel IR.
 *
 * Executes a module with *serial elision* semantics: a detach runs the
 * detached task immediately and then continues at the continuation, so
 * sync is a no-op. For deterministic Tapir programs this computes the
 * same result as any parallel schedule, which makes the interpreter
 * the golden functional model the accelerator simulator and the CPU
 * baseline are validated against.
 *
 * The interpreter also gathers a dynamic opcode histogram, used by the
 * CPU baseline's cost model and by tests.
 */

#ifndef TAPAS_IR_INTERP_HH
#define TAPAS_IR_INTERP_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "ir/memimage.hh"
#include "ir/rtvalue.hh"

namespace tapas::ir {

class LoweredProgram;
struct LoweredFunc;

/** Dynamic execution statistics gathered by an Interp run. */
struct InterpStats
{
    /** Dynamic count per opcode. */
    std::array<uint64_t, 64> opcodeCount{};

    /** Total dynamic instructions. */
    uint64_t totalInsts = 0;

    /** Number of tasks spawned (dynamic detach count). */
    uint64_t spawns = 0;

    /** Number of function calls (incl. recursion). */
    uint64_t calls = 0;

    /** Deepest call nesting observed. */
    unsigned maxCallDepth = 0;

    uint64_t
    count(Opcode op) const
    {
        return opcodeCount[static_cast<size_t>(op)];
    }

    /** Dynamic loads + stores. */
    uint64_t
    memOps() const
    {
        return count(Opcode::Load) + count(Opcode::Store);
    }
};

/**
 * Observation hooks for instrumented execution (used by the CPU
 * baseline to build a task DAG with per-strand costs). All methods
 * have empty defaults; the interpreter invokes them in program order
 * under serial elision.
 */
class InterpObserver
{
  public:
    virtual ~InterpObserver() = default;

    /** Every executed instruction (phis included). */
    virtual void onInst(const Instruction *inst) { (void)inst; }

    /** Every memory access (after onInst for the same load/store). */
    virtual void
    onMemAccess(uint64_t addr, unsigned bytes, bool is_store)
    {
        (void)addr;
        (void)bytes;
        (void)is_store;
    }

    /** Entering the detached task of `det`. */
    virtual void onDetach(const DetachInst *det) { (void)det; }

    /** The detached task reattached (child complete). */
    virtual void onReattach(const ReattachInst *re) { (void)re; }

    /** A sync executed in the current task frame. */
    virtual void onSync(const SyncInst *sy) { (void)sy; }

    /** Entering / leaving a called function. */
    virtual void onCallEnter(const Function *callee) { (void)callee; }
    virtual void onCallExit(const Function *callee) { (void)callee; }
};

/** Serial-elision interpreter over a shared MemImage. */
class Interp
{
  public:
    struct Options
    {
        /** Abort with fatal() after this many dynamic instructions. */
        uint64_t maxSteps = 2'000'000'000ull;

        /** Abort with fatal() beyond this call depth. */
        unsigned maxCallDepth = 10'000;

        /** Optional observer (not owned). */
        InterpObserver *observer = nullptr;

        /**
         * Execute from ahead-of-time lowered micro-op tables
         * (ir/lower.hh, the default: 1.3-3x faster) or, when false,
         * walk the Instruction objects directly. Results are
         * identical. The walker shares no lowering code with the
         * accelerator simulator, which makes it the independent
         * reference that tests check both against.
         */
        bool lowering = true;
    };

    Interp(const Module &mod, MemImage &mem, Options opts);
    ~Interp();

    Interp(const Module &mod, MemImage &mem)
        : Interp(mod, mem, Options())
    {}

    /**
     * Run a function to completion.
     *
     * @param func function to execute
     * @param args actual parameters (must match arity)
     * @return the returned value (undefined lane for void functions)
     */
    RtValue run(const Function &func, std::vector<RtValue> args);

    const InterpStats &stats() const { return _stats; }

    /** Resolve an operand in some frame-independent context. */
    MemImage &memory() { return mem; }

  private:
    struct Frame
    {
        const Function *func;
        std::vector<RtValue> args;
        std::vector<RtValue> regs; // indexed by instruction id
    };

    RtValue runFunction(const Function &func, std::vector<RtValue> args,
                        unsigned depth);

    RtValue runLowered(const LoweredFunc &lf, std::vector<RtValue> args,
                       unsigned depth);

    RtValue evalOperand(const Frame &frame, const Value *v) const;

    RtValue execLoad(const LoadInst *ld, uint64_t addr) const;
    void execStore(const StoreInst *st, const Frame &frame,
                   uint64_t addr);

    const Module &mod;
    MemImage &mem;
    Options opts;
    InterpStats _stats;
    uint64_t steps = 0;

    /** Decoded program (null when walking Instruction objects). */
    std::unique_ptr<LoweredProgram> lowered;

    /** Per-function constant pools with global addresses patched
     *  against `mem` (resolved lazily on first run()). */
    std::vector<std::vector<RtValue>> pools;

    /** Scratch for parallel phi reads (reused across block entries). */
    std::vector<RtValue> phiScratch;
};

} // namespace tapas::ir

#endif // TAPAS_IR_INTERP_HH
