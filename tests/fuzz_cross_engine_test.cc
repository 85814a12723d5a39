/**
 * @file
 * Cross-engine differential testing: randomly generated parallel
 * programs must compute byte-identical results on the reference
 * interpreter (serial elision, walking Instruction objects) and on
 * the cycle-level accelerator simulator (real parallel schedule,
 * executing lowered micro-ops), across random hardware
 * parameterizations. This is the strongest functional invariant in
 * the repository: scheduling must never change program results.
 *
 * Generated programs: a read-only input array and an output array;
 * a (possibly grained, possibly nested) cilk_for whose body computes
 * a random pure expression over the induction value, array reads and
 * constants, optionally accumulates through a serial inner loop, and
 * writes only to its own output cell (so results are deterministic
 * by construction, matching the data-race-free discipline Tapir
 * requires).
 */

#include <gtest/gtest.h>

#include "hls/opt.hh"
#include "ir/interp.hh"
#include "ir/parser.hh"
#include "ir/printer.hh"
#include "ir/verifier.hh"
#include "sim/accel.hh"
#include "support/rng.hh"
#include "workloads/loops.hh"

using namespace tapas;
using namespace tapas::ir;

namespace {

/** Random-program builder. */
class ProgramGen
{
  public:
    explicit ProgramGen(uint64_t seed) : rng(seed) {}

    struct Generated
    {
        std::unique_ptr<Module> module;
        Function *top;
        GlobalVar *input;
        GlobalVar *output;
        unsigned n;
    };

    Generated
    build()
    {
        Generated g;
        g.module = std::make_unique<Module>();
        Module &m = *g.module;
        IRBuilder b(m);

        g.n = 16 + static_cast<unsigned>(rng.below(48));
        g.input = m.addGlobal("in", 8ull * g.n);
        g.output = m.addGlobal("out", 8ull * g.n);

        g.top = m.addFunction(
            "fuzz", Type::voidTy(),
            {{Type::ptr(), "in"}, {Type::ptr(), "out"},
             {Type::i64(), "n"}, {Type::i64(), "k"}});
        b.setInsertPoint(g.top->addBlock("entry"));

        uint64_t grain = rng.chance(0.5) ? 1 : (1 + rng.below(7));
        workloads::buildCilkForGrained(
            b, b.constI64(0), g.top->arg(2), grain, "i",
            [&](IRBuilder &bi, Value *i) { emitBody(bi, g, i); });
        b.createRet();
        return g;
    }

  private:
    void
    emitBody(IRBuilder &b, Generated &g, Value *i)
    {
        Value *in_addr = b.createGep(g.top->arg(0), 8, i);
        Value *x = b.createLoad(Type::i64(), in_addr, "x");

        std::vector<Value *> pool{i, x, g.top->arg(3)};
        Value *e = randomExpr(b, pool, 3 + rng.below(3));

        if (rng.chance(0.4)) {
            // Serial inner reduction over a small range.
            Value *bound = b.constI64(
                static_cast<int64_t>(1 + rng.below(6)));
            e = workloads::buildSerialForCarry(
                b, b.constI64(0), bound, e, "acc",
                [&](IRBuilder &bc, Value *j, Value *carry) {
                    std::vector<Value *> inner{carry, j, x};
                    return randomExpr(bc, inner, 2);
                });
        }

        Value *out_addr = b.createGep(g.top->arg(1), 8, i);
        b.createStore(e, out_addr);
    }

    Value *
    randomExpr(IRBuilder &b, const std::vector<Value *> &pool,
               unsigned depth)
    {
        if (depth == 0 || rng.chance(0.2)) {
            if (rng.chance(0.3))
                return b.constI64(rng.range(-7, 7));
            return pool[rng.below(pool.size())];
        }
        Value *lhs = randomExpr(b, pool, depth - 1);
        Value *rhs = randomExpr(b, pool, depth - 1);
        switch (rng.below(8)) {
          case 0: return b.createAdd(lhs, rhs);
          case 1: return b.createSub(lhs, rhs);
          case 2: return b.createMul(lhs, rhs);
          case 3: return b.createXor(lhs, rhs);
          case 4: return b.createAnd(lhs, rhs);
          case 5:
            return b.createShl(lhs,
                               b.constI64(rng.range(0, 7)));
          case 6: {
            Value *c = b.createICmp(CmpPred::SLT, lhs, rhs);
            return b.createSelect(c, lhs, rhs);
          }
          default:
            return b.createAShr(lhs, b.constI64(rng.range(0, 7)));
        }
    }

    Rng rng;
};

class CrossEngineFuzz : public ::testing::TestWithParam<uint64_t>
{};

} // namespace

TEST_P(CrossEngineFuzz, InterpAndAccelAgree)
{
    uint64_t seed = GetParam();
    ProgramGen gen(seed);
    auto g = gen.build();

    VerifyResult v = verifyModule(*g.module);
    ASSERT_TRUE(v.ok()) << "seed " << seed << ":\n" << v.str();

    Rng data_rng(seed ^ 0xf00d);
    auto fill = [&](MemImage &mem) {
        mem.layout(*g.module);
        uint64_t pin = mem.addressOf(g.input);
        Rng local(seed ^ 0xf00d);
        for (unsigned i = 0; i < g.n; ++i) {
            mem.put<int64_t>(pin + 8ull * i,
                             local.range(-100000, 100000));
        }
        return std::vector<RtValue>{
            RtValue::fromPtr(pin),
            RtValue::fromPtr(mem.addressOf(g.output)),
            RtValue::fromInt(g.n),
            RtValue::fromInt(
                static_cast<int64_t>(seed % 977))};
    };

    // Reference run on the interpreter's instruction walker: it
    // shares no lowering code with the simulator, only the scalar
    // evaluators (evalBinary, evalCmp, evalCast).
    MemImage mem_ref(16 << 20);
    auto args_ref = fill(mem_ref);
    Interp::Options walker;
    walker.lowering = false;
    Interp interp(*g.module, mem_ref, walker);
    interp.run(*g.top, args_ref);

    // Accelerator run under a random parameterization.
    Rng param_rng(seed * 31 + 7);
    arch::AcceleratorParams p;
    p.defaults.ntiles = 1 + static_cast<unsigned>(param_rng.below(4));
    p.defaults.ntasks = 4 + static_cast<unsigned>(param_rng.below(60));
    p.defaults.tilePipelineDepth =
        1 + static_cast<unsigned>(param_rng.below(8));
    p.mem.portsPerCycle = 1 + static_cast<unsigned>(param_rng.below(3));
    p.mem.mshrs = 1 + static_cast<unsigned>(param_rng.below(8));
    p.mem.cacheBytes = 1024u << param_rng.below(5);

    auto design = hls::compile(*g.module, g.top, p);
    MemImage mem_acc(16 << 20);
    auto args_acc = fill(mem_acc);
    sim::AcceleratorSim accel(*design, mem_acc);
    accel.run(args_acc);

    uint64_t pout_ref = mem_ref.addressOf(g.output);
    uint64_t pout_acc = mem_acc.addressOf(g.output);
    for (unsigned i = 0; i < g.n; ++i) {
        ASSERT_EQ(mem_ref.get<int64_t>(pout_ref + 8ull * i),
                  mem_acc.get<int64_t>(pout_acc + 8ull * i))
            << "seed " << seed << ", element " << i;
    }
}

TEST_P(CrossEngineFuzz, OptimizationPreservesSemantics)
{
    uint64_t seed = GetParam();
    ProgramGen gen(seed);
    auto g = gen.build();

    auto fill = [&](MemImage &mem) {
        mem.layout(*g.module);
        uint64_t pin = mem.addressOf(g.input);
        Rng local(seed ^ 0xbeef);
        for (unsigned i = 0; i < g.n; ++i) {
            mem.put<int64_t>(pin + 8ull * i,
                             local.range(-100000, 100000));
        }
        return std::vector<RtValue>{
            RtValue::fromPtr(pin),
            RtValue::fromPtr(mem.addressOf(g.output)),
            RtValue::fromInt(g.n),
            RtValue::fromInt(static_cast<int64_t>(seed % 977))};
    };

    MemImage mem_a(16 << 20);
    auto args_a = fill(mem_a);
    Interp interp_a(*g.module, mem_a);
    interp_a.run(*g.top, args_a);

    hls::optimizeModule(*g.module);
    VerifyResult v = verifyModule(*g.module);
    ASSERT_TRUE(v.ok()) << "seed " << seed << ":\n" << v.str();

    MemImage mem_b(16 << 20);
    auto args_b = fill(mem_b);
    Interp interp_b(*g.module, mem_b);
    interp_b.run(*g.top, args_b);

    uint64_t pa = mem_a.addressOf(g.output);
    uint64_t pb = mem_b.addressOf(g.output);
    for (unsigned i = 0; i < g.n; ++i) {
        ASSERT_EQ(mem_a.get<int64_t>(pa + 8ull * i),
                  mem_b.get<int64_t>(pb + 8ull * i))
            << "seed " << seed << ", element " << i;
    }
}

TEST_P(CrossEngineFuzz, PrintParseRoundTrip)
{
    uint64_t seed = GetParam();
    ProgramGen gen(seed);
    auto g = gen.build();

    std::string once = ir::toString(*g.module);
    auto parsed = ir::parseModule(once);
    ASSERT_TRUE(parsed.ok()) << "seed " << seed << ": "
                             << parsed.error;
    EXPECT_EQ(once, ir::toString(*parsed.module)) << "seed " << seed;

    // The re-parsed module must also run identically.
    auto fill = [&](const ir::Module &m, MemImage &mem,
                    const GlobalVar *in, const GlobalVar *out) {
        mem.layout(m);
        uint64_t pin = mem.addressOf(in);
        Rng local(seed ^ 0xabcd);
        for (unsigned i = 0; i < g.n; ++i) {
            mem.put<int64_t>(pin + 8ull * i,
                             local.range(-5000, 5000));
        }
        return std::vector<RtValue>{
            RtValue::fromPtr(pin),
            RtValue::fromPtr(mem.addressOf(out)),
            RtValue::fromInt(g.n),
            RtValue::fromInt(static_cast<int64_t>(seed % 977))};
    };

    MemImage mem_a(16 << 20);
    auto args_a = fill(*g.module, mem_a, g.input, g.output);
    Interp ia(*g.module, mem_a);
    ia.run(*g.top, args_a);

    const ir::Module &pm = *parsed.module;
    const GlobalVar *pin_g = pm.globalByName("in");
    const GlobalVar *pout_g = pm.globalByName("out");
    ir::Function *ptop = pm.functionByName("fuzz");
    ASSERT_TRUE(pin_g && pout_g && ptop);
    MemImage mem_b(16 << 20);
    auto args_b = fill(pm, mem_b, pin_g, pout_g);
    Interp ib(pm, mem_b);
    ib.run(*ptop, args_b);

    uint64_t pa = mem_a.addressOf(g.output);
    uint64_t pb = mem_b.addressOf(pout_g);
    for (unsigned i = 0; i < g.n; ++i) {
        ASSERT_EQ(mem_a.get<int64_t>(pa + 8ull * i),
                  mem_b.get<int64_t>(pb + 8ull * i))
            << "seed " << seed << ", element " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossEngineFuzz,
                         ::testing::Range<uint64_t>(0, 24));
