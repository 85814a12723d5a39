/**
 * @file
 * Pinned results of the lowered TXU engine. The simulator executes
 * only from the ahead-of-time micro-op tables (ir/lower.hh), so these
 * tests hold it to constants instead of to a second engine: modeled
 * cycles, progress events, spawns and the return value of every
 * workload at 1 and 4 tiles, with and without a fixed-seed fault
 * injector, under both cycle-loop schedulers; plus the --explain
 * report, the traced event stream and an interrupted prefix. Every
 * pin was captured while the lowered engine and the instruction
 * walker it replaced still agreed on it.
 *
 * The pins are tight on purpose. Frame::doneCount alone decides
 * block completion, so a missed or doubled update moves cycles; a
 * changed latency, firing rule or retry path moves cycles or events.
 * A deliberate timing-model change re-pins here in the same change.
 * Functional results are checked against an independent reference
 * (the interpreter's instruction walker) by
 * tests/fuzz_cross_engine_test.cc.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "driver/engine.hh"
#include "sim/accel.hh"
#include "sim/fault.hh"
#include "sim/trace.hh"
#include "workloads/workload.hh"

using namespace tapas;

namespace {

constexpr uint64_t kMemBytes = 32ull << 20;

/** The paper suite at test-sized inputs (bench/common.hh shapes). */
std::vector<workloads::Workload>
suite()
{
    std::vector<workloads::Workload> s;
    s.push_back(workloads::makeMatrixAdd(24));
    s.push_back(workloads::makeStencil(16, 16, 1));
    s.push_back(workloads::makeSaxpy(1024));
    s.push_back(workloads::makeImageScale(32, 16));
    s.push_back(workloads::makeDedup(16, 128));
    s.push_back(workloads::makeFib(12));
    s.push_back(workloads::makeMergeSort(512, 32));
    return s;
}

/** Expected modeled outcome of one (workload, tiles, faults) run. */
struct Pin
{
    const char *workload;
    unsigned tiles;
    bool faults;
    uint64_t cycles;
    uint64_t events; ///< AcceleratorSim::progressCount() at the end
    uint64_t spawns;
    int64_t retval;
};

/** Identical under the scan and the event scheduler. */
constexpr Pin kPins[] = {
    {"matrix_add", 1, false, 5535, 18462, 73, 0},
    {"matrix_add", 1, true, 5528, 18464, 73, 0},
    {"matrix_add", 4, false, 2682, 18469, 73, 0},
    {"matrix_add", 4, true, 2755, 18469, 73, 0},
    {"stencil", 1, false, 19105, 149085, 257, 0},
    {"stencil", 1, true, 18992, 149145, 257, 0},
    {"stencil", 4, false, 5687, 149027, 257, 0},
    {"stencil", 4, true, 5729, 149030, 257, 0},
    {"saxpy", 1, false, 7052, 25623, 33, 0},
    {"saxpy", 1, true, 8055, 25624, 33, 0},
    {"saxpy", 4, false, 3258, 25623, 33, 0},
    {"saxpy", 4, true, 3768, 25623, 33, 0},
    {"image_scale", 1, false, 36270, 102897, 161, 0},
    {"image_scale", 1, true, 37712, 102914, 161, 0},
    {"image_scale", 4, false, 9581, 102907, 161, 0},
    {"image_scale", 4, true, 10183, 102910, 161, 0},
    {"dedup", 1, false, 2414, 112840, 44, 0},
    {"dedup", 1, true, 2454, 112840, 44, 0},
    {"dedup", 4, false, 2311, 112848, 44, 0},
    {"dedup", 4, true, 2400, 112847, 44, 0},
    {"fib", 1, false, 2246, 15011, 929, 144},
    {"fib", 1, true, 2270, 15004, 929, 144},
    {"fib", 4, false, 1502, 15007, 929, 144},
    {"fib", 4, true, 1500, 15033, 929, 144},
    {"mergesort", 1, false, 79992, 384391, 61, 0},
    {"mergesort", 1, true, 95209, 384393, 61, 0},
    {"mergesort", 4, false, 56172, 384389, 61, 0},
    {"mergesort", 4, true, 62695, 384387, 61, 0},
};

const Pin &
pinFor(const std::string &workload, unsigned tiles, bool faults)
{
    for (const Pin &p : kPins) {
        if (p.workload == workload && p.tiles == tiles &&
            p.faults == faults)
            return p;
    }
    ADD_FAILURE() << "no pin for " << workload << " x" << tiles;
    return kPins[0];
}

/** Fixed-seed injector touching every fault class. */
sim::FaultConfig
fixedFaults()
{
    sim::FaultConfig fc;
    fc.seed = 0xfeedu;
    fc.spawnDropRate = 1e-3;
    fc.queueCorruptRate = 1e-3;
    fc.memDropRate = 1e-3;
    fc.memDelayRate = 1e-3;
    fc.tileStuckRate = 1e-3;
    return fc;
}

/** A run's result plus the simulator's final progress count. */
struct Observed
{
    driver::RunResult r;
    uint64_t events = 0;
};

Observed
runObserved(workloads::Workload &w, driver::AccelSimEngine::Options eo,
            driver::RunOptions ro = {})
{
    Observed o;
    eo.observer = [&o](const hls::AcceleratorDesign &,
                       sim::AcceleratorSim &sim) {
        o.events = sim.progressCount();
    };
    driver::AccelSimEngine eng(std::move(eo));
    o.r = eng.runWorkload(w, kMemBytes, ro);
    return o;
}

void
expectPinned(const Observed &o, const Pin &p)
{
    EXPECT_TRUE(o.r.ok()) << o.r.failure->detail;
    EXPECT_TRUE(o.r.verifyError.empty()) << o.r.verifyError;
    EXPECT_EQ(o.r.cycles, p.cycles);
    EXPECT_EQ(o.events, p.events);
    EXPECT_EQ(o.r.spawns, p.spawns);
    EXPECT_EQ(o.r.retval.i, p.retval);
}

/** FNV-1a over raw bytes, chained through `h`. */
uint64_t
fnv1a(uint64_t h, const void *data, size_t n)
{
    const auto *b = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 1099511628211ull;
    }
    return h;
}

constexpr uint64_t kFnvBasis = 14695981039346656037ull;

/**
 * The headline pins: every workload, single- and multi-tile, both
 * cycle-loop schedulers, with and without a fixed-seed fault
 * injector. The fault legs matter most: injected perturbations
 * (spawn drops, queue corruption, delayed memory) route the engine
 * through its rarely-taken retry paths.
 */
TEST(LowerEquiv, EveryWorkloadTilesSchedFaultsByteIdentical)
{
    for (unsigned tiles : {1u, 4u}) {
        for (auto sched :
             {sim::Scheduler::Scan, sim::Scheduler::Event}) {
            for (bool faults : {false, true}) {
                auto runs = suite();
                for (workloads::Workload &w : runs) {
                    SCOPED_TRACE(
                        w.name + " tiles=" + std::to_string(tiles) +
                        " sched=" +
                        (sched == sim::Scheduler::Scan ? "scan"
                                                       : "event") +
                        " faults=" + (faults ? "on" : "off"));
                    driver::AccelSimEngine::Options eo;
                    eo.tiles = tiles;
                    eo.scheduler = sched;
                    if (faults)
                        eo.fault = fixedFaults();
                    driver::RunOptions ro;
                    ro.profile = true;
                    expectPinned(runObserved(w, eo, ro),
                                 pinFor(w.name, tiles, faults));
                }
            }
        }
    }
}

/**
 * --explain attaches a CriticalPathSink, which moves the simulator
 * off its sleep and bulk-accounting fast paths. The run must still
 * match its pin, and the bottleneck report its pinned bytes.
 */
TEST(LowerEquiv, ExplainReportIdentical)
{
    auto w = workloads::makeMergeSort(512, 32);
    driver::AccelSimEngine::Options eo;
    eo.tiles = 4;
    driver::RunOptions ro;
    ro.explain = true;
    ro.profile = true;
    Observed o = runObserved(w, eo, ro);
    expectPinned(o, pinFor("mergesort", 4, false));
    const std::string &report = o.r.bottleneckReport;
    EXPECT_EQ(report.size(), 1070u);
    EXPECT_EQ(fnv1a(kFnvBasis, report.data(), report.size()),
              0xad5a7b77f79d7bf1ull)
        << report;
}

/**
 * With a tracer attached the event stream — cycles, kinds, units,
 * slots, in order — must hash to its pinned value.
 */
TEST(LowerEquiv, TracedStreamExact)
{
    auto w = workloads::makeMergeSort(512, 32);
    sim::TaskTracer tracer;
    driver::AccelSimEngine::Options eo;
    eo.tiles = 4;
    eo.tracer = &tracer;
    expectPinned(runObserved(w, eo), pinFor("mergesort", 4, false));

    uint64_t h = kFnvBasis;
    for (const sim::TraceEvent &e : tracer.all()) {
        uint64_t cycle = e.cycle;
        unsigned fields[3] = {static_cast<unsigned>(e.kind), e.sid,
                              e.slot};
        h = fnv1a(h, &cycle, sizeof cycle);
        h = fnv1a(h, fields, sizeof fields);
    }
    EXPECT_EQ(tracer.all().size(), 273u);
    EXPECT_EQ(h, 0x43bee69cdb804a6eull);
}

/**
 * Checkpoint/resume: interrupting at a deterministic cycle deadline
 * stops at that boundary with the pinned progress so far, and an
 * uninterrupted replay reproduces the full run byte-for-byte.
 */
TEST(LowerEquiv, InterruptThenReplayByteIdentical)
{
    driver::AccelSimEngine::Options eo;
    eo.tiles = 4;
    auto runOnce = [&eo](driver::RunOptions ro) {
        auto w = workloads::makeSaxpy(1024);
        ro.profile = true;
        return runObserved(w, eo, std::move(ro));
    };

    Observed ref = runOnce({});
    expectPinned(ref, pinFor("saxpy", 4, false));

    driver::RunOptions mid;
    mid.deadlineCycles = ref.r.cycles / 2;
    Observed stopped = runOnce(mid);
    EXPECT_TRUE(stopped.r.interrupted);
    EXPECT_EQ(stopped.r.interruptCycle, 1629u);
    EXPECT_EQ(stopped.events, 12960u);

    Observed resumed = runOnce({});
    EXPECT_TRUE(resumed.r.equals(ref.r))
        << "replay after interruption diverged";
}

/**
 * The compiled tables ride the design: a prepared CompiledDesign
 * carries one immutable LoweredProgram that every simulation of that
 * design shares, and repeated runs of the shared design are
 * byte-identical.
 */
TEST(LowerEquiv, SharedDesignRunsByteIdentical)
{
    auto w = workloads::makeMergeSort(256, 32);
    driver::AccelSimEngine eng;
    driver::CompiledDesign design = eng.prepare(w);
    ASSERT_NE(design.get().lowered, nullptr);
    EXPECT_GT(design.get().lowered->numFuncs(), 0u);
    EXPECT_GT(design.timings.lowerSec, 0.0);

    driver::RunResult a = eng.runWorkload(w, design, kMemBytes);
    driver::RunResult b = eng.runWorkload(w, design, kMemBytes);
    EXPECT_TRUE(a.ok());
    EXPECT_TRUE(a.equals(b));
}

} // namespace
