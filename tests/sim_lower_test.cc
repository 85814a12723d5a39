/**
 * @file
 * Pinned results of the cycle loop, plus the one live differential
 * it keeps. The simulator has a single execution path whose fast
 * paths (per-tile sleep, the whole-machine idle skip) no input turns
 * off, so these tests hold it to constants and to one guarantee
 * instead of to a second engine:
 *
 *  - LowerEquiv pins every workload at 1, 4 and 16 tiles, with and
 *    without a fixed-seed fault injector (and fib, mergesort and the
 *    DRAM-starved saxpy at 64 tiles): modeled cycles, progress
 *    events, spawns, the return value, and FNV-1a digests of the
 *    full stats map and the rendered profile; plus the --explain
 *    report, the traced event stream, the Perfetto export and an
 *    interrupted prefix.
 *  - SchedEquiv is the live differential: a plain run must equal the
 *    same run with a TaskTracer attached, and sleep exactly as much.
 *    Sinks do not change the path a run takes, so observing a run
 *    must never change its modeled result or its speed class.
 *  - IdleSkip checks that tile sleep and the skip engage, with and
 *    without nonzero fault rates: run() has one path, and faults
 *    arrive as timers it can sleep and skip up to.
 *
 * Every pin was captured while the lowered engine, the instruction
 * walker it replaced, the full-scan loop and the skip-off loop all
 * agreed on it (the faulted rows were re-captured when fault arrivals
 * became timers, and matched a loop with tile sleep disabled at
 * capture; the 16- and 64-tile rows were captured while every
 * resident instance of an awake tile was still stepped every cycle,
 * before resident parking); the explain, traced-stream and Perfetto pins were
 * captured while sinks still forced the per-tile-tick path, so they
 * are now the per-cycle oracle for the span events and residency
 * charges that sleeping tiles settle in bulk. The digests see what
 * cycles alone cannot: a wrong spawn_rejects, mshr_rejects or
 * busy-cycle credit from a span a sleeping tile settled in bulk
 * moves the stats digest; a sample-boundary total that lags a
 * sleeping tile's span moves the Perfetto digest.
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
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
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

/**
 * A tiny cache over slow, narrow DRAM with two MSHRs starves the
 * data boxes: long MSHR-full head-reject spans and full-target-queue
 * spawn-retry spans, exactly where tile sleep and the skip settle
 * stall accounting in bulk. Pinned as "saxpy_dram".
 */
workloads::Workload
dramStarvedSaxpy()
{
    auto w = workloads::makeSaxpy(2048);
    w.params.mem.cacheBytes = 4 * 1024;
    w.params.mem.dramLatency = 400;
    w.params.mem.dramWordsPerCycle = 1;
    w.params.mem.mshrs = 2;
    return w;
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
    uint64_t stats;   ///< statsDigest(RunResult::stats)
    uint64_t profile; ///< textDigest(RunResult::profileReport)
};

/** Runs with RunOptions::profile set (broadest stats surface). */
constexpr Pin kPins[] = {
    {"matrix_add", 1, false, 5535, 18462, 73, 0,
     0x4c024eb4d65e5964ull, 0x8b6c85c8803b5f50ull},
    {"matrix_add", 1, true, 5695, 18464, 73, 0,
     0x0b0020a0995aa2c3ull, 0xb27983e0c019860dull},
    {"matrix_add", 4, false, 2682, 18469, 73, 0,
     0x1d6a1bba3ff60eeeull, 0x9a35df394a721818ull},
    {"matrix_add", 4, true, 2977, 18469, 73, 0,
     0x14488be716a3df98ull, 0x00c3b3fe6ebafff6ull},
    {"stencil", 1, false, 19105, 149085, 257, 0,
     0xff8cb3912bb76935ull, 0x8bdc1752e98bdb2dull},
    {"stencil", 1, true, 18806, 149174, 257, 0,
     0xc67eb72ffe5e983eull, 0x5c3914ce894e118cull},
    {"stencil", 4, false, 5687, 149027, 257, 0,
     0xb3d9ae9d11c05859ull, 0xcc981e645de9e326ull},
    {"stencil", 4, true, 5693, 149034, 257, 0,
     0x5e943d0dc703446full, 0xdf5430cf30702757ull},
    {"saxpy", 1, false, 7052, 25623, 33, 0,
     0x8af6d0fdb4c2383aull, 0x71cb6ee5f07e6749ull},
    {"saxpy", 1, true, 7760, 25625, 33, 0,
     0x4dfca24581820571ull, 0xffbdbd0967a83c26ull},
    {"saxpy", 4, false, 3258, 25623, 33, 0,
     0x6cbb54cf6df4a860ull, 0xc0e0385a07a7452aull},
    {"saxpy", 4, true, 3306, 25623, 33, 0,
     0x5c81ff9375aeaa52ull, 0x5855f502447b5180ull},
    {"image_scale", 1, false, 36270, 102897, 161, 0,
     0x94750399c3c210abull, 0x91f0415105e4e095ull},
    {"image_scale", 1, true, 37686, 102905, 161, 0,
     0x0ed4e1a125b5f746ull, 0x69759e813fe64713ull},
    {"image_scale", 4, false, 9581, 102907, 161, 0,
     0x2cc5de972f4ef9ebull, 0xee1de8633f6b504bull},
    {"image_scale", 4, true, 10193, 102908, 161, 0,
     0x39027c8b5cf07c95ull, 0x5593eb04e0082df4ull},
    {"dedup", 1, false, 2414, 112840, 44, 0,
     0xd35443818ee6ae37ull, 0x607906e224eba83eull},
    {"dedup", 1, true, 3242, 112840, 44, 0,
     0x681a9a54c6322ad5ull, 0x28c12f71e340d48cull},
    {"dedup", 4, false, 2311, 112848, 44, 0,
     0x02c71df1efedf72aull, 0x99e5f0f1a1fd7d9cull},
    {"dedup", 4, true, 3199, 112848, 44, 0,
     0xccd7e67e11a6d150ull, 0xe1dfbe80d6639dccull},
    {"fib", 1, false, 2246, 15011, 929, 144,
     0x49cec71717ea3281ull, 0x0bbb45a967e298bfull},
    {"fib", 1, true, 2581, 15004, 929, 144,
     0xa28d8250b5e8ac74ull, 0xa874f8dc42cd6002ull},
    {"fib", 4, false, 1502, 15007, 929, 144,
     0x59144bc0c16c2b88ull, 0x3b4bb879fb18e8f9ull},
    {"fib", 4, true, 1886, 15021, 929, 144,
     0x84b3033176bc0bf2ull, 0x82b9eee18c7426f7ull},
    {"mergesort", 1, false, 79992, 384391, 61, 0,
     0x2d1546ee4bd21d53ull, 0xdd5048629e63ef7eull},
    {"mergesort", 1, true, 92377, 384388, 61, 0,
     0xa53f72a633c919f8ull, 0x68d2dde1c29fcd12ull},
    {"mergesort", 4, false, 56172, 384389, 61, 0,
     0xea018d1cdf0160b8ull, 0x104ebf76a2e79636ull},
    {"mergesort", 4, true, 65365, 384387, 61, 0,
     0xaac9e85817d32301ull, 0x6f485c6b4cdd8a0full},
    {"saxpy_dram", 1, false, 105337, 51239, 65, 0,
     0x6b2ee88f7d2e00ddull, 0x74e9e34f2710ede7ull},
    {"saxpy_dram", 4, false, 105299, 51239, 65, 0,
     0x9647ea920cbfbb20ull, 0x0df60551b303f28dull},
    {"matrix_add", 16, false, 2616, 18472, 73, 0,
     0x29f7e3f594efb3d4ull, 0x1e1d822df13820f7ull},
    {"matrix_add", 16, true, 2966, 18471, 73, 0,
     0xe2d58af37cb1de2cull, 0x3b7dd2d3d7bd3f28ull},
    {"stencil", 16, false, 3163, 149026, 257, 0,
     0x1ab7081c3413360cull, 0x6dc1a2b94b275729ull},
    {"stencil", 16, true, 3224, 149030, 257, 0,
     0x1fd55a3547537ec0ull, 0xb329254639166ecbull},
    {"saxpy", 16, false, 3357, 25623, 33, 0,
     0xb7be432cd88c226cull, 0x6e55b05ecca18828ull},
    {"saxpy", 16, true, 3270, 25623, 33, 0,
     0xe6e02ac2f6adb3f8ull, 0xcb4681fcd23f2e92ull},
    {"image_scale", 16, false, 5393, 102902, 161, 0,
     0x07a7991aa74fa3e5ull, 0x5a6589c035b84a10ull},
    {"image_scale", 16, true, 5706, 102904, 161, 0,
     0x190220832445cb1aull, 0xbe5d4b77fb390daeull},
    {"dedup", 16, false, 2297, 112848, 44, 0,
     0x7beed2fa8b4f4cb6ull, 0x891bd4cffc1bafefull},
    {"dedup", 16, true, 3322, 112848, 44, 0,
     0x3f9557b847857571ull, 0xfce4a6f115115c81ull},
    {"fib", 16, false, 1489, 15021, 929, 144,
     0xf187e63815ef894eull, 0xea513f8106aa62d7ull},
    {"fib", 16, true, 1918, 15019, 929, 144,
     0x228a796ac4ee8c07ull, 0xa3b47232a2885a45ull},
    {"mergesort", 16, false, 56408, 384389, 61, 0,
     0x595a3684d4ecd550ull, 0x183265bd2ec81eb0ull},
    {"mergesort", 16, true, 66017, 384388, 61, 0,
     0x9cd742845c4b480cull, 0xc19477d38f20aaefull},
    {"fib", 64, false, 1492, 15028, 929, 144,
     0xcfcb2267c08b67ddull, 0x65de94623067ac4aull},
    {"mergesort", 64, false, 56408, 384389, 61, 0,
     0x692b44e08c2a8ab3ull, 0x183265bd2ec81eb0ull},
    {"saxpy_dram", 16, false, 483906, 51255, 65, 0,
     0x0ee10d66df407b53ull, 0x57bd9f188543e8d7ull},
    {"saxpy_dram", 64, false, 105081, 51255, 65, 0,
     0x2a3055310f2d91a4ull, 0x7e24ba4b029c5a5dull},
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

/** A run's result plus the simulator's end-of-run counters. */
struct Observed
{
    driver::RunResult r;
    uint64_t events = 0;
    uint64_t slept = 0;   ///< AcceleratorSim::tileSleptCycles()
    uint64_t skipped = 0; ///< AcceleratorSim::skippedCycles()
};

Observed
runObserved(workloads::Workload &w, driver::AccelSimEngine::Options eo,
            driver::RunOptions ro = {})
{
    Observed o;
    eo.observer = [&o](const hls::AcceleratorDesign &,
                       sim::AcceleratorSim &sim) {
        o.events = sim.progressCount();
        o.slept = sim.tileSleptCycles();
        o.skipped = sim.skippedCycles();
    };
    driver::AccelSimEngine eng(std::move(eo));
    o.r = eng.runWorkload(w, kMemBytes, ro);
    return o;
}

/** runObserved() with a TaskTracer sink attached. */
Observed
runTraced(workloads::Workload &w, driver::AccelSimEngine::Options eo,
          driver::RunOptions ro = {})
{
    sim::TaskTracer tracer;
    eo.tracer = &tracer;
    return runObserved(w, std::move(eo), std::move(ro));
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

uint64_t
textDigest(const std::string &s)
{
    return fnv1a(kFnvBasis, s.data(), s.size());
}

/** Every (name, value bit pattern) pair, in map order. */
uint64_t
statsDigest(const std::map<std::string, double> &stats)
{
    uint64_t h = kFnvBasis;
    for (const auto &[k, v] : stats) {
        h = fnv1a(h, k.c_str(), k.size() + 1);
        h = fnv1a(h, &v, sizeof v);
    }
    return h;
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
    EXPECT_EQ(statsDigest(o.r.stats), p.stats) << "stats map changed";
    EXPECT_EQ(textDigest(o.r.profileReport), p.profile)
        << o.r.profileReport;
}

} // namespace

/**
 * The headline pins: every workload, single- and multi-tile, with
 * and without a fixed-seed fault injector. The fault legs matter
 * most: injected perturbations (spawn drops, queue corruption,
 * lost and delayed memory, frozen tiles) route the engine through
 * its rarely-taken retry paths, and tiles sleep up to each fault's
 * arrival. At 16 tiles most residents share a tile with others and
 * wait on the data box's issue queue, which is where per-resident
 * scheduling matters.
 */
TEST(LowerEquiv, EveryWorkloadTilesSchedFaultsByteIdentical)
{
    for (unsigned tiles : {1u, 4u, 16u}) {
        for (bool faults : {false, true}) {
            auto runs = suite();
            for (workloads::Workload &w : runs) {
                SCOPED_TRACE(w.name + " tiles=" +
                             std::to_string(tiles) + " faults=" +
                             (faults ? "on" : "off"));
                driver::AccelSimEngine::Options eo;
                eo.tiles = tiles;
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

/**
 * The widest machines: recursive spawn trees on 64 tiles, where
 * most tiles sit idle or wait on full queues.
 */
TEST(LowerEquiv, SixtyFourTilesByteIdentical)
{
    auto runs = suite();
    for (workloads::Workload &w : runs) {
        if (w.name != "fib" && w.name != "mergesort")
            continue;
        SCOPED_TRACE(w.name);
        driver::AccelSimEngine::Options eo;
        eo.tiles = 64;
        driver::RunOptions ro;
        ro.profile = true;
        expectPinned(runObserved(w, eo, ro), pinFor(w.name, 64, false));
    }
}

/**
 * --explain attaches a CriticalPathSink, whose residency stall
 * counts sleeping tiles settle in bulk. The run must still match its
 * pin (the critpath.* stats aside), and the bottleneck report its
 * pinned bytes.
 */
TEST(LowerEquiv, ExplainReportIdentical)
{
    const std::pair<unsigned, uint64_t> reports[] = {
        {1, 0xc6c0b24812932eebull}, {4, 0xad5a7b77f79d7bf1ull}};
    for (const auto &[tiles, digest] : reports) {
        SCOPED_TRACE(tiles);
        auto w = workloads::makeMergeSort(512, 32);
        driver::AccelSimEngine::Options eo;
        eo.tiles = tiles;
        driver::RunOptions ro;
        ro.explain = true;
        ro.profile = true;
        Observed o = runObserved(w, eo, ro);
        std::erase_if(o.r.stats, [](const auto &kv) {
            return kv.first.rfind("critpath.", 0) == 0;
        });
        expectPinned(o, pinFor("mergesort", tiles, false));
        EXPECT_EQ(o.r.bottleneckReport.size(), 1070u);
        EXPECT_EQ(textDigest(o.r.bottleneckReport), digest)
            << o.r.bottleneckReport;
    }
}

/**
 * With a tracer attached the event stream — cycles, kinds, units,
 * slots, in order — must hash to its pinned value.
 */
TEST(LowerEquiv, TracedStreamExact)
{
    const std::pair<unsigned, uint64_t> streams[] = {
        {1, 0x681cf31253f54ab1ull}, {4, 0x43bee69cdb804a6eull}};
    for (const auto &[tiles, digest] : streams) {
        SCOPED_TRACE(tiles);
        auto w = workloads::makeMergeSort(512, 32);
        sim::TaskTracer tracer;
        driver::AccelSimEngine::Options eo;
        eo.tiles = tiles;
        eo.tracer = &tracer;
        driver::RunOptions ro;
        ro.profile = true;
        expectPinned(runObserved(w, eo, ro),
                     pinFor("mergesort", tiles, false));

        uint64_t h = kFnvBasis;
        for (const sim::TraceEvent &e : tracer.all()) {
            uint64_t cycle = e.cycle;
            unsigned fields[3] = {static_cast<unsigned>(e.kind), e.sid,
                                  e.slot};
            h = fnv1a(h, &cycle, sizeof cycle);
            h = fnv1a(h, fields, sizeof fields);
        }
        EXPECT_EQ(tracer.all().size(), 273u);
        EXPECT_EQ(h, digest);
    }
}

/**
 * The Perfetto export under --explain --profile --trace: its counter
 * tracks sample the cumulative cache-stall and spawn-reject totals
 * every sampleInterval cycles, so the bytes pin those totals at each
 * sample boundary, not just at the end. Mergesort backs up its task
 * queues (spawn rejects); the DRAM-starved saxpy spends most cycles
 * in MSHR-full stall spans (cache stalls).
 */
TEST(LowerEquiv, PerfettoTraceExact)
{
    struct Case
    {
        const char *pin;
        unsigned tiles;
        size_t bytes;
        uint64_t digest;
    };
    const Case cases[] = {
        {"mergesort", 1, 3313142, 0x415e50d86def8638ull},
        {"mergesort", 4, 2346688, 0x3df56516ef32b204ull},
        {"saxpy_dram", 1, 3451967, 0x2a0a605d6674cad5ull},
        {"saxpy_dram", 4, 3456670, 0x24a98a7241d7e4caull},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.pin) + " tiles=" +
                     std::to_string(c.tiles));
        auto w = std::string(c.pin) == "mergesort"
                     ? workloads::makeMergeSort(512, 32)
                     : dramStarvedSaxpy();
        driver::AccelSimEngine::Options eo;
        eo.tiles = c.tiles;
        driver::RunOptions ro;
        ro.explain = true;
        ro.profile = true;
        ro.traceFile = (std::filesystem::path(testing::TempDir()) /
                        "sim_lower_perfetto.json")
                           .string();
        Observed o = runObserved(w, eo, ro);
        std::erase_if(o.r.stats, [](const auto &kv) {
            return kv.first.rfind("critpath.", 0) == 0;
        });
        expectPinned(o, pinFor(c.pin, c.tiles, false));

        std::ifstream in(ro.traceFile);
        ASSERT_TRUE(in.good()) << ro.traceFile;
        std::ostringstream trace;
        trace << in.rdbuf();
        EXPECT_EQ(trace.str().size(), c.bytes);
        EXPECT_EQ(textDigest(trace.str()), c.digest);
    }
}

/**
 * Checkpoint/resume: interrupting at a deterministic cycle deadline
 * stops at that boundary with the pinned progress and stats so far
 * (tiles asleep at the deadline are settled first), and an
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
    EXPECT_EQ(statsDigest(stopped.r.stats), 0x13aa9b535780f759ull);
    EXPECT_EQ(textDigest(stopped.r.profileReport),
              0x96ecf295e5a7566dull);

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

/**
 * The live differential: every workload, single- and multi-tile,
 * with and without faults, must come out field-for-field equal with
 * and without a trace sink, and sleep for the same tile-cycles: a
 * sink never changes the path a run takes.
 */
TEST(SchedEquiv, EveryWorkloadTilesFaultsByteIdentical)
{
    for (unsigned tiles : {1u, 4u, 16u}) {
        for (bool faults : {false, true}) {
            auto plain_suite = suite();
            auto traced_suite = suite();
            for (size_t i = 0; i < plain_suite.size(); ++i) {
                SCOPED_TRACE(plain_suite[i].name + " tiles=" +
                             std::to_string(tiles) + " faults=" +
                             (faults ? "on" : "off"));
                driver::AccelSimEngine::Options eo;
                eo.tiles = tiles;
                if (faults)
                    eo.fault = fixedFaults();
                driver::RunOptions ro;
                ro.profile = true;
                Observed plain = runObserved(plain_suite[i], eo, ro);
                Observed traced = runTraced(traced_suite[i], eo, ro);
                EXPECT_TRUE(plain.r.ok()) << plain.r.failure->detail;
                EXPECT_TRUE(plain.r.equals(traced.r))
                    << "observing the run changed it: cycles "
                    << plain.r.cycles << " vs " << traced.r.cycles;
                EXPECT_EQ(plain.events, traced.events);
                EXPECT_EQ(traced.slept, plain.slept);
            }
        }
    }
}

/**
 * The differential on the DRAM-starved saxpy, where most tile-cycles
 * are slept: the traced run must match the plain one and sleep just
 * as much, and sleep must actually engage — a loop that never slept
 * would pass the differential vacuously.
 */
TEST(SchedEquiv, DramBoundSleepEngagesAndMatches)
{
    for (unsigned tiles : {1u, 4u}) {
        SCOPED_TRACE(tiles);
        auto w1 = dramStarvedSaxpy();
        auto w2 = dramStarvedSaxpy();
        driver::AccelSimEngine::Options eo;
        eo.tiles = tiles;
        driver::RunOptions ro;
        ro.profile = true;
        Observed plain = runObserved(w1, eo, ro);
        Observed traced = runTraced(w2, eo, ro);
        EXPECT_TRUE(plain.r.ok());
        EXPECT_TRUE(plain.r.equals(traced.r))
            << "observing the run changed it: cycles "
            << plain.r.cycles << " vs " << traced.r.cycles;
        EXPECT_GT(plain.slept, 0u) << "tile sleep never engaged";
        EXPECT_EQ(traced.slept, plain.slept);
    }
}

/**
 * Zero-rate injector: schedules no arrival and consumes no RNG, so
 * the run (no fault.* stats) matches the plain pin and sleeps and
 * skips like it.
 */
TEST(SchedEquiv, ZeroRateInjectorByteIdentical)
{
    auto w = workloads::makeFib(12);
    driver::AccelSimEngine::Options eo;
    eo.fault = sim::FaultConfig{};
    driver::RunOptions ro;
    ro.profile = true;
    Observed o = runObserved(w, eo, ro);
    expectPinned(o, pinFor("fib", 1, false));
    EXPECT_GT(o.slept, 0u);
    EXPECT_GT(o.skipped, 0u);
}

/**
 * An interrupt can land while tiles sleep: the end-of-run settle
 * must close every open span before stats are read, so the stopped
 * prefix equals the traced run stopped at the same boundary, and
 * matches its pin; the replay equals the full run.
 */
TEST(SchedEquiv, InterruptThenReplayByteIdentical)
{
    auto runOnce = [](bool traced, driver::RunOptions ro) {
        auto w = workloads::makeSaxpy(1024);
        ro.profile = true;
        return traced ? runTraced(w, {}, std::move(ro))
                      : runObserved(w, {}, std::move(ro));
    };

    Observed ref = runOnce(false, {});
    expectPinned(ref, pinFor("saxpy", 1, false));

    driver::RunOptions mid;
    mid.deadlineCycles = ref.r.cycles / 2;
    Observed stopped = runOnce(false, mid);
    EXPECT_TRUE(stopped.r.interrupted);
    EXPECT_EQ(stopped.r.interruptCycle, ref.r.cycles / 2);
    EXPECT_EQ(stopped.events, 12811u);
    EXPECT_EQ(statsDigest(stopped.r.stats), 0xc7d3f5fe7a01e2b1ull);
    EXPECT_EQ(textDigest(stopped.r.profileReport),
              0x3c43962215222984ull);
    EXPECT_GT(stopped.slept, 0u);

    Observed traced_stop = runOnce(true, mid);
    EXPECT_TRUE(stopped.r.equals(traced_stop.r))
        << "interrupted prefix diverged at cycle "
        << stopped.r.interruptCycle;

    Observed resumed = runOnce(false, {});
    EXPECT_TRUE(resumed.r.equals(ref.r))
        << "replay after interruption diverged";
}

/**
 * Checkpoint callbacks land on exact cadence multiples: calendar
 * jumps and tile sleep never overshoot a boundary.
 */
TEST(SchedEquiv, CheckpointBoundariesExact)
{
    auto w = workloads::makeSaxpy(1024);
    std::vector<uint64_t> fired;
    driver::RunOptions ro;
    ro.checkpointEveryCycles = 64;
    ro.onCheckpoint = [&](uint64_t cyc) { fired.push_back(cyc); };
    Observed o = runObserved(w, {}, ro);
    ASSERT_TRUE(o.r.ok());
    ASSERT_FALSE(fired.empty());
    uint64_t prev = 0;
    for (uint64_t cyc : fired) {
        EXPECT_GT(cyc, prev);
        EXPECT_EQ(cyc % 64, 0u);
        prev = cyc;
    }
}

/**
 * The DRAM-starved saxpy is mostly stalled, so the whole-machine
 * skip must cover more than half of it, and the bulk stall
 * accounting over those spans must reproduce the pinned stats.
 */
TEST(IdleSkip, DramBoundStallSpansCycleExact)
{
    for (unsigned tiles : {1u, 4u, 16u, 64u}) {
        SCOPED_TRACE(tiles);
        auto w = dramStarvedSaxpy();
        driver::AccelSimEngine::Options eo;
        eo.tiles = tiles;
        driver::RunOptions ro;
        ro.profile = true;
        Observed o = runObserved(w, eo, ro);
        expectPinned(o, pinFor("saxpy_dram", tiles, false));
        EXPECT_GT(o.skipped, o.r.cycles / 2);
    }
}

/** The skip must actually fire on a memory-bound workload. */
TEST(IdleSkip, ActuallySkipsCycles)
{
    auto w = workloads::makeSaxpy(1024);
    Observed o = runObserved(w, {});
    EXPECT_TRUE(o.r.ok());
    EXPECT_GT(o.skipped, 0u);
}

/**
 * Nonzero fault rates turn nothing off: the per-cycle categories
 * arrive as drawn timers, so a faulted run's tiles sleep and the
 * machine skips just as a fault-free run's do.
 */
TEST(IdleSkip, FaultedRunsSleepAndSkip)
{
    auto w = workloads::makeSaxpy(1024);
    driver::AccelSimEngine::Options eo;
    eo.fault = fixedFaults();
    Observed faulty = runObserved(w, eo);
    EXPECT_TRUE(faulty.r.ok());
    EXPECT_GT(faulty.r.stat("fault.tile_stalls") +
                  faulty.r.stat("fault.mem_delays"),
              0.0)
        << "the schedule never fired; the test would be vacuous";
    EXPECT_GT(faulty.slept, 0u);
    EXPECT_GT(faulty.skipped, 0u);
}
