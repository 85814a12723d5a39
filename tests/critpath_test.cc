/**
 * @file
 * Tests for the critical-path & bottleneck analysis (src/obs/critpath):
 * the two pinned invariants — path length == simulated cycles and the
 * per-class attribution partitions the path exactly — plus what-if
 * bound sanity (>= 1, superset-monotone), byte-deterministic JSON,
 * pinned reports, the explain-off identity, and the DSE frontier
 * annotation.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>

#include "driver/engine.hh"
#include "dse/dse.hh"
#include "obs/critpath.hh"
#include "obs/perfetto.hh"
#include "workloads/workload.hh"

using namespace tapas;

namespace {

/** Run `w` through the accelerator engine with --explain on. */
driver::RunResult
runExplained(workloads::Workload &w,
             std::optional<sim::FaultConfig> fault = std::nullopt)
{
    driver::AccelSimEngine::Options eo;
    eo.fault = fault;
    driver::AccelSimEngine engine(std::move(eo));
    engine.runOptions.explain = true;
    driver::RunResult r = engine.runWorkload(w, 64 << 20);
    EXPECT_TRUE(r.ok()) << w.name;
    EXPECT_TRUE(r.verifyError.empty()) << r.verifyError;
    return r;
}

std::vector<workloads::Workload>
suite()
{
    std::vector<workloads::Workload> s;
    s.push_back(workloads::makeFib(10));
    s.push_back(workloads::makeMatrixAdd(8));
    s.push_back(workloads::makeDedup(8, 64));
    s.push_back(workloads::makeMergeSort(256, 32));
    return s;
}

const obs::WhatIf &
whatIfByKey(const obs::BottleneckReport &bn, const std::string &key)
{
    for (const obs::WhatIf &wi : bn.whatIfs) {
        if (wi.key == key)
            return wi;
    }
    ADD_FAILURE() << "no what-if with key '" << key << "'";
    static obs::WhatIf none;
    return none;
}

/**
 * The critpath invariants on one run: the path is exactly as long
 * as the run, and its class attribution partitions it.
 */
void
expectPathCoversRun(const driver::RunResult &r, const std::string &name)
{
    ASSERT_TRUE(r.bottleneck.has_value()) << name;
    const obs::BottleneckReport &bn = *r.bottleneck;
    ASSERT_TRUE(bn.valid) << name;

    // Invariant (1): the critical path is exactly as long as the
    // run.
    EXPECT_EQ(bn.cycles, r.cycles) << name;

    // Invariant (2): the class attribution partitions the path.
    uint64_t sum = 0;
    for (unsigned c = 0; c < obs::kNumSegClasses; ++c)
        sum += bn.classCycles[c];
    EXPECT_EQ(sum, bn.cycles) << name;

    // The segment list is a gapless, non-overlapping cover of
    // [0, cycles), coalesced (no adjacent same-class same-unit
    // pair), and its lengths reproduce the class totals.
    ASSERT_FALSE(bn.segments.empty()) << name;
    EXPECT_EQ(bn.segments.front().begin, 0u) << name;
    EXPECT_EQ(bn.segments.back().end, bn.cycles) << name;
    uint64_t per_class[obs::kNumSegClasses] = {0, 0, 0, 0};
    for (size_t i = 0; i < bn.segments.size(); ++i) {
        const obs::CritSegment &s = bn.segments[i];
        EXPECT_LT(s.begin, s.end) << name << " seg " << i;
        if (i) {
            const obs::CritSegment &p = bn.segments[i - 1];
            EXPECT_EQ(p.end, s.begin) << name << " seg " << i;
            EXPECT_FALSE(p.cls == s.cls && p.sid == s.sid)
                << name << " uncoalesced seg " << i;
        }
        per_class[static_cast<unsigned>(s.cls)] += s.length();
    }
    for (unsigned c = 0; c < obs::kNumSegClasses; ++c)
        EXPECT_EQ(per_class[c], bn.classCycles[c]) << name;

    // A real run computes something on its critical path.
    EXPECT_GT(bn.classOf(obs::SegClass::Compute), 0u) << name;
}

} // namespace

TEST(CritPath, PathLengthEqualsRunCyclesAndPartitionsExactly)
{
    for (auto &w : suite())
        expectPathCoversRun(runExplained(w), w.name);

    // Faulted runs sleep and skip too, up to each drawn fault
    // arrival; their path must cover the run just as exactly.
    double injected = 0;
    for (auto &w : suite()) {
        driver::RunResult r =
            runExplained(w, sim::FaultConfig::uniform(1e-3, 0x7a7a5));
        injected += r.stat("fault.spawn_drops") +
                    r.stat("fault.queue_corruptions") +
                    r.stat("fault.mem_drops") +
                    r.stat("fault.mem_delays") +
                    r.stat("fault.tile_stalls");
        expectPathCoversRun(r, w.name + " faulted");
    }
    EXPECT_GT(injected, 0.0) << "the faulted leg injected nothing";
}

TEST(CritPath, WhatIfBoundsAreSaneAndMonotone)
{
    for (auto &w : suite()) {
        driver::RunResult r = runExplained(w);
        const obs::BottleneckReport &bn = *r.bottleneck;
        ASSERT_TRUE(bn.valid) << w.name;

        for (const obs::WhatIf &wi : bn.whatIfs) {
            EXPECT_GE(wi.bound, 1.0) << w.name << " " << wi.key;
            EXPECT_LE(wi.zeroedCycles, bn.cycles)
                << w.name << " " << wi.key;
        }

        // Zeroing a superset never predicts less speedup: all_stalls
        // zeroes the union of the three stall classes.
        const obs::WhatIf &qw = whatIfByKey(bn, "queue_wait");
        const obs::WhatIf &mem = whatIfByKey(bn, "mem_stall");
        const obs::WhatIf &sp = whatIfByKey(bn, "spawn_backpressure");
        const obs::WhatIf &all = whatIfByKey(bn, "all_stalls");
        EXPECT_EQ(all.zeroedCycles, qw.zeroedCycles +
                                        mem.zeroedCycles +
                                        sp.zeroedCycles)
            << w.name;
        EXPECT_GE(all.bound, qw.bound) << w.name;
        EXPECT_GE(all.bound, mem.bound) << w.name;
        EXPECT_GE(all.bound, sp.bound) << w.name;

        // Per-unit "infinite tiles" scenarios each zero a subset of
        // the class-wide queue-wait.
        for (const obs::WhatIf &wi : bn.whatIfs) {
            if (wi.key.rfind("unit.", 0) == 0) {
                EXPECT_LE(wi.zeroedCycles, qw.zeroedCycles)
                    << w.name << " " << wi.key;
                EXPECT_LE(wi.bound, qw.bound)
                    << w.name << " " << wi.key;
            }
        }
    }
}

TEST(CritPath, StatsCarryTheReportAggregates)
{
    auto w = workloads::makeFib(10);
    driver::RunResult r = runExplained(w);
    const obs::BottleneckReport &bn = *r.bottleneck;

    EXPECT_DOUBLE_EQ(r.stat("critpath.cycles"),
                     static_cast<double>(bn.cycles));
    double sum = 0;
    for (const char *k : {"critpath.compute", "critpath.queue_wait",
                          "critpath.mem_stall",
                          "critpath.spawn_backpressure"}) {
        sum += r.stat(k);
    }
    EXPECT_DOUBLE_EQ(sum, static_cast<double>(bn.cycles));
    EXPECT_DOUBLE_EQ(r.stat("critpath.segments"),
                     static_cast<double>(bn.segments.size()));
    for (const obs::WhatIf &wi : bn.whatIfs)
        EXPECT_DOUBLE_EQ(r.stat("critpath.bound." + wi.key),
                         wi.bound);

    // The rendered report states both pinned facts.
    EXPECT_NE(r.bottleneckReport.find("== bottleneck report =="),
              std::string::npos);
    EXPECT_NE(r.bottleneckReport.find("== run cycles"),
              std::string::npos);
    EXPECT_NE(r.bottleneckReport.find("dominant bottleneck:"),
              std::string::npos);
}

TEST(CritPath, ExplainIsDeterministicAndDoesNotPerturbTheRun)
{
    auto w1 = workloads::makeFib(10);
    driver::AccelSimEngine bare;
    driver::RunResult r1 = bare.runWorkload(w1, 64 << 20);

    auto w2 = workloads::makeFib(10);
    driver::RunResult r2 = runExplained(w2);

    // Observability is read-only.
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.spawns, r2.spawns);
    EXPECT_EQ(r1.retval.i, r2.retval.i);

    // Explain off: no report, no bottleneck, no critpath.* stats —
    // the result is byte-identical to a run that predates the
    // feature.
    EXPECT_TRUE(r1.bottleneckReport.empty());
    EXPECT_FALSE(r1.bottleneck.has_value());
    for (const auto &[k, v] : r1.stats)
        EXPECT_NE(k.rfind("critpath.", 0), 0u) << k;

    // Explain on, twice: reports and JSON are byte-identical.
    auto w3 = workloads::makeFib(10);
    driver::RunResult r3 = runExplained(w3);
    ASSERT_TRUE(r2.bottleneck && r3.bottleneck);
    EXPECT_TRUE(*r2.bottleneck == *r3.bottleneck);
    EXPECT_EQ(r2.bottleneckReport, r3.bottleneckReport);
    EXPECT_EQ(r2.bottleneck->toJson().dump(),
              r3.bottleneck->toJson().dump());
    EXPECT_TRUE(r2.equals(r3));
}

TEST(CritPath, IdleSkipDoesNotChangeTheReport)
{
    // Pinned FNV-1a over the rendered report, the JSON and every
    // segment, captured with the idle skip off (where skip on and
    // the full-scan loop agreed): the skip's bulk stall accounting
    // must keep the report exactly what per-cycle stepping produced.
    const std::pair<uint64_t, uint64_t> pins[] = {
        {932, 0x220cfa4d620ef7c1ull},
        {675, 0xd1d84ef44183ae2aull},
        {1259, 0x8eab9f8e329d6b7cull},
        {37192, 0xd2adaea3c8ee492dull},
    };
    std::vector<workloads::Workload> runs = suite();
    for (size_t i = 0; i < runs.size(); ++i) {
        driver::RunResult r = runExplained(runs[i]);
        ASSERT_TRUE(r.bottleneck) << runs[i].name;
        const obs::BottleneckReport &bn = *r.bottleneck;
        uint64_t h = 14695981039346656037ull;
        auto mix = [&h](const void *data, size_t n) {
            const auto *b = static_cast<const unsigned char *>(data);
            for (size_t k = 0; k < n; ++k) {
                h ^= b[k];
                h *= 1099511628211ull;
            }
        };
        const std::string json = bn.toJson().dump();
        mix(r.bottleneckReport.data(), r.bottleneckReport.size());
        mix(json.data(), json.size());
        for (const obs::CritSegment &sg : bn.segments) {
            uint64_t f[4] = {sg.begin, sg.end,
                             static_cast<uint64_t>(sg.cls), sg.sid};
            mix(f, sizeof f);
        }
        EXPECT_EQ(r.cycles, pins[i].first) << runs[i].name;
        EXPECT_EQ(h, pins[i].second) << runs[i].name << "\n"
                                     << r.bottleneckReport;
    }
}

TEST(CritPath, EmptyRunYieldsEmptyButValidReport)
{
    // No events at all: analyze() degrades gracefully.
    obs::CriticalPathSink sink;
    obs::BottleneckReport bn = sink.analyze();
    EXPECT_FALSE(bn.valid);
    EXPECT_EQ(bn.cycles, 0u);
    EXPECT_TRUE(bn.segments.empty());
    EXPECT_TRUE(bn.whatIfs.empty());
    EXPECT_NE(bn.text().find("nothing to analyze"),
              std::string::npos);
    EXPECT_NE(bn.toJson().dump().find("\"valid\": false"),
              std::string::npos);
    std::map<std::string, double> stats;
    bn.appendTo(stats);
    EXPECT_TRUE(stats.empty());

    // And an empty segment list renders an empty (but well-formed)
    // Perfetto critical-path track.
    obs::PerfettoTraceSink trace;
    trace.addCriticalPathTrack(bn.segments);
    std::string json = trace.dump();
    EXPECT_NE(json.find("critical path"), std::string::npos);
    EXPECT_EQ(json.find("\"cat\":\"critpath\",\"ph\":\"X\""),
              std::string::npos);
}

TEST(CritPath, PerfettoTrackCoversTheRun)
{
    auto w = workloads::makeFib(10);
    driver::RunResult r = runExplained(w);
    obs::PerfettoTraceSink trace;
    trace.addCriticalPathTrack(r.bottleneck->segments);
    std::string json = trace.dump();
    EXPECT_NE(json.find("\"critical path\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"critpath\""), std::string::npos);
    // One slice per segment.
    size_t slices = 0;
    for (size_t at = json.find("\"cat\":\"critpath\"");
         at != std::string::npos;
         at = json.find("\"cat\":\"critpath\"", at + 1)) {
        ++slices;
    }
    EXPECT_EQ(slices, r.bottleneck->segments.size());
}

TEST(CritPath, DseFrontierPointsCarryBottlenecks)
{
    dse::ParamSpace space;
    space.tiles = {1, 2};
    dse::ExploreOptions opts;
    opts.rungs = 1;
    dse::ExploreResult res = dse::explore(
        [](unsigned) { return workloads::makeSaxpy(64); }, space,
        opts);

    ASSERT_FALSE(res.frontier.empty());
    for (size_t i : res.frontier) {
        const dse::PointResult &p = res.points[i];
        ASSERT_TRUE(p.result.bottleneck.has_value())
            << p.config.label();
        EXPECT_TRUE(p.result.bottleneck->valid);
        EXPECT_EQ(p.result.bottleneck->cycles, p.result.cycles);
    }
    // The annotation reaches both renderings.
    EXPECT_NE(dse::toJson(res).dump().find("\"bottleneck\":"),
              std::string::npos);
    std::ostringstream report;
    dse::printReport(res, report);
    EXPECT_NE(report.str().find("bottleneck"), std::string::npos);
}
