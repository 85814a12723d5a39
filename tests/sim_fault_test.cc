/**
 * @file
 * Tests for the fault-injection and recovery subsystem (sim/fault.hh)
 * and its threading through the driver layer: deterministic fault
 * schedules, rate-0 byte-identity with an injector attached, verified
 * recovery from every fault category, retry-budget exhaustion as a
 * structured failure, and engine-level failure plumbing.
 */

#include <algorithm>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "driver/engine.hh"
#include "hls/compile.hh"
#include "sim/accel.hh"
#include "sim/fault.hh"
#include "workloads/workload.hh"

using namespace tapas;

namespace {

driver::RunResult
runWith(workloads::Workload w, std::optional<sim::FaultConfig> fc,
        std::optional<uint64_t> watchdog = std::nullopt)
{
    driver::AccelSimEngine::Options eo;
    eo.fault = fc;
    eo.watchdogCycles = watchdog;
    driver::AccelSimEngine eng(std::move(eo));
    return eng.runWorkload(w, 64 << 20);
}

double
injectedTotal(const driver::RunResult &r)
{
    return r.stat("fault.spawn_drops") +
           r.stat("fault.queue_corruptions") +
           r.stat("fault.mem_drops") + r.stat("fault.mem_delays") +
           r.stat("fault.tile_stalls");
}

TEST(FaultInjector, SameSeedSameScheduleBitIdenticalResult)
{
    sim::FaultConfig fc = sim::FaultConfig::uniform(1e-3, 12345);
    driver::RunResult a = runWith(workloads::makeFib(11), fc);
    driver::RunResult b = runWith(workloads::makeFib(11), fc);
    EXPECT_TRUE(a.equals(b));
    // The schedule actually fired (otherwise this test is vacuous).
    EXPECT_GT(injectedTotal(a), 0.0);
}

TEST(FaultInjector, RateZeroIsByteIdenticalToNoInjector)
{
    // An attached injector with all rates zero must not perturb the
    // simulation, consume randomness, or add stats.
    for (int wl = 0; wl < 2; ++wl) {
        auto make = [&] {
            return wl == 0 ? workloads::makeSaxpy(512)
                           : workloads::makeFib(10);
        };
        driver::RunResult none = runWith(make(), std::nullopt);
        driver::RunResult zero =
            runWith(make(), sim::FaultConfig{});
        EXPECT_TRUE(none.equals(zero)) << "workload " << wl;
        EXPECT_EQ(zero.stats.count("fault.spawn_drops"), 0u);
    }
}

TEST(FaultInjector, ZeroRateDrawsConsumeNoRandomness)
{
    sim::FaultConfig cfg;
    cfg.seed = 7;
    sim::FaultInjector inj(cfg);
    for (uint64_t i = 0; i < 100; ++i) {
        EXPECT_FALSE(inj.dropSpawn());
        EXPECT_EQ(inj.nextCorruptionFrom(i), sim::FaultInjector::kNever);
        EXPECT_EQ(inj.memFault(), sim::FaultInjector::MemFault::None);
        EXPECT_EQ(inj.nextStickFrom(i), sim::FaultInjector::kNever);
    }
    // The queue-corruption stream (which also feeds pick() and the
    // flip mask) was never advanced: it matches a fresh injector's.
    sim::FaultInjector fresh(cfg);
    EXPECT_EQ(inj.pick(1u << 30), fresh.pick(1u << 30));
    EXPECT_EQ(inj.corruptionMask(), fresh.corruptionMask());
}

TEST(FaultInjector, RateOneArrivesEveryCycle)
{
    sim::FaultConfig cfg;
    cfg.queueCorruptRate = 1.0;
    cfg.tileStuckRate = 1.0;
    sim::FaultInjector inj(cfg);
    for (uint64_t c = 0; c < 1000; ++c) {
        EXPECT_EQ(inj.nextCorruptionFrom(c), c);
        EXPECT_EQ(inj.nextStickFrom(c), c);
    }
}

TEST(FaultInjector, MeanInterArrivalIsOneOverRate)
{
    for (double p : {0.5, 0.01, 1e-3}) {
        SCOPED_TRACE(p);
        sim::FaultConfig cfg;
        cfg.seed = 0x5eed;
        cfg.queueCorruptRate = p;
        sim::FaultInjector inj(cfg);
        // Chain arrivals the way run() does: the next one is drawn
        // from the cycle after the last.
        const int n = 200000;
        uint64_t at = inj.nextCorruptionFrom(0);
        const uint64_t first = at;
        for (int i = 0; i < n; ++i)
            at = inj.nextCorruptionFrom(at + 1);
        const double mean = static_cast<double>(at - first) / n;
        // Geometric: sd of the mean is sqrt(1 - p) / p / sqrt(n),
        // under 0.23% of 1/p here; allow 1%.
        EXPECT_NEAR(mean, 1.0 / p, 0.01 / p);
    }
}

TEST(FaultInjector, SubStreamsAreIndependentOfOtherRates)
{
    // How often one category draws must not shift another's
    // schedule: the spawn-drop sequence is the same whether queue
    // corruption is off or drawing heavily in between.
    auto drops = [](double corrupt_rate) {
        sim::FaultConfig cfg;
        cfg.seed = 0xabc;
        cfg.spawnDropRate = 0.3;
        cfg.queueCorruptRate = corrupt_rate;
        sim::FaultInjector inj(cfg);
        std::vector<bool> seq;
        for (uint64_t c = 0; c < 500; ++c) {
            inj.nextCorruptionFrom(c);
            inj.pick(7);
            seq.push_back(inj.dropSpawn());
        }
        return seq;
    };
    const std::vector<bool> base = drops(0.0);
    EXPECT_EQ(drops(0.2), base);
    EXPECT_EQ(drops(1.0), base);
    EXPECT_NE(std::count(base.begin(), base.end(), true), 0);
}

TEST(FaultRecovery, SpawnDropsRetryWithBackoffAndVerify)
{
    sim::FaultConfig fc;
    fc.seed = 99;
    fc.spawnDropRate = 0.02;
    driver::RunResult r = runWith(workloads::makeFib(11), fc);
    ASSERT_TRUE(r.ok()) << r.failure->detail;
    EXPECT_TRUE(r.verifyError.empty()) << r.verifyError;
    EXPECT_GT(r.stat("fault.spawn_drops"), 0.0);
    EXPECT_GT(r.stat("fault.spawn_retries"), 0.0);
}

TEST(FaultRecovery, LostAndDelayedMemoryResponsesReissueAndVerify)
{
    sim::FaultConfig fc;
    fc.seed = 5;
    fc.memDropRate = 0.01;
    fc.memDelayRate = 0.01;
    fc.memTimeoutCycles = 64;
    driver::RunResult r = runWith(workloads::makeSaxpy(1024), fc);
    ASSERT_TRUE(r.ok()) << r.failure->detail;
    EXPECT_TRUE(r.verifyError.empty()) << r.verifyError;
    EXPECT_GT(r.stat("fault.mem_drops"), 0.0);
    EXPECT_GT(r.stat("fault.mem_delays"), 0.0);
    EXPECT_GT(r.stat("fault.mem_reissues"), 0.0);
    // Every lost response was eventually reissued.
    EXPECT_GE(r.stat("fault.mem_reissues"),
              r.stat("fault.mem_drops"));
}

TEST(FaultRecovery, QueueCorruptionTriggersChecksumReplayAndVerify)
{
    // A flip only lands on Ready-and-never-dispatched entries (the
    // guarded queue BRAM), a window of a few marshaling cycles per
    // task, so drive the per-cycle draw hard to get real coverage.
    sim::FaultConfig fc;
    fc.seed = 21;
    fc.queueCorruptRate = 1.0;
    fc.maxTaskRetries = 256;
    driver::RunResult r = runWith(workloads::makeFib(11), fc);
    ASSERT_TRUE(r.ok()) << r.failure->detail;
    EXPECT_TRUE(r.verifyError.empty()) << r.verifyError;
    EXPECT_GT(r.stat("fault.queue_corruptions"), 0.0);
    EXPECT_GT(r.stat("fault.task_replays"), 0.0);
}

TEST(FaultRecovery, StuckTilesOnlySlowTheRunDown)
{
    sim::FaultConfig fc;
    fc.seed = 11;
    fc.tileStuckRate = 5e-3;
    driver::RunResult faulty = runWith(workloads::makeSaxpy(512), fc);
    driver::RunResult clean =
        runWith(workloads::makeSaxpy(512), std::nullopt);
    ASSERT_TRUE(faulty.ok());
    EXPECT_TRUE(faulty.verifyError.empty());
    EXPECT_GT(faulty.stat("fault.tile_stalls"), 0.0);
    EXPECT_GE(faulty.cycles, clean.cycles);
}

TEST(FaultRecovery, RetryBudgetExhaustionIsAStructuredFailure)
{
    sim::FaultConfig fc;
    fc.seed = 3;
    fc.queueCorruptRate = 0.5;
    fc.maxTaskRetries = 0;
    driver::RunResult r = runWith(workloads::makeFib(10), fc);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.failure->kind, "fault_budget");
    EXPECT_NE(r.failure->detail.find("fault budget"),
              std::string::npos);
    // The failed run skipped verification (no spurious mismatch).
    EXPECT_TRUE(r.verifyError.empty());
}

TEST(FaultEngine, DeadlockThreadsThroughRunResult)
{
    auto w = workloads::makeFib(12);
    arch::AcceleratorParams p = w.params;
    p.defaults.ntasks = 4;
    driver::AccelSimEngine::Options eo;
    eo.params = p;
    eo.watchdogCycles = 20000;
    driver::AccelSimEngine eng(std::move(eo));
    driver::RunResult r = eng.runWorkload(w, 64 << 20);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.failure->kind, "deadlock");
    EXPECT_NE(r.failure->detail.find("occupancy"),
              std::string::npos);
    EXPECT_TRUE(r.verifyError.empty());
}

/**
 * Acceptance: at injection rates up to 1e-3 per cycle, every
 * workload either retires with output matching the reference model
 * or reports a structured failure — never a crash or abort.
 */
TEST(FaultAcceptance, SuiteSurvivesOrFailsStructurallyAt1e3)
{
    for (int wl = 0; wl < 3; ++wl) {
        auto w = wl == 0   ? workloads::makeSaxpy(512)
                 : wl == 1 ? workloads::makeFib(11)
                           : workloads::makeMergeSort(512, 32);
        sim::FaultConfig fc = sim::FaultConfig::uniform(1e-3, 0xab1e);
        driver::RunResult r = runWith(std::move(w), fc,
                                      /*watchdog=*/2'000'000);
        if (r.ok()) {
            EXPECT_TRUE(r.verifyError.empty())
                << "workload " << wl << ": " << r.verifyError;
        } else {
            EXPECT_FALSE(r.failure->kind.empty());
            EXPECT_FALSE(r.failure->detail.empty());
        }
    }
}

TEST(FaultNames, KindNamesAreStable)
{
    using K = sim::SimFailure::Kind;
    EXPECT_STREQ(sim::failureKindName(K::None), "none");
    EXPECT_STREQ(sim::failureKindName(K::Deadlock), "deadlock");
    EXPECT_STREQ(sim::failureKindName(K::CycleLimit), "cycle_limit");
    EXPECT_STREQ(sim::failureKindName(K::FaultBudget),
                 "fault_budget");
    EXPECT_STREQ(sim::failureKindName(K::SpawnFailed),
                 "spawn_failed");
}

} // namespace
