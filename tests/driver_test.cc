/**
 * @file
 * Tests for the experiment driver (src/driver): the JobRunner thread
 * pool, the Sweep fan-out, the unified Engine API, and the
 * determinism guarantee that a parallel sweep produces results
 * identical to a serial one.
 */

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "driver/engine.hh"
#include "driver/jobrunner.hh"
#include "hls/compile.hh"
#include "sim/accel.hh"
#include "workloads/workload.hh"

using namespace tapas;

namespace {

TEST(JobRunner, InlineModeRunsImmediately)
{
    driver::JobRunner runner(1);
    int x = 0;
    runner.submit([&] { x = 42; });
    // Inline mode executes inside submit; no wait needed.
    EXPECT_EQ(x, 42);
    runner.wait();
}

TEST(JobRunner, PoolRunsAllJobs)
{
    driver::JobRunner runner(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        runner.submit([&] { ++count; });
    runner.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(JobRunner, WaitIsReusable)
{
    driver::JobRunner runner(2);
    std::atomic<int> count{0};
    runner.submit([&] { ++count; });
    runner.wait();
    EXPECT_EQ(count.load(), 1);
    runner.submit([&] { ++count; });
    runner.submit([&] { ++count; });
    runner.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(Sweep, ResultsInSubmissionOrder)
{
    driver::Sweep<int> sweep(4);
    for (int i = 0; i < 32; ++i)
        sweep.add([i] { return i * i; });
    std::vector<int> r = sweep.run();
    ASSERT_EQ(r.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(r[i], i * i);
}

TEST(Sweep, SerialAndParallelIdentical)
{
    auto build = [](unsigned jobs) {
        driver::Sweep<uint64_t> sweep(jobs);
        for (uint64_t i = 0; i < 64; ++i)
            sweep.add([i] { return i * 2654435761u; });
        return sweep.run();
    };
    EXPECT_EQ(build(1), build(4));
}

TEST(ResolveJobs, CliWinsOverEnv)
{
    setenv("TAPAS_JOBS", "7", 1);
    EXPECT_EQ(driver::resolveJobs(3), 3u);
    EXPECT_EQ(driver::resolveJobs(0), 7u);
    unsetenv("TAPAS_JOBS");
    EXPECT_EQ(driver::resolveJobs(0), 1u);
}

TEST(Engine, InterpRunsWorkload)
{
    auto w = workloads::makeSaxpy(64);
    driver::InterpEngine eng;
    driver::RunResult r = eng.runWorkload(w, 32 << 20);
    EXPECT_TRUE(r.verifyError.empty()) << r.verifyError;
    EXPECT_GT(r.stat("total_insts"), 0);
    EXPECT_GT(r.spawns, 0u);
}

TEST(Engine, AccelSimRunsWorkload)
{
    auto w = workloads::makeSaxpy(64);
    driver::AccelSimEngine eng;
    driver::RunResult r = eng.runWorkload(w, 32 << 20);
    EXPECT_TRUE(r.verifyError.empty()) << r.verifyError;
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_GT(r.stat("alms"), 0);
    EXPECT_GT(r.stat("fmax_mhz"), 0);
}

TEST(Engine, CpuSimRunsWorkload)
{
    auto w = workloads::makeSaxpy(64);
    driver::CpuSimEngine eng;
    driver::RunResult r = eng.runWorkload(w, 32 << 20);
    EXPECT_TRUE(r.verifyError.empty()) << r.verifyError;
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_GT(r.stat("serial_seconds"), 0);
}

TEST(Engine, TilesOverrideChangesCycles)
{
    driver::AccelSimEngine::Options e1;
    e1.tiles = 1;
    driver::AccelSimEngine eng1(std::move(e1));
    auto w1 = workloads::makeStencil(16, 16, 1);
    driver::RunResult r1 = eng1.runWorkload(w1, 32 << 20);

    driver::AccelSimEngine::Options e4;
    e4.tiles = 4;
    driver::AccelSimEngine eng4(std::move(e4));
    auto w4 = workloads::makeStencil(16, 16, 1);
    driver::RunResult r4 = eng4.runWorkload(w4, 32 << 20);

    EXPECT_LT(r4.cycles, r1.cycles);
}

TEST(Engine, RunResultEquals)
{
    auto w1 = workloads::makeSaxpy(64);
    auto w2 = workloads::makeSaxpy(64);
    driver::AccelSimEngine e1;
    driver::AccelSimEngine e2;
    driver::RunResult a = e1.runWorkload(w1, 32 << 20);
    driver::RunResult b = e2.runWorkload(w2, 32 << 20);
    EXPECT_TRUE(a.equals(b));
    b.cycles++;
    EXPECT_FALSE(a.equals(b));
}

// The image size only bounds the address space: a run in a larger
// image sees the same zeroed memory and must model the same run.
TEST(Engine, ImageSizeDoesNotChangeRun)
{
    auto w64 = workloads::makeFib(10);
    auto w256 = workloads::makeFib(10);
    driver::AccelSimEngine e64;
    driver::AccelSimEngine e256;
    driver::RunResult a = e64.runWorkload(w64, 64ull << 20);
    driver::RunResult b = e256.runWorkload(w256, 256ull << 20);
    ASSERT_TRUE(a.ok());
    EXPECT_TRUE(a.verifyError.empty()) << a.verifyError;
    // Every field: result, cycles, verifyError, stats.
    EXPECT_TRUE(a.equals(b));
}

TEST(Engine, StatFatalOnMissing)
{
    driver::RunResult r;
    EXPECT_DEATH(r.stat("no_such_stat"), "no stat");
}

/**
 * The tentpole determinism guarantee: the same 8-config sweep run
 * serially and with 4 worker threads yields RunResults that compare
 * equal field-for-field (including the full stats map).
 */
TEST(Sweep, EngineSweepDeterministic)
{
    auto runSweep = [](unsigned jobs) {
        driver::Sweep<driver::RunResult> sweep(jobs);
        for (unsigned tiles : {1u, 2u}) {
            sweep.add([tiles] {
                auto w = workloads::makeSaxpy(128);
                driver::AccelSimEngine::Options eo;
                eo.tiles = tiles;
                driver::AccelSimEngine eng(std::move(eo));
                return eng.runWorkload(w, 32 << 20);
            });
            sweep.add([tiles] {
                auto w = workloads::makeFib(8);
                driver::AccelSimEngine::Options eo;
                eo.tiles = tiles;
                eo.params = [] {
                    auto w2 = workloads::makeFib(8);
                    return w2.params;
                }();
                driver::AccelSimEngine eng(std::move(eo));
                return eng.runWorkload(w, 32 << 20);
            });
            sweep.add([tiles] {
                auto w = workloads::makeStencil(8, 8, 1);
                driver::AccelSimEngine::Options eo;
                eo.tiles = tiles;
                driver::AccelSimEngine eng(std::move(eo));
                return eng.runWorkload(w, 32 << 20);
            });
            sweep.add([] {
                auto w = workloads::makeSaxpy(64);
                driver::InterpEngine eng;
                return eng.runWorkload(w, 32 << 20);
            });
        }
        return sweep.run();
    };

    std::vector<driver::RunResult> serial = runSweep(1);
    std::vector<driver::RunResult> parallel = runSweep(4);
    ASSERT_EQ(serial.size(), 8u);
    ASSERT_EQ(parallel.size(), 8u);
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(serial[i].equals(parallel[i]))
            << "config " << i << " diverged between --jobs 1 and "
            << "--jobs 4";
    }
}

/**
 * Regression: two AcceleratorSims constructed and run concurrently
 * over separate MemImages must not interfere (no shared mutable
 * state in the simulator or the compiler output).
 */
TEST(Sweep, ConcurrentSimsDoNotInterfere)
{
    // Reference results, serially.
    auto runOne = [](unsigned n) {
        auto w = workloads::makeSaxpy(n);
        driver::AccelSimEngine eng;
        return eng.runWorkload(w, 32 << 20);
    };
    driver::RunResult ref_a = runOne(64);
    driver::RunResult ref_b = runOne(128);

    // Now the same two configs on two live threads, constructed and
    // started as close together as possible.
    driver::RunResult got_a, got_b;
    std::thread ta([&] { got_a = runOne(64); });
    std::thread tb([&] { got_b = runOne(128); });
    ta.join();
    tb.join();

    EXPECT_TRUE(got_a.equals(ref_a));
    EXPECT_TRUE(got_b.equals(ref_b));
}

/**
 * Robustness: one job throwing must not tear down the pool, the
 * process, or the other jobs' results.
 */
TEST(JobRunner, ThrowingJobDoesNotTearDownPool)
{
    driver::JobRunner runner(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 20; ++i) {
        runner.submit([&count, i] {
            if (i == 7)
                throw std::runtime_error("job 7 exploded");
            ++count;
        });
    }
    runner.wait();
    EXPECT_EQ(count.load(), 19);
    EXPECT_EQ(runner.failureCount(), 1u);
    std::vector<std::string> errs = runner.errors();
    ASSERT_EQ(errs.size(), 1u);
    EXPECT_EQ(errs[0], "job 7 exploded");
}

TEST(JobRunner, InlineThrowingJobIsCaptured)
{
    driver::JobRunner runner(1);
    int after = 0;
    runner.submit([] { throw std::runtime_error("inline boom"); });
    runner.submit([&after] { after = 1; });
    runner.wait();
    EXPECT_EQ(after, 1);
    ASSERT_EQ(runner.failureCount(), 1u);
    EXPECT_EQ(runner.errors()[0], "inline boom");
}

/**
 * Regression: job k of N throws; the other N-1 results land in their
 * submission-order slots identically under serial and parallel
 * execution, and the error is keyed by the failing index.
 */
TEST(Sweep, ThrowingJobLeavesSlotDefaultAndOthersMerge)
{
    auto build = [](unsigned jobs) {
        driver::Sweep<int> sweep(jobs);
        for (int i = 0; i < 16; ++i) {
            sweep.add([i]() -> int {
                if (i == 5)
                    throw std::runtime_error("config 5 is cursed");
                return i + 100;
            });
        }
        std::vector<int> r = sweep.run();
        EXPECT_EQ(sweep.errors().size(), 1u);
        EXPECT_EQ(sweep.errors().count(5), 1u);
        EXPECT_EQ(sweep.errors().at(5), "config 5 is cursed");
        return r;
    };
    std::vector<int> serial = build(1);
    std::vector<int> parallel = build(4);
    ASSERT_EQ(serial.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(serial[i], i == 5 ? 0 : i + 100);
    EXPECT_EQ(serial, parallel);
}

} // namespace
