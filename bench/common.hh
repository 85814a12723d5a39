/**
 * @file
 * Shared helpers for the experiment harnesses in bench/: parse the
 * common CLI (--jobs/--json), run workloads through the unified
 * driver::Engine API, fan configuration grids across threads with
 * driver::Sweep, and print paper-style tables.
 *
 * Each bench binary regenerates one table or figure from the paper's
 * evaluation (Section V); see DESIGN.md for the index and
 * EXPERIMENTS.md for paper-vs-measured values. Every binary accepts:
 *
 *   --jobs N     run the configuration grid on N worker threads
 *                (default: TAPAS_JOBS env var, else 1 = serial);
 *                results are merged in submission order, so output
 *                is byte-identical to a serial run
 *   --json PATH  also export machine-readable results as JSON
 *   --trace PATH write a Perfetto trace-event JSON per accelerator
 *                run; the 2nd, 3rd... traced run gets ".2", ".3"...
 *                inserted before the extension so parallel sweeps do
 *                not clobber one file
 *   --profile    print a per-unit cycle-attribution table after each
 *                accelerator run
 *   --explain    print a critical-path bottleneck report after each
 *                accelerator run (obs/critpath.hh)
 *   --fault-rate R, --fault-seed S, --max-retries N
 *                deterministic fault injection applied to every
 *                accelerator run (see sim/fault.hh); benches other
 *                than fault_sweep fatal() if a run fails outright
 */

#ifndef TAPAS_BENCH_COMMON_HH
#define TAPAS_BENCH_COMMON_HH

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>

#include "driver/engine.hh"
#include "driver/jobrunner.hh"
#include "support/atomic_file.hh"
#include "support/cancel.hh"
#include "support/flags.hh"
#include "support/json.hh"
#include "support/manifest.hh"
#include "support/table.hh"

namespace tapas::bench {

using driver::RunResult;

/** CLI options every bench binary accepts. */
struct BenchOptions
{
    /** Sweep worker threads (resolved --jobs / TAPAS_JOBS). */
    unsigned jobs = 1;

    /** JSON result export path ("" = no export). */
    std::string jsonPath;

    /** Perfetto trace path for accelerator runs ("" = no trace). */
    std::string traceFile;

    /** Print a cycle-attribution table per accelerator run. */
    bool profile = false;

    /** Print a critical-path bottleneck report per accelerator run. */
    bool explain = false;

    /** --fault-rate value (0 = no injection). */
    double faultRate = 0;

    /** --fault-seed value. */
    uint64_t faultSeed = 0x7a7a5u;

    /** --max-retries value. */
    unsigned maxRetries = 8;

    /** Any fault-injection flag given? */
    bool faultGiven = false;
};

/**
 * Observability options the runAccel helpers apply to every
 * accelerator engine they build; parseBenchArgs() fills this in from
 * --trace / --profile.
 */
inline driver::RunOptions &
benchRunOptions()
{
    static driver::RunOptions opts;
    return opts;
}

/**
 * Fault-injection config applied by runAccelWith() to every
 * accelerator engine (unset = no injector); parseBenchArgs() fills
 * this in from --fault-rate / --fault-seed / --max-retries.
 */
inline std::optional<sim::FaultConfig> &
benchFaultConfig()
{
    static std::optional<sim::FaultConfig> cfg;
    return cfg;
}

/**
 * Run manifest for this invocation (argv, jobs, build info), filled
 * by parseBenchArgs() and attached to every --json export. Volatile
 * by design — byte-comparing diffs strip it
 * (tools/strip_volatile.py).
 */
inline Json &
benchManifest()
{
    static Json m;
    return m;
}

/** Parse the common bench CLI; fatal()s on unknown flags. */
inline BenchOptions
parseBenchArgs(int argc, char **argv)
{
    BenchOptions opt;
    unsigned cli_jobs = 0;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc) {
                tapas_fatal("option '%s' expects an argument",
                            a.c_str());
            }
            return argv[i];
        };
        if (a == "--jobs") {
            cli_jobs = parseUnsignedFlag(a, next());
        } else if (a == "--json") {
            opt.jsonPath = next();
        } else if (a == "--trace") {
            opt.traceFile = next();
        } else if (a == "--profile") {
            opt.profile = true;
        } else if (a == "--explain") {
            opt.explain = true;
        } else if (a == "--fault-rate") {
            opt.faultRate = parseRealFlag(a, next(), 0, 1);
            opt.faultGiven = true;
        } else if (a == "--fault-seed") {
            opt.faultSeed = parseUintFlag(a, next());
            opt.faultGiven = true;
        } else if (a == "--max-retries") {
            opt.maxRetries = parseUnsignedFlag(a, next());
            opt.faultGiven = true;
        } else if (a == "--help" || a == "-h") {
            std::cout << "usage: " << argv[0]
                      << " [--jobs N] [--json PATH] [--trace PATH]"
                         " [--profile] [--explain] [--fault-rate R]"
                         " [--fault-seed S] [--max-retries N]\n";
            std::exit(0);
        } else {
            tapas_fatal("unknown option '%s' (supported: --jobs N, "
                        "--json PATH, --trace PATH, --profile, "
                        "--explain, --fault-rate R, --fault-seed S, "
                        "--max-retries N)",
                        a.c_str());
        }
    }
    opt.jobs = driver::resolveJobs(cli_jobs);
    // Ctrl-C cancels cooperatively: every accelerator run polls the
    // process token, partial results are flushed, exit code 6.
    installSigintHandler();
    benchRunOptions().cancel = &processCancelToken();
    benchRunOptions().traceFile = opt.traceFile;
    benchRunOptions().profile = opt.profile;
    benchRunOptions().explain = opt.explain;
    benchManifest() =
        runManifest(argv[0], argc, argv, opt.jobs);
    if (opt.faultGiven) {
        sim::FaultConfig fc =
            sim::FaultConfig::uniform(opt.faultRate, opt.faultSeed);
        fc.maxTaskRetries = opt.maxRetries;
        benchFaultConfig() = fc;
    }
    return opt;
}

/**
 * Write the JSON export if --json was given. Atomic (temp + rename),
 * so an interrupt mid-export can never leave a torn artifact, and
 * stamped with the run manifest.
 */
inline void
maybeWriteJson(const BenchOptions &opt, Json doc)
{
    if (opt.jsonPath.empty())
        return;
    if (!benchManifest().isNull())
        doc.set("manifest", benchManifest());
    atomicWriteFile(opt.jsonPath, doc.dump());
    std::cout << "\nwrote " << opt.jsonPath << "\n";
}

/** JSON skeleton for one experiment: {"experiment", "rows": []}. */
inline Json
experimentJson(const std::string &id)
{
    Json doc = Json::object();
    doc.set("experiment", Json::str(id));
    doc.set("rows", Json::array());
    return doc;
}

/**
 * The standard engine metrics of one run as a JSON object, for a
 * bench row's "result" field.
 */
inline Json
runResultJson(const RunResult &r)
{
    Json j = Json::object();
    j.set("cycles", Json::num(r.cycles));
    j.set("spawns", Json::num(r.spawns));
    j.set("seconds", Json::num(r.seconds));
    j.set("cache_hit_rate", Json::num(r.cacheHitRate));
    return j;
}

/** Nth traced run: "out.json" -> "out.json", "out.2.json", ... */
inline std::string
numberedTracePath(const std::string &path, unsigned n)
{
    if (n == 0)
        return path;
    std::string suffix = "." + std::to_string(n + 1);
    size_t dot = path.rfind('.');
    if (dot == std::string::npos || dot == 0)
        return path + suffix;
    return path.substr(0, dot) + suffix + path.substr(dot);
}

/**
 * Best-of-N wall-clock timing with one untimed warm-up iteration.
 * `timed_once` performs one complete measurement and returns its
 * host seconds; the first invocation's time is discarded (cold
 * i-cache, first-touch page faults, lazy allocator pools all land
 * there) and the minimum over the next `reps` invocations is
 * returned. Modeled results must not depend on how often
 * `timed_once` runs — it is invoked reps + 1 times.
 */
template <typename Fn>
inline double
warmedBestOf(unsigned reps, Fn &&timed_once)
{
    (void)timed_once(); // warm-up, timing discarded
    double best = 0;
    for (unsigned rep = 0; rep < reps; ++rep) {
        double secs = timed_once();
        if (rep == 0 || secs < best)
            best = secs;
    }
    return best;
}

/** Layer the bench-wide --fault-* config into engine options. */
inline driver::AccelSimEngine::Options
withBenchFaults(driver::AccelSimEngine::Options eo)
{
    if (!eo.fault && benchFaultConfig())
        eo.fault = benchFaultConfig();
    return eo;
}

/**
 * Run `w` over an already-prepared design — the run() half of the
 * engine's compile/run split. Applies benchRunOptions() through the
 * explicit RunOptions overload: traced runs each get a distinct
 * numbered file (safe under --jobs), and --profile prints the
 * cycle-attribution table after the run verifies. fatal()s on a
 * structured failure or a golden-model mismatch.
 */
inline RunResult
runPrepared(workloads::Workload &w, driver::AccelSimEngine &engine,
            const driver::CompiledDesign &design,
            uint64_t mem_bytes = 256ull << 20)
{
    driver::RunOptions ro = benchRunOptions();
    if (!ro.traceFile.empty()) {
        static std::atomic<unsigned> traced{0};
        ro.traceFile = numberedTracePath(ro.traceFile, traced++);
    }
    RunResult r = engine.runWorkload(w, design, mem_bytes, ro);
    if (r.interrupted) {
        // A bench table with holes is useless: report the interrupt
        // and exit with the distinct code. _Exit skips the other
        // workers' teardown — they hold only per-run state.
        {
            static std::mutex mu;
            std::lock_guard<std::mutex> lock(mu);
            std::cout << "\ninterrupted: " << w.name << " at cycle "
                      << r.interruptCycle << "; partial results "
                      << "above are complete rows only\n";
            std::cout.flush();
        }
        std::_Exit(kExitInterrupted);
    }
    if (!r.ok()) {
        tapas_fatal("bench '%s' failed (%s): %s", w.name.c_str(),
                    r.failure->kind.c_str(),
                    r.failure->detail.c_str());
    }
    if (!r.verifyError.empty()) {
        tapas_fatal("bench '%s' failed verification: %s",
                    w.name.c_str(), r.verifyError.c_str());
    }
    if (ro.profile) {
        // Sweeps print from worker threads; keep reports whole.
        static std::mutex mu;
        std::lock_guard<std::mutex> lock(mu);
        std::cout << "\ncycle profile: " << w.name << "\n"
                  << r.profileReport;
    }
    if (ro.explain) {
        static std::mutex mu;
        std::lock_guard<std::mutex> lock(mu);
        std::cout << "\nbottleneck: " << w.name << "\n"
                  << r.bottleneckReport;
    }
    return r;
}

/**
 * As runAccel() but with a full engine-option override (custom
 * params, pre-passes, observer...). Compiles once via
 * AccelSimEngine::prepare(), then runs the prepared design through
 * runPrepared() above.
 */
inline RunResult
runAccelWith(workloads::Workload &w,
             driver::AccelSimEngine::Options eo,
             uint64_t mem_bytes = 256ull << 20)
{
    driver::AccelSimEngine engine(withBenchFaults(std::move(eo)));
    driver::CompiledDesign design = engine.prepare(w);
    return runPrepared(w, engine, design, mem_bytes);
}

/**
 * Compile and simulate `w` with `ntiles` tiles per task unit on
 * `dev` through the accelerator engine; fatal()s if the output fails
 * verification. The result's stats carry the resource estimates
 * ("alms", "regs", "brams", "fmax_mhz", "power_w", "utilization")
 * and all simulator stat groups.
 */
inline RunResult
runAccel(workloads::Workload &w, unsigned ntiles,
         const fpga::Device &dev,
         uint64_t mem_bytes = 256ull << 20)
{
    driver::AccelSimEngine::Options eo;
    eo.device = dev;
    eo.tiles = ntiles;
    return runAccelWith(w, std::move(eo), mem_bytes);
}

/** Run `w` on the modelled CPU (consumes a fresh memory image). */
inline RunResult
runCpu(workloads::Workload &w, const cpu::CpuParams &params,
       uint64_t mem_bytes = 256ull << 20)
{
    driver::CpuSimEngine engine(params);
    return engine.runWorkload(w, mem_bytes);
}

/** One entry of the paper's benchmark suite at bench scale. */
struct SuiteEntry
{
    const char *name;
    unsigned paperTiles; ///< Table IV tile counts
    workloads::Workload (*make)();
};

/** The 7 paper benchmarks at the sizes used by the harnesses. */
inline std::vector<SuiteEntry>
paperSuite()
{
    return {
        {"matrix_add", 3,
         [] { return workloads::makeMatrixAdd(48); }},
        {"stencil", 3,
         [] { return workloads::makeStencil(32, 32, 2); }},
        {"saxpy", 5, [] { return workloads::makeSaxpy(8192); }},
        {"image_scale", 4,
         [] { return workloads::makeImageScale(64, 32); }},
        {"dedup", 3,
         [] { return workloads::makeDedup(64, 512); }},
        {"fib", 4, [] { return workloads::makeFib(15); }},
        {"mergesort", 4,
         [] { return workloads::makeMergeSort(4096, 64); }},
    };
}

/**
 * CPU parameters used when comparing against a given benchmark. The
 * pipeline benchmark models Cilk-P's on-the-fly pipeline runtime,
 * whose per-stage bookkeeping is far heavier than a cilk_spawn (Lee
 * et al. [28]); everything else uses plain Cilk costs.
 */
inline cpu::CpuParams
cpuParamsFor(const std::string &bench_name)
{
    cpu::CpuParams p = cpu::CpuParams::intelI7();
    if (bench_name == "dedup")
        p.spawnOverhead = 450.0; // pipe_while stage transitions
    return p;
}

/** Consistent experiment banner. */
inline void
banner(const std::string &id, const std::string &what)
{
    std::cout << "\n==========================================="
                 "=====================\n"
              << id << ": " << what << "\n"
              << "============================================"
                 "====================\n\n";
}

} // namespace tapas::bench

#endif // TAPAS_BENCH_COMMON_HH
