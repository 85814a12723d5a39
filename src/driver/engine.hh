/**
 * @file
 * The unified execution-engine API. Every way this repository can
 * *run* a parallel-IR program — the reference interpreter, the
 * cycle-level accelerator simulator, the work-stealing multicore
 * model — sits behind one Engine interface returning one RunResult,
 * so harnesses and tools compose engines instead of re-wrapping each
 * engine's ad-hoc entry points.
 *
 * Engines are cheap, single-use-friendly objects with no global
 * state: a run touches only the MemImage and Module it is handed.
 * Construct one engine per concurrent job and the experiment driver
 * (jobrunner.hh) can fan runs out across threads; driver_test.cc
 * verifies that concurrent runs over separate images do not
 * interfere.
 *
 * Compilation and execution are split: AccelSimEngine::prepare()
 * runs the toolchain once and returns an owning CompiledDesign that
 * run()/runWorkload() accept and reuse across any number of runs.
 * The design-space explorer (dse/) builds its compile-once cache on
 * top of this split.
 */

#ifndef TAPAS_DRIVER_ENGINE_HH
#define TAPAS_DRIVER_ENGINE_HH

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cpu/multicore.hh"
#include "fpga/model.hh"
#include "hls/compile.hh"
#include "obs/critpath.hh"
#include "sim/accel.hh"
#include "support/cancel.hh"
#include "workloads/workload.hh"

namespace tapas::driver {

/**
 * Cross-engine observability options, set on Engine::runOptions.
 * Engines without an observability layer (interp, cpu) ignore them.
 */
struct RunOptions
{
    /**
     * When non-empty, write a Chrome/Perfetto trace-event JSON of
     * the run here ("-" for stdout). Open in ui.perfetto.dev.
     */
    std::string traceFile;

    /**
     * Attribute every simulated cycle to a per-unit bucket
     * (busy / stall_mem / stall_spawn / queue_full / idle); the
     * rendered table lands in RunResult::profileReport and the raw
     * buckets in RunResult::stats under "profile.*".
     */
    bool profile = false;

    /**
     * Critical-path & bottleneck analysis (obs/critpath.hh): a
     * CriticalPathSink reconstructs the run's dynamic task DAG and
     * the rendered report lands in RunResult::bottleneckReport, the
     * structured one in RunResult::bottleneck, and aggregates in
     * RunResult::stats under "critpath.*". Off by default: the
     * zero-observer simulator fast path stays untouched.
     */
    bool explain = false;

    // --- run lifecycle (accelerator engine; see DESIGN.md) --------

    /**
     * External cancellation (SIGINT, a sweep draining): polled on the
     * simulator cycle loop at amortized cost; a trip stops the run at
     * a cycle boundary with RunResult::interrupted set. Not owned.
     */
    const CancelToken *cancel = nullptr;

    /**
     * Wall-clock budget for this run (<= 0 = none). Implemented as a
     * child token over `cancel`, so both compose.
     */
    double deadlineSeconds = 0;

    /**
     * Deterministic simulated-cycle deadline (0 = none): the run
     * stops with RunResult::interrupted before executing this cycle.
     * Exact and reproducible, unlike the wall-clock knobs — the
     * checkpoint/resume byte-identity tests are built on it.
     */
    uint64_t deadlineCycles = 0;

    /**
     * Invoke onCheckpoint every `checkpointEveryCycles` simulated
     * cycles (0 = off) so the caller can commit a resume snapshot
     * while the run is still going.
     */
    uint64_t checkpointEveryCycles = 0;
    std::function<void(uint64_t)> onCheckpoint;
};

/** What every engine reports for one run. */
struct RunResult
{
    /**
     * Structured failure from an engine that could not finish the
     * run (simulator deadlock, cycle-limit overrun, exhausted
     * fault-retry budget). `kind` is a stable snake_case token
     * (sim::failureKindName); `detail` is the human diagnostic.
     */
    struct Failure
    {
        std::string kind;
        std::string detail;

        bool operator==(const Failure &o) const
        {
            return kind == o.kind && detail == o.detail;
        }
    };

    /** The top function's return value (zero lane for void). */
    ir::RtValue retval;

    /** Modelled cycles (0 for the untimed interpreter). */
    uint64_t cycles = 0;

    /** Dynamic task spawns. */
    uint64_t spawns = 0;

    /** Modelled wall-clock seconds (0 for the interpreter). */
    double seconds = 0;

    /** Shared-L1 hit rate (accelerator engine only). */
    double cacheHitRate = 0;

    /**
     * Golden-model diagnostic from Workload::verify; empty when the
     * run verified or no verifier ran.
     */
    std::string verifyError;

    /**
     * Engine-specific named metrics (flattened stat groups, resource
     * estimates, CPU scheduler numbers). Ordered map: deterministic
     * iteration for table/JSON rendering.
     */
    std::map<std::string, double> stats;

    /**
     * Rendered per-unit cycle-attribution table; empty unless the
     * run had RunOptions::profile set.
     */
    std::string profileReport;

    /**
     * Rendered critical-path bottleneck report; empty unless the run
     * had RunOptions::explain set.
     */
    std::string bottleneckReport;

    /**
     * Structured bottleneck analysis (deterministic JSON via
     * toJson()); present only when the run had RunOptions::explain.
     */
    std::optional<obs::BottleneckReport> bottleneck;

    /** Populated when the run ended in a structured failure. */
    std::optional<Failure> failure;

    /**
     * The run was stopped cooperatively (deadline or cancellation)
     * at a cycle boundary before completion. `failure` is also set
     * (kind "interrupted") so every !ok() path keeps working;
     * `cycles` holds the boundary the run stopped at, mirrored here
     * as interruptCycle for callers that snapshot.
     */
    bool interrupted = false;
    uint64_t interruptCycle = 0;

    /** Did the run complete (it may still have a verifyError)? */
    bool ok() const { return !failure.has_value(); }

    /** Look up a named metric; fatal()s when absent. */
    double stat(const std::string &name) const;

    /**
     * Look up a named metric that may legitimately be absent (e.g.
     * fault.* stats on a run without injection); returns `fallback`
     * instead of fatal()ing.
     */
    double statOr(const std::string &name, double fallback) const;

    /** Bitwise equality, stats included (determinism tests). */
    bool equals(const RunResult &o) const;
};

/**
 * One fully compiled accelerator design, owning everything a run
 * needs: the module clone the design points into, the Stage-3 bound
 * parameters, and the analytic resource report for the device it was
 * prepared against. Produced by AccelSimEngine::prepare() or
 * compileDesign(); consumed by the run()/runWorkload() overloads.
 *
 * The payload is immutable after construction and held by shared_ptr,
 * so a CompiledDesign is cheap to copy and safe to reuse from many
 * threads at once — the property the design cache (dse/) and the
 * compile-once bench harnesses rely on. Repeated runs of one
 * CompiledDesign are byte-identical (dse_test.cc pins this).
 */
struct CompiledDesign
{
    /** Owning clone of the source module (post pre-passes). */
    std::shared_ptr<const ir::Module> module;

    /** The compiled design; points into `module`. */
    std::shared_ptr<const hls::AcceleratorDesign> design;

    /** Stage-3 bound parameters (== design->params). */
    arch::AcceleratorParams params;

    /** Device the resource report was estimated for. */
    fpga::Device device;

    /** Analytic resource/Fmax/power estimate on `device`. */
    fpga::ResourceReport report;

    /**
     * Host wall-clock seconds the toolchain spent producing this
     * design, by phase. Diagnostic only — never folded into
     * byte-deterministic result documents. A DesignCache hit reuses
     * the original compile's timings, which is exactly the time the
     * hit saved.
     */
    struct CompileTimings
    {
        double parseSec = 0;   ///< module-text parse
        double optSec = 0;     ///< optimization pipeline
        double unrollSec = 0;  ///< serial-loop unrolling
        double codegenSec = 0; ///< Stages 1-3 + resource estimate
        double lowerSec = 0;   ///< micro-op lowering (ir/lower.hh)
        double totalSec = 0;   ///< end-to-end compileDesign()
    };

    CompileTimings timings;

    /** Holds a design (default-constructed instances do not). */
    bool valid() const { return design != nullptr; }

    /** The wrapped design; fatal()s when invalid. */
    const hls::AcceleratorDesign &get() const;
};

/**
 * Run the toolchain on a standalone module-text clone and wrap the
 * result: parse `module_text`, apply the pre-passes in `copts`,
 * compile `top`, and estimate resources on `dev`. The caller's
 * modules are untouched — the returned design owns its own clone.
 *
 * This is the content-addressed compile entry point: byte-identical
 * (module_text, top, copts, dev) inputs yield interchangeable
 * designs, which is what lets dse::DesignCache memoize compiles.
 */
CompiledDesign compileDesign(const std::string &module_text,
                             const std::string &top,
                             const hls::CompileOptions &copts,
                             const fpga::Device &dev);

/** As above, from an in-memory module (printed, then cloned). */
CompiledDesign compileDesign(const ir::Module &mod,
                             const std::string &top,
                             const hls::CompileOptions &copts,
                             const fpga::Device &dev);

/** Abstract execution engine. */
class Engine
{
  public:
    virtual ~Engine() = default;

    /** Short identifier ("interp", "accel", "cpu"). */
    virtual std::string name() const = 0;

    /**
     * Default observability knobs, applied by the overloads that do
     * not take an explicit RunOptions. Kept for callers that
     * configure an engine once and run it many times; new code
     * should prefer passing RunOptions per run.
     */
    RunOptions runOptions;

    /**
     * Execute `top` with `args` over `mem`. `mem` must already hold
     * the program's globals/inputs (MemImage::layout or a workload
     * setup). Engines with pre-passes may mutate `mod`. Routes
     * through the RunOptions overload with this engine's runOptions.
     */
    RunResult
    run(ir::Module &mod, ir::Function &top,
        const std::vector<ir::RtValue> &args, ir::MemImage &mem)
    {
        return run(mod, top, args, mem, runOptions);
    }

    /**
     * As run() above, with explicit per-run observability options
     * (tracing, profiling). Engines that cannot honor them ignore
     * them; see RunOptions.
     */
    virtual RunResult run(ir::Module &mod, ir::Function &top,
                          const std::vector<ir::RtValue> &args,
                          ir::MemImage &mem,
                          const RunOptions &ro) = 0;

    /**
     * Run a workload end to end: fresh image, Workload::setup, the
     * engine, Workload::verify into RunResult::verifyError. This is
     * the one marshal/verify path shared by every harness.
     *
     * @param w workload (its module may be mutated by pre-passes)
     * @param mem_bytes memory-image size for the run
     */
    RunResult
    runWorkload(workloads::Workload &w,
                uint64_t mem_bytes = 256ull << 20)
    {
        return runWorkload(w, mem_bytes, runOptions);
    }

    /** As runWorkload() with explicit per-run observability. */
    RunResult runWorkload(workloads::Workload &w, uint64_t mem_bytes,
                          const RunOptions &ro);

  protected:
    /**
     * Hook invoked by runWorkload() before run(); engines that take
     * defaults from the workload (e.g. its parameter preset)
     * override this.
     */
    virtual void bindWorkload(const workloads::Workload &w)
    {
        (void)w;
    }
};

/** Reference interpreter (serial elision) as an Engine. */
class InterpEngine : public Engine
{
  public:
    explicit InterpEngine(ir::Interp::Options opts = {})
        : opts(opts)
    {}

    std::string name() const override { return "interp"; }

    using Engine::run;

    RunResult run(ir::Module &mod, ir::Function &top,
                  const std::vector<ir::RtValue> &args,
                  ir::MemImage &mem, const RunOptions &ro) override;

  private:
    ir::Interp::Options opts;
};

/**
 * Compile-and-simulate engine: the TAPAS toolchain (with optional
 * pre-passes) followed by the cycle-level accelerator simulator and
 * the FPGA resource/timing/power models.
 */
class AccelSimEngine : public Engine
{
  public:
    struct Options
    {
        /** Target device for resource/fmax/power estimation. */
        fpga::Device device = fpga::Device::cycloneV();

        /**
         * Stage-3 parameters; when unset, the workload's preset (or
         * library defaults for a bare run()) is used.
         */
        std::optional<arch::AcceleratorParams> params;

        /** Applied on top of the parameter set via setAllTiles(). */
        std::optional<unsigned> tiles;

        /** Optimization pre-pass (hls::CompileOptions). */
        bool runOptPasses = false;

        /** Serial-loop unroll factor (< 2 disables). */
        unsigned unrollFactor = 0;

        /**
         * Simulate this prepared design instead of compiling
         * (params/tiles/pre-pass options are then ignored). Owning —
         * the engine shares the design's immutable payload, so the
         * producer (prepare(), a DesignCache) may go away.
         */
        std::optional<CompiledDesign> design;

        /** Optional task-lifetime tracer (not owned). */
        sim::TaskTracer *tracer = nullptr;

        /**
         * Deterministic fault injection: when set, every run
         * constructs a FaultInjector from this config (fresh RNG per
         * run, so repeated runs see the identical fault schedule)
         * and records fault.* stats in the RunResult. An all-zero
         * config attaches an injector that perturbs nothing.
         */
        std::optional<sim::FaultConfig> fault;

        /** Override AcceleratorSim::maxCycles when set. */
        std::optional<uint64_t> maxCycles;

        /** Override AcceleratorSim::watchdogCycles when set. */
        std::optional<uint64_t> watchdogCycles;

        /**
         * Invoked after the simulation with the compiled design and
         * the finished simulator, for metrics the flat RunResult
         * cannot express (e.g. per-unit scalars keyed by sid).
         */
        std::function<void(const hls::AcceleratorDesign &,
                           sim::AcceleratorSim &)>
            observer;
    };

    /** Engine with default options (Cyclone V, workload params). */
    AccelSimEngine() = default;

    explicit AccelSimEngine(Options opts) : opts(std::move(opts)) {}

    std::string name() const override { return "accel"; }

    using Engine::run;
    using Engine::runWorkload;

    RunResult run(ir::Module &mod, ir::Function &top,
                  const std::vector<ir::RtValue> &args,
                  ir::MemImage &mem, const RunOptions &ro) override;

    /**
     * Compile once, run many: run the toolchain with this engine's
     * options (params/tiles/pre-passes/device) on a clone of `mod`
     * and return the owning design. The caller's module is never
     * mutated — unlike run(), whose enabled pre-passes rewrite the
     * module they are handed.
     */
    CompiledDesign prepare(const ir::Module &mod,
                           const ir::Function &top) const;

    /**
     * As prepare(mod, top), taking Stage-3 defaults from the
     * workload's parameter preset exactly as runWorkload() does.
     */
    CompiledDesign prepare(const workloads::Workload &w);

    /** Simulate a prepared design (engine runOptions apply). */
    RunResult
    run(const CompiledDesign &design,
        const std::vector<ir::RtValue> &args, ir::MemImage &mem)
    {
        return run(design, args, mem, runOptions);
    }

    /** Simulate a prepared design with explicit observability. */
    RunResult run(const CompiledDesign &design,
                  const std::vector<ir::RtValue> &args,
                  ir::MemImage &mem, const RunOptions &ro);

    /**
     * Workload end-to-end over a prepared design: fresh image,
     * Workload::setup, simulate `design`, Workload::verify. The
     * design must have been prepared from this workload's module
     * (prepare(w)) or an identically printed one — the image layout
     * is derived from `w.module`, which is only interchangeable with
     * the design's owned clone when the two print identically.
     */
    RunResult
    runWorkload(workloads::Workload &w, const CompiledDesign &design,
                uint64_t mem_bytes = 256ull << 20)
    {
        return runWorkload(w, design, mem_bytes, runOptions);
    }

    /** As above with explicit per-run observability. */
    RunResult runWorkload(workloads::Workload &w,
                          const CompiledDesign &design,
                          uint64_t mem_bytes, const RunOptions &ro);

  protected:
    void bindWorkload(const workloads::Workload &w) override;

  private:
    /** Engine options -> toolchain options (shared compile path). */
    hls::CompileOptions compileOptions() const;

    /** Simulate `design` and assemble the RunResult. */
    RunResult simulate(const hls::AcceleratorDesign &design,
                       const fpga::ResourceReport &report,
                       const std::vector<ir::RtValue> &args,
                       ir::MemImage &mem, const RunOptions &ro);

    Options opts;
    std::optional<arch::AcceleratorParams> workloadParams;
};

/** Work-stealing multicore model as an Engine. */
class CpuSimEngine : public Engine
{
  public:
    explicit CpuSimEngine(cpu::CpuParams params = cpu::CpuParams())
        : params(params)
    {}

    std::string name() const override { return "cpu"; }

    using Engine::run;

    RunResult run(ir::Module &mod, ir::Function &top,
                  const std::vector<ir::RtValue> &args,
                  ir::MemImage &mem, const RunOptions &ro) override;

  private:
    cpu::CpuParams params;
};

} // namespace tapas::driver

#endif // TAPAS_DRIVER_ENGINE_HH
