#include "driver/engine.hh"

#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>

#include "ir/parser.hh"
#include "ir/printer.hh"
#include "obs/perfetto.hh"
#include "obs/profiler.hh"
#include "support/atomic_file.hh"
#include "support/logging.hh"

namespace tapas::driver {

double
RunResult::stat(const std::string &name) const
{
    auto it = stats.find(name);
    if (it == stats.end())
        tapas_fatal("RunResult has no stat '%s'", name.c_str());
    return it->second;
}

double
RunResult::statOr(const std::string &name, double fallback) const
{
    auto it = stats.find(name);
    return it == stats.end() ? fallback : it->second;
}

bool
RunResult::equals(const RunResult &o) const
{
    return retval.i == o.retval.i && cycles == o.cycles &&
           spawns == o.spawns && seconds == o.seconds &&
           cacheHitRate == o.cacheHitRate &&
           verifyError == o.verifyError && stats == o.stats &&
           profileReport == o.profileReport &&
           bottleneckReport == o.bottleneckReport &&
           bottleneck == o.bottleneck && failure == o.failure &&
           interrupted == o.interrupted &&
           interruptCycle == o.interruptCycle;
}

const hls::AcceleratorDesign &
CompiledDesign::get() const
{
    if (!design)
        tapas_fatal("CompiledDesign holds no design");
    return *design;
}

CompiledDesign
compileDesign(const std::string &module_text, const std::string &top,
              const hls::CompileOptions &copts,
              const fpga::Device &dev)
{
    using clock = std::chrono::steady_clock;
    auto since = [](clock::time_point t0) {
        return std::chrono::duration<double>(clock::now() - t0)
            .count();
    };
    auto t_start = clock::now();

    std::shared_ptr<ir::Module> clone =
        ir::parseModuleOrDie(module_text);
    double parse_sec = since(t_start);
    ir::Function *top_fn = clone->functionByName(top);
    if (!top_fn)
        tapas_fatal("compileDesign: no function '@%s'", top.c_str());

    // Instrument the phases without perturbing the cache key: the
    // phase-out pointer is excluded from describeCompileOptions().
    hls::CompilePhaseSeconds phases;
    hls::CompileOptions timed = copts;
    timed.phaseSecondsOut = &phases;

    CompiledDesign cd;
    auto t_codegen = clock::now();
    cd.design = hls::compile(*clone, top_fn, timed);
    cd.module = std::move(clone);
    cd.params = cd.design->params;
    cd.device = dev;
    cd.report = fpga::estimateResources(*cd.design, dev);
    double codegen_sec = since(t_codegen);

    cd.timings.parseSec = parse_sec;
    cd.timings.optSec = phases.optSec;
    cd.timings.unrollSec = phases.unrollSec;
    cd.timings.codegenSec = codegen_sec - phases.optSec -
                            phases.unrollSec - phases.lowerSec;
    cd.timings.lowerSec = phases.lowerSec;
    cd.timings.totalSec = since(t_start);
    return cd;
}

CompiledDesign
compileDesign(const ir::Module &mod, const std::string &top,
              const hls::CompileOptions &copts,
              const fpga::Device &dev)
{
    return compileDesign(ir::toString(mod), top, copts, dev);
}

RunResult
Engine::runWorkload(workloads::Workload &w, uint64_t mem_bytes,
                    const RunOptions &ro)
{
    ir::MemImage mem(mem_bytes);
    std::vector<ir::RtValue> args = w.setup(mem);
    bindWorkload(w);
    RunResult r = run(*w.module, *w.top, args, mem, ro);
    // A failed run produced no output; verifying the image would only
    // bury the real diagnostic under a spurious mismatch.
    if (r.ok())
        r.verifyError = w.verify(mem, r.retval);
    return r;
}

RunResult
InterpEngine::run(ir::Module &mod, ir::Function &top,
                  const std::vector<ir::RtValue> &args,
                  ir::MemImage &mem, const RunOptions &ro)
{
    (void)ro; // no observability layer on the interpreter
    ir::Interp interp(mod, mem, opts);
    RunResult r;
    r.retval = interp.run(top, args);
    const ir::InterpStats &st = interp.stats();
    r.spawns = st.spawns;
    r.stats["total_insts"] = static_cast<double>(st.totalInsts);
    r.stats["calls"] = static_cast<double>(st.calls);
    r.stats["max_call_depth"] = st.maxCallDepth;
    r.stats["mem_ops"] = static_cast<double>(st.memOps());
    return r;
}

void
AccelSimEngine::bindWorkload(const workloads::Workload &w)
{
    workloadParams = w.params;
}

hls::CompileOptions
AccelSimEngine::compileOptions() const
{
    hls::CompileOptions co;
    co.params = opts.params
                    ? *opts.params
                    : workloadParams.value_or(
                          arch::AcceleratorParams());
    if (opts.tiles)
        co.params.setAllTiles(*opts.tiles);
    co.runOptPasses = opts.runOptPasses;
    co.unrollFactor = opts.unrollFactor;
    return co;
}

CompiledDesign
AccelSimEngine::prepare(const ir::Module &mod,
                        const ir::Function &top) const
{
    return compileDesign(mod, top.name(), compileOptions(),
                         opts.device);
}

CompiledDesign
AccelSimEngine::prepare(const workloads::Workload &w)
{
    bindWorkload(w);
    return prepare(*w.module, *w.top);
}

RunResult
AccelSimEngine::run(ir::Module &mod, ir::Function &top,
                    const std::vector<ir::RtValue> &args,
                    ir::MemImage &mem, const RunOptions &ro)
{
    if (opts.design)
        return run(*opts.design, args, mem, ro);

    hls::CompileOptions co = compileOptions();
    std::unique_ptr<hls::AcceleratorDesign> owned =
        hls::compile(mod, &top, co);
    fpga::ResourceReport rep =
        fpga::estimateResources(*owned, opts.device);
    return simulate(*owned, rep, args, mem, ro);
}

RunResult
AccelSimEngine::run(const CompiledDesign &design,
                    const std::vector<ir::RtValue> &args,
                    ir::MemImage &mem, const RunOptions &ro)
{
    return simulate(design.get(), design.report, args, mem, ro);
}

RunResult
AccelSimEngine::runWorkload(workloads::Workload &w,
                            const CompiledDesign &design,
                            uint64_t mem_bytes, const RunOptions &ro)
{
    ir::MemImage mem(mem_bytes);
    std::vector<ir::RtValue> args = w.setup(mem);
    RunResult r = run(design, args, mem, ro);
    if (r.ok())
        r.verifyError = w.verify(mem, r.retval);
    return r;
}

RunResult
AccelSimEngine::simulate(const hls::AcceleratorDesign &design,
                         const fpga::ResourceReport &report,
                         const std::vector<ir::RtValue> &args,
                         ir::MemImage &mem, const RunOptions &ro)
{
    sim::AcceleratorSim accel(design, mem);
    if (opts.tracer)
        accel.setTracer(opts.tracer);
    if (opts.maxCycles)
        accel.maxCycles = *opts.maxCycles;
    if (opts.watchdogCycles)
        accel.watchdogCycles = *opts.watchdogCycles;

    // Run lifecycle: a wall-clock deadline is a child token over the
    // caller's cancel source, so SIGINT and --deadline compose.
    std::optional<CancelToken> deadlineTok;
    if (ro.deadlineSeconds > 0) {
        deadlineTok.emplace(ro.cancel);
        deadlineTok->setDeadlineSeconds(ro.deadlineSeconds);
        accel.cancelToken = &*deadlineTok;
    } else if (ro.cancel) {
        accel.cancelToken = ro.cancel;
    }
    accel.deadlineCycles = ro.deadlineCycles;
    accel.checkpointEveryCycles = ro.checkpointEveryCycles;
    accel.onCheckpoint = ro.onCheckpoint;

    std::optional<sim::FaultInjector> injector;
    if (opts.fault) {
        injector.emplace(*opts.fault);
        accel.setFaultInjector(&*injector);
    }

    obs::PerfettoTraceSink perfetto;
    if (!ro.traceFile.empty())
        accel.addSink(&perfetto);
    obs::CriticalPathSink critpath;
    if (ro.explain)
        accel.addSink(&critpath);
    obs::CycleProfiler profiler;
    if (ro.profile)
        accel.setProfiler(&profiler);

    RunResult r;
    r.retval = accel.run(args);
    const bool wasInterrupted =
        accel.failure().kind == sim::SimFailure::Kind::Interrupted;

    if (ro.explain) {
        accel.removeSink(&critpath);
        // An interrupted run has in-flight tasks with no retire
        // events; the path-length invariant below only holds for
        // completed runs, so the analysis is skipped.
        if (!wasInterrupted) {
            obs::BottleneckReport bn = critpath.analyze();
            // The pinned invariant: a completed run's critical path
            // is exactly as long as the run (analyze() fatal()s if
            // its per-class attribution does not sum to the path).
            if (bn.valid && bn.cycles != accel.cycles()) {
                tapas_fatal("critical path is %llu cycles but the "
                            "run took %llu",
                            (unsigned long long)bn.cycles,
                            (unsigned long long)accel.cycles());
            }
            r.bottleneckReport = bn.text();
            bn.appendTo(r.stats);
            if (!ro.traceFile.empty())
                perfetto.addCriticalPathTrack(bn.segments);
            r.bottleneck = std::move(bn);
        }
    }
    if (!ro.traceFile.empty()) {
        accel.removeSink(&perfetto);
        if (ro.traceFile == "-") {
            perfetto.write(std::cout);
        } else {
            // Atomic: an interrupt never leaves a truncated trace.
            atomicWriteFile(ro.traceFile, perfetto.dump());
        }
    }
    if (ro.profile) {
        accel.setProfiler(nullptr);
        r.profileReport = profiler.reportString();
        profiler.appendTo(r.stats);
    }
    r.cycles = accel.cycles();
    r.spawns = accel.totalSpawns();
    r.cacheHitRate = accel.cacheModel().hitRate();

    if (accel.failure().failed()) {
        r.failure = RunResult::Failure{
            sim::failureKindName(accel.failure().kind),
            accel.failure().detail};
        if (wasInterrupted) {
            r.interrupted = true;
            r.interruptCycle = accel.cycles();
        }
    }
    // fault.* stats only when injection was actually enabled, so an
    // attached-but-all-zero injector yields a byte-identical result.
    if (injector && opts.fault->any())
        injector->stats.appendTo(r.stats);

    r.seconds = accel.seconds(report.fmaxMhz);
    r.stats["alms"] = report.alms;
    r.stats["regs"] = report.regs;
    r.stats["brams"] = report.brams;
    r.stats["fmax_mhz"] = report.fmaxMhz;
    r.stats["power_w"] = report.powerW;
    r.stats["utilization"] = report.utilization;

    accel.stats.appendTo(r.stats);
    accel.cacheModel().stats.appendTo(r.stats);
    for (const auto &task : design.taskGraph->tasks())
        accel.unit(task->sid()).stats.appendTo(r.stats);

    if (opts.observer)
        opts.observer(design, accel);
    return r;
}

RunResult
CpuSimEngine::run(ir::Module &mod, ir::Function &top,
                  const std::vector<ir::RtValue> &args,
                  ir::MemImage &mem, const RunOptions &ro)
{
    (void)ro; // no observability layer on the CPU model
    cpu::CpuRunResult c = cpu::runOnCpu(mod, top, args, mem, params);
    RunResult r;
    r.cycles = static_cast<uint64_t>(std::llround(c.cycles));
    r.spawns = c.spawns;
    r.seconds = c.seconds;
    r.stats["serial_seconds"] = c.serialSeconds;
    r.stats["work_cycles"] = c.workCycles;
    r.stats["span_cycles"] = c.spanCycles;
    r.stats["steals"] = static_cast<double>(c.steals);
    r.stats["utilization"] = c.utilization;
    r.stats["dram_accesses"] = static_cast<double>(c.dramAccesses);
    return r;
}

} // namespace tapas::driver
