/**
 * @file
 * tapas-cc: command-line driver for the TAPAS toolchain.
 *
 * Compiles a parallel-IR program (.tir text, the format printed by
 * the IR printer) into an accelerator design, then any combination
 * of:
 *
 *   --report              task graph + FPGA resource estimates
 *   --emit-chisel <path>  generated Chisel ('-' for stdout)
 *   --emit-dot <path>     task graph as Graphviz
 *   --run [args...]       simulate; integer/float arguments,
 *                         @global resolves to the global's address
 *   --interp [args...]    run on the reference interpreter instead
 *   --tiles N             tiles per task unit (default 1)
 *   --ntasks N            task-queue entries (default 32)
 *   --opt                 run the optimization passes first
 *   --unroll N            unroll eligible serial loops by N
 *   --trace <path>        write a Chrome/Perfetto trace-event JSON
 *                         from --run (open in ui.perfetto.dev)
 *   --trace-csv <path>    write the task-lifetime CSV from --run
 *   --profile             per-unit cycle-attribution table from
 *                         --run (busy / stall / idle buckets)
 *   --explain             critical-path & bottleneck report from
 *                         --run (segment classes, what-if bounds)
 *   --jobs N              run --run/--interp engines concurrently
 *   --json <path>         machine-readable results ('-' for stdout)
 *   --top <name>          offloaded function (default: first
 *                         function containing a detach)
 *   --fault-rate R        inject faults at rate R in [0, 1] (per
 *                         cycle/event) into --run; see sim/fault.hh
 *   --fault-seed S        fault-schedule seed (default 0x7a7a5)
 *   --max-retries N       per-task fault-retry budget (default 8)
 *   --dse [args...]       design-space exploration (exhaustive grid)
 *                         over tiles x ntasks on the Cyclone V;
 *                         prunes over-budget points, memoizes
 *                         compiles, reports the Pareto frontier
 *   --dse-tiles LIST      comma-separated tile counts (1,2,4,8)
 *   --dse-ntasks LIST     comma-separated queue sizes (--ntasks)
 *
 * Tile counts and queue sizes must be >= 1. Observing a run (--trace,
 * --trace-csv, --profile, --explain) never changes its results, and
 * it simulates on the same fast path as a plain run; so does a run
 * with a nonzero --fault-rate.
 *
 * Run lifecycle (see DESIGN.md, "Run lifecycle"):
 *   --deadline SEC        wall-clock budget for --run; on expiry the
 *                         simulation stops at a cycle boundary,
 *                         writes a snapshot (with --checkpoint) and
 *                         exits 6
 *   --deadline-cycles N   deterministic simulated-cycle deadline
 *   --checkpoint PATH     where to write the resume snapshot when a
 *                         run is interrupted
 *   --checkpoint-every N  additionally snapshot every N cycles while
 *                         the run is going
 *   --resume PATH         continue an interrupted run from its
 *                         snapshot (no input file needed); the
 *                         completed run is byte-identical to one
 *                         that was never interrupted
 *   --dse-journal PATH    journal completed DSE evaluations (JSONL)
 *   --dse-resume PATH     resume a DSE exploration from its journal
 *   --dse-deadline SEC    wall-clock budget for --dse, apportioned
 *                         across rungs
 *   SIGINT (Ctrl-C) requests cooperative cancellation everywhere:
 *   partial results are flushed and the exit code is 6; a second
 *   SIGINT hard-exits (130).
 *
 * Exit codes: 0 success, 1 toolchain error, 2 usage, 3 --run/--interp
 * return-value mismatch, 4 simulation failed (deadlock / cycle
 * limit / spawn failed), 5 fault-retry budget exhausted,
 * 6 interrupted (deadline or SIGINT; partial results flushed).
 *
 * Example:
 *   tapas-cc examples/vector_scale.tir --report \
 *            --run @vec 64 --emit-chisel -
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "codegen/chisel.hh"
#include "driver/engine.hh"
#include "driver/jobrunner.hh"
#include "driver/snapshot.hh"
#include "dse/dse.hh"
#include "fpga/model.hh"
#include "ir/parser.hh"
#include "ir/printer.hh"
#include "ir/verifier.hh"
#include "support/atomic_file.hh"
#include "support/cancel.hh"
#include "support/flags.hh"
#include "support/json.hh"
#include "support/manifest.hh"

using namespace tapas;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0
        << " <program.tir> [--top NAME] [--tiles N] [--ntasks N]\n"
           "       [--opt] [--unroll N] [--report]\n"
           "       [--emit-chisel PATH] [--emit-dot PATH]\n"
           "       [--run ARGS...] [--interp ARGS...] "
           "[--trace PATH]\n"
           "       [--trace-csv PATH] [--profile] [--jobs N] "
           "[--json PATH]\n"
           "\n"
           "  --report            task graph + FPGA resource "
           "estimates\n"
           "  --emit-chisel PATH  generated Chisel ('-' for "
           "stdout)\n"
           "  --emit-dot PATH     task graph as Graphviz\n"
           "  --run [ARGS...]     cycle simulation; @global "
           "resolves to its address\n"
           "  --interp [ARGS...]  reference interpreter (same "
           "argument list)\n"
           "  --tiles N           tiles per task unit (default 1)\n"
           "  --ntasks N          task-queue entries (default 32)\n"
           "  --opt               run the optimization passes "
           "before HLS\n"
           "  --unroll N          unroll eligible serial loops by "
           "N\n"
           "  --trace PATH        Perfetto trace-event JSON from "
           "--run ('-' for stdout;\n"
           "                      open in ui.perfetto.dev)\n"
           "  --trace-csv PATH    task-lifetime CSV from --run\n"
           "  --profile           per-unit cycle-attribution table "
           "from --run\n"
           "  --explain           critical-path bottleneck report "
           "from --run\n"
           "  --jobs N            worker threads for --run/--interp "
           "(or $TAPAS_JOBS)\n"
           "  --json PATH         machine-readable results ('-' for "
           "stdout)\n"
           "  --top NAME          offloaded function (default: "
           "first with a detach)\n"
           "  --fault-rate R      inject faults at rate R in [0, 1] "
           "into --run (0 disables)\n"
           "  --fault-seed S      fault-schedule seed (default "
           "0x7a7a5)\n"
           "  --max-retries N     per-task fault-retry budget "
           "(default 8)\n"
           "  --dse [ARGS...]     explore tiles x ntasks (exhaustive "
           "grid, Cyclone V);\n"
           "                      reports the cycles/ALMs/power "
           "Pareto frontier\n"
           "  --dse-tiles LIST    tile counts to explore (default "
           "1,2,4,8)\n"
           "  --dse-ntasks LIST   queue sizes to explore (default: "
           "--ntasks)\n"
           "  --deadline SEC      wall-clock budget for --run "
           "(interrupt + exit 6)\n"
           "  --deadline-cycles N deterministic simulated-cycle "
           "deadline for --run\n"
           "  --checkpoint PATH   resume snapshot for interrupted "
           "runs\n"
           "  --checkpoint-every N  also snapshot every N simulated "
           "cycles\n"
           "  --resume PATH       continue an interrupted --run from "
           "its snapshot\n"
           "  --dse-journal PATH  journal completed --dse "
           "evaluations (JSONL)\n"
           "  --dse-resume PATH   resume --dse from its journal\n"
           "  --dse-deadline SEC  wall-clock budget for --dse\n"
           "\n"
           "tile counts and queue sizes must be >= 1. Observing a run "
           "never changes its\n"
           "results or its simulation speed class, and a nonzero "
           "--fault-rate takes the\n"
           "same fast path.\n"
           "\n"
           "exit codes: 0 ok, 1 error, 2 usage, 3 run/interp "
           "mismatch,\n"
           "            4 simulation failure, 5 fault budget "
           "exhausted,\n"
           "            6 interrupted (deadline or SIGINT)\n";
    std::exit(2);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        tapas_fatal("cannot open '%s'", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Parse a comma-separated list of sizes >= 1 ("1,2,4"). */
std::vector<unsigned>
parseSizeList(const std::string &flag, const std::string &text)
{
    std::vector<unsigned> values;
    std::string item;
    std::istringstream ss(text);
    while (std::getline(ss, item, ','))
        values.push_back(parseUnsignedFlag(flag, item, 1));
    if (values.empty())
        tapas_fatal("%s expects a comma-separated list, got '%s'",
                    flag.c_str(), text.c_str());
    return values;
}

/** Parse one CLI run-argument against the function's signature. */
ir::RtValue
parseArg(const std::string &text, ir::Type type,
         const ir::Module &mod, ir::MemImage &mem)
{
    if (!text.empty() && text[0] == '@') {
        const ir::GlobalVar *g = mod.globalByName(text.substr(1));
        if (!g)
            tapas_fatal("unknown global '%s'", text.c_str());
        return ir::RtValue::fromPtr(mem.addressOf(g));
    }
    if (type.isFloat())
        return ir::RtValue::fromFloat(std::stod(text));
    return ir::RtValue::fromInt(std::stoll(text, nullptr, 0));
}

void
writeOut(const std::string &path, const std::string &content)
{
    if (path == "-") {
        std::cout << content;
        return;
    }
    // Atomic (temp + rename): an interrupt or crash mid-write can
    // never leave a torn artifact behind.
    atomicWriteFile(path, content);
    std::cout << "wrote " << path << " (" << content.size()
              << " bytes)\n";
}

std::string
formatRet(const ir::Function &top, ir::RtValue ret)
{
    return top.returnType().isFloat()
               ? strfmt("%g", ret.f)
               : strfmt("%lld", static_cast<long long>(ret.i));
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage(argv[0]);

    // The input file is optional when the module comes from a
    // snapshot (--resume), so a leading flag is legal.
    std::string input;
    int first_flag = 1;
    if (argv[1][0] != '-') {
        input = argv[1];
        first_flag = 2;
    }
    std::string top_name;
    std::string chisel_path;
    std::string dot_path;
    std::string json_path;
    bool report = false;
    bool do_run = false;
    bool do_interp = false;
    bool do_opt = false;
    unsigned unroll = 0;
    unsigned tiles = 1;
    unsigned ntasks = 32;
    unsigned cli_jobs = 0;
    std::string trace_path;
    std::string trace_csv_path;
    bool do_profile = false;
    bool do_explain = false;
    bool fault_given = false;
    double fault_rate = 0;
    uint64_t fault_seed = 0x7a7a5u;
    unsigned max_retries = 8;
    bool do_dse = false;
    std::vector<unsigned> dse_tiles{1, 2, 4, 8};
    std::vector<unsigned> dse_ntasks;
    std::vector<std::string> run_args;
    double deadline_sec = 0;
    uint64_t deadline_cycles = 0;
    std::string checkpoint_path;
    uint64_t checkpoint_every = 0;
    std::string resume_path;
    std::string dse_journal_path;
    bool dse_resume = false;
    double dse_deadline_sec = 0;

    for (int i = first_flag; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                tapas_fatal("flag '%s' needs an argument",
                            a.c_str());
            return argv[i];
        };
        if (a == "--top") {
            top_name = next();
        } else if (a == "--tiles") {
            tiles = parseUnsignedFlag(a, next(), 1);
        } else if (a == "--ntasks") {
            ntasks = parseUnsignedFlag(a, next(), 1);
        } else if (a == "--report") {
            report = true;
        } else if (a == "--opt") {
            do_opt = true;
        } else if (a == "--unroll") {
            unroll = parseUnsignedFlag(a, next());
        } else if (a == "--trace" || a == "--trace-csv") {
            // A following flag is a forgotten path, not an argument.
            std::string path = next();
            if (path.size() >= 2 && path.compare(0, 2, "--") == 0) {
                tapas_fatal("%s expects an output path, got the "
                            "flag '%s'", a.c_str(), path.c_str());
            }
            (a == "--trace" ? trace_path : trace_csv_path) = path;
        } else if (a == "--profile") {
            do_profile = true;
        } else if (a == "--explain") {
            do_explain = true;
        } else if (a == "--jobs") {
            cli_jobs = parseUnsignedFlag(a, next());
        } else if (a == "--fault-rate") {
            fault_rate = parseRealFlag(a, next(), 0, 1);
            fault_given = true;
        } else if (a == "--fault-seed") {
            fault_seed = parseUintFlag(a, next());
            fault_given = true;
        } else if (a == "--max-retries") {
            max_retries = parseUnsignedFlag(a, next());
            fault_given = true;
        } else if (a == "--json") {
            json_path = next();
        } else if (a == "--emit-chisel") {
            chisel_path = next();
        } else if (a == "--emit-dot") {
            dot_path = next();
        } else if (a == "--help" || a == "-h") {
            usage(argv[0]);
        } else if (a == "--dse-tiles") {
            dse_tiles = parseSizeList(a, next());
        } else if (a == "--dse-ntasks") {
            dse_ntasks = parseSizeList(a, next());
        } else if (a == "--deadline") {
            deadline_sec = parseRealFlag(a, next());
        } else if (a == "--deadline-cycles") {
            deadline_cycles = parseUintFlag(a, next());
        } else if (a == "--checkpoint") {
            checkpoint_path = next();
        } else if (a == "--checkpoint-every") {
            checkpoint_every = parseUintFlag(a, next());
        } else if (a == "--resume") {
            resume_path = next();
        } else if (a == "--dse-journal") {
            dse_journal_path = next();
        } else if (a == "--dse-resume") {
            dse_journal_path = next();
            dse_resume = true;
        } else if (a == "--dse-deadline") {
            dse_deadline_sec = parseRealFlag(a, next());
        } else if (a == "--run" || a == "--interp" || a == "--dse") {
            // All engines share one argument list; later flags may
            // omit it.
            if (a == "--dse")
                do_dse = true;
            else
                (a == "--run" ? do_run : do_interp) = true;
            std::vector<std::string> these;
            while (i + 1 < argc && argv[i + 1][0] != '-')
                these.push_back(argv[++i]);
            if (!these.empty())
                run_args = std::move(these);
        } else {
            tapas_fatal("unknown flag '%s' (see --help)", a.c_str());
        }
    }

    // First Ctrl-C requests cooperative cancellation; the run drains,
    // flushes partial artifacts, and exits kExitInterrupted.
    installSigintHandler();

    // Fault schedule, resolved once: flags (uniform rate + seed) or
    // the exact config an interrupted run snapshotted.
    std::optional<sim::FaultConfig> fault_cfg;
    if (fault_given) {
        sim::FaultConfig fc =
            sim::FaultConfig::uniform(fault_rate, fault_seed);
        fc.maxTaskRetries = max_retries;
        fault_cfg = fc;
    }

    driver::Snapshot snap;
    const bool resuming = !resume_path.empty();
    if (resuming) {
        // The snapshot is the authoritative replay recipe: it
        // overrides the module source and every knob that shaped the
        // interrupted run, and it implies --run.
        snap = driver::readSnapshot(resume_path);
        input = snap.inputName;
        top_name = snap.top;
        run_args = snap.runArgs;
        tiles = snap.tiles;
        ntasks = snap.ntasks;
        do_opt = snap.optPasses;
        unroll = snap.unrollFactor;
        fault_cfg = snap.fault;
        do_run = true;
        std::cout << "resume: replaying " << input << " from "
                  << resume_path << " (interrupted at cycle "
                  << snap.interruptCycle << ")\n";
    } else if (input.empty()) {
        usage(argv[0]);
    }

    auto mod = ir::parseModuleOrDie(
        resuming ? snap.moduleText : readFile(input));
    ir::verifyOrDie(*mod);

    ir::Function *top = nullptr;
    if (!top_name.empty()) {
        top = mod->functionByName(top_name);
        if (!top)
            tapas_fatal("no function '@%s'", top_name.c_str());
    } else {
        for (const auto &f : mod->functions()) {
            if (f->hasDetach()) {
                top = f.get();
                break;
            }
        }
        if (!top && !mod->functions().empty())
            top = mod->functions().front().get();
        if (!top)
            tapas_fatal("module has no functions");
    }

    hls::CompileOptions copts;
    copts.params.defaults.ntiles = tiles;
    copts.params.defaults.ntasks = ntasks;
    copts.runOptPasses = do_opt;
    copts.unrollFactor = unroll;
    hls::OptStats opt_stats;
    unsigned unrolled_loops = 0;
    copts.optStatsOut = &opt_stats;
    copts.unrolledLoopsOut = &unrolled_loops;
    // Compile once into an owning design (the pre-passes run on the
    // design's private clone; the parsed module stays pristine, so
    // --interp exercises the program exactly as written).
    driver::CompiledDesign cd = driver::compileDesign(
        *mod, top->name(), copts, fpga::Device::cycloneV());
    const hls::AcceleratorDesign &design = cd.get();

    if (do_opt) {
        std::cout << "opt: folded " << opt_stats.foldedConstants
                  << ", simplified " << opt_stats.simplifiedBranches
                  << " branches, removed " << opt_stats.removedBlocks
                  << " blocks / " << opt_stats.removedInstructions
                  << " insts\n";
    }
    if (unroll >= 2) {
        std::cout << "unroll: " << unrolled_loops << " loops by "
                  << unroll << "x\n";
    }

    if (report) {
        std::cout << "top: @" << top->name() << "\n\ntask graph:\n";
        for (const auto &t : design.taskGraph->tasks()) {
            std::cout << "  T" << t->sid() << "  " << t->name()
                      << "  (" << t->numInstructions() << " insts, "
                      << t->numMemOps() << " mem, "
                      << t->args().size() << " args"
                      << (t->isRecursive() ? ", recursive" : "")
                      << ")\n";
        }
        for (const fpga::Device &dev :
             {fpga::Device::cycloneV(), fpga::Device::arria10()}) {
            fpga::ResourceReport r =
                fpga::estimateResources(design, dev);
            std::cout << "\n" << dev.name << ": " << r.alms
                      << " ALMs, " << r.regs << " regs, " << r.brams
                      << " M20K, " << strfmt("%.0f", r.fmaxMhz)
                      << " MHz, " << strfmt("%.2f", r.powerW)
                      << " W (" << strfmt("%.0f%%",
                                          r.utilization * 100)
                      << " of chip)\n";
        }
    }

    if (!chisel_path.empty())
        writeOut(chisel_path, codegen::chiselString(design));

    if (!dot_path.empty()) {
        std::ostringstream os;
        codegen::emitTaskGraphDot(*design.taskGraph, os);
        writeOut(dot_path, os.str());
    }

    int exit_code = 0;

    Json doc = Json::object();
    doc.set("tool", Json::str("tapas_cc"));
    doc.set("input", Json::str(input));
    doc.set("top", Json::str(top->name()));
    // Where these results came from: argv, jobs, build info. Varies
    // across hosts and invocations (a resumed run's argv differs from
    // the uninterrupted one's) — byte-comparing diffs must strip it,
    // like compile_timings (tools/strip_volatile.py).
    doc.set("manifest", runManifest("tapas_cc", argc, argv,
                                    driver::resolveJobs(cli_jobs)));
    // Host wall-clock phase timings of the one compile above. These
    // vary run to run by nature — determinism checks must diff the
    // simulation payloads, never this block.
    {
        Json jt = Json::object();
        jt.set("parse_sec", Json::num(cd.timings.parseSec));
        jt.set("opt_sec", Json::num(cd.timings.optSec));
        jt.set("unroll_sec", Json::num(cd.timings.unrollSec));
        jt.set("codegen_sec", Json::num(cd.timings.codegenSec));
        jt.set("lower_sec", Json::num(cd.timings.lowerSec));
        jt.set("total_sec", Json::num(cd.timings.totalSec));
        doc.set("compile_timings", std::move(jt));
    }
    Json jresults = Json::array();

    if (do_run || do_interp) {
        if (run_args.size() != top->numArgs()) {
            tapas_fatal("@%s takes %u arguments, %zu given",
                        top->name().c_str(), top->numArgs(),
                        run_args.size());
        }

        // Each engine gets its own MemImage; the deterministic
        // layout makes @global addresses identical across images.
        auto setupMem = [&](ir::MemImage &mem) {
            mem.layout(*mod);
            std::vector<ir::RtValue> args;
            for (unsigned i = 0; i < top->numArgs(); ++i) {
                args.push_back(parseArg(run_args[i],
                                        top->arg(i)->type(), *mod,
                                        mem));
            }
            return args;
        };

        // Rebuildable replay recipe for checkpoint/interrupt
        // snapshots; `cycle` is the boundary the run stopped at.
        auto buildSnapshot = [&](uint64_t cycle) {
            driver::Snapshot s;
            s.inputName = input;
            s.moduleText = ir::toString(*mod);
            s.top = top->name();
            s.runArgs = run_args;
            s.tiles = tiles;
            s.ntasks = ntasks;
            s.optPasses = do_opt;
            s.unrollFactor = unroll;
            s.fault = fault_cfg;
            s.interruptCycle = cycle;
            return s;
        };

        sim::TaskTracer tracer;
        driver::Sweep<driver::RunResult> sweep(
            driver::resolveJobs(cli_jobs));
        if (do_interp) {
            sweep.add([&] {
                ir::MemImage mem(256ull << 20);
                auto args = setupMem(mem);
                driver::InterpEngine eng;
                return eng.run(*mod, *top, args, mem);
            });
        }
        if (do_run) {
            sweep.add([&] {
                ir::MemImage mem(256ull << 20);
                auto args = setupMem(mem);
                driver::AccelSimEngine::Options eo;
                eo.design = cd;
                if (!trace_csv_path.empty())
                    eo.tracer = &tracer;
                if (fault_cfg)
                    eo.fault = *fault_cfg;
                driver::AccelSimEngine eng(std::move(eo));
                driver::RunOptions ro;
                ro.traceFile = trace_path;
                ro.profile = do_profile;
                ro.explain = do_explain;
                ro.cancel = &processCancelToken();
                ro.deadlineSeconds = deadline_sec;
                ro.deadlineCycles = deadline_cycles;
                if (!checkpoint_path.empty() && checkpoint_every) {
                    ro.checkpointEveryCycles = checkpoint_every;
                    ro.onCheckpoint = [&](uint64_t cyc) {
                        driver::writeSnapshot(checkpoint_path,
                                              buildSnapshot(cyc));
                    };
                }
                return eng.run(*mod, *top, args, mem, ro);
            });
        }
        std::vector<driver::RunResult> results = sweep.run();

        size_t idx = 0;
        std::optional<ir::RtValue> interp_ret;
        if (do_interp) {
            const driver::RunResult &r = results[idx++];
            std::cout << "interp: "
                      << static_cast<uint64_t>(
                             r.stat("total_insts"))
                      << " insts, " << r.spawns << " spawns";
            if (!top->returnType().isVoid()) {
                std::cout << ", returned " << formatRet(*top,
                                                        r.retval);
                interp_ret = r.retval;
            }
            std::cout << "\n";

            Json jr = Json::object();
            jr.set("engine", Json::str("interp"));
            jr.set("total_insts", Json::num(r.stat("total_insts")));
            jr.set("spawns", Json::num(r.spawns));
            if (!top->returnType().isVoid())
                jr.set("retval", Json::str(formatRet(*top,
                                                     r.retval)));
            jresults.push(std::move(jr));
        }
        if (do_run) {
            const driver::RunResult &r = results[idx++];
            if (!trace_path.empty() && trace_path != "-") {
                std::cout << "wrote " << trace_path
                          << " (perfetto trace)\n";
            }
            if (!trace_csv_path.empty()) {
                std::ostringstream os;
                tracer.dumpCsv(os);
                writeOut(trace_csv_path, os.str());
            }
            if (r.interrupted) {
                std::cout << "accel: interrupted at cycle "
                          << r.interruptCycle << " ("
                          << r.failure->detail << ")\n";
                if (!checkpoint_path.empty()) {
                    driver::writeSnapshot(
                        checkpoint_path,
                        buildSnapshot(r.interruptCycle));
                    std::cout << "snapshot: wrote " << checkpoint_path
                              << "; continue with --resume "
                              << checkpoint_path << "\n";
                }
                exit_code = kExitInterrupted;
            } else if (!r.ok()) {
                std::cout << "accel: FAILED ("
                          << r.failure->kind << ") after "
                          << r.cycles << " cycles\n"
                          << r.failure->detail << "\n";
                exit_code =
                    r.failure->kind == "fault_budget" ? 5 : 4;
            } else {
                std::cout << "accel: " << r.cycles << " cycles, "
                          << r.spawns << " spawns, "
                          << strfmt("%.1f%%", r.cacheHitRate * 100)
                          << " cache hits";
                if (!top->returnType().isVoid()) {
                    std::cout << ", returned "
                              << formatRet(*top, r.retval);
                }
                std::cout << "\n";
            }
            const bool fault_active =
                fault_cfg && (fault_cfg->spawnDropRate > 0 ||
                              fault_cfg->queueCorruptRate > 0 ||
                              fault_cfg->memDropRate > 0 ||
                              fault_cfg->memDelayRate > 0 ||
                              fault_cfg->tileStuckRate > 0);
            if (fault_active && !r.interrupted) {
                std::cout << "fault: injected="
                          << static_cast<uint64_t>(
                                 r.statOr("fault.spawn_drops", 0) +
                                 r.statOr("fault.queue_corruptions",
                                          0) +
                                 r.statOr("fault.mem_drops", 0) +
                                 r.statOr("fault.mem_delays", 0) +
                                 r.statOr("fault.tile_stalls", 0))
                          << " recovered="
                          << static_cast<uint64_t>(
                                 r.statOr("fault.spawn_retries", 0) +
                                 r.statOr("fault.task_replays", 0) +
                                 r.statOr("fault.mem_reissues", 0))
                          << "\n";
            }
            if (r.ok() && interp_ret &&
                interp_ret->i != r.retval.i) {
                std::cout << "MISMATCH: interp returned "
                          << formatRet(*top, *interp_ret)
                          << ", accel returned "
                          << formatRet(*top, r.retval) << "\n";
                exit_code = 3;
            }
            if (do_profile)
                std::cout << "\n" << r.profileReport;
            if (do_explain)
                std::cout << "\n" << r.bottleneckReport;

            Json jr = Json::object();
            jr.set("engine", Json::str("accel"));
            jr.set("cycles", Json::num(r.cycles));
            jr.set("spawns", Json::num(r.spawns));
            jr.set("cache_hit_rate", Json::num(r.cacheHitRate));
            jr.set("seconds", Json::num(r.seconds));
            if (!r.ok()) {
                Json jf = Json::object();
                jf.set("kind", Json::str(r.failure->kind));
                jf.set("detail", Json::str(r.failure->detail));
                jr.set("failure", std::move(jf));
            }
            if (r.ok() && !top->returnType().isVoid())
                jr.set("retval", Json::str(formatRet(*top,
                                                     r.retval)));
            if (do_explain && r.bottleneck)
                jr.set("bottleneck", r.bottleneck->toJson());
            // Full flattened stats (includes the "profile.*" cycle
            // buckets when --profile is on).
            Json jstats = Json::object();
            for (const auto &kv : r.stats)
                jstats.set(kv.first, Json::num(kv.second));
            jr.set("stats", std::move(jstats));
            jresults.push(std::move(jr));
        }
    }

    if (do_dse) {
        if (run_args.size() != top->numArgs()) {
            tapas_fatal("--dse: @%s takes %u arguments, %zu given",
                        top->name().c_str(), top->numArgs(),
                        run_args.size());
        }

        // The explorer wraps the CLI program as a workload: each
        // candidate re-parses the canonical module text (candidates
        // run concurrently and pre-passes mutate their input), lays
        // the image out, and binds the CLI argument list. There is no
        // golden model for an arbitrary .tir file, so verify accepts
        // any completed run.
        const std::string mtext = ir::toString(*mod);
        const std::string top_name = top->name();
        const std::vector<std::string> cli_args = run_args;
        dse::WorkloadFactory factory = [&](unsigned) {
            workloads::Workload w;
            w.name = input;
            w.module = ir::parseModuleOrDie(mtext);
            w.top = w.module->functionByName(top_name);
            ir::Module *m = w.module.get();
            ir::Function *t = w.top;
            w.setup = [m, t,
                       cli_args](ir::MemImage &mem) {
                mem.layout(*m);
                std::vector<ir::RtValue> args;
                for (unsigned i = 0; i < t->numArgs(); ++i) {
                    args.push_back(parseArg(cli_args[i],
                                            t->arg(i)->type(), *m,
                                            mem));
                }
                return args;
            };
            w.verify = [](const ir::MemImage &, ir::RtValue) {
                return std::string();
            };
            return w;
        };

        dse::ParamSpace space;
        space.tiles = dse_tiles;
        space.ntasks =
            dse_ntasks.empty() ? std::vector<unsigned>{ntasks}
                               : dse_ntasks;
        space.optPasses = {do_opt};
        space.unrollFactors = {unroll};

        dse::ExploreOptions xopts;
        xopts.device = fpga::Device::cycloneV();
        xopts.jobs = driver::resolveJobs(cli_jobs);
        xopts.strategy = dse::Strategy::ExhaustiveGrid;
        xopts.rungs = 1;
        xopts.cancel = &processCancelToken();
        xopts.deadlineSeconds = dse_deadline_sec;
        xopts.journalPath = dse_journal_path;
        xopts.resume = dse_resume;

        std::cout << "dse: exploring " << space.size()
                  << " configurations of @" << top_name << " on "
                  << xopts.device.name << "\n\n";
        dse::ExploreResult xr =
            dse::explore(factory, space, xopts);
        dse::printReport(xr, std::cout);
        doc.set("dse", dse::toJson(xr));
        if (xr.partial && exit_code == 0)
            exit_code = kExitInterrupted;
    }

    if (!json_path.empty()) {
        doc.set("results", std::move(jresults));
        writeOut(json_path, doc.dump());
    }
    return exit_code;
}
