/**
 * @file
 * Simulation-throughput harness: how fast does the cycle-level
 * simulator itself run on the host? For four representative
 * workloads at tile counts {1, 4, 16, 64} and both cycle-loop
 * schedulers (the legacy full scan and the event-driven core) it
 * reports
 *
 *   sim_khz        simulated cycles per host second / 1000
 *   events_per_sec progress events (spawns, firings, completions,
 *                  joins) retired per host second
 *   skipped        cycles the idle-cycle fast-forward jumped over
 *
 * The timed region is AccelSimEngine::run — compile + simulate —
 * excluding host-side input staging (zeroing the memory image,
 * writing test vectors) and the golden-model verification scan,
 * which are benchmark harness costs, not simulator ones. Every run
 * is still verified, outside the timer.
 *
 * Modeled results (cycles, spawns, verification) are deterministic
 * and scheduler-independent; only the wall-clock columns vary run to
 * run. Each configuration gets one untimed warm-up, then `--reps`
 * timed runs (default 3) keeping the best host time, which filters
 * scheduler noise on shared runners. `--no-skip` disables the
 * idle-cycle fast-forward for A/B comparisons; `--scheduler
 * scan|event|both` (default both) selects the cycle-loop policy —
 * neither may change the cycle column.
 *
 * tools/perf_gate.py compares the --json export of a run against the
 * checked-in BENCH_simspeed.json baseline: sim_khz is a hard gate
 * (>25% regression fails), events_per_sec is warn-only, and modeled
 * cycles must match exactly.
 */

#include <chrono>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hh"

using namespace tapas;
using namespace tapas::bench;

namespace {

constexpr uint64_t kMemBytes = 32ull << 20;

struct ThroughputEntry
{
    const char *name;
    workloads::Workload (*make)();

    /** Optional parameter tweak layered on the workload preset. */
    void (*tweak)(arch::AcceleratorParams &) = nullptr;
};

/** Slow, narrow DRAM behind a tiny cache: long quiet stall spans. */
void
dramBound(arch::AcceleratorParams &p)
{
    p.mem.cacheBytes = 4 * 1024;
    p.mem.dramLatency = 400;
    p.mem.dramWordsPerCycle = 1;
    p.mem.mshrs = 2;
}

/**
 * Four workloads covering the simulator's distinct hot paths: saxpy
 * is memory-streaming (DataBox/SharedCache bound), saxpy_dram is the
 * same kernel stalled on a slow far memory (idle-cycle fast-forward
 * bound), fib is spawn/join recursion (TaskUnit queue bound),
 * mergesort mixes recursive spawning with leaf memory traffic.
 */
std::vector<ThroughputEntry>
throughputSuite()
{
    return {
        {"saxpy", [] { return workloads::makeSaxpy(8192); }},
        {"saxpy_dram", [] { return workloads::makeSaxpy(8192); },
         dramBound},
        {"fib", [] { return workloads::makeFib(17); }},
        {"mergesort",
         [] { return workloads::makeMergeSort(4096, 64); }},
    };
}

struct Row
{
    std::string workload;
    std::string scheduler;
    unsigned tiles;
    uint64_t cycles;
    uint64_t events;
    uint64_t skipped;
    double seconds; ///< best-of-reps host seconds
    double simKhz;
    double eventsPerSec;
};

Row
measure(const ThroughputEntry &e, unsigned tiles, unsigned reps,
        bool idle_skip, sim::Scheduler sched,
        const char *sched_name)
{
    Row row;
    row.workload = e.name;
    row.scheduler = sched_name;
    row.tiles = tiles;
    row.seconds = warmedBestOf(reps, [&]() -> double {
        workloads::Workload w = e.make();
        ir::MemImage mem(kMemBytes);
        std::vector<ir::RtValue> args = w.setup(mem);

        driver::AccelSimEngine::Options eo;
        eo.params = w.params; // what bindWorkload would resolve
        if (e.tweak)
            e.tweak(*eo.params);
        eo.tiles = tiles;
        eo.idleSkip = idle_skip;
        eo.scheduler = sched;
        uint64_t events = 0;
        uint64_t skipped = 0;
        eo.observer = [&](const hls::AcceleratorDesign &,
                          sim::AcceleratorSim &sim) {
            events = sim.progressCount();
            skipped = sim.skippedCycles();
        };
        driver::AccelSimEngine eng(std::move(eo));

        auto t0 = std::chrono::steady_clock::now();
        RunResult r = eng.run(*w.module, *w.top, args, mem);
        auto t1 = std::chrono::steady_clock::now();

        if (!r.ok())
            tapas_fatal("%s x%u failed: %s", e.name, tiles,
                        r.failure->detail.c_str());
        std::string err = w.verify(mem, r.retval);
        if (!err.empty())
            tapas_fatal("%s x%u wrong result: %s", e.name, tiles,
                        err.c_str());

        row.cycles = r.cycles;
        row.events = events;
        row.skipped = skipped;
        return std::chrono::duration<double>(t1 - t0).count();
    });
    row.simKhz = row.cycles / row.seconds / 1e3;
    row.eventsPerSec = row.events / row.seconds;
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel off --reps/--no-skip/--scheduler before the common parser
    // (it rejects unknown flags); the rest is the standard bench CLI.
    unsigned reps = 3;
    bool idle_skip = true;
    std::string sched_arg = "both";
    std::string only;
    std::vector<unsigned> tileCounts{1, 4, 16, 64};
    std::vector<char *> rest{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--reps") {
            if (++i >= argc)
                tapas_fatal("--reps expects an argument");
            reps = parseUnsigned("--reps", argv[i]);
            if (reps == 0)
                tapas_fatal("--reps must be >= 1");
        } else if (std::string(argv[i]) == "--no-skip") {
            idle_skip = false;
        } else if (std::string(argv[i]) == "--only") {
            if (++i >= argc)
                tapas_fatal("--only expects a workload name");
            only = argv[i];
        } else if (std::string(argv[i]) == "--tiles") {
            if (++i >= argc)
                tapas_fatal("--tiles expects an argument");
            tileCounts = {parseUnsigned("--tiles", argv[i])};
        } else if (std::string(argv[i]) == "--scheduler") {
            if (++i >= argc)
                tapas_fatal("--scheduler expects scan|event|both");
            sched_arg = argv[i];
            if (sched_arg != "scan" && sched_arg != "event" &&
                sched_arg != "both") {
                tapas_fatal("--scheduler expects scan|event|both, "
                            "got '%s'", sched_arg.c_str());
            }
        } else {
            rest.push_back(argv[i]);
        }
    }
    BenchOptions opt = parseBenchArgs(
        static_cast<int>(rest.size()), rest.data());

    banner("sim_throughput",
           "host-side simulator throughput (wall-clock; modeled "
           "results unchanged)");

    std::vector<std::pair<const char *, sim::Scheduler>> scheds;
    if (sched_arg == "both" || sched_arg == "scan")
        scheds.emplace_back("scan", sim::Scheduler::Scan);
    if (sched_arg == "both" || sched_arg == "event")
        scheds.emplace_back("event", sim::Scheduler::Event);

    std::vector<Row> rows;
    for (const ThroughputEntry &e : throughputSuite()) {
        if (!only.empty() && only != e.name)
            continue;
        for (unsigned tiles : tileCounts)
            for (const auto &[sname, sched] : scheds)
                rows.push_back(measure(e, tiles, reps, idle_skip,
                                       sched, sname));
    }
    if (rows.empty())
        tapas_fatal("--only '%s' matches no workload", only.c_str());

    std::cout << std::left << std::setw(12) << "workload"
              << std::setw(7) << "sched" << std::right << std::setw(6)
              << "tiles" << std::setw(12) << "cycles" << std::setw(12)
              << "skipped" << std::setw(12) << "events"
              << std::setw(11) << "host_ms" << std::setw(11)
              << "sim_khz" << std::setw(13) << "events/s" << "\n";
    for (const Row &r : rows) {
        std::cout << std::left << std::setw(12) << r.workload
                  << std::setw(7) << r.scheduler << std::right
                  << std::setw(6) << r.tiles
                  << std::setw(12) << r.cycles << std::setw(12)
                  << r.skipped << std::setw(12) << r.events
                  << std::setw(11) << std::fixed
                  << std::setprecision(2) << r.seconds * 1e3
                  << std::setw(11) << std::setprecision(1)
                  << r.simKhz << std::setw(13) << std::setprecision(0)
                  << r.eventsPerSec << "\n";
        std::cout.unsetf(std::ios::fixed);
        std::cout << std::setprecision(6);
    }

    Json doc = Json::object();
    doc.set("experiment", Json::str("sim_throughput"));
    Json jrows = Json::array();
    for (const Row &r : rows) {
        Json j = Json::object();
        j.set("workload", Json::str(r.workload));
        j.set("scheduler", Json::str(r.scheduler));
        j.set("tiles", Json::num(r.tiles));
        j.set("cycles", Json::num(r.cycles));
        j.set("skipped_cycles", Json::num(r.skipped));
        j.set("events", Json::num(r.events));
        j.set("host_seconds", Json::num(r.seconds));
        j.set("sim_khz", Json::num(r.simKhz));
        j.set("events_per_sec", Json::num(r.eventsPerSec));
        jrows.push(std::move(j));
    }
    doc.set("rows", std::move(jrows));
    maybeWriteJson(opt, doc);
    return 0;
}
