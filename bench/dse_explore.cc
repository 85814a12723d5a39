/**
 * @file
 * Design-space exploration driver: search the Stage-3 parameter
 * space (worker tiles, task-queue entries, unroll factor, opt
 * passes) for the best accelerator configurations of three paper
 * workloads on the Cyclone V, using the dse/ subsystem — analytic
 * pruning against the device budget, a shared compile-once
 * DesignCache, and sweep fan-out that is byte-identical for any
 * --jobs value (the JSON export is diffable across worker counts).
 *
 * Flags on top of the common bench CLI:
 *
 *   --bench NAME      explore one space (saxpy | fib | dedup);
 *                     default: all three
 *   --strategy S      grid (exhaustive) or halving (greedy
 *                     successive halving; default grid)
 *   --rungs N         workload sizes available to halving; the final
 *                     rung is the full-size instance (default 3)
 *   --journal PATH    journal completed evaluations per space
 *                     ("j.jsonl" -> "j.saxpy.jsonl", ...) so an
 *                     interrupted run can resume
 *   --resume PATH     as --journal, but restore finished evaluations
 *                     first; the completed export is byte-identical
 *                     to an uninterrupted run
 *   --deadline SEC    total wall-clock budget, split across the
 *                     remaining spaces (and, inside each, across
 *                     rungs); on expiry the partial results flush
 *                     and the exit code is 6
 *
 * SIGINT drains cooperatively: completed points are flushed (and
 * journaled), the exit code is 6, and --resume picks up the rest.
 */

#include <chrono>

#include "bench/common.hh"
#include "dse/dse.hh"

using namespace tapas;
using namespace tapas::bench;

namespace {

/** One explorable workload family and its candidate space. */
struct SpaceEntry
{
    const char *name;
    dse::WorkloadFactory factory;
    dse::ParamSpace space;
};

/**
 * The three spaces. Each factory scales its instance with the rung
 * index (rung rungs-1 = full size) so successive halving can rank on
 * cheap instances; the grid only ever builds the final rung.
 */
std::vector<SpaceEntry>
makeSpaces()
{
    std::vector<SpaceEntry> spaces;
    {
        // Bandwidth-bound loop: tiles beyond the shared-cache
        // saturation point buy ALMs, not cycles — a real frontier.
        SpaceEntry e;
        e.name = "saxpy";
        e.factory = [](unsigned rung) {
            return workloads::makeSaxpy(512u << rung);
        };
        e.space.tiles = {1, 2, 4, 8};
        e.space.ntasks = {16, 32};
        e.space.unrollFactors = {0, 2};
        e.space.optPasses = {false, true};
        spaces.push_back(std::move(e));
    }
    {
        // Recursive spawn tree: queue sizing dominates; undersized
        // queues deadlock and exercise the failure path.
        SpaceEntry e;
        e.name = "fib";
        e.factory = [](unsigned rung) {
            return workloads::makeFib(8 + 2 * rung);
        };
        e.space.tiles = {1, 2, 4};
        e.space.ntasks = {256, 1024, 2048};
        spaces.push_back(std::move(e));
    }
    {
        // Balanced dynamic pipeline: mostly flat in tiles, so the
        // frontier collapses toward the cheapest configuration.
        SpaceEntry e;
        e.name = "dedup";
        e.factory = [](unsigned rung) {
            return workloads::makeDedup(16u << rung, 128);
        };
        e.space.tiles = {1, 2, 4};
        e.space.ntasks = {16, 32};
        spaces.push_back(std::move(e));
    }
    return spaces;
}

/** Per-space journal: "j.jsonl" + "saxpy" -> "j.saxpy.jsonl". */
std::string
spaceJournalPath(const std::string &base, const std::string &name)
{
    size_t dot = base.rfind('.');
    if (dot == std::string::npos || dot == 0)
        return base + "." + name;
    return base.substr(0, dot) + "." + name + base.substr(dot);
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel the dse-specific flags off before the common parser
    // (which fatal()s on flags it does not know).
    std::string bench_filter;
    dse::Strategy strategy = dse::Strategy::ExhaustiveGrid;
    unsigned rungs = 3;
    std::string journal_base;
    bool do_resume = false;
    double deadline_sec = 0;
    std::vector<char *> fwd{argv[0]};
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                tapas_fatal("option '%s' expects an argument",
                            a.c_str());
            return argv[i];
        };
        if (a == "--bench") {
            bench_filter = next();
        } else if (a == "--strategy") {
            std::string s = next();
            auto parsed = dse::strategyFromName(s);
            if (!parsed) {
                tapas_fatal("--strategy expects 'grid' or "
                            "'halving', got '%s'", s.c_str());
            }
            strategy = *parsed;
        } else if (a == "--rungs") {
            rungs = parseUnsignedFlag(a, next(), 1);
        } else if (a == "--journal") {
            journal_base = next();
        } else if (a == "--resume") {
            journal_base = next();
            do_resume = true;
        } else if (a == "--deadline") {
            deadline_sec = parseRealFlag(a, next());
        } else if (a == "--help" || a == "-h") {
            std::cout << "usage: " << argv[0]
                      << " [--bench saxpy|fib|dedup]"
                         " [--strategy grid|halving] [--rungs N]\n"
                         "       [--journal PATH | --resume PATH] "
                         "[--deadline SEC]\n"
                         "       [--jobs N] [--json PATH]\n";
            return 0;
        } else {
            fwd.push_back(argv[i]);
        }
    }
    BenchOptions opt =
        parseBenchArgs(static_cast<int>(fwd.size()), fwd.data());
    banner("DSE", "design-space exploration with compile-once "
                  "design caching (Cyclone V)");

    std::vector<SpaceEntry> spaces = makeSpaces();
    if (!bench_filter.empty()) {
        bool known = false;
        for (const SpaceEntry &e : spaces)
            known |= bench_filter == e.name;
        if (!known) {
            tapas_fatal("--bench: unknown space '%s' (saxpy, fib, "
                        "dedup)", bench_filter.c_str());
        }
    }

    // One cache across every exploration: identical (module, params,
    // device) compiles — e.g. shared rungs between strategies — are
    // paid for once. explore() reports per-exploration deltas.
    dse::DesignCache cache;

    std::vector<const SpaceEntry *> selected;
    for (const SpaceEntry &e : spaces) {
        if (bench_filter.empty() || bench_filter == e.name)
            selected.push_back(&e);
    }

    const auto t_start = std::chrono::steady_clock::now();
    bool interrupted = false;

    Json doc = experimentJson("dse_explore");
    Json rows = Json::array();
    for (size_t si = 0; si < selected.size(); ++si) {
        const SpaceEntry &e = *selected[si];

        dse::ExploreOptions xopts;
        xopts.device = fpga::Device::cycloneV();
        xopts.jobs = opt.jobs;
        xopts.strategy = strategy;
        xopts.rungs = rungs;
        xopts.cache = &cache;
        xopts.cancel = &processCancelToken();
        if (!journal_base.empty()) {
            xopts.journalPath =
                spaceJournalPath(journal_base, e.name);
            xopts.resume = do_resume;
        }
        if (deadline_sec > 0) {
            // Equal share of the time left for each remaining
            // space; finishing early rolls slack forward.
            const double elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t_start)
                    .count();
            xopts.deadlineSeconds =
                std::max(0.001, deadline_sec - elapsed) /
                static_cast<double>(selected.size() - si);
        }

        std::cout << e.name << ": " << e.space.size()
                  << " configurations, strategy "
                  << dse::strategyName(strategy) << "\n\n";
        dse::ExploreResult xr =
            dse::explore(e.factory, e.space, xopts);
        dse::printReport(xr, std::cout);
        std::cout << "\n";
        rows.push(dse::toJson(xr));
        if (xr.partial) {
            interrupted = true;
            if (xr.interruptReason == "cancelled")
                break; // SIGINT: stop starting new spaces
        }
    }
    doc.set("rows", std::move(rows));
    maybeWriteJson(opt, doc);
    if (interrupted) {
        std::cout << "interrupted: partial results flushed; re-run "
                     "with --resume to finish\n";
        return kExitInterrupted;
    }
    return 0;
}
