/**
 * @file
 * tapas_bench: the repository benchmark's binary. One process
 * runs one workload on one thread as a closed loop with one client:
 * the next op starts when the previous one returns. It calls only the
 * public toolchain API (ir::parseModuleOrDie / verifyModule /
 * toString / MemImage, driver::compileDesign, AccelSimEngine,
 * workloads::make*) and times each layer from outside, by bracketing
 * its calls into that API with spans.
 *
 *   tapas_bench --workload NAME --seed N --json PATH
 *               [--seconds S] [--trace PATH] [--smoke]
 *
 * A run sets up the workload's cases kSetupReps times (the median is
 * setup_s), runs one untimed warm-up op per op kind, then timed
 * rounds, each a seeded shuffle of every op kind, until --seconds
 * have passed and at least kMinRounds rounds are done (--smoke: one
 * round). --seed sets only the op order; the programs' input data
 * come from the workload library's own fixed generators. Every op is
 * checked: a structured run failure, a golden-model mismatch
 * (Workload::verify) or modeled cycles that differ from the case's
 * pin make it a failed op.
 *
 * With --trace, rounds alternate between recording spans and not
 * (the ratio of the two is trace.overhead), each case then gets one
 * run under RunOptions{explain, profile} so that every workload
 * exercises the obs layer, the per-layer metrics join the JSON, and
 * the spans are written as Chrome trace-event JSON with one track per
 * layer. benchmark/README.md defines every metric.
 *
 * Host times are reported corrected for host speed. Between ops, at
 * most every kSpeedEveryNs, the run times two small kernels that share
 * no code with the repository (measureHostSpeed); each op and span is
 * divided by the host's slowness interpolated at its midpoint. The raw
 * times are reported too.
 *
 * Exit status: 0 when every op passed, 3 when an op failed (the JSON
 * names it), 1 on a usage error.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "driver/engine.hh"
#include "ir/memimage.hh"
#include "ir/parser.hh"
#include "ir/printer.hh"
#include "ir/verifier.hh"
#include "workloads/workload.hh"

#ifndef TAPAS_BENCH_BUILD_TYPE
#define TAPAS_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace tapas;

constexpr unsigned kSetupReps = 11;
constexpr unsigned kMinRounds = 5;
constexpr unsigned kBlocks = 5;

/** tapas-cc allocates this much for every run. */
constexpr uint64_t kTurnaroundImageBytes = 256ull << 20;
constexpr uint64_t kSimImageBytes = 32ull << 20;

[[noreturn]] void
fatal(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

/** Host nanoseconds since the first call, made at process start. */
uint64_t
nowNs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point t0 = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0)
        .count();
}

double
msSince(uint64_t t0)
{
    return static_cast<double>(nowNs() - t0) / 1e6;
}

// --- spans -------------------------------------------------------------

struct Span
{
    const char *name; ///< "<layer>.<what>"; the layer names the track
    int op;           ///< op it belongs to, -1 outside ops
    int parent;       ///< enclosing span, -1 at top level
    uint64_t begin;
    uint64_t end;
};

/** Keeps spans in memory; nothing is written until the run ends. */
class Recorder
{
  public:
    bool on = false;
    int op = -1;
    std::vector<Span> spans;

    int
    open(const char *name)
    {
        if (!on)
            return -1;
        int parent = stack.empty() ? -1 : stack.back();
        spans.push_back({name, op, parent, nowNs(), 0});
        stack.push_back(static_cast<int>(spans.size()) - 1);
        return stack.back();
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        spans[id].end = nowNs();
        stack.pop_back();
    }

  private:
    std::vector<int> stack;
};

/** One span around a scope. */
class Scope
{
  public:
    Scope(Recorder &r, const char *name) : rec(r), id(r.open(name)) {}
    ~Scope() { rec.close(id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Recorder &rec;
    int id;
};

std::string
layerOf(const char *span_name)
{
    std::string s(span_name);
    return s.substr(0, s.find('.'));
}

// --- workloads ---------------------------------------------------------

/** Slow, narrow DRAM behind a tiny cache: long quiet stall spans. */
void
slowDram(arch::AcceleratorParams &p)
{
    p.mem.cacheBytes = 4 * 1024;
    p.mem.dramLatency = 400;
    p.mem.dramWordsPerCycle = 1;
    p.mem.mshrs = 2;
}

struct CaseDef
{
    const char *name;
    const char *kernel; ///< cases of one kernel differ only in tiles
    unsigned tiles;
    uint64_t pinCycles; ///< modeled cycles every run must reproduce
    workloads::Workload (*make)();
    bool slowDram;
};

struct WorkloadDef
{
    const char *name;
    /**
     * An op is the whole tapas-cc path (parse, verify, compile,
     * image, setup, run, verify, free); otherwise it is one
     * simulator run of a design compiled during set-up, with the
     * image staged and checked outside the timer.
     */
    bool turnaround;
    /** Each round also runs every case under explain+profile. */
    bool observed;
    std::vector<CaseDef> cases;
};

const std::vector<WorkloadDef> &
workloadDefs()
{
    using namespace workloads;
    // The turnaround programs are the 7 paper benchmarks at bench
    // scale with their Table IV tile counts (bench/common.hh).
    static const std::vector<WorkloadDef> defs = {
        {"turnaround", true, false,
         {{"matrix_add", "matrix_add", 3, 10097,
           [] { return makeMatrixAdd(48); }, false},
          {"stencil", "stencil", 3, 57751,
           [] { return makeStencil(32, 32, 2); }, false},
          {"saxpy", "saxpy", 5, 23549, [] { return makeSaxpy(8192); },
           false},
          {"image_scale", "image_scale", 4, 37432,
           [] { return makeImageScale(64, 32); }, false},
          {"dedup", "dedup", 3, 13811,
           [] { return makeDedup(64, 512); }, false},
          {"fib", "fib", 4, 5818, [] { return makeFib(15); }, false},
          {"mergesort", "mergesort", 4, 790101,
           [] { return makeMergeSort(4096, 64); }, false}}},
        {"sim_spawn", false, false,
         {{"fib17_t1", "fib17", 1, 29567, [] { return makeFib(17); },
           false},
          {"fib17_t64", "fib17", 64, 29675, [] { return makeFib(17); },
           false},
          {"msort_t1", "msort", 1, 1241159,
           [] { return makeMergeSort(4096, 64); }, false},
          {"msort_t16", "msort", 16, 771434,
           [] { return makeMergeSort(4096, 64); }, false}}},
        {"sim_memory", false, false,
         {{"saxpy_t1", "saxpy", 1, 55820,
           [] { return makeSaxpy(8192); }, false},
          {"saxpy_t64", "saxpy", 64, 23422,
           [] { return makeSaxpy(8192); }, false},
          {"saxpy_dram_t4", "saxpy_dram", 4, 424957,
           [] { return makeSaxpy(8192); }, true},
          {"saxpy_dram_t64", "saxpy_dram", 64, 419939,
           [] { return makeSaxpy(8192); }, true}}},
        {"observed", false, true,
         {{"fib15_t4", "fib15", 4, 5818, [] { return makeFib(15); },
           false},
          {"msort_t4", "msort", 4, 790101,
           [] { return makeMergeSort(4096, 64); }, false},
          {"saxpy_dram_t4", "saxpy_dram", 4, 424957,
           [] { return makeSaxpy(8192); }, true}}},
    };
    return defs;
}

// --- command line --------------------------------------------------------

struct Cli
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 20;
    std::string jsonPath;
    std::string tracePath;
    bool smoke = false;
};

uint64_t
parseSeed(const std::string &text)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        fatal("--seed expects a non-negative integer, got '" + text +
              "'");
    errno = 0;
    unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
    if (errno == ERANGE)
        fatal("--seed '" + text + "' is out of range");
    return v;
}

double
parseSeconds(const std::string &text)
{
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !(v > 0) || v > 3600)
        fatal("--seconds expects a number in (0, 3600], got '" + text +
              "'");
    return v;
}

/** Fail now, not after the run, if `path` cannot be written. */
void
checkWritable(const std::string &flag, const std::string &path)
{
    std::string probe = path + ".probe." + std::to_string(getpid());
    {
        std::ofstream os(probe);
        if (!os)
            fatal("cannot write " + flag + " path '" + path + "'");
    }
    std::remove(probe.c_str());
}

/** Write atomically: a temp file next to `path`, renamed over it. */
void
writeFile(const std::string &path, const std::string &content)
{
    std::string tmp = path + ".tmp." + std::to_string(getpid());
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        os << content;
        os.flush();
        if (!os)
            fatal("cannot write '" + tmp + "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        fatal("cannot rename '" + tmp + "' to '" + path + "'");
    }
}

std::string
workloadNames()
{
    std::string s;
    for (const WorkloadDef &d : workloadDefs())
        s += (s.empty() ? "" : ", ") + std::string(d.name);
    return s;
}

const WorkloadDef &
findWorkload(const std::string &name)
{
    for (const WorkloadDef &d : workloadDefs())
        if (name == d.name)
            return d;
    fatal("unknown workload '" + name + "' (known: " + workloadNames() +
          ")");
}

Cli
parseCli(int argc, char **argv)
{
    const std::string usage =
        "usage: tapas_bench --workload NAME --seed N --json PATH "
        "[--seconds S] [--trace PATH] [--smoke]";
    Cli cli;
    bool seed_given = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                fatal("option '" + a + "' expects an argument");
            return argv[i];
        };
        if (a == "--workload") {
            cli.workload = next();
        } else if (a == "--seed") {
            cli.seed = parseSeed(next());
            seed_given = true;
        } else if (a == "--seconds") {
            cli.seconds = parseSeconds(next());
        } else if (a == "--json") {
            cli.jsonPath = next();
        } else if (a == "--trace") {
            cli.tracePath = next();
        } else if (a == "--smoke") {
            cli.smoke = true;
        } else if (a == "--help" || a == "-h") {
            std::printf("%s\nworkloads: %s\n", usage.c_str(),
                        workloadNames().c_str());
            std::exit(0);
        } else {
            fatal("unknown option '" + a + "'; " + usage);
        }
    }
    if (cli.workload.empty() || !seed_given || cli.jsonPath.empty())
        fatal(usage);
    findWorkload(cli.workload);
    checkWritable("--json", cli.jsonPath);
    if (!cli.tracePath.empty())
        checkWritable("--trace", cli.tracePath);
    return cli;
}

// --- statistics and JSON ---------------------------------------------------

/** Linear-interpolated quantile; 0 for an empty sample. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        unsigned char u = static_cast<unsigned char>(ch);
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (u < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", u);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

/** Every digit of a double; null for NaN and infinities. */
std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

using Fields = std::vector<std::pair<std::string, std::string>>;

std::string
jsonObj(const Fields &fields)
{
    std::string out = "{";
    for (size_t i = 0; i < fields.size(); ++i) {
        out += (i ? ", " : "") + jsonStr(fields[i].first) + ": " +
               fields[i].second;
    }
    return out + "}";
}

using Metrics = std::vector<std::pair<std::string, double>>;

std::string
jsonMetrics(const Metrics &m)
{
    Fields f;
    for (const auto &[name, v] : m)
        f.emplace_back(name, jsonNum(v));
    return jsonObj(f);
}

uint64_t
splitmix64(uint64_t &x)
{
    uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** The seeded op order: a Fisher-Yates shuffle of every round. */
class SeededOrder
{
  public:
    explicit SeededOrder(uint64_t seed) : x(seed) {}

    void
    shuffle(std::vector<unsigned> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[splitmix64(x) % i]);
    }

  private:
    uint64_t x;
};

// --- host speed --------------------------------------------------------------

constexpr unsigned kSpeedKernels = 2;
const char *const kSpeedKernelNames[kSpeedKernels] = {"hash", "dispatch"};

/**
 * Each kernel's typical time on the host the bounds were set on
 * (4-core x86-64 Xeon, GCC 12, Release), so corrected times read
 * as that host's. They only set the scale: changing them would make
 * results before and after incomparable.
 */
constexpr double kSpeedRefMs[kSpeedKernels] = {1.0, 2.0};

/** Measure the host speed at least this often during the run. */
constexpr uint64_t kSpeedEveryNs = 100'000'000;

struct SpeedSample
{
    uint64_t at;     ///< midpoint, nowNs()
    double slowness; ///< geometric mean of kernel time / reference
    double ms[kSpeedKernels];
};

volatile uint64_t speedSink;

/**
 * How slow the host runs right now, from two ~1-2 ms compute-bound
 * kernels that share no code with the repository, so a change to the
 * repository cannot move them: a chain of integer hashes, and a
 * switch-dispatch loop over a fixed random program, the branchy,
 * indirect-jump shape of the simulator's own firing loop.
 *
 * The host's slow episodes flicker on a sub-second scale and last
 * seconds to minutes; during them these kernels and the simulator
 * slow together, by up to ~2x. Kernels dominated by memory traffic
 * (sorting, std::map churn, page zeroing) slowed less and corrected
 * the simulator less well. Short, frequent samples follow the flicker;
 * one long sample a second did not.
 */
SpeedSample
measureHostSpeed()
{
    static const std::vector<uint8_t> program = [] {
        std::vector<uint8_t> p(4096);
        uint64_t y = 11;
        for (uint8_t &op : p)
            op = static_cast<uint8_t>(splitmix64(y) % 6);
        return p;
    }();

    SpeedSample s{};
    uint64_t begin = nowNs();
    uint64_t x = 1;
    uint64_t acc = 0;
    for (int i = 0; i < 1'000'000; ++i)
        acc += splitmix64(x);
    speedSink = acc;
    uint64_t mid = nowNs();
    s.ms[0] = static_cast<double>(mid - begin) / 1e6;

    uint64_t r[4] = {1, 2, 3, 4};
    for (int pass = 0; pass < 60; ++pass) {
        for (uint8_t op : program) {
            switch (op) {
              case 0: r[0] += r[1]; break;
              case 1: r[1] ^= r[2] << 1; break;
              case 2: r[(r[0] & 1) ? 2 : 3] += 3; break;
              case 3: r[3] = r[3] * 3 + 1; break;
              case 4: if (r[1] > r[2]) std::swap(r[1], r[2]); break;
              default: r[0] = (r[0] >> 1) + r[3]; break;
            }
        }
    }
    speedSink = r[0] + r[1] + r[2] + r[3];
    uint64_t end = nowNs();
    s.ms[1] = static_cast<double>(end - mid) / 1e6;

    double log_sum = 0;
    for (unsigned i = 0; i < kSpeedKernels; ++i)
        log_sum += std::log(s.ms[i] / kSpeedRefMs[i]);
    s.slowness = std::exp(log_sum / kSpeedKernels);
    s.at = begin + (end - begin) / 2;
    return s;
}

// --- the benchmark -----------------------------------------------------------

struct Case
{
    const CaseDef *def;
    workloads::Workload w;
    std::string text;              ///< printed module: the .tir file
    driver::CompiledDesign design; ///< compiled at set-up (sim ops)
};

/** One op shape: a case, run plain or under explain+profile. */
struct OpKind
{
    unsigned c;
    bool observe;

    // Modeled counts of its first passing run; later runs repeat them.
    bool seen = false;
    uint64_t cycles = 0;
    uint64_t events = 0;
    uint64_t spawns = 0;
    double hitRate = 0;
};

/**
 * Where an op ran: the warm-up, the timed rounds, or the traced pass's
 * extra explain+profile run of every case (an observed probe).
 */
enum class Phase { Warmup, Timed, ObsProbe };

struct OpRecord
{
    unsigned kind;
    Phase phase;
    int round;
    bool recorded;
    bool failed = false;
    uint64_t begin = 0;
    uint64_t end = 0;
    double opMs = 0;  ///< the end-to-end op time, raw
    double runMs = 0; ///< the simulator run call alone, raw
};

class Bench
{
  public:
    Bench(const WorkloadDef &def, const Cli &cli)
        : def(def), cli(cli), order(cli.seed)
    {
        for (const CaseDef &cd : def.cases)
            cases.push_back(Case{&cd, {}, {}, {}});
        for (unsigned c = 0; c < cases.size(); ++c) {
            for (bool observe : {false, true}) {
                if (!observe || def.observed)
                    roundKinds.push_back(kinds.size());
                if (observe)
                    obsProbeKinds.push_back(kinds.size());
                kinds.push_back(OpKind{c, observe});
            }
        }
    }

    void run();
    unsigned failedOps() const { return failed; }
    std::string resultJson() const;
    std::string traceJson() const;

  private:
    bool traced() const { return !cli.tracePath.empty(); }
    std::string kindName(unsigned k) const;

    void setUp();
    driver::CompiledDesign toolchain(const Case &c, std::string &err);
    void simulate(unsigned k, const driver::CompiledDesign &cd,
                  OpRecord &rec, std::string &err);
    void runOp(unsigned k, Phase phase, int round);
    void sampleSpeed();
    double slownessAt(uint64_t t) const;

    /** A time over [begin, end), corrected or raw. */
    double
    scaled(double ms, uint64_t begin, uint64_t end, bool corrected) const
    {
        return corrected ? ms / slownessAt(begin + (end - begin) / 2)
                         : ms;
    }

    template <typename Keep>
    std::vector<double> medianByKind(Keep keep, double OpRecord::*field,
                                     bool corrected) const;
    template <typename Keep>
    double roundMs(Keep keep, bool corrected) const;
    Metrics endToEnd(bool corrected) const;
    Metrics perLayer() const;
    double blockSpread() const;

    const WorkloadDef &def;
    const Cli &cli;
    SeededOrder order;
    Recorder rec;

    std::vector<Case> cases;
    std::vector<OpKind> kinds;
    std::vector<unsigned> roundKinds;    ///< what one round runs
    std::vector<unsigned> obsProbeKinds; ///< explain+profile kinds

    std::vector<OpRecord> ops;
    std::vector<SpeedSample> speed;
    std::vector<std::pair<uint64_t, uint64_t>> setups; ///< [begin, end)
    /** Toolchain phase timings of recorded compiles, by nowNs(). */
    std::vector<std::pair<uint64_t, driver::CompiledDesign::CompileTimings>>
        compiles;
    uint64_t warmupBegin = 0;
    uint64_t warmupEnd = 0;
    unsigned rounds = 0;
    unsigned attempted = 0;
    unsigned failed = 0;
    std::vector<std::pair<std::string, std::string>> failures;
};

std::string
Bench::kindName(unsigned k) const
{
    std::string n = cases[kinds[k].c].def->name;
    return kinds[k].observe ? n + ".obs" : n;
}

void
Bench::setUp()
{
    Scope s(rec, "harness.setup");
    for (Case &c : cases) {
        {
            Scope m(rec, "workloads.make");
            c.w = c.def->make();
        }
        {
            Scope p(rec, "ir.print");
            c.text = ir::toString(*c.w.module);
        }
        if (!def.turnaround) {
            std::string err;
            c.design = toolchain(c, err);
            if (!c.design.valid())
                fatal(std::string(c.def->name) + ": " + err);
        }
    }
}

/** The tapas-cc front half: parse the text, verify, compile. */
driver::CompiledDesign
Bench::toolchain(const Case &c, std::string &err)
{
    std::unique_ptr<ir::Module> mod;
    {
        Scope s(rec, "ir.parse");
        mod = ir::parseModuleOrDie(c.text);
    }
    {
        Scope s(rec, "ir.verify");
        ir::VerifyResult vr = ir::verifyModule(*mod);
        if (!vr.ok()) {
            err = "IR verification failed: " + vr.str();
            return {};
        }
    }
    hls::CompileOptions copts;
    copts.params = c.w.params;
    if (c.def->slowDram)
        slowDram(copts.params);
    copts.params.setAllTiles(c.def->tiles);
    driver::CompiledDesign cd;
    {
        Scope s(rec, "hls.compile");
        cd = driver::compileDesign(*mod, c.w.top->name(), copts,
                                   fpga::Device::cycloneV());
    }
    if (rec.on)
        compiles.emplace_back(nowNs(), cd.timings);
    return cd;
}

/** Stage a fresh image, run the design, verify, free the image. */
void
Bench::simulate(unsigned k, const driver::CompiledDesign &cd,
                OpRecord &op, std::string &err)
{
    OpKind &kind = kinds[k];
    Case &c = cases[kind.c];

    std::unique_ptr<ir::MemImage> mem;
    std::vector<ir::RtValue> args;
    {
        Scope st(rec, "harness.stage");
        {
            Scope s(rec, "ir.image_alloc");
            mem = std::make_unique<ir::MemImage>(
                def.turnaround ? kTurnaroundImageBytes : kSimImageBytes);
        }
        {
            Scope s(rec, "workloads.setup");
            args = c.w.setup(*mem);
        }
    }

    driver::AccelSimEngine::Options eo;
    eo.design = cd;
    uint64_t events = 0;
    eo.observer = [&events](const hls::AcceleratorDesign &,
                            sim::AcceleratorSim &s) {
        events = s.progressCount();
    };
    driver::AccelSimEngine eng(std::move(eo));
    driver::RunOptions ro;
    ro.explain = kind.observe;
    ro.profile = kind.observe;

    driver::RunResult r;
    uint64_t t0 = nowNs();
    {
        Scope s(rec, kind.observe ? "obs.run" : "sim.run");
        r = eng.run(*c.w.module, *c.w.top, args, *mem, ro);
    }
    op.runMs = msSince(t0);

    std::string wrong;
    {
        Scope s(rec, "workloads.verify");
        if (r.ok())
            wrong = c.w.verify(*mem, r.retval);
    }
    {
        Scope s(rec, "ir.image_free");
        mem.reset();
    }

    if (!r.ok()) {
        err = "run failed (" + r.failure->kind + "): " + r.failure->detail;
    } else if (!wrong.empty()) {
        err = "wrong result: " + wrong;
    } else if (r.cycles != c.def->pinCycles) {
        err = "modeled cycles " + std::to_string(r.cycles) +
              " differ from the pinned " +
              std::to_string(c.def->pinCycles);
    } else if (!kind.seen) {
        kind.seen = true;
        kind.cycles = r.cycles;
        kind.events = events;
        kind.spawns = r.spawns;
        kind.hitRate = r.cacheHitRate;
    } else if (events != kind.events || r.spawns != kind.spawns) {
        err = "events/spawns " + std::to_string(events) + "/" +
              std::to_string(r.spawns) + " differ from the first run's " +
              std::to_string(kind.events) + "/" +
              std::to_string(kind.spawns);
    }
}

void
Bench::runOp(unsigned k, Phase phase, int round)
{
    OpRecord op{k, phase, round, rec.on};
    std::string err;
    rec.op = static_cast<int>(ops.size());
    op.begin = nowNs();
    {
        Scope s(rec, "harness.op");
        driver::CompiledDesign cd =
            def.turnaround ? toolchain(cases[kinds[k].c], err)
                           : cases[kinds[k].c].design;
        if (cd.valid())
            simulate(k, cd, op, err);
    }
    op.end = nowNs();
    rec.op = -1;
    op.opMs = def.turnaround ? static_cast<double>(op.end - op.begin) / 1e6
                             : op.runMs;

    ++attempted;
    if (!err.empty()) {
        op.failed = true;
        ++failed;
        std::pair<std::string, std::string> f(kindName(k), err);
        if (failures.size() < 20 &&
            std::find(failures.begin(), failures.end(), f) == failures.end())
            failures.push_back(std::move(f));
    }
    ops.push_back(op);
    if (nowNs() - speed.back().at >= kSpeedEveryNs)
        sampleSpeed();
}

void
Bench::sampleSpeed()
{
    Scope s(rec, "harness.speed_check");
    speed.push_back(measureHostSpeed());
}

/** Host slowness at `t`, interpolated between the samples around it. */
double
Bench::slownessAt(uint64_t t) const
{
    auto after = std::lower_bound(
        speed.begin(), speed.end(), t,
        [](const SpeedSample &s, uint64_t v) { return s.at < v; });
    if (after == speed.begin())
        return after->slowness;
    if (after == speed.end())
        return speed.back().slowness;
    const SpeedSample &before = *(after - 1);
    double f = static_cast<double>(t - before.at) /
               static_cast<double>(after->at - before.at);
    return before.slowness + f * (after->slowness - before.slowness);
}

void
Bench::run()
{
    sampleSpeed();
    rec.on = traced();
    for (unsigned i = 0; i < kSetupReps; ++i) {
        uint64_t t0 = nowNs();
        setUp();
        setups.emplace_back(t0, nowNs());
    }

    rec.on = false;
    warmupBegin = nowNs();
    for (unsigned k : roundKinds)
        runOp(k, Phase::Warmup, -1);
    warmupEnd = nowNs();
    sampleSpeed();

    // Traced runs alternate recording rounds with plain ones, so they
    // need twice the rounds for the same sample per side.
    unsigned min_rounds = cli.smoke ? 1 : kMinRounds;
    if (traced())
        min_rounds *= 2;
    std::vector<unsigned> shuffled = roundKinds;
    uint64_t t0 = nowNs();
    while (rounds < min_rounds ||
           (!cli.smoke && msSince(t0) < cli.seconds * 1e3)) {
        order.shuffle(shuffled);
        rec.on = traced() && rounds % 2 == 0;
        for (unsigned k : shuffled)
            runOp(k, Phase::Timed, static_cast<int>(rounds));
        ++rounds;
    }
    rec.on = false;
    sampleSpeed();

    if (traced()) {
        rec.on = true;
        for (unsigned k : obsProbeKinds)
            runOp(k, Phase::ObsProbe, -1);
        sampleSpeed();
        rec.on = false;
    }
}

/** Per op kind: the median of `field` over the ops `keep` selects. */
template <typename Keep>
std::vector<double>
Bench::medianByKind(Keep keep, double OpRecord::*field,
                    bool corrected) const
{
    std::vector<std::vector<double>> samples(kinds.size());
    for (const OpRecord &op : ops) {
        if (!op.failed && keep(op)) {
            samples[op.kind].push_back(
                scaled(op.*field, op.begin, op.end, corrected));
        }
    }
    std::vector<double> med(kinds.size(), NAN);
    for (size_t k = 0; k < kinds.size(); ++k)
        if (!samples[k].empty())
            med[k] = median(samples[k]);
    return med;
}

/** The time one pass over every op kind takes: Σ per-kind medians. */
template <typename Keep>
double
Bench::roundMs(Keep keep, bool corrected) const
{
    std::vector<double> med = medianByKind(keep, &OpRecord::opMs, corrected);
    double sum = 0;
    for (unsigned k : roundKinds)
        sum += med[k];
    return sum;
}

/** round_ms over kBlocks runs of consecutive rounds: (max-min)/median. */
double
Bench::blockSpread() const
{
    unsigned blocks = std::min(kBlocks, rounds);
    if (blocks < 2)
        return 0;
    std::vector<double> per_block;
    for (unsigned b = 0; b < blocks; ++b) {
        int lo = static_cast<int>(b * rounds / blocks);
        int hi = static_cast<int>((b + 1) * rounds / blocks);
        per_block.push_back(roundMs(
            [&](const OpRecord &op) {
                return op.phase == Phase::Timed && op.round >= lo &&
                       op.round < hi;
            },
            true));
    }
    double lo = *std::min_element(per_block.begin(), per_block.end());
    double hi = *std::max_element(per_block.begin(), per_block.end());
    return (hi - lo) / median(per_block);
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

Metrics
Bench::endToEnd(bool corrected) const
{
    auto plain = [](const OpRecord &op) {
        return op.phase == Phase::Timed && !op.recorded;
    };
    std::vector<double> op_ms;
    for (const OpRecord &op : ops)
        if (!op.failed && plain(op))
            op_ms.push_back(scaled(op.opMs, op.begin, op.end, corrected));

    std::vector<double> setup_s;
    for (const auto &[b, e] : setups) {
        setup_s.push_back(
            scaled(static_cast<double>(e - b) / 1e9, b, e, corrected));
    }

    // Simulated cycles per host second. On `observed` only the runs
    // under explain+profile count: their cost is what it measures.
    std::vector<double> run_med =
        medianByKind(plain, &OpRecord::runMs, corrected);
    double cycles = 0;
    double run_ms = 0;
    for (unsigned k : roundKinds) {
        if (def.observed && !kinds[k].observe)
            continue;
        cycles += static_cast<double>(kinds[k].cycles);
        run_ms += run_med[k];
    }

    return {
        {"setup_s", median(setup_s)},
        {"round_ms", roundMs(plain, corrected)},
        {"op_ms_p90", quantile(op_ms, 0.9)},
        {"sim_khz", cycles / run_ms},
        {"peak_rss_mb", peakRssMb()},
    };
}

Metrics
Bench::perLayer() const
{
    // Each span's self time is its duration minus the part its direct
    // children cover; times are then corrected at the span's midpoint.
    std::vector<double> child_ms(rec.spans.size(), 0);
    for (const Span &s : rec.spans) {
        if (s.parent >= 0)
            child_ms[s.parent] += static_cast<double>(s.end - s.begin) / 1e6;
    }
    std::map<std::string, std::vector<double>> dur;
    std::map<std::string, double> layer_ms;
    std::vector<double> op_self;
    double op_total = 0;
    for (size_t i = 0; i < rec.spans.size(); ++i) {
        const Span &s = rec.spans[i];
        double ms = static_cast<double>(s.end - s.begin) / 1e6;
        dur[s.name].push_back(scaled(ms, s.begin, s.end, true));
        // Layer shares of the summed time of recorded, timed ops.
        if (s.op < 0 || ops[s.op].phase != Phase::Timed)
            continue;
        double self = ms - child_ms[i];
        layer_ms[layerOf(s.name)] += self;
        if (std::string(s.name) == "harness.op") {
            op_total += ms;
            op_self.push_back(scaled(self, s.begin, s.end, true));
        }
    }
    auto p50 = [&](const char *name) {
        auto it = dur.find(name);
        return it == dur.end() ? 0.0 : median(it->second);
    };
    auto share = [&](const char *layer) {
        return op_total > 0 ? 100.0 * layer_ms[layer] / op_total : 0.0;
    };

    using T = driver::CompiledDesign::CompileTimings;
    auto compile_p50 = [&](double T::*field) {
        std::vector<double> v;
        for (const auto &[at, t] : compiles)
            v.push_back(t.*field * 1e3 / slownessAt(at));
        return median(v);
    };

    // Simulator and observer cost per case, from recorded runs: the
    // plain runs of the timed rounds against the explain+profile runs
    // (timed on `observed`, the observed probes elsewhere).
    auto recorded = [](const OpRecord &op) {
        return op.recorded && op.phase != Phase::Warmup;
    };
    std::vector<double> run_med =
        medianByKind(recorded, &OpRecord::runMs, true);
    double sim_ms = 0, obs_ms = 0, cycles = 0, events = 0, obs_events = 0;
    double spawns = 0, hit_rate = 0;
    for (size_t k = 0; k < kinds.size(); ++k) {
        const OpKind &kind = kinds[k];
        if (kind.observe) {
            obs_ms += run_med[k];
            obs_events += static_cast<double>(kind.events);
        } else {
            sim_ms += run_med[k];
            cycles += static_cast<double>(kind.cycles);
            events += static_cast<double>(kind.events);
            spawns += static_cast<double>(kind.spawns);
            hit_rate += kind.hitRate / static_cast<double>(cases.size());
        }
    }

    double traced_round = roundMs(
        [](const OpRecord &op) {
            return op.phase == Phase::Timed && op.recorded;
        },
        true);
    double plain_round = roundMs(
        [](const OpRecord &op) {
            return op.phase == Phase::Timed && !op.recorded;
        },
        true);

    std::vector<double> slowness;
    for (const SpeedSample &s : speed)
        slowness.push_back(s.slowness);

    return {
        {"workloads.make_ms", p50("workloads.make")},
        {"ir.print_ms", p50("ir.print")},
        {"ir.parse_ms", p50("ir.parse")},
        {"ir.verify_ms", p50("ir.verify")},
        {"hls.compile_ms", p50("hls.compile")},
        {"hls.parse_ms", compile_p50(&T::parseSec)},
        {"hls.codegen_ms", compile_p50(&T::codegenSec)},
        {"hls.lower_ms", compile_p50(&T::lowerSec)},
        {"ir.image_alloc_ms", p50("ir.image_alloc")},
        {"workloads.setup_ms", p50("workloads.setup")},
        {"harness.stage_ms", p50("harness.stage")},
        {"sim.run_ms", p50("sim.run")},
        {"obs.run_ms", p50("obs.run")},
        {"workloads.verify_ms", p50("workloads.verify")},
        {"ir.image_free_ms", p50("ir.image_free")},
        {"harness.self_ms", median(op_self)},
        {"harness.warmup_ms",
         scaled(static_cast<double>(warmupEnd - warmupBegin) / 1e6,
                warmupBegin, warmupEnd, true)},
        {"ir.share", share("ir")},
        {"hls.share", share("hls")},
        {"workloads.share", share("workloads")},
        {"sim.share", share("sim")},
        {"obs.share", share("obs")},
        {"harness.share", share("harness")},
        {"model.cycles", cycles},
        {"model.spawns", spawns},
        {"model.cache_hit_rate", hit_rate},
        {"sim.events", events},
        {"sim.ns_per_event", sim_ms * 1e6 / events},
        {"sim.ns_per_cycle", sim_ms * 1e6 / cycles},
        {"obs.slowdown", obs_ms / sim_ms},
        {"obs.ns_per_event", obs_ms * 1e6 / obs_events},
        {"noise.block_spread", blockSpread()},
        {"noise.host_slowness", median(slowness)},
        {"trace.overhead", traced_round / plain_round},
    };
}

std::string
Bench::resultJson() const
{
    auto timed = [](const OpRecord &op) { return op.phase == Phase::Timed; };
    auto obs_runs = [](const OpRecord &op) {
        return op.phase != Phase::Warmup;
    };
    std::vector<double> op_med = medianByKind(timed, &OpRecord::opMs, true);
    std::vector<double> run_med =
        medianByKind(obs_runs, &OpRecord::runMs, true);
    std::vector<double> run_raw =
        medianByKind(obs_runs, &OpRecord::runMs, false);
    std::vector<unsigned> n(kinds.size(), 0);
    for (const OpRecord &op : ops)
        if (!op.failed && op.phase == Phase::Timed)
            ++n[op.kind];

    Fields n_per_case;
    for (unsigned k : roundKinds)
        n_per_case.emplace_back(kindName(k), std::to_string(n[k]));

    // Per case: the plain kind's counts and medians, plus the
    // explain+profile kind's where one ran.
    Fields per_case;
    std::map<std::string, std::map<unsigned, double>> ns_per_event;
    for (unsigned k = 0; k < kinds.size(); k += 2) {
        const OpKind &plain = kinds[k];
        const CaseDef &cd = *cases[plain.c].def;
        double npe = run_med[k] * 1e6 / static_cast<double>(plain.events);
        if (plain.seen)
            ns_per_event[cd.kernel][cd.tiles] = npe;
        Fields f = {
            {"tiles", std::to_string(cd.tiles)},
            {"pin_cycles", std::to_string(cd.pinCycles)},
            {"cycles", std::to_string(plain.cycles)},
            {"events", std::to_string(plain.events)},
            {"spawns", std::to_string(plain.spawns)},
            {"cache_hit_rate", jsonNum(plain.hitRate)},
            {"n", std::to_string(n[k])},
            {"op_ms_p50", jsonNum(op_med[k])},
            {"run_ms_p50", jsonNum(run_med[k])},
            {"run_ms_p50_raw", jsonNum(run_raw[k])},
            {"ns_per_event", jsonNum(npe)},
            {"ns_per_cycle",
             jsonNum(run_med[k] * 1e6 / static_cast<double>(plain.cycles))},
        };
        if (kinds[k + 1].seen) {
            f.emplace_back("obs_run_ms_p50", jsonNum(run_med[k + 1]));
            f.emplace_back("obs_slowdown",
                           jsonNum(run_med[k + 1] / run_med[k]));
            f.emplace_back("obs_ns_per_event",
                           jsonNum(run_med[k + 1] * 1e6 /
                                   static_cast<double>(kinds[k + 1].events)));
        }
        per_case.emplace_back(cd.name, jsonObj(f));
    }

    // ns/event at the highest tile count over that at the lowest.
    Fields cost_ratio;
    for (const auto &[kernel, by_tiles] : ns_per_event) {
        if (by_tiles.size() >= 2) {
            cost_ratio.emplace_back(
                kernel, jsonNum(by_tiles.rbegin()->second /
                                by_tiles.begin()->second));
        }
    }

    // The host-speed samples: slowness quartiles, kernel medians.
    std::vector<double> slowness;
    std::vector<std::vector<double>> kernel_ms(kSpeedKernels);
    for (const SpeedSample &s : speed) {
        slowness.push_back(s.slowness);
        for (unsigned i = 0; i < kSpeedKernels; ++i)
            kernel_ms[i].push_back(s.ms[i]);
    }
    Fields kernels;
    for (unsigned i = 0; i < kSpeedKernels; ++i)
        kernels.emplace_back(kSpeedKernelNames[i], jsonNum(median(kernel_ms[i])));
    std::string host_speed = jsonObj({
        {"samples", std::to_string(speed.size())},
        {"slowness_p25", jsonNum(quantile(slowness, 0.25))},
        {"slowness_p50", jsonNum(quantile(slowness, 0.5))},
        {"slowness_p75", jsonNum(quantile(slowness, 0.75))},
        {"kernel_ms_p50", jsonObj(kernels)},
    });

    std::string fail_list = "[";
    for (size_t i = 0; i < failures.size(); ++i) {
        fail_list += (i ? ", " : "") +
                     jsonObj({{"case", jsonStr(failures[i].first)},
                              {"reason", jsonStr(failures[i].second)}});
    }
    fail_list += "]";

    Fields doc = {
        {"workload", jsonStr(def.name)},
        {"seed", std::to_string(cli.seed)},
        {"seconds", jsonNum(cli.seconds)},
        {"smoke", cli.smoke ? "true" : "false"},
        {"traced", traced() ? "true" : "false"},
        {"build_type", jsonStr(TAPAS_BENCH_BUILD_TYPE)},
        {"rounds", std::to_string(rounds)},
        {"n_per_case", jsonObj(n_per_case)},
        {"attempted", std::to_string(attempted)},
        {"failed", std::to_string(failed)},
        {"failures", fail_list},
        {"e2e", jsonMetrics(endToEnd(true))},
        {"e2e_raw", jsonMetrics(endToEnd(false))},
        {"noise.block_spread", jsonNum(blockSpread())},
        {"host_speed", host_speed},
        {"cases", jsonObj(per_case)},
        {"event_cost_ratio", jsonObj(cost_ratio)},
    };
    if (traced())
        doc.emplace_back("per_layer", jsonMetrics(perLayer()));
    return jsonObj(doc) + "\n";
}

/** Chrome trace-event JSON: complete ("X") events, a track per layer. */
std::string
Bench::traceJson() const
{
    static const char *const layers[] = {"harness", "ir", "hls",
                                         "workloads", "sim", "obs"};
    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
          "\"args\":{\"name\":"
       << jsonStr(std::string("tapas_bench ") + def.name) << "}}";
    std::map<std::string, int> tid;
    for (const char *layer : layers) {
        int t = static_cast<int>(tid.size()) + 1;
        tid[layer] = t;
        os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
              "\"tid\":"
           << t << ",\"args\":{\"name\":" << jsonStr(layer) << "}}";
    }
    for (size_t i = 0; i < rec.spans.size(); ++i) {
        const Span &s = rec.spans[i];
        os << ",\n{\"name\":" << jsonStr(s.name)
           << ",\"cat\":" << jsonStr(layerOf(s.name))
           << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid[layerOf(s.name)]
           << ",\"ts\":" << jsonNum(static_cast<double>(s.begin) / 1e3)
           << ",\"dur\":"
           << jsonNum(static_cast<double>(s.end - s.begin) / 1e3)
           << ",\"args\":{\"id\":" << i << ",\"op\":" << s.op
           << ",\"parent\":" << s.parent << "}}";
    }
    os << "\n]}\n";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    nowNs(); // anchor the span clock at process start
    Cli cli = parseCli(argc, argv);
    Bench bench(findWorkload(cli.workload), cli);
    bench.run();
    writeFile(cli.jsonPath, bench.resultJson());
    if (!cli.tracePath.empty())
        writeFile(cli.tracePath, bench.traceJson());
    std::printf("tapas_bench %s: %u ops failed; wrote %s\n",
                cli.workload.c_str(), bench.failedOps(),
                cli.jsonPath.c_str());
    return bench.failedOps() ? 3 : 0;
}
