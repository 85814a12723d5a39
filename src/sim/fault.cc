#include "sim/fault.hh"

#include <cmath>

namespace tapas::sim {

FaultInjector::FaultInjector(const FaultConfig &config) : cfg(config)
{
    // Each sub-stream's seed is the next draw of a root generator, so
    // the streams are decorrelated and one category's draw count
    // never shifts another's sequence.
    Rng root(config.seed);
    for (Rng &r : streams)
        r.reseed(root.next());
}

uint64_t
FaultInjector::arrival(Stream s, double p, uint64_t from)
{
    if (!(p > 0))
        return kNever;
    if (p >= 1)
        return from;
    // Inversion: with u uniform in (0, 1], floor(ln u / ln(1 - p))
    // failed trials precede the first success.
    const double u = 1.0 - rng(s).real();
    const double gap = std::floor(std::log(u) / std::log1p(-p));
    if (!(gap < 0x1p62))
        return kNever; // beyond any run's horizon
    return from + static_cast<uint64_t>(gap);
}

const char *
failureKindName(SimFailure::Kind kind)
{
    switch (kind) {
      case SimFailure::Kind::None:
        return "none";
      case SimFailure::Kind::Deadlock:
        return "deadlock";
      case SimFailure::Kind::CycleLimit:
        return "cycle_limit";
      case SimFailure::Kind::FaultBudget:
        return "fault_budget";
      case SimFailure::Kind::SpawnFailed:
        return "spawn_failed";
      case SimFailure::Kind::Interrupted:
        return "interrupted";
    }
    return "unknown";
}

} // namespace tapas::sim
