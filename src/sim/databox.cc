#include "sim/databox.hh"

#include "support/logging.hh"

namespace tapas::sim {

DataBox::DataBox(SharedCache &cache, unsigned staging_entries,
                 unsigned issue_width, std::string stat_name)
    : stats(std::move(stat_name)), cache(cache),
      entries(staging_entries), issueWidth(issue_width)
{
    tapas_assert(staging_entries > 0 && issue_width > 0,
                 "data box needs entries and issue width");
}

bool
DataBox::submit(uint64_t addr, bool is_store, uint64_t now,
                unsigned owner, MemTicket &ticket)
{
    for (MemTicket t = 0; t < entries.size(); ++t) {
        Entry &e = entries[t];
        if (e.busy)
            continue;
        e.busy = true;
        e.issued = false;
        e.store = is_store;
        e.owner = owner;
        e.addr = addr;
        e.completesAt = 0;
        issueQueue.push_back(t);
        ++occupied;
        ++submitted;
        ticket = t;
        return true;
    }
    ++fullRejects;
    if (fullRejectCycle != now) {
        fullRejectCycle = now;
        fullRejectsThisCycle = 0;
    }
    ++fullRejectsThisCycle;
    return false;
}

bool
DataBox::poll(MemTicket ticket, uint64_t now)
{
    Entry &e = entries.at(ticket);
    tapas_assert(e.busy, "polling a free ticket");
    if (!e.issued || e.completesAt > now)
        return false;
    e.busy = false;
    --occupied;
    return true;
}

uint64_t
DataBox::lostResponseWake() const
{
    FaultInjector *inj = cache.faultInjector();
    if (!inj)
        return ~0ull;
    uint64_t wake = ~0ull;
    for (const Entry &e : entries) {
        if (e.busy && e.issued && e.completesAt == kLostResponse) {
            wake = std::min(
                wake, e.issuedAt + inj->config().memTimeoutCycles);
        }
    }
    return wake;
}

void
DataBox::tick(uint64_t now)
{
    lastIssued.clear();
    unsigned granted = 0;
    while (granted < issueWidth && !issueQueue.empty()) {
        MemTicket t = issueQueue.front();
        Entry &e = entries.at(t);
        tapas_assert(e.busy && !e.issued, "stale issue-queue entry");
        CacheResult res = cache.request(e.addr, e.store, now);
        if (!res.accepted) {
            ++cacheRetries;
            headRejectCycle = now;
            headRejectMshrFull = res.mshrFull;
            break; // in-order issue: head blocks the tree this cycle
        }
        e.issued = true;
        e.completesAt = res.dropped ? kLostResponse : res.completesAt;
        e.issuedAt = now;
        lastIssued.push_back({e.owner, e.completesAt});
        issueQueue.pop_front();
        ++granted;
    }

    // Lost-response watchdog: a request whose response an injected
    // fault swallowed is timed out and re-presented to the cache,
    // like an AXI master reissuing a transaction that never saw its
    // R/B beat. Only fault runs pay for the scan.
    FaultInjector *inj = cache.faultInjector();
    if (!inj)
        return;
    uint64_t timeout = inj->config().memTimeoutCycles;
    for (MemTicket t = 0; t < entries.size(); ++t) {
        Entry &e = entries[t];
        if (e.busy && e.issued && e.completesAt == kLostResponse &&
            now - e.issuedAt >= timeout) {
            e.issued = false;
            issueQueue.push_back(t);
            ++timeoutReissues;
            cache.noteReissue(now);
        }
    }
}

} // namespace tapas::sim
