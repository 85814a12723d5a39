#include "obs/perfetto.hh"

#include <ostream>
#include <sstream>

#include "support/logging.hh"

namespace tapas::obs {

namespace {

/** Escape a string for embedding in a JSON literal. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strfmt("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

unsigned long long
ull(uint64_t v)
{
    return static_cast<unsigned long long>(v);
}

} // namespace

void
PerfettoTraceSink::configure(const std::vector<UnitInfo> &units)
{
    unitNames.clear();
    for (const UnitInfo &u : units)
        unitNames.push_back(u.name);

    for (unsigned sid = 0; sid < units.size(); ++sid) {
        unsigned pid = unitPid(sid);
        push(strfmt("{\"name\":\"process_name\",\"ph\":\"M\","
                    "\"pid\":%u,\"tid\":0,\"args\":{\"name\":"
                    "\"unit %s\"}}",
                    pid, jsonEscape(units[sid].name).c_str()));
        push(strfmt("{\"name\":\"thread_name\",\"ph\":\"M\","
                    "\"pid\":%u,\"tid\":0,\"args\":{\"name\":"
                    "\"queue\"}}",
                    pid));
        for (unsigned t = 0; t < units[sid].tiles; ++t) {
            push(strfmt("{\"name\":\"thread_name\",\"ph\":\"M\","
                        "\"pid\":%u,\"tid\":%u,\"args\":{\"name\":"
                        "\"tile %u\"}}",
                        pid, t + 1, t));
        }
    }
    push(strfmt("{\"name\":\"process_name\",\"ph\":\"M\","
                "\"pid\":%u,\"tid\":0,\"args\":{\"name\":"
                "\"memory\"}}",
                memoryPid()));
}

void
PerfettoTraceSink::taskSpawn(uint64_t cycle, unsigned sid,
                             unsigned slot, unsigned parent_sid,
                             unsigned parent_slot)
{
    openSpawn[Key{sid, slot}] = cycle;

    // Flow arrow from the parent's executing slice to the child's
    // first dispatch (the root instance has no parent).
    auto it = openExec.find(Key{parent_sid, parent_slot});
    if (parent_sid != ~0u && it != openExec.end()) {
        uint64_t id = nextFlowId++;
        push(strfmt("{\"name\":\"spawn\",\"cat\":\"spawn\","
                    "\"ph\":\"s\",\"id\":%llu,\"ts\":%llu,"
                    "\"pid\":%u,\"tid\":%u}",
                    ull(id), ull(cycle), unitPid(parent_sid),
                    it->second.tile + 1));
        pendingFlow[Key{sid, slot}] = id;
    }
}

void
PerfettoTraceSink::taskDispatch(uint64_t cycle, unsigned sid,
                                unsigned slot, unsigned tile)
{
    Key key{sid, slot};

    // Queue-residency slice: spawn -> first dispatch.
    auto sp = openSpawn.find(key);
    if (sp != openSpawn.end()) {
        push(strfmt("{\"name\":\"Spawn\",\"ph\":\"X\",\"ts\":%llu,"
                    "\"dur\":%llu,\"pid\":%u,\"tid\":0,"
                    "\"args\":{\"slot\":%u}}",
                    ull(sp->second), ull(cycle - sp->second),
                    unitPid(sid), slot));
        openSpawn.erase(sp);
    }

    auto fl = pendingFlow.find(key);
    if (fl != pendingFlow.end()) {
        push(strfmt("{\"name\":\"spawn\",\"cat\":\"spawn\","
                    "\"ph\":\"f\",\"bp\":\"e\",\"id\":%llu,"
                    "\"ts\":%llu,\"pid\":%u,\"tid\":%u}",
                    ull(fl->second), ull(cycle), unitPid(sid),
                    tile + 1));
        pendingFlow.erase(fl);
    }

    openExec[key] = OpenExec{cycle, tile};
}

void
PerfettoTraceSink::taskSuspend(uint64_t cycle, unsigned sid,
                               unsigned slot)
{
    auto it = openExec.find(Key{sid, slot});
    if (it == openExec.end())
        return;
    push(strfmt("{\"name\":\"Dispatch\",\"ph\":\"X\",\"ts\":%llu,"
                "\"dur\":%llu,\"pid\":%u,\"tid\":%u,"
                "\"args\":{\"slot\":%u}}",
                ull(it->second.since),
                ull(cycle - it->second.since), unitPid(sid),
                it->second.tile + 1, slot));
    openExec.erase(it);
}

void
PerfettoTraceSink::taskRetire(uint64_t cycle, unsigned sid,
                              unsigned slot)
{
    unsigned tid = 0;
    auto it = openExec.find(Key{sid, slot});
    if (it != openExec.end()) {
        tid = it->second.tile + 1;
        push(strfmt("{\"name\":\"Dispatch\",\"ph\":\"X\","
                    "\"ts\":%llu,\"dur\":%llu,\"pid\":%u,"
                    "\"tid\":%u,\"args\":{\"slot\":%u}}",
                    ull(it->second.since),
                    ull(cycle - it->second.since), unitPid(sid), tid,
                    slot));
        openExec.erase(it);
    }
    push(strfmt("{\"name\":\"Retire\",\"ph\":\"X\",\"ts\":%llu,"
                "\"dur\":1,\"pid\":%u,\"tid\":%u,"
                "\"args\":{\"slot\":%u}}",
                ull(cycle), unitPid(sid), tid, slot));
}

void
PerfettoTraceSink::spawnRejected(uint64_t /*cycle*/, unsigned sid,
                                 bool /*queue_full*/, uint64_t n)
{
    // Individual rejects would dwarf the trace (they recur every
    // retry cycle); they surface as a cumulative counter at the next
    // queue sample instead.
    spawnRejectsTotal += n;
    spawnRejectsByUnit[sid] += n;
}

void
PerfettoTraceSink::emitFaultInstant(uint64_t cycle,
                                    const char *prefix,
                                    const char *kind, unsigned sid)
{
    unsigned pid = sid == ~0u ? memoryPid() : unitPid(sid);
    push(strfmt("{\"name\":\"%s:%s\",\"cat\":\"fault\","
                "\"ph\":\"i\",\"s\":\"p\",\"ts\":%llu,"
                "\"pid\":%u,\"tid\":0}",
                prefix, jsonEscape(kind).c_str(), ull(cycle), pid));
}

void
PerfettoTraceSink::faultInjected(uint64_t cycle, const char *kind,
                                 unsigned sid)
{
    ++faultsTotal;
    emitFaultInstant(cycle, "fault", kind, sid);
}

void
PerfettoTraceSink::faultRecovered(uint64_t cycle, const char *kind,
                                  unsigned sid)
{
    ++recoveriesTotal;
    emitFaultInstant(cycle, "recover", kind, sid);
}

void
PerfettoTraceSink::runInterrupted(uint64_t cycle,
                                  const char *reason)
{
    // Global-scope instant: the whole run stopped here.
    push(strfmt("{\"name\":\"interrupted:%s\","
                "\"cat\":\"lifecycle\",\"ph\":\"i\",\"s\":\"g\","
                "\"ts\":%llu,\"pid\":%u,\"tid\":0}",
                jsonEscape(reason).c_str(), ull(cycle),
                memoryPid()));
}

void
PerfettoTraceSink::checkpointWritten(uint64_t cycle)
{
    push(strfmt("{\"name\":\"checkpoint\",\"cat\":\"lifecycle\","
                "\"ph\":\"i\",\"s\":\"g\",\"ts\":%llu,"
                "\"pid\":%u,\"tid\":0}",
                ull(cycle), memoryPid()));
}

void
PerfettoTraceSink::cacheMiss(uint64_t /*cycle*/)
{
    ++cacheMisses;
}

void
PerfettoTraceSink::cacheStall(uint64_t /*cycle*/, bool /*mshr_full*/,
                              uint64_t n)
{
    cacheStalls += n;
}

void
PerfettoTraceSink::emitCounter(uint64_t cycle, unsigned pid,
                               const std::string &track,
                               const std::string &key, uint64_t value)
{
    push(strfmt("{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%llu,"
                "\"pid\":%u,\"args\":{\"%s\":%llu}}",
                jsonEscape(track).c_str(), ull(cycle), pid,
                jsonEscape(key).c_str(), ull(value)));
}

void
PerfettoTraceSink::queueSample(uint64_t cycle, unsigned sid,
                               unsigned occupancy)
{
    emitCounter(cycle, unitPid(sid), "queue depth", "tasks",
                occupancy);
    emitCounter(cycle, unitPid(sid), "spawn rejects", "total",
                spawnRejectsByUnit[sid]);
}

void
PerfettoTraceSink::missSample(uint64_t cycle, unsigned outstanding)
{
    emitCounter(cycle, memoryPid(), "outstanding misses", "mshrs",
                outstanding);
    emitCounter(cycle, memoryPid(), "cache misses", "total",
                cacheMisses);
    emitCounter(cycle, memoryPid(), "cache stalls", "total",
                cacheStalls);
}

void
PerfettoTraceSink::addCriticalPathTrack(
    const std::vector<CritSegment> &segs)
{
    unsigned pid = memoryPid() + 1;
    push(strfmt("{\"name\":\"process_name\",\"ph\":\"M\","
                "\"pid\":%u,\"tid\":0,\"args\":{\"name\":"
                "\"critical path\"}}",
                pid));
    push(strfmt("{\"name\":\"thread_name\",\"ph\":\"M\","
                "\"pid\":%u,\"tid\":0,\"args\":{\"name\":"
                "\"bottleneck\"}}",
                pid));
    for (const CritSegment &s : segs) {
        const char *unit = s.sid < unitNames.size()
                               ? unitNames[s.sid].c_str()
                               : "?";
        push(strfmt("{\"name\":\"%s\",\"cat\":\"critpath\","
                    "\"ph\":\"X\",\"ts\":%llu,\"dur\":%llu,"
                    "\"pid\":%u,\"tid\":0,"
                    "\"args\":{\"unit\":\"%s\"}}",
                    segClassName(s.cls), ull(s.begin),
                    ull(s.length()), pid,
                    jsonEscape(unit).c_str()));
    }
}

void
PerfettoTraceSink::write(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (size_t i = 0; i < events.size(); ++i) {
        os << events[i];
        if (i + 1 < events.size())
            os << ',';
        os << '\n';
    }
    os << "]}\n";
}

std::string
PerfettoTraceSink::dump() const
{
    std::ostringstream os;
    write(os);
    return os.str();
}

} // namespace tapas::obs
