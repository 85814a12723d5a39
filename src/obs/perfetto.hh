/**
 * @file
 * Chrome trace-event (Perfetto) exporter: a TraceSink that turns a
 * simulation into a JSON timeline any `ui.perfetto.dev` /
 * `chrome://tracing` instance can open.
 *
 * Layout of the exported trace:
 *
 *  - one *process* per task unit (named after the static task), with
 *    one *thread* per execution tile plus a "queue" thread;
 *  - duration events ("ph":"X"): "Spawn" on the queue thread covers
 *    a task instance's queue residency (spawn -> first dispatch),
 *    "Dispatch" on the tile thread covers each tile occupancy
 *    (dispatch -> suspend/retire), and "Retire" marks completion;
 *  - flow arrows ("ph":"s"/"f") connect a parent's executing slice to
 *    the child's first dispatch, rendering the spawn tree;
 *  - counter tracks ("ph":"C"): per-unit queue depth and cumulative
 *    spawn rejections, and a "memory" process carrying outstanding
 *    L1 misses plus cumulative misses and stalls.
 *
 * Timestamps are simulated cycles reported as microseconds (1 cycle
 * == 1 us), so the UI's time axis reads directly in cycles.
 */

#ifndef TAPAS_OBS_PERFETTO_HH
#define TAPAS_OBS_PERFETTO_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/critpath.hh"
#include "obs/sink.hh"

namespace tapas::obs {

/** Accumulates simulator events; write() emits trace-event JSON. */
class PerfettoTraceSink : public TraceSink
{
  public:
    void configure(const std::vector<UnitInfo> &units) override;

    void taskSpawn(uint64_t cycle, unsigned sid, unsigned slot,
                   unsigned parent_sid,
                   unsigned parent_slot) override;
    void taskDispatch(uint64_t cycle, unsigned sid, unsigned slot,
                      unsigned tile) override;
    void taskSuspend(uint64_t cycle, unsigned sid,
                     unsigned slot) override;
    void taskRetire(uint64_t cycle, unsigned sid,
                    unsigned slot) override;
    void spawnRejected(uint64_t cycle, unsigned sid, bool queue_full,
                       uint64_t n) override;
    void faultInjected(uint64_t cycle, const char *kind,
                       unsigned sid) override;
    void faultRecovered(uint64_t cycle, const char *kind,
                        unsigned sid) override;
    void runInterrupted(uint64_t cycle,
                        const char *reason) override;
    void checkpointWritten(uint64_t cycle) override;
    void cacheMiss(uint64_t cycle) override;
    void cacheStall(uint64_t cycle, bool mshr_full,
                    uint64_t n) override;
    void queueSample(uint64_t cycle, unsigned sid,
                     unsigned occupancy) override;
    void missSample(uint64_t cycle, unsigned outstanding) override;

    /**
     * Append a "critical path" process whose single track renders
     * the run's critical-path partition (obs/critpath.hh): one slice
     * per segment, named after its class, carrying the owning unit
     * as an arg. Call after the run, before write().
     */
    void addCriticalPathTrack(const std::vector<CritSegment> &segs);

    /** Serialize the accumulated trace as one JSON document. */
    void write(std::ostream &os) const;

    /** write() into a string (tests, in-memory use). */
    std::string dump() const;

    /** Events accumulated so far (tests). */
    size_t numEvents() const { return events.size(); }

  private:
    /** (sid, slot) key for per-instance open-interval tracking. */
    using Key = std::pair<unsigned, unsigned>;

    struct OpenExec
    {
        uint64_t since = 0;
        unsigned tile = 0;
    };

    /** Append one pre-serialized trace-event object. */
    void push(std::string json) { events.push_back(std::move(json)); }

    /** pid of unit `sid` / of the synthetic memory process. */
    unsigned unitPid(unsigned sid) const { return sid + 1; }
    unsigned memoryPid() const
    {
        return static_cast<unsigned>(unitNames.size()) + 1;
    }

    void emitCounter(uint64_t cycle, unsigned pid,
                     const std::string &track, const std::string &key,
                     uint64_t value);

    std::vector<std::string> unitNames;
    std::vector<std::string> events;

    std::map<Key, uint64_t> openSpawn;   ///< spawn -> first dispatch
    std::map<Key, OpenExec> openExec;    ///< dispatch -> suspend/retire
    std::map<Key, uint64_t> pendingFlow; ///< spawn flow ids by child
    uint64_t nextFlowId = 1;

    /** Instant marker for a fault/recovery event. */
    void emitFaultInstant(uint64_t cycle, const char *prefix,
                          const char *kind, unsigned sid);

    uint64_t spawnRejectsTotal = 0;
    std::map<unsigned, uint64_t> spawnRejectsByUnit;
    uint64_t cacheMisses = 0;
    uint64_t cacheStalls = 0;
    uint64_t faultsTotal = 0;
    uint64_t recoveriesTotal = 0;
};

} // namespace tapas::obs

#endif // TAPAS_OBS_PERFETTO_HH
