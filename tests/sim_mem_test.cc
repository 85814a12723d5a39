/**
 * @file
 * Unit tests for the memory-system timing models: shared cache
 * (hits, misses, MSHRs, ports, writebacks, DRAM serialization) and
 * the per-tile data box.
 */

#include <gtest/gtest.h>

#include "sim/databox.hh"

using namespace tapas;
using namespace tapas::sim;

namespace {

arch::MemSystemParams
smallParams()
{
    arch::MemSystemParams p;
    p.cacheBytes = 1024;
    p.lineBytes = 32;
    p.ways = 2;
    p.hitLatency = 2;
    p.dramLatency = 40;
    p.mshrs = 2;
    p.portsPerCycle = 2;
    p.dramWordsPerCycle = 2;
    return p;
}

} // namespace

TEST(SharedCacheTest, MissThenHit)
{
    SharedCache c(smallParams());
    c.beginCycle(0);
    CacheResult r1 = c.request(0x1000, false, 0);
    ASSERT_TRUE(r1.accepted);
    EXPECT_FALSE(r1.hit);
    EXPECT_GE(r1.completesAt, 40u); // at least the DRAM latency

    // Same line later: hit with short latency.
    uint64_t later = r1.completesAt + 1;
    c.beginCycle(later);
    CacheResult r2 = c.request(0x1008, false, later);
    ASSERT_TRUE(r2.accepted);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(r2.completesAt, later + 2);

    EXPECT_EQ(c.hits.value(), 1u);
    EXPECT_EQ(c.misses.value(), 1u);
}

TEST(SharedCacheTest, HitBeforeFillWaitsForFill)
{
    SharedCache c(smallParams());
    c.beginCycle(0);
    CacheResult miss = c.request(0x1000, false, 0);
    ASSERT_TRUE(miss.accepted);

    // Access to the same line in the next cycle merges with the
    // in-flight fill rather than completing at hit latency.
    c.beginCycle(1);
    CacheResult merge = c.request(0x1010, false, 1);
    ASSERT_TRUE(merge.accepted);
    EXPECT_GE(merge.completesAt, miss.completesAt);
}

TEST(SharedCacheTest, PortLimit)
{
    arch::MemSystemParams p = smallParams();
    p.mshrs = 4; // keep an MSHR free: the reject below is port-only
    SharedCache c(p);
    c.beginCycle(0);
    EXPECT_TRUE(c.request(0x1000, false, 0).accepted);
    EXPECT_TRUE(c.request(0x2000, false, 0).accepted);
    // Third request in the same cycle: no port.
    CacheResult r = c.request(0x3000, false, 0);
    EXPECT_FALSE(r.accepted);
    EXPECT_FALSE(r.mshrFull);
    EXPECT_EQ(c.portRejects.value(), 1u);

    c.beginCycle(1);
    // Ports replenish each cycle.
    EXPECT_TRUE(c.request(0x3000, false, 1).accepted);
}

/**
 * When a would-be-new-miss faces both exhausted MSHRs and exhausted
 * ports, the reject is classified MSHR-full: that reject provably
 * repeats every cycle until an MSHR retires (the stall-span witness
 * the idle-skip and the event scheduler's per-tile sleep rely on),
 * whereas port availability depends on unrelated same-cycle traffic.
 * Acceptance is unaffected — both hazards reject.
 */
TEST(SharedCacheTest, MshrFullClassifiedBeforePortContention)
{
    SharedCache c(smallParams()); // 2 MSHRs, 2 ports
    c.beginCycle(0);
    EXPECT_TRUE(c.request(0x1000, false, 0).accepted);
    EXPECT_TRUE(c.request(0x2000, false, 0).accepted);
    // Both MSHRs busy AND both ports consumed: MSHR-full wins.
    CacheResult r = c.request(0x3000, false, 0);
    EXPECT_FALSE(r.accepted);
    EXPECT_TRUE(r.mshrFull);
    EXPECT_EQ(c.mshrRejects.value(), 1u);
    EXPECT_EQ(c.portRejects.value(), 0u);

    c.beginCycle(1);
    // Ports replenish, MSHRs still busy: same classification.
    CacheResult r2 = c.request(0x3000, false, 1);
    EXPECT_FALSE(r2.accepted);
    EXPECT_TRUE(r2.mshrFull);
    EXPECT_EQ(c.mshrRejects.value(), 2u);
}

TEST(SharedCacheTest, MshrsRetire)
{
    SharedCache c(smallParams());
    c.beginCycle(0);
    CacheResult r1 = c.request(0x1000, false, 0);
    CacheResult r2 = c.request(0x2000, false, 0);
    ASSERT_TRUE(r1.accepted && r2.accepted);

    uint64_t later = std::max(r1.completesAt, r2.completesAt) + 1;
    c.beginCycle(later);
    EXPECT_TRUE(c.request(0x3000, false, later).accepted);
}

TEST(SharedCacheTest, DramSerializesFills)
{
    SharedCache c(smallParams());
    c.beginCycle(0);
    CacheResult r1 = c.request(0x1000, false, 0);
    CacheResult r2 = c.request(0x2000, false, 0);
    ASSERT_TRUE(r1.accepted && r2.accepted);
    // The second fill starts only after the first line transfer.
    EXPECT_GT(r2.completesAt, r1.completesAt);
}

TEST(SharedCacheTest, DirtyEvictionWritesBack)
{
    arch::MemSystemParams p = smallParams();
    p.ways = 1;
    p.cacheBytes = 64; // 2 lines, direct mapped
    SharedCache c(p);

    c.beginCycle(0);
    CacheResult st = c.request(0x1000, true, 0);
    ASSERT_TRUE(st.accepted);

    uint64_t t = st.completesAt + 1;
    c.beginCycle(t);
    // Conflicting line in the same set (line size 32, 2 sets).
    ASSERT_TRUE(c.request(0x1000 + 64, false, t).accepted);
    EXPECT_EQ(c.writebacks.value(), 1u);
}

TEST(SharedCacheTest, LruVictimSelection)
{
    arch::MemSystemParams p = smallParams();
    p.cacheBytes = 128; // 4 lines, 2 ways -> 2 sets
    SharedCache c(p);

    // Fill both ways of set 0: lines 0 and 2 (set = line % 2).
    c.beginCycle(0);
    auto a = c.request(0x0000 + 0x1000, false, 0);
    (void)a;
    c.beginCycle(1);
    auto b = c.request(0x0040 + 0x1000, false, 1);
    uint64_t t = b.completesAt + 10;

    // Touch the first line so the second becomes LRU.
    c.beginCycle(t);
    ASSERT_TRUE(c.request(0x0000 + 0x1000, false, t).hit);

    // A new line in set 0 must evict the LRU (the second line);
    // the first line must still hit afterwards.
    c.beginCycle(t + 1);
    auto evict = c.request(0x0080 + 0x1000, false, t + 1);
    ASSERT_TRUE(evict.accepted);
    uint64_t t2 = evict.completesAt + 1;
    c.beginCycle(t2);
    EXPECT_TRUE(c.request(0x0000 + 0x1000, false, t2).hit);
}

TEST(SharedCacheTest, ResetClearsState)
{
    SharedCache c(smallParams());
    c.beginCycle(0);
    auto r = c.request(0x1000, false, 0);
    c.reset();
    c.beginCycle(r.completesAt + 5);
    // After reset the same line misses again.
    CacheResult r2 = c.request(0x1000, false, r.completesAt + 5);
    ASSERT_TRUE(r2.accepted);
    EXPECT_FALSE(r2.hit);
}

TEST(SharedCacheTest, ScratchpadModeFixedLatency)
{
    arch::MemSystemParams p = smallParams();
    p.useScratchpad = true;
    p.scratchpadLatency = 2;
    SharedCache c(p);
    c.beginCycle(0);
    CacheResult r1 = c.request(0x1000, false, 0);
    ASSERT_TRUE(r1.accepted);
    EXPECT_TRUE(r1.hit);
    EXPECT_EQ(r1.completesAt, 2u);
    // Any address, any time: same fixed latency, never a miss.
    CacheResult r2 = c.request(0xabcdef0, true, 0);
    ASSERT_TRUE(r2.accepted);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(c.misses.value(), 0u);
    // Port limit still applies.
    EXPECT_FALSE(c.request(0x2000, false, 0).accepted);
}

TEST(DataBoxTest, TicketLifecycle)
{
    SharedCache c(smallParams());
    DataBox box(c, 4, 1, "box.test");

    c.beginCycle(0);
    MemTicket t;
    ASSERT_TRUE(box.submit(0x1000, false, 0, 0, t));
    EXPECT_EQ(box.occupancy(), 1u);
    EXPECT_FALSE(box.poll(t, 0)); // not yet issued

    box.tick(0); // issues into the cache
    EXPECT_FALSE(box.poll(t, 1)); // miss latency pending

    // Far in the future the response must have arrived.
    EXPECT_TRUE(box.poll(t, 1000));
    EXPECT_EQ(box.occupancy(), 0u);
}

TEST(DataBoxTest, StagingFullBackpressure)
{
    SharedCache c(smallParams());
    DataBox box(c, 2, 1, "box.test");
    c.beginCycle(0);
    MemTicket a;
    MemTicket b;
    MemTicket d;
    EXPECT_TRUE(box.submit(0x1000, false, 0, 0, a));
    EXPECT_TRUE(box.submit(0x2000, false, 0, 0, b));
    EXPECT_FALSE(box.submit(0x3000, false, 0, 0, d));
    EXPECT_EQ(box.fullRejects.value(), 1u);
}

TEST(DataBoxTest, IssueWidthOnePerCycle)
{
    SharedCache c(smallParams());
    DataBox box(c, 4, 1, "box.test");
    c.beginCycle(0);
    MemTicket a;
    MemTicket b;
    ASSERT_TRUE(box.submit(0x1000, false, 0, /*owner=*/3, a));
    ASSERT_TRUE(box.submit(0x1008, false, 0, /*owner=*/5, b));
    box.tick(0);
    // Only the first was issued; second still queued. Each tick
    // reports what it issued, for whom, and when it completes.
    EXPECT_EQ(c.accesses.value(), 1u);
    ASSERT_EQ(box.issued().size(), 1u);
    EXPECT_EQ(box.issued()[0].owner, 3u);
    EXPECT_EQ(box.issued()[0].completesAt, box.completesAt(a));
    c.beginCycle(1);
    box.tick(1);
    EXPECT_EQ(c.accesses.value(), 2u);
    ASSERT_EQ(box.issued().size(), 1u);
    EXPECT_EQ(box.issued()[0].owner, 5u);
    EXPECT_EQ(box.issued()[0].completesAt, box.completesAt(b));
    c.beginCycle(2);
    box.tick(2);
    EXPECT_TRUE(box.issued().empty());
}

TEST(DataBoxTest, HeadOfLineBlocksOnCacheReject)
{
    arch::MemSystemParams p = smallParams();
    p.mshrs = 1;
    SharedCache c(p);
    DataBox box(c, 4, 2, "box.test");
    c.beginCycle(0);
    MemTicket a;
    MemTicket b;
    ASSERT_TRUE(box.submit(0x1000, false, 0, 0, a));
    ASSERT_TRUE(box.submit(0x2000, false, 0, 0, b));
    box.tick(0);
    // First miss takes the only MSHR; second stalls (in-order tree).
    EXPECT_EQ(c.accesses.value(), 1u);
    EXPECT_GE(box.cacheRetries.value(), 1u);
}
