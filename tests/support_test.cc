/**
 * @file
 * Unit tests for the support layer: formatting, stats, RNG, tables,
 * command-line number parsing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "support/flags.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/stats.hh"
#include "support/table.hh"

using namespace tapas;

TEST(StrFmtTest, Formats)
{
    EXPECT_EQ(strfmt("x=%d y=%s", 42, "hi"), "x=42 y=hi");
    EXPECT_EQ(strfmt("%.2f", 3.14159), "3.14");
    EXPECT_EQ(strfmt("empty"), "empty");
    // Long strings exceed any small static buffer.
    std::string big(5000, 'a');
    EXPECT_EQ(strfmt("%s", big.c_str()).size(), 5000u);
}

TEST(LoggingTest, PanicAborts)
{
    EXPECT_DEATH(tapas_panic("boom %d", 7), "boom 7");
}

TEST(LoggingTest, FatalExitsWithOne)
{
    EXPECT_EXIT(tapas_fatal("bad config %s", "x"),
                ::testing::ExitedWithCode(1), "bad config x");
}

TEST(FlagsTest, AcceptsWholeNumbersInRange)
{
    EXPECT_EQ(parseUintFlag("--n", "42"), 42u);
    EXPECT_EQ(parseUintFlag("--n", "0x7a7a5"), 0x7a7a5u);
    EXPECT_EQ(parseUintFlag("--n", "18446744073709551615"), UINT64_MAX);
    EXPECT_EQ(parseUnsignedFlag("--n", "4294967295"), UINT_MAX);
    EXPECT_DOUBLE_EQ(parseRealFlag("--r", "1e-3", 0, 1), 1e-3);
    EXPECT_DOUBLE_EQ(parseRealFlag("--r", "1", 0, 1), 1.0);
    EXPECT_DOUBLE_EQ(parseRealFlag("--r", "2.5"), 2.5);
}

TEST(FlagsTest, RejectsEverythingElse)
{
    for (const char *bad : {"", " 1", "+1", "-1", "1x", "0x", "0x1g",
                            "18446744073709551616"}) {
        EXPECT_EXIT(parseUintFlag("--n", bad),
                    ::testing::ExitedWithCode(1), "--n expects an integer")
            << "'" << bad << "'";
    }
    EXPECT_EXIT(parseUnsignedFlag("--n", "4294967296"),
                ::testing::ExitedWithCode(1), "--n expects an integer");
    EXPECT_EXIT(parseUnsignedFlag("--n", "0", 1),
                ::testing::ExitedWithCode(1), "in \\[1, 4294967295\\]");
    for (const char *bad : {"", " 0.5", "nan", "inf", "2", "-0.1", "0.5x"}) {
        EXPECT_EXIT(parseRealFlag("--r", bad, 0, 1),
                    ::testing::ExitedWithCode(1),
                    "--r expects a finite number")
            << "'" << bad << "'";
    }
}

TEST(LoggingTest, AssertMessage)
{
    int x = 3;
    EXPECT_DEATH(tapas_assert(x == 4, "x was %d", x),
                 "assertion 'x == 4' failed: x was 3");
}

TEST(StatsTest, CountersAndScalars)
{
    StatGroup g("unit");
    Counter c(g, "events", "things that happened");
    Scalar s(g, "rate", "things per cycle");
    ++c;
    c += 9;
    s = 2.5;
    EXPECT_EQ(g.counterValue("events"), 10u);
    EXPECT_DOUBLE_EQ(g.scalarValue("rate"), 2.5);

    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("unit.events 10 # things that happened"),
              std::string::npos);
    EXPECT_NE(os.str().find("unit.rate 2.5"), std::string::npos);

    g.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(StatsTest, UnknownStatPanics)
{
    StatGroup g("unit");
    EXPECT_DEATH(g.counterValue("nope"), "no counter named");
}

TEST(StatsTest, DuplicateNameIsFatal)
{
    StatGroup g("dupes");
    Counter c(g, "events", "first registration");
    EXPECT_EXIT(Scalar(g, "events", "same name, other kind"),
                ::testing::ExitedWithCode(1),
                "duplicate stat 'events' in group 'dupes'");
    EXPECT_EXIT(Counter(g, "events", "same name, same kind"),
                ::testing::ExitedWithCode(1),
                "duplicate stat 'events' in group 'dupes'");
}

TEST(StatsTest, HistogramBasics)
{
    StatGroup g("h");
    Histogram h(g, "life", "lifetimes", 4);
    h.sample(0);
    h.sample(1);
    h.sample(2);
    h.sample(3);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), 1.5);
    EXPECT_EQ(h.bucketSize(), 1u);
    for (uint64_t b : h.buckets())
        EXPECT_EQ(b, 1u);
}

TEST(StatsTest, HistogramFoldsToCoverAnyRange)
{
    StatGroup g("h");
    Histogram h(g, "life", "lifetimes", 4);
    for (uint64_t v = 0; v < 4; ++v)
        h.sample(v);
    // 9 needs buckets [0,16): one fold (size 2) is not enough, so
    // the size doubles twice.
    h.sample(9);
    EXPECT_EQ(h.bucketSize(), 4u);
    EXPECT_EQ(h.buckets()[0], 4u); // 0..3 folded together
    EXPECT_EQ(h.buckets()[2], 1u); // 9 in [8,12)
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.max(), 9u);
    // No sample is lost by folding.
    uint64_t in_buckets = 0;
    for (uint64_t b : h.buckets())
        in_buckets += b;
    EXPECT_EQ(in_buckets, h.count());

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.bucketSize(), 1u);
}

TEST(StatsTest, DistributionMoments)
{
    StatGroup g("d");
    Distribution d(g, "lat", "latencies");
    EXPECT_DOUBLE_EQ(d.stdev(), 0.0); // empty
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 8u);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.stdev(), 2.0); // the classic textbook set
}

TEST(StatsTest, HistogramAndDistributionFlatten)
{
    StatGroup g("grp");
    Histogram h(g, "hist", "a histogram", 2);
    Distribution d(g, "dist", "a distribution");
    h.sample(1);
    d.sample(3.0);

    std::map<std::string, double> out;
    g.appendTo(out);
    EXPECT_DOUBLE_EQ(out.at("grp.hist.count"), 1.0);
    EXPECT_DOUBLE_EQ(out.at("grp.hist.mean"), 1.0);
    EXPECT_DOUBLE_EQ(out.at("grp.hist.bucket_size"), 1.0);
    EXPECT_DOUBLE_EQ(out.at("grp.hist.bkt1"), 1.0);
    EXPECT_DOUBLE_EQ(out.at("grp.dist.count"), 1.0);
    EXPECT_DOUBLE_EQ(out.at("grp.dist.mean"), 3.0);
    EXPECT_DOUBLE_EQ(out.at("grp.dist.stdev"), 0.0);

    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("grp.hist.count 1"), std::string::npos);
    EXPECT_NE(os.str().find("grp.dist 3"), std::string::npos);
}

TEST(RngTest, DeterministicAcrossInstances)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, SeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    unsigned same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2u);
}

TEST(RngTest, RangesRespected)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        int64_t v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        double d = r.real();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
        EXPECT_LT(r.below(17), 17u);
    }
}

TEST(RngTest, ChanceIsRoughlyCalibrated)
{
    Rng r(99);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.25);
    EXPECT_NEAR(hits, 2500, 250);
}

TEST(TextTableTest, AlignsColumns)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"a", "1"});
    t.row({"longer_name", "222"});
    t.separator();
    t.row({"z", "3"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();

    // Header, divider, three rows, separator line.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 6);
    // Columns align: "1" and "222" start at the same offset.
    size_t line_a = out.find("a ");
    size_t col1 = out.find('1', line_a) - out.rfind('\n', line_a);
    size_t line_b = out.find("longer_name");
    size_t col2 = out.find("222", line_b) - out.rfind('\n', line_b);
    EXPECT_EQ(col1, col2);
}
