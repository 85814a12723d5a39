/**
 * @file
 * Unit tests for the flat memory image.
 */

#include <sys/resource.h>

#include <new>
#include <type_traits>
#include <utility>

#include <gtest/gtest.h>

#include "ir/memimage.hh"

using namespace tapas::ir;

TEST(MemImageTest, AllocAlignment)
{
    MemImage mem(1 << 20);
    uint64_t a = mem.alloc(10, 8);
    uint64_t b = mem.alloc(1, 64);
    uint64_t c = mem.alloc(8, 8);
    EXPECT_EQ(a % 8, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 10);
    EXPECT_GE(c, b + 1);
}

TEST(MemImageTest, IntRoundTrip)
{
    MemImage mem(1 << 20);
    uint64_t p = mem.alloc(64);
    mem.storeInt(p, 4, -123456);
    EXPECT_EQ(mem.loadInt(p, 4), -123456);
    mem.storeInt(p, 1, -1);
    EXPECT_EQ(mem.loadInt(p, 1), -1);
    mem.storeInt(p, 2, 40000); // wraps to negative as i16
    EXPECT_EQ(mem.loadInt(p, 2), 40000 - 65536);
    mem.storeInt(p, 8, INT64_MIN);
    EXPECT_EQ(mem.loadInt(p, 8), INT64_MIN);
}

TEST(MemImageTest, FloatRoundTrip)
{
    MemImage mem(1 << 20);
    uint64_t p = mem.alloc(64);
    mem.storeF64(p, 3.14159);
    EXPECT_DOUBLE_EQ(mem.loadF64(p), 3.14159);
    mem.storeF32(p + 8, 2.5f);
    EXPECT_FLOAT_EQ(mem.loadF32(p + 8), 2.5f);
}

TEST(MemImageTest, TypedHelpers)
{
    MemImage mem(1 << 20);
    uint64_t p = mem.alloc(64);
    mem.put<int32_t>(p, 77);
    EXPECT_EQ(mem.get<int32_t>(p), 77);
    mem.put<double>(p + 8, 1.25);
    EXPECT_DOUBLE_EQ(mem.get<double>(p + 8), 1.25);
}

TEST(MemImageTest, LittleEndianLayout)
{
    MemImage mem(1 << 20);
    uint64_t p = mem.alloc(8);
    mem.storeInt(p, 4, 0x04030201);
    EXPECT_EQ(mem.loadInt(p, 1), 0x01);
    EXPECT_EQ(mem.loadInt(p + 1, 1), 0x02);
    EXPECT_EQ(mem.loadInt(p + 3, 1), 0x04);
}

TEST(MemImageTest, GlobalLayout)
{
    Module mod;
    GlobalVar *a = mod.addGlobal("A", 100);
    GlobalVar *b = mod.addGlobal("B", 200);
    MemImage mem(1 << 20);
    mem.layout(mod);
    uint64_t pa = mem.addressOf(a);
    uint64_t pb = mem.addressOf(b);
    EXPECT_GE(pa, MemImage::kBase);
    EXPECT_GE(pb, pa + 100);
    EXPECT_EQ(pa % 64, 0u);
    EXPECT_EQ(pb % 64, 0u);
}

TEST(MemImageTest, UnlaidGlobalDies)
{
    Module mod;
    GlobalVar *a = mod.addGlobal("A", 100);
    MemImage mem(1 << 20);
    EXPECT_DEATH(mem.addressOf(a), "no address");
}

TEST(MemImageTest, OutOfBoundsDies)
{
    MemImage mem(1 << 16);
    EXPECT_DEATH(mem.loadInt(0, 4), "out of bounds"); // null page
    EXPECT_DEATH(mem.loadInt((1 << 16) - 2, 4), "out of bounds");
    EXPECT_DEATH(mem.storeInt(100, 8, 1), "out of bounds");
}

// An access whose end wraps past 2^64 must not pass as in bounds.
TEST(MemImageTest, WrappedAccessDies)
{
    MemImage mem(1 << 16);
    EXPECT_DEATH(mem.loadInt(UINT64_MAX - 3, 8), "out of bounds");
    EXPECT_DEATH(mem.storeInt(UINT64_MAX - 3, 8, 1), "out of bounds");
    uint8_t buf[16];
    EXPECT_DEATH(mem.read(MemImage::kBase, buf, UINT64_MAX), "out of bounds");
}

TEST(MemImageTest, ExhaustionDies)
{
    MemImage mem(1 << 16);
    EXPECT_DEATH(mem.alloc(1 << 20), "exhausted");
    EXPECT_DEATH(mem.alloc(UINT64_MAX - 8), "exhausted");
    EXPECT_DEATH(mem.alloc(8, uint64_t{1} << 63), "exhausted");
}

static_assert(!std::is_copy_constructible_v<MemImage>);
static_assert(!std::is_copy_assignable_v<MemImage>);
static_assert(std::is_nothrow_move_constructible_v<MemImage>);

TEST(MemImageTest, MoveTransfersContents)
{
    Module mod;
    GlobalVar *g = mod.addGlobal("G", 64);
    MemImage a(1 << 20);
    a.layout(mod);
    uint64_t pg = a.addressOf(g);
    uint64_t p = a.alloc(64);
    a.put<int64_t>(p, 1234);
    uint64_t bump = a.bumpPtr();

    MemImage b(std::move(a));
    EXPECT_EQ(a.sizeBytes(), 0u);
    EXPECT_EQ(b.sizeBytes(), uint64_t{1} << 20);
    EXPECT_EQ(b.get<int64_t>(p), 1234);
    EXPECT_EQ(b.bumpPtr(), bump);
    EXPECT_EQ(b.addressOf(g), pg);

    MemImage c(1 << 16);
    c = std::move(b);
    EXPECT_EQ(b.sizeBytes(), 0u);
    EXPECT_EQ(c.get<int64_t>(p), 1234);
    EXPECT_EQ(c.bumpPtr(), bump);
    EXPECT_DEATH(b.loadInt(p, 8), "out of bounds");
}

TEST(MemImageTest, MapFailureThrowsBadAlloc)
{
    EXPECT_THROW(MemImage(uint64_t{1} << 62), std::bad_alloc);
}

static long
maxRssKiB()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss; // KiB on Linux
}

// Pages are committed on first touch, so a large image that the
// program barely uses costs almost no resident memory.
TEST(MemImageTest, UntouchedPagesCostNothing)
{
    long before = maxRssKiB();
    {
        const uint64_t size = uint64_t{1} << 30;
        MemImage mem(size);
        EXPECT_EQ(mem.loadInt(MemImage::kBase, 1), 0);
        EXPECT_EQ(mem.loadInt(size - 1, 1), 0);
        mem.storeInt(size - 4096, 1, 0x5a);
        EXPECT_EQ(mem.loadInt(size - 4096, 1), 0x5a);
    }
    EXPECT_LT(maxRssKiB() - before, 16 * 1024);
}

TEST(MemImageTest, BumpPointerSaveRestore)
{
    MemImage mem(1 << 20);
    uint64_t before = mem.bumpPtr();
    uint64_t p = mem.alloc(1024);
    mem.put<int64_t>(p, -7);
    EXPECT_GT(mem.bumpPtr(), before);
    mem.setBumpPtr(before);
    EXPECT_EQ(mem.bumpPtr(), before);
    // Next alloc reuses the space, and the old contents stay.
    uint64_t again = mem.alloc(16);
    EXPECT_LT(again, before + 1024);
    EXPECT_EQ(mem.get<int64_t>(p), -7);
}
