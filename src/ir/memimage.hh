/**
 * @file
 * MemImage: a flat byte-addressable memory image shared by every
 * execution engine. Globals from a Module are laid out at fixed base
 * addresses; a bump region provides stack/heap space for allocas and
 * workload inputs. This models the shared-DRAM address space through
 * which the ARM host and the TAPAS accelerator communicate (paper
 * Section III: "all communication between the ARM and the accelerator
 * occurs through shared memory").
 *
 * The bytes live in an anonymous private mapping (memimage.cc): the
 * kernel supplies a zero page on first touch, so an image costs time
 * and memory in proportion to the pages a program touches, not to its
 * size.
 */

#ifndef TAPAS_IR_MEMIMAGE_HH
#define TAPAS_IR_MEMIMAGE_HH

#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "ir/function.hh"
#include "support/logging.hh"

namespace tapas::ir {

/**
 * Flat little-endian memory image with bounds checking. Move-only: a
 * move hands the mapping over and leaves the source empty (size 0).
 */
class MemImage
{
  public:
    /** Address 0 is kept unmapped so null dereferences trap. */
    static constexpr uint64_t kBase = 0x1000;

    /** Throws std::bad_alloc when the mapping cannot be made. */
    explicit MemImage(uint64_t size_bytes = 64ull << 20)
        : bytes(map(size_bytes)), nbytes(size_bytes), bump(kBase)
    {}

    ~MemImage() { unmap(); }

    MemImage(const MemImage &) = delete;
    MemImage &operator=(const MemImage &) = delete;

    MemImage(MemImage &&o) noexcept : MemImage(0) { *this = std::move(o); }

    MemImage &
    operator=(MemImage &&o) noexcept
    {
        if (this != &o) {
            unmap();
            bytes = std::exchange(o.bytes, nullptr);
            nbytes = std::exchange(o.nbytes, 0);
            bump = std::exchange(o.bump, kBase);
            globalBase = std::move(o.globalBase);
            o.globalBase.clear();
        }
        return *this;
    }

    uint64_t sizeBytes() const { return nbytes; }

    /**
     * Assign a base address to every global in `mod`.
     * May be called once per module.
     */
    void
    layout(const Module &mod)
    {
        for (const auto &g : mod.globals()) {
            uint64_t addr = alloc(g->sizeBytes(), 64);
            globalBase[g.get()] = addr;
        }
    }

    /** Base address previously assigned to a global. */
    uint64_t
    addressOf(const GlobalVar *g) const
    {
        auto it = globalBase.find(g);
        tapas_assert(it != globalBase.end(),
                     "global '%s' has no address (layout() not run?)",
                     g->name().c_str());
        return it->second;
    }

    /** Bump-allocate a fresh region; `align` is a power of two. */
    uint64_t
    alloc(uint64_t size, uint64_t align = 8)
    {
        // Compared as room left above the bump pointer, so a huge
        // size or alignment cannot wrap past the end of the image.
        uint64_t pad = -bump & (align - 1);
        tapas_assert(bump <= nbytes && pad <= nbytes - bump &&
                         size <= nbytes - bump - pad,
                     "memory image exhausted (%llu bytes)",
                     static_cast<unsigned long long>(nbytes));
        uint64_t addr = bump + pad;
        bump = addr + size;
        return addr;
    }

    /** Current bump pointer (used to save/restore stack frames). */
    uint64_t bumpPtr() const { return bump; }

    /** Reset the bump pointer (frees everything above `to`). */
    void
    setBumpPtr(uint64_t to)
    {
        tapas_assert(to >= kBase && to <= nbytes,
                     "bad bump pointer");
        bump = to;
    }

    /** Load `size` bytes as a sign-extended integer. */
    int64_t
    loadInt(uint64_t addr, unsigned size) const
    {
        check(addr, size);
        uint64_t u = 0;
        std::memcpy(&u, bytes + addr, size);
        if (size < 8) {
            uint64_t sign = uint64_t{1} << (size * 8 - 1);
            if (u & sign)
                u |= ~((uint64_t{1} << (size * 8)) - 1);
        }
        return static_cast<int64_t>(u);
    }

    /** Store the low `size` bytes of an integer. */
    void
    storeInt(uint64_t addr, unsigned size, int64_t value)
    {
        check(addr, size);
        std::memcpy(bytes + addr, &value, size);
    }

    double
    loadF64(uint64_t addr) const
    {
        check(addr, 8);
        double d;
        std::memcpy(&d, bytes + addr, 8);
        return d;
    }

    void
    storeF64(uint64_t addr, double v)
    {
        check(addr, 8);
        std::memcpy(bytes + addr, &v, 8);
    }

    float
    loadF32(uint64_t addr) const
    {
        check(addr, 4);
        float f;
        std::memcpy(&f, bytes + addr, 4);
        return f;
    }

    void
    storeF32(uint64_t addr, float v)
    {
        check(addr, 4);
        std::memcpy(bytes + addr, &v, 4);
    }

    /** Raw byte access for workload setup/verification. */
    void
    write(uint64_t addr, const void *src, uint64_t n)
    {
        check(addr, n);
        std::memcpy(bytes + addr, src, n);
    }

    void
    read(uint64_t addr, void *dst, uint64_t n) const
    {
        check(addr, n);
        std::memcpy(dst, bytes + addr, n);
    }

    /** Typed helpers for workload code. */
    template <typename T>
    T
    get(uint64_t addr) const
    {
        T v;
        read(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    put(uint64_t addr, T v)
    {
        write(addr, &v, sizeof(T));
    }

  private:
    /** A fresh zero-filled mapping of `n` bytes, or null when `n` is
     *  0; throws std::bad_alloc when the kernel refuses it. */
    static uint8_t *map(uint64_t n);
    void unmap();

    /** Subtracts rather than forming `addr + n`, which could wrap
     *  past 2^64 to a small, in-bounds value. */
    void
    check(uint64_t addr, uint64_t n) const
    {
        tapas_assert(n <= nbytes && addr >= kBase && addr <= nbytes - n,
                     "memory access [0x%llx, +%llu) out of bounds",
                     static_cast<unsigned long long>(addr),
                     static_cast<unsigned long long>(n));
    }

    uint8_t *bytes;
    uint64_t nbytes;
    uint64_t bump;
    std::unordered_map<const GlobalVar *, uint64_t> globalBase;
};

} // namespace tapas::ir

#endif // TAPAS_IR_MEMIMAGE_HH
