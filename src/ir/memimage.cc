/**
 * @file
 * MemImage storage: one anonymous private mapping per image.
 */

#include "ir/memimage.hh"

#include <sys/mman.h>

#include <new>

namespace tapas::ir {

uint8_t *
MemImage::map(uint64_t n)
{
    if (n == 0)
        return nullptr;
    void *p = mmap(nullptr, n, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return static_cast<uint8_t *>(p);
}

void
MemImage::unmap()
{
    if (bytes)
        munmap(bytes, nbytes);
}

} // namespace tapas::ir
