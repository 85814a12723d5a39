/**
 * @file
 * Strict parsers for numeric command-line flag values, shared by
 * tapas-cc and the benches. The whole string must be a number in
 * [lo, hi], else fatal() names the flag: no sign wraps, no trailing
 * text, no overflow, no NaN or infinity.
 */

#ifndef TAPAS_SUPPORT_FLAGS_HH
#define TAPAS_SUPPORT_FLAGS_HH

#include <climits>
#include <cstdint>
#include <limits>
#include <string>

namespace tapas {

/** A decimal or 0x-hexadecimal integer. */
uint64_t parseUintFlag(const std::string &flag, const std::string &text,
                       uint64_t lo = 0, uint64_t hi = UINT64_MAX);

/** parseUintFlag() over the range of `unsigned` (counts, sizes). */
inline unsigned
parseUnsignedFlag(const std::string &flag, const std::string &text,
                  unsigned lo = 0)
{
    return static_cast<unsigned>(parseUintFlag(flag, text, lo, UINT_MAX));
}

/** A finite real (seconds, rates). */
double parseRealFlag(const std::string &flag, const std::string &text,
                     double lo = 0,
                     double hi = std::numeric_limits<double>::infinity());

} // namespace tapas

#endif // TAPAS_SUPPORT_FLAGS_HH
