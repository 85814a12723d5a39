#include "support/flags.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "support/logging.hh"

namespace tapas {

uint64_t
parseUintFlag(const std::string &flag, const std::string &text,
              uint64_t lo, uint64_t hi)
{
    // Digits only: strtoull itself would skip blanks and negate '-'.
    const bool hex = text.size() > 2 && text[0] == '0' &&
                     (text[1] == 'x' || text[1] == 'X');
    const char *digits = text.c_str() + (hex ? 2 : 0);
    char *end = nullptr;
    errno = 0;
    uint64_t v = std::isxdigit(static_cast<unsigned char>(*digits))
                     ? std::strtoull(digits, &end, hex ? 16 : 10)
                     : 0;
    if (!end || *end || errno == ERANGE || v < lo || v > hi)
        tapas_fatal("%s expects an integer in [%llu, %llu], got '%s'",
                    flag.c_str(), (unsigned long long)lo,
                    (unsigned long long)hi, text.c_str());
    return v;
}

double
parseRealFlag(const std::string &flag, const std::string &text,
              double lo, double hi)
{
    char *end = nullptr;
    double v = NAN;
    if (!text.empty() && !std::isspace(static_cast<unsigned char>(text[0])))
        v = std::strtod(text.c_str(), &end);
    if (!end || *end || !std::isfinite(v) || v < lo || v > hi)
        tapas_fatal("%s expects a finite number in [%g, %g], got '%s'",
                    flag.c_str(), lo, hi, text.c_str());
    return v;
}

} // namespace tapas
