#include "base/knob.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "base/parse.hpp"

namespace wavehpc::base {

namespace {

template <typename T>
[[noreturn]] void reject(const char* name, const std::string& value,
                         const char* kind, T min, T max) {
    std::ostringstream os;
    os << name << "='" << value << "' is not " << kind << " in [" << min << ", "
       << max << "]";
    throw std::invalid_argument(os.str());
}

}  // namespace

std::uint64_t env_u64(const char* name, std::uint64_t fallback, std::uint64_t min,
                      std::uint64_t max) {
    const std::string text = env_text(name);
    if (text.empty()) return fallback;
    const auto v = parse_u64(text);
    if (!v || *v < min || *v > max) reject(name, text, "an unsigned integer", min, max);
    return *v;
}

double env_f64(const char* name, double fallback, double min, double max) {
    const std::string text = env_text(name);
    if (text.empty()) return fallback;
    const auto v = parse_f64(text);
    if (!v || *v < min || *v > max) reject(name, text, "a finite number", min, max);
    return *v;
}

std::string env_text(const char* name) {
    const char* raw = std::getenv(name);
    return raw != nullptr ? raw : "";
}

}  // namespace wavehpc::base
