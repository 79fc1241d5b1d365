#include "runner/run_key.hpp"

#include <cstdio>
#include <sstream>
#include <type_traits>

namespace puno::runner {

std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

/// One token's value: doubles with max_digits10 so distinct values never
/// collapse to one key and equal values always render identically, bools
/// as 0/1, enums by their CLI spelling.
template <typename T>
void render(std::ostream& os, const T& v) {
  if constexpr (std::is_same_v<T, double>) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
  } else if constexpr (std::is_same_v<T, bool>) {
    os << (v ? 1 : 0);
  } else if constexpr (std::is_enum_v<T>) {
    os << to_string(v);
  } else {
    os << std::uint64_t{v};
  }
}

}  // namespace

std::string params_repr(const metrics::ExperimentParams& p) {
  // The five ExperimentParams fields, then every for_each_key field, so a
  // knob is keyed exactly when it can be set. p.trace and p.telemetry are
  // deliberately NOT keyed: both are observational (bit-identical
  // simulation either way), so a traced or sampled run is the same
  // experiment as a plain one. base_config.scheme and .seed are
  // overwritten from the params at run time, and for_each_key does not
  // list them.
  std::ostringstream os;
  os << "workload=" << p.workload << " scheme=" << to_string(p.scheme)
     << " seed=" << p.seed << " scale=";
  render(os, p.scale);
  os << " max_cycles=" << p.max_cycles;
  for_each_key(p.base_config, [&](const char* name, const auto& v) {
    os << ' ' << name << '=';
    render(os, v);
  });
  return os.str();
}

std::string run_key(const metrics::ExperimentParams& params) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "v8-%016llx",
                static_cast<unsigned long long>(fnv1a64(params_repr(params))));
  return buf;
}

}  // namespace puno::runner
