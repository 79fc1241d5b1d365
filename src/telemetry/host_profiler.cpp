#include "telemetry/host_profiler.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "sim/jsonio.hpp"

namespace puno::telemetry {

void HostProfiler::ensure(std::vector<Bucket>& v, std::size_t idx) {
  if (idx >= v.size()) v.resize(idx + 1);
}

void HostProfiler::declare_tickable(std::size_t idx, const char* name) {
  ensure(tickables_, idx);
  tickables_[idx].name = name;
}

void HostProfiler::declare_hook(std::size_t idx, const char* name) {
  ensure(hooks_, idx);
  hooks_[idx].name = name;
}

void HostProfiler::tickable_cost(std::size_t idx, std::uint64_t ticks) {
  ensure(tickables_, idx);
  tickables_[idx].calls += 1;
  tickables_[idx].ticks += ticks;
}

void HostProfiler::hook_cost(std::size_t idx, std::uint64_t ticks) {
  ensure(hooks_, idx);
  hooks_[idx].calls += 1;
  hooks_[idx].ticks += ticks;
}

void HostProfiler::event_cost(std::uint64_t events, std::uint64_t ticks) {
  events_.calls += events;
  events_.ticks += ticks;
}

std::uint64_t HostProfiler::total_ticks() const noexcept {
  std::uint64_t total = events_.ticks;
  for (const Bucket& b : tickables_) total += b.ticks;
  for (const Bucket& b : hooks_) total += b.ticks;
  return total;
}

void HostProfiler::write_report(std::ostream& out) const {
  std::vector<Bucket> rows;
  rows.reserve(tickables_.size() + hooks_.size() + 1);
  for (const Bucket& b : tickables_) {
    if (b.calls > 0) rows.push_back(b);
  }
  if (events_.calls > 0) rows.push_back(events_);
  for (const Bucket& b : hooks_) {
    if (b.calls > 0) rows.push_back(b);
  }
  std::sort(rows.begin(), rows.end(), [](const Bucket& a, const Bucket& b) {
    return a.ticks != b.ticks ? a.ticks > b.ticks : a.name < b.name;
  });

  const double total =
      static_cast<double>(std::max<std::uint64_t>(1, total_ticks()));
  const double tps = sim::host_ticks_per_second();
  char line[160];
  std::snprintf(line, sizeof line, "host-time breakdown (%.6f s measured)\n",
                static_cast<double>(total_ticks()) / tps);
  out << line;
  std::snprintf(line, sizeof line, "  %-24s %12s %12s %8s\n", "component",
                "calls", "seconds", "share");
  out << line;
  for (const Bucket& b : rows) {
    std::snprintf(line, sizeof line, "  %-24s %12llu %12.6f %7.2f%%\n",
                  b.name.empty() ? "(unnamed)" : b.name.c_str(),
                  static_cast<unsigned long long>(b.calls),
                  static_cast<double>(b.ticks) / tps,
                  100.0 * static_cast<double>(b.ticks) / total);
    out << line;
  }
}

void HostProfiler::write_json(std::ostream& out) const {
  out << "{\"components\":[";
  bool first = true;
  const auto emit = [&](const Bucket& b) {
    if (b.calls == 0) return;
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << sim::jsonio::escape(b.name)
        << "\",\"calls\":" << b.calls << ",\"ticks\":" << b.ticks << '}';
  };
  for (const Bucket& b : tickables_) emit(b);
  emit(events_);
  for (const Bucket& b : hooks_) emit(b);
  out << "],\"total_ticks\":" << total_ticks()
      << ",\"ticks_per_second\":";
  sim::jsonio::write_value(out, sim::host_ticks_per_second());
  out << "}\n";
}

}  // namespace puno::telemetry
