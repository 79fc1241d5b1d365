#include "profiler.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <ostream>

namespace punobench {

namespace {

[[nodiscard]] std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void write_phase(std::ostream& out, const char* key, const PhaseStats& p,
                 double tps) {
  const auto ns = [tps](std::uint64_t ticks) {
    return static_cast<double>(ticks) / tps * 1e9;
  };
  out << '"' << key << "\":{\"calls\":" << p.calls
      << ",\"host_s\":" << static_cast<double>(p.ticks) / tps
      << ",\"p50_ns_le\":" << ns(p.quantile_upper_ticks(0.5))
      << ",\"p99_ns_le\":" << ns(p.quantile_upper_ticks(0.99)) << '}';
}

}  // namespace

void PhaseStats::merge(const PhaseStats& o) noexcept {
  calls += o.calls;
  ticks += o.ticks;
  for (std::size_t i = 0; i < log2_ticks.size(); ++i) {
    log2_ticks[i] += o.log2_ticks[i];
  }
}

std::uint64_t PhaseStats::quantile_upper_ticks(double p) const noexcept {
  if (calls == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(p * static_cast<double>(calls));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < log2_ticks.size(); ++i) {
    cum += log2_ticks[i];
    if (cum > rank || cum == calls) {
      return i >= 63 ? ~std::uint64_t{0} : (std::uint64_t{2} << i) - 1;
    }
  }
  return ~std::uint64_t{0};
}

std::uint64_t JobPhases::tickable_ticks(const std::string& prefix) const {
  std::uint64_t t = 0;
  for (const auto& [name, p] : tickables) {
    if (name.rfind(prefix, 0) == 0) t += p.ticks;
  }
  return t;
}

std::uint64_t JobPhases::hook_ticks() const {
  std::uint64_t t = 0;
  for (const auto& [name, p] : hooks) t += p.ticks;
  return t;
}

std::uint64_t JobPhases::total_ticks() const {
  return tickable_ticks("") + drain.ticks + hook_ticks();
}

std::uint64_t JobPhases::probe_calls() const {
  std::uint64_t n = drain.calls;
  for (const auto& [name, p] : tickables) n += p.calls;
  for (const auto& [name, p] : hooks) n += p.calls;
  return n;
}

void JobPhases::merge(const JobPhases& o) {
  const auto merge_named = [](auto& into, const auto& from) {
    for (const auto& [name, p] : from) {
      bool found = false;
      for (auto& [n, q] : into) {
        if (n == name) {
          q.merge(p);
          found = true;
          break;
        }
      }
      if (!found) into.emplace_back(name, p);
    }
  };
  merge_named(tickables, o.tickables);
  merge_named(hooks, o.hooks);
  drain.merge(o.drain);
  events += o.events;
}

void PhaseProfiler::declare_tickable(std::size_t idx, const char* name) {
  if (phases_.tickables.size() <= idx) phases_.tickables.resize(idx + 1);
  phases_.tickables[idx].first = name;
}

void PhaseProfiler::declare_hook(std::size_t idx, const char* name) {
  if (phases_.hooks.size() <= idx) phases_.hooks.resize(idx + 1);
  phases_.hooks[idx].first = name;
}

JobPhases PhaseProfiler::take() {
  JobPhases out = std::move(phases_);
  phases_ = JobPhases{};
  return out;
}

double PhaseProfiler::probe_gap_ticks() {
  static const double gap = [] {
    constexpr int kBatches = 7;
    constexpr std::uint64_t kProbes = 100'000;
    PhaseProfiler profiler;
    // Read through a volatile so the call stays virtual, as in the kernel.
    puno::sim::ProfileSink* volatile opaque = &profiler;
    puno::sim::ProfileSink* sink = opaque;
    sink->declare_tickable(0, "calibration");
    double best = 0.0;
    for (int b = 0; b < kBatches; ++b) {
      const std::uint64_t covered_before = profiler.phases_.drain.ticks;
      const std::uint64_t start = puno::sim::host_ticks();
      for (std::uint64_t i = 0; i < kProbes; ++i) {
        const std::uint64_t t0 = puno::sim::host_ticks();
        sink->event_cost(0, puno::sim::host_ticks() - t0);
      }
      const std::uint64_t total = puno::sim::host_ticks() - start;
      const std::uint64_t covered =
          profiler.phases_.drain.ticks - covered_before;
      const double per_probe = static_cast<double>(total - covered) /
                               static_cast<double>(kProbes);
      best = b == 0 ? per_probe : std::min(best, per_probe);
    }
    return best;
  }();
  return gap;
}

double host_now_s() {
  static const std::int64_t origin_ns = steady_ns();
  return static_cast<double>(steady_ns() - origin_ns) * 1e-9;
}

double host_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::int64_t SpanLog::add(Span s) {
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::attach_phases(std::int64_t span, JobPhases phases) {
  phases_.emplace_back(span, std::move(phases));
}

std::vector<double> SpanLog::self_times(double ticks_per_second) const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_s - spans_[i].start_s;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
    }
  }
  for (const auto& [span, phases] : phases_) {
    self[static_cast<std::size_t>(span)] -=
        static_cast<double>(phases.total_ticks()) / ticks_per_second;
  }
  return self;
}

void SpanLog::write_chrome_json(std::ostream& out,
                                double ticks_per_second) const {
  const std::vector<double> self = self_times(ticks_per_second);
  std::vector<const JobPhases*> phases_of(spans_.size(), nullptr);
  for (const auto& [span, phases] : phases_) {
    phases_of[static_cast<std::size_t>(span)] = &phases;
  }
  out.precision(12);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"punobench\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << s.start_s * 1e6
        << ",\"dur\":" << (s.end_s - s.start_s) * 1e6
        << ",\"args\":{\"job\":" << s.job << ",\"span\":" << i
        << ",\"parent\":" << s.parent << ",\"self_s\":" << self[i];
    if (const JobPhases* p = phases_of[i]; p != nullptr) {
      out << ",\"events\":" << p->events << ',';
      write_phase(out, "event_drain", p->drain, ticks_per_second);
      for (const auto& [name, t] : p->tickables) {
        out << ',';
        write_phase(out, name.c_str(), t, ticks_per_second);
      }
      for (const auto& [name, h] : p->hooks) {
        out << ',';
        write_phase(out, name.c_str(), h, ticks_per_second);
      }
    }
    out << "}}";
  }
  out << "\n]}\n";
}

}  // namespace punobench
