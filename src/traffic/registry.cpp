#include "traffic/registry.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "traffic/engine.hpp"
#include "workloads/stamp.hpp"

namespace puno::traffic::registry {

namespace {

[[nodiscard]] std::vector<Entry> build_entries() {
  std::vector<Entry> out;
  for (const std::string& name : workloads::stamp::benchmark_names()) {
    Entry e;
    e.name = name;
    e.description = "STAMP profile (" +
                    workloads::stamp::input_parameters(name) + ")";
    out.push_back(std::move(e));
  }
  const struct {
    KernelKind kind;
    const char* what;
  } kernels[] = {
      {KernelKind::kMap, "open-loop hash-map kernel: bucket walk + "
                         "key lookup/update (traffic.update_frac)"},
      {KernelKind::kSet, "open-loop set kernel: membership probe, "
                         "RMW update on the key block"},
      {KernelKind::kQueue, "open-loop MPMC queue kernel: shared head/tail "
                           "anchors, queue-head contention"},
      {KernelKind::kCounter, "open-loop sharded-counter kernel: pure RMW "
                             "on traffic.counter_blocks hot blocks"},
  };
  for (const auto& k : kernels) {
    Entry e;
    e.name = std::string("traffic-") + to_string(k.kind);
    e.description = k.what;
    e.open_loop = true;
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace

const std::vector<Entry>& entries() {
  static const std::vector<Entry> table = build_entries();
  return table;
}

std::vector<std::string> names() {
  std::vector<std::string> out;
  out.reserve(entries().size());
  for (const Entry& e : entries()) out.push_back(e.name);
  return out;
}

bool known(const std::string& name) {
  for (const Entry& e : entries()) {
    if (e.name == name) return true;
  }
  return false;
}

bool is_traffic(const std::string& name) {
  for (const Entry& e : entries()) {
    if (e.name == name) return e.open_loop;
  }
  return false;
}

void check_scale(double scale) {
  if (!(scale > 0.0) || !std::isfinite(scale)) {
    std::ostringstream os;
    os << "bad scale " << scale << " (must be a finite number > 0)";
    throw std::invalid_argument(os.str());
  }
}

std::unique_ptr<workloads::Workload> make(const std::string& name,
                                          const SystemConfig& cfg,
                                          double scale) {
  check_scale(scale);
  constexpr const char* kPrefix = "traffic-";
  if (name.rfind(kPrefix, 0) == 0) {
    const auto kind = kernel_kind_from_string(name.substr(8));
    if (!kind) throw std::invalid_argument("unknown workload: " + name);
    return std::make_unique<OpenLoopWorkload>(
        *kind, cfg.traffic, static_cast<NodeId>(cfg.num_nodes), cfg.seed,
        cfg.cache.block_bytes, scale);
  }
  if (!known(name)) throw std::invalid_argument("unknown workload: " + name);
  return workloads::stamp::make(name, cfg.num_nodes, cfg.seed, scale);
}

}  // namespace puno::traffic::registry
