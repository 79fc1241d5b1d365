// The run key: the identity of one experiment, as text.
//
// The key is a 64-bit FNV-1a hash of a canonical rendering of the
// *complete* experiment configuration — every field of ExperimentParams
// and every SystemConfig key in for_each_key (src/sim/config.hpp), the same
// list `--set` walks. Any knob that can change simulated behaviour
// therefore changes the key, and two runs share a key exactly when they
// describe the same simulation.
//
// The punobatch manifest records each job's key, and punoagg joins
// manifests, results and aggregates on it (runner/aggregate.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "metrics/experiment.hpp"

namespace puno::runner {

/// 64-bit FNV-1a.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view s) noexcept;

/// Canonical text rendering of every behaviour-relevant field of `params`:
/// "workload=... scheme=... seed=... scale=... max_cycles=..." followed by
/// one " key=value" token per for_each_key field. Two params serialize
/// identically iff they describe the same simulation.
[[nodiscard]] std::string params_repr(const metrics::ExperimentParams& params);

/// "v8-<fnv1a64(params_repr) as 16 hex digits>". The "v8-" prefix is fixed,
/// so manifests and aggregates already on disk keep joining.
[[nodiscard]] std::string run_key(const metrics::ExperimentParams& params);

}  // namespace puno::runner
