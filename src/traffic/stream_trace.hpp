// Streaming trace-v1 replay: constant memory for arbitrarily large traces.
//
// TraceWorkload::load materializes every descriptor of every node up front
// (a multi-GB production trace would not fit). StreamTraceWorkload instead
// keeps one independent file cursor per node: next(node) scans forward from
// that node's position, skips other nodes' txn blocks with a cheap
// first-token classification, fully parses its own blocks through the
// shared trace_format helpers, and returns one descriptor at a time.
// Memory is O(nodes), not O(trace).
//
// Replay order per node is file order, identical to TraceWorkload — the
// equivalence test (tests/metrics/experiment_test.cpp) replays both
// against the same simulator config and pins bit-identical results.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "workloads/workload.hpp"

namespace puno::traffic {

class StreamTraceWorkload final : public workloads::Workload {
 public:
  /// Opens one cursor per node on `path`; validates the header on the first
  /// read of each cursor. Throws std::runtime_error if the file cannot be
  /// opened or (lazily, from next()) on malformed content.
  StreamTraceWorkload(const std::string& path, NodeId num_nodes);

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::optional<workloads::TxnDesc> next(NodeId node) override;

  /// Descriptors already returned for `node` (for progress reporting).
  [[nodiscard]] std::uint64_t replayed(NodeId node) const;

 private:
  struct Cursor {
    std::ifstream in;
    std::size_t lineno = 0;
    std::uint64_t replayed = 0;
    bool header_seen = false;
    bool done = false;
  };

  std::string path_;
  std::string name_;
  std::vector<Cursor> cursors_;
};

}  // namespace puno::traffic
