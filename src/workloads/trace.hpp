// Trace-driven workloads: record any workload's transaction stream to a
// plain-text trace and replay it later, bit-identically.
//
// Format (line oriented, '#' comments):
//
//   trace-v1 <name>
//   txn <node> <static_id> pre=<cycles> post=<cycles>
//   r <addr> pc=<id> think=<cycles>
//   w <addr> pc=<id> think=<cycles>
//   end
//
// Each `txn ... end` block appends one descriptor to `node`'s stream; cores
// consume their streams in file order. Traces make experiments portable
// across simulator versions (the synthetic generators may be retuned;
// a trace never changes) and allow replaying streams captured elsewhere.
//
// Replay contract:
// - Checked before the first cycle. The constructor reads the whole trace
//   once and throws std::runtime_error("trace parse error at line N: ...")
//   for any malformed line, broken block structure or `txn` node the
//   machine does not have (>= num_nodes), quoting the offending token. A
//   trace may use fewer nodes than the machine: the others get no work.
// - Constant memory. Beyond the line being read, the reader keeps only the
//   stream it was given and, per node, the offset of its next block and
//   the count left, whatever the trace's size.
// - One open file. open() holds a single descriptor for any node count.
//   next(node) seeks to that node's next block, parses it, and scans on to
//   the node's block after it. Replaying a node-major trace (what record()
//   writes) therefore reads each block once; an interleaved trace works
//   too, each node's scan passing over the other nodes' blocks.
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "workloads/workload.hpp"

namespace puno::workloads {

class TraceWorkload final : public Workload {
 public:
  /// Checks the whole trace from `in` (which must be seekable) for a
  /// machine of `num_nodes` cores and keeps `in` to replay from.
  TraceWorkload(std::unique_ptr<std::istream> in, NodeId num_nodes);
  /// Opens `path` and checks it; throws std::runtime_error naming the path
  /// if it cannot be opened.
  static TraceWorkload open(const std::string& path, NodeId num_nodes);

  /// Serializes any workload by draining it (next() is destructive).
  /// `max_per_node` caps the descriptors written per node; 0 (the default)
  /// means *unlimited* — drain each node until next() returns nullopt, so
  /// the caller must bound open-ended sources itself.
  static void record(Workload& source, std::uint32_t num_nodes,
                     std::ostream& out, std::uint32_t max_per_node = 0);

  [[nodiscard]] const std::string& name() const override { return name_; }
  /// The node's next block in file order; nullopt once it has none left
  /// (at once for a node outside the machine).
  [[nodiscard]] std::optional<TxnDesc> next(NodeId node) override;

  /// Blocks the trace holds, in total and for one node.
  [[nodiscard]] std::uint64_t total_txns() const;
  [[nodiscard]] std::uint64_t txns_for(NodeId node) const;

 private:
  struct Cursor {
    std::uint64_t offset = 0;  ///< Byte offset of the next block's `txn`.
    std::uint64_t line = 0;    ///< Its line number, for diagnostics.
    std::uint64_t blocks = 0;  ///< Blocks the trace holds for this node.
    std::uint64_t left = 0;    ///< Blocks not yet returned by next().
  };

  std::unique_ptr<std::istream> in_;
  std::string name_ = "trace";
  std::vector<Cursor> cursors_;
  std::string line_;  ///< Reused line buffer.
};

}  // namespace puno::workloads
