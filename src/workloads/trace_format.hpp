// Token-level parsing for the trace-v1 format, shared by the in-memory
// reader (TraceWorkload::parse) and the streaming reader
// (traffic::StreamTraceWorkload) so the two can never drift on syntax or
// error reporting. Every diagnostic carries the line number and the
// offending token.
#pragma once

#include <cstdint>
#include <string>

#include "workloads/workload.hpp"

namespace puno::workloads::trace_format {

/// One parsed trace line. `kind` says which of the payload fields are live.
struct Line {
  enum class Kind : std::uint8_t {
    kBlank,   ///< Empty or comment-only.
    kHeader,  ///< "trace-v1 <name>"; `name` set.
    kTxn,     ///< "txn <node> <sid> pre=N post=N"; node/sid/pre/post set.
    kOp,      ///< "r|w <addr> pc=N think=N"; `op` set.
    kEnd,     ///< "end".
  };

  Kind kind = Kind::kBlank;
  std::string name;           // kHeader
  NodeId node = 0;            // kTxn
  StaticTxId static_id = 0;   // kTxn
  std::uint32_t pre = 0;      // kTxn
  std::uint32_t post = 0;     // kTxn
  TxOp op;                    // kOp
};

/// Throws std::runtime_error("trace parse error at line <line>: <what>").
[[noreturn]] void fail(std::size_t line, const std::string& what);

/// Parses one raw trace line ('#' comments stripped here). Throws via
/// fail() on malformed input, quoting the offending token: a wrong key, a
/// non-numeric value, a sign, or a value that does not fit its field
/// (NodeId node, StaticTxId id, 32-bit pre/post/think, 64-bit addr/pc). Structural rules (header-first, no nested
/// txn, ops inside blocks) belong to the caller's state machine — this
/// function only classifies and decodes a single line.
[[nodiscard]] Line parse_line(const std::string& raw, std::size_t line);

/// The first whitespace-delimited token of `raw` after comment stripping,
/// or "" for a blank line. Cheap classification for cursors skipping other
/// nodes' blocks without paying a full parse.
[[nodiscard]] std::string first_token(const std::string& raw);

}  // namespace puno::workloads::trace_format
