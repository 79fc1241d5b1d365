#include "workloads/trace.hpp"

#include <charconv>
#include <fstream>
#include <stdexcept>
#include <string_view>

namespace puno::workloads {

namespace {

[[noreturn]] void fail(std::uint64_t line, const std::string& what) {
  throw std::runtime_error("trace parse error at line " +
                           std::to_string(line) + ": " + what);
}

[[nodiscard]] std::string quoted(std::string_view token) {
  std::string out = "'";
  out += token;
  out += '\'';
  return out;
}

// Parses `digits` (the whole of `token`, or its value after "key=") as a T.
// from_chars takes no sign or whitespace for an unsigned type and reports
// a value that does not fit T instead of wrapping it.
template <typename T>
T parse_number(std::string_view digits, std::string_view token,
               std::uint64_t line) {
  T v{};
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, v);
  if (ec == std::errc::result_out_of_range) {
    fail(line, "value out of range in " + quoted(token));
  }
  if (ec != std::errc{}) {
    fail(line, "expected an unsigned integer in " + quoted(token));
  }
  if (ptr != end) fail(line, "trailing garbage in " + quoted(token));
  return v;
}

// "key=value" (`key` ends in '=') with the value parsed as a T; the wrong
// key is diagnosed too.
template <typename T>
T parse_kv(std::string_view token, std::string_view key, std::uint64_t line) {
  if (!token.starts_with(key)) {
    fail(line, "expected '" + std::string(key) + "...', got " + quoted(token));
  }
  return parse_number<T>(token.substr(key.size()), token, line);
}

// The whitespace-separated tokens of one line, '#' comment stripped.
class Tokens {
 public:
  explicit Tokens(std::string_view raw)
      : rest_(raw.substr(0, raw.find('#'))) {}

  /// Fails on any token left on the line.
  void expect_end(std::uint64_t line) {
    const std::string_view extra = next();
    if (!extra.empty()) fail(line, "unexpected token " + quoted(extra));
  }

  /// The next token, or "" when the line has no more.
  std::string_view next() {
    std::size_t b = 0;
    while (b < rest_.size() && is_space(rest_[b])) ++b;
    std::size_t e = b;
    while (e < rest_.size() && !is_space(rest_[e])) ++e;
    const std::string_view token = rest_.substr(b, e - b);
    rest_.remove_prefix(e);
    return token;
  }

 private:
  static bool is_space(char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
  }

  std::string_view rest_;
};

// One decoded trace line; `kind` says which payload fields are live.
struct Line {
  enum class Kind : std::uint8_t { kBlank, kHeader, kTxn, kOp, kEnd };

  Kind kind = Kind::kBlank;
  std::string_view name;      // kHeader; points into the raw line
  NodeId node = 0;            // kTxn
  StaticTxId static_id = 0;   // kTxn
  std::uint32_t pre = 0;      // kTxn
  std::uint32_t post = 0;     // kTxn
  TxOp op;                    // kOp
};

// Classifies and decodes one line, quoting the offending token on a wrong
// key, a non-numeric value, a sign, a value that does not fit its field
// (NodeId node, StaticTxId id, 32-bit pre/post/think, 64-bit addr/pc), a
// node outside the machine or a token past the directive's last field.
// Block structure is the caller's to check.
Line parse_line(std::string_view raw, std::uint64_t line, NodeId num_nodes) {
  Tokens tokens(raw);
  Line out;
  const std::string_view directive = tokens.next();
  if (directive.empty()) return out;

  if (directive == "trace-v1") {
    out.kind = Line::Kind::kHeader;
    out.name = tokens.next();
    if (out.name.empty()) out.name = "trace";
    tokens.expect_end(line);
    return out;
  }
  if (directive == "txn") {
    const std::string_view node = tokens.next(), sid = tokens.next(),
                           pre = tokens.next(), post = tokens.next();
    if (post.empty()) {
      fail(line, "bad 'txn' line: expected 'txn <node> <id> pre=N post=N'");
    }
    out.kind = Line::Kind::kTxn;
    out.node = parse_number<NodeId>(node, node, line);
    if (out.node >= num_nodes) {
      fail(line, "node " + quoted(node) + " is outside the " +
                     std::to_string(num_nodes) + "-node machine");
    }
    out.static_id = parse_number<StaticTxId>(sid, sid, line);
    out.pre = parse_kv<std::uint32_t>(pre, "pre=", line);
    out.post = parse_kv<std::uint32_t>(post, "post=", line);
    tokens.expect_end(line);
    return out;
  }
  if (directive == "r" || directive == "w") {
    const std::string_view addr = tokens.next(), pc = tokens.next(),
                           think = tokens.next();
    if (think.empty()) {
      fail(line, "bad op line: expected '" + std::string(directive) +
                     " <addr> pc=N think=N'");
    }
    out.kind = Line::Kind::kOp;
    out.op.is_store = directive == "w";
    out.op.addr = parse_number<Addr>(addr, addr, line);
    out.op.pc = parse_kv<std::uint64_t>(pc, "pc=", line);
    out.op.pre_think = parse_kv<std::uint32_t>(think, "think=", line);
    tokens.expect_end(line);
    return out;
  }
  if (directive == "end") {
    out.kind = Line::Kind::kEnd;
    tokens.expect_end(line);
    return out;
  }
  fail(line, "unknown directive " + quoted(directive));
}

}  // namespace

TraceWorkload::TraceWorkload(std::unique_ptr<std::istream> in,
                             NodeId num_nodes)
    : in_(std::move(in)), cursors_(num_nodes) {
  const std::streamoff start = in_->tellg();
  if (start < 0) throw std::runtime_error("trace stream is not seekable");

  // One pass checks every line and block and finds each node's first
  // block; offsets count the bytes getline consumed, newline included.
  auto offset = static_cast<std::uint64_t>(start);
  std::uint64_t lineno = 0;
  bool header_seen = false;
  bool in_txn = false;
  for (; std::getline(*in_, line_); offset += line_.size() + 1) {
    ++lineno;
    const Line parsed = parse_line(line_, lineno, num_nodes);
    if (parsed.kind == Line::Kind::kBlank) continue;
    if (parsed.kind == Line::Kind::kHeader) {
      if (header_seen) fail(lineno, "duplicate 'trace-v1' header");
      name_ = parsed.name;
      header_seen = true;
      continue;
    }
    if (!header_seen) fail(lineno, "missing 'trace-v1' header");
    switch (parsed.kind) {
      case Line::Kind::kTxn: {
        if (in_txn) fail(lineno, "nested 'txn'");
        Cursor& c = cursors_[parsed.node];
        if (c.blocks++ == 0) {
          c.offset = offset;
          c.line = lineno;
        }
        in_txn = true;
        break;
      }
      case Line::Kind::kOp:
        if (!in_txn) {
          fail(lineno, std::string("'") + (parsed.op.is_store ? "w" : "r") +
                           "' outside a txn block");
        }
        break;
      case Line::Kind::kEnd:
        if (!in_txn) fail(lineno, "'end' outside a txn block");
        in_txn = false;
        break;
      default:
        break;
    }
  }
  if (in_->bad()) throw std::runtime_error("cannot read trace");
  if (in_txn) fail(lineno, "unterminated txn block");
  if (!header_seen) fail(lineno, "empty trace");
  for (Cursor& c : cursors_) c.left = c.blocks;
}

TraceWorkload TraceWorkload::open(const std::string& path, NodeId num_nodes) {
  auto in = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*in) throw std::runtime_error("cannot open trace file: " + path);
  return TraceWorkload(std::move(in), num_nodes);
}

void TraceWorkload::record(Workload& source, std::uint32_t num_nodes,
                           std::ostream& out, std::uint32_t max_per_node) {
  out << "trace-v1 " << source.name() << "\n";
  for (NodeId n = 0; n < num_nodes; ++n) {
    std::uint32_t count = 0;
    // max_per_node == 0 means unlimited: drain until the source's own
    // next() runs dry for this node. Open-ended sources (infinite
    // generators) must be bounded by the caller in that case.
    while (auto d = source.next(n)) {
      out << "txn " << n << " " << d->static_id << " pre=" << d->pre_think
          << " post=" << d->post_think << "\n";
      for (const TxOp& op : d->ops) {
        out << (op.is_store ? "w " : "r ") << op.addr << " pc=" << op.pc
            << " think=" << op.pre_think << "\n";
      }
      out << "end\n";
      if (max_per_node != 0 && ++count >= max_per_node) break;
    }
  }
}

std::optional<TxnDesc> TraceWorkload::next(NodeId node) {
  if (node >= cursors_.size() || cursors_[node].left == 0) return std::nullopt;
  Cursor& c = cursors_[node];
  const auto num_nodes = static_cast<NodeId>(cursors_.size());

  in_->clear();
  in_->seekg(static_cast<std::streamoff>(c.offset));
  std::uint64_t offset = c.offset;
  std::uint64_t lineno = c.line - 1;
  const auto read_line = [&] {
    if (!std::getline(*in_, line_)) {
      fail(lineno + 1, "trace ended early: it changed after it was checked");
    }
    ++lineno;
    offset += line_.size() + 1;
  };

  // The block at c.offset: its `txn` line, ops and blank lines, `end`.
  TxnDesc d;
  for (bool done = false; !done;) {
    read_line();
    const Line parsed = parse_line(line_, lineno, num_nodes);
    switch (parsed.kind) {
      case Line::Kind::kTxn:
        d.static_id = parsed.static_id;
        d.pre_think = parsed.pre;
        d.post_think = parsed.post;
        break;
      case Line::Kind::kOp:
        d.ops.push_back(parsed.op);
        break;
      case Line::Kind::kEnd:
        done = true;
        break;
      default:
        break;
    }
  }

  // Scan on to the node's next block, passing other nodes' lines on their
  // first token (and the node token of their `txn` lines).
  if (--c.left > 0) {
    for (;;) {
      const std::uint64_t at = offset;
      read_line();
      Tokens tokens(line_);
      if (tokens.next() != "txn") continue;
      const std::string_view owner = tokens.next();
      if (parse_number<NodeId>(owner, owner, lineno) != node) continue;
      c.offset = at;
      c.line = lineno;
      break;
    }
  }
  return d;
}

std::uint64_t TraceWorkload::total_txns() const {
  std::uint64_t total = 0;
  for (const Cursor& c : cursors_) total += c.blocks;
  return total;
}

std::uint64_t TraceWorkload::txns_for(NodeId node) const {
  return node < cursors_.size() ? cursors_[node].blocks : 0;
}

}  // namespace puno::workloads
