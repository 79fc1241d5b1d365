#include "workloads/trace_format.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace puno::workloads::trace_format {

void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error("trace parse error at line " +
                           std::to_string(line) + ": " + what);
}

namespace {

// Parses `digits` (the whole of `token`, or its value after "key=") as a T.
// from_chars takes no sign or whitespace for an unsigned type and reports
// a value that does not fit T instead of wrapping it.
template <typename T>
T parse_number(std::string_view digits, const std::string& token,
               std::size_t line) {
  T v{};
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, v);
  if (ec == std::errc::result_out_of_range) {
    fail(line, "value out of range in '" + token + "'");
  }
  if (ec != std::errc{}) {
    fail(line, "expected an unsigned integer in '" + token + "'");
  }
  if (ptr != end) fail(line, "trailing garbage in '" + token + "'");
  return v;
}

// "key=value" with the value parsed as a T; the wrong key is diagnosed too.
template <typename T>
T parse_kv(const std::string& token, const char* key, std::size_t line) {
  const std::string prefix = std::string(key) + "=";
  if (token.rfind(prefix, 0) != 0) {
    fail(line, "expected '" + prefix + "...', got '" + token + "'");
  }
  return parse_number<T>(std::string_view(token).substr(prefix.size()), token,
                         line);
}

}  // namespace

std::string first_token(const std::string& raw) {
  std::size_t end = raw.find('#');
  if (end == std::string::npos) end = raw.size();
  std::size_t b = 0;
  while (b < end && (raw[b] == ' ' || raw[b] == '\t')) ++b;
  std::size_t e = b;
  while (e < end && raw[e] != ' ' && raw[e] != '\t' && raw[e] != '\r') ++e;
  return raw.substr(b, e - b);
}

Line parse_line(const std::string& raw, std::size_t line) {
  std::string text = raw;
  const auto hash = text.find('#');
  if (hash != std::string::npos) text.resize(hash);

  Line out;
  std::istringstream ls(text);
  std::string tok;
  if (!(ls >> tok)) return out;  // kBlank

  if (tok == "trace-v1") {
    out.kind = Line::Kind::kHeader;
    if (!(ls >> out.name)) out.name = "trace";
    return out;
  }
  if (tok == "txn") {
    std::string node, sid, pre, post;
    if (!(ls >> node >> sid >> pre >> post)) {
      fail(line, "bad 'txn' line: expected 'txn <node> <id> pre=N post=N'");
    }
    out.kind = Line::Kind::kTxn;
    out.node = parse_number<NodeId>(node, node, line);
    out.static_id = parse_number<StaticTxId>(sid, sid, line);
    out.pre = parse_kv<std::uint32_t>(pre, "pre", line);
    out.post = parse_kv<std::uint32_t>(post, "post", line);
    return out;
  }
  if (tok == "r" || tok == "w") {
    std::string addr, pc, think;
    if (!(ls >> addr >> pc >> think)) {
      fail(line, "bad op line: expected '" + tok + " <addr> pc=N think=N'");
    }
    out.kind = Line::Kind::kOp;
    out.op.is_store = tok == "w";
    out.op.addr = parse_number<Addr>(addr, addr, line);
    out.op.pc = parse_kv<std::uint64_t>(pc, "pc", line);
    out.op.pre_think = parse_kv<std::uint32_t>(think, "think", line);
    return out;
  }
  if (tok == "end") {
    out.kind = Line::Kind::kEnd;
    return out;
  }
  fail(line, "unknown directive '" + tok + "'");
}

}  // namespace puno::workloads::trace_format
