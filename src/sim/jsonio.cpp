#include "sim/jsonio.hpp"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <ostream>

#include "sim/config.hpp"

namespace puno::sim::jsonio {

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_value(std::ostream& out, const std::string& v) {
  out << '"' << escape(v) << '"';
}

void write_value(std::ostream& out, bool v) { out << (v ? "true" : "false"); }

void write_value(std::ostream& out, std::uint32_t v) { out << v; }

void write_value(std::ostream& out, std::uint64_t v) { out << v; }

void write_value(std::ostream& out, double v) {
  if (!(v == v) || v > 1.7e308 || v < -1.7e308) {
    out << 0;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

void write_value(std::ostream& out, Scheme v) {
  out << '"' << to_string(v) << '"';
}

void skip_ws(std::string_view& s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r' || s.front() == '\n')) {
    s.remove_prefix(1);
  }
}

bool consume(std::string_view& s, char c) {
  skip_ws(s);
  if (s.empty() || s.front() != c) return false;
  s.remove_prefix(1);
  return true;
}

bool parse_string(std::string_view& s, std::string& out) {
  if (!consume(s, '"')) return false;
  out.clear();
  while (!s.empty()) {
    const char c = s.front();
    s.remove_prefix(1);
    if (c == '"') return true;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (s.empty()) return false;
    const char esc = s.front();
    s.remove_prefix(1);
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        if (s.size() < 4) return false;
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = s.front();
          s.remove_prefix(1);
          cp <<= 4;
          if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
          else return false;
        }
        // BMP code points only (the writers never emit surrogate pairs).
        if (cp < 0x80) {
          out += static_cast<char>(cp);
        } else if (cp < 0x800) {
          out += static_cast<char>(0xC0 | (cp >> 6));
          out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
          out += static_cast<char>(0xE0 | (cp >> 12));
          out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (cp & 0x3F));
        }
        break;
      }
      default: return false;
    }
  }
  return false;  // unterminated
}

namespace {

/// Consumes one number, -?digits(.digits)?([eE][+-]?digits)?, into `tok`.
[[nodiscard]] bool scan_number(std::string_view& s, std::string_view& tok) {
  skip_ws(s);
  std::size_t n = 0;
  const auto digits = [&] {
    const std::size_t first = n;
    while (n < s.size() && s[n] >= '0' && s[n] <= '9') ++n;
    return n > first;
  };
  if (n < s.size() && s[n] == '-') ++n;
  if (!digits()) return false;
  if (n < s.size() && s[n] == '.') {
    ++n;
    if (!digits()) return false;
  }
  if (n < s.size() && (s[n] == 'e' || s[n] == 'E')) {
    ++n;
    if (n < s.size() && (s[n] == '+' || s[n] == '-')) ++n;
    if (!digits()) return false;
  }
  tok = s.substr(0, n);
  s.remove_prefix(n);
  return true;
}

[[nodiscard]] bool parse_literal(std::string_view& s, std::string_view lit) {
  skip_ws(s);
  if (s.substr(0, lit.size()) != lit) return false;
  s.remove_prefix(lit.size());
  return true;
}

}  // namespace

bool parse_double(std::string_view& s, double& v) {
  std::string_view tok;
  if (!scan_number(s, tok)) return false;
  const std::string text(tok);
  errno = 0;
  v = std::strtod(text.c_str(), nullptr);
  return errno == 0;
}

bool parse_u64(std::string_view& s, std::uint64_t& v) {
  std::string_view tok;
  if (!scan_number(s, tok) || tok.front() == '-') return false;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  if (ptr == end) return ec == std::errc{};
  // A float spelling (e.g. "1e3") of an integer field, below 2^64 only.
  double d = 0;
  if (!parse_double(tok, d) || d >= 18446744073709551616.0) return false;
  v = static_cast<std::uint64_t>(d);
  return true;
}

bool parse_bool(std::string_view& s, bool& v) {
  if (parse_literal(s, "true")) {
    v = true;
  } else if (parse_literal(s, "false")) {
    v = false;
  } else {
    return false;
  }
  return true;
}

bool parse_value(std::string_view& s, std::uint32_t& v) {
  std::uint64_t wide = 0;
  if (!parse_u64(s, wide) || wide > std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  v = static_cast<std::uint32_t>(wide);
  return true;
}

bool parse_value(std::string_view& s, Scheme& v) {
  std::string name;
  if (!parse_string(s, name)) return false;
  const auto scheme = scheme_from_string(name);
  if (scheme) v = *scheme;
  return scheme.has_value();
}

bool skip_value(std::string_view& s) {
  skip_ws(s);
  if (s.empty()) return false;
  switch (s.front()) {
    case '"': {
      std::string dummy;
      return parse_string(s, dummy);
    }
    case '{':
      return parse_object(
          s,
          [](const std::string&, std::string_view& v) { return skip_value(v); },
          nullptr);
    case '[':
      return parse_array(
          s, [](std::string_view& v) { return skip_value(v); }, nullptr);
    case 't': return parse_literal(s, "true");
    case 'f': return parse_literal(s, "false");
    case 'n': return parse_literal(s, "null");
    default: {
      std::string_view tok;
      return scan_number(s, tok);
    }
  }
}

std::string offending_token(std::string_view s) {
  skip_ws(s);
  if (s.empty()) return "<end of input>";
  std::size_t n = 0;
  while (n < s.size() && n < 24 && s[n] != '\n' && s[n] != '\r') ++n;
  return std::string(s.substr(0, n));
}

bool fail(std::string_view s, const std::string& what, std::string* err) {
  if (err != nullptr && err->empty()) {
    *err = what + " near '" + offending_token(s) + "'";
  }
  return false;
}

}  // namespace puno::sim::jsonio
