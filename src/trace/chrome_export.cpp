#include "trace/chrome_export.hpp"

#include <array>
#include <fstream>
#include <iterator>
#include <ostream>
#include <sstream>

#include "sim/jsonio.hpp"

namespace puno::trace {

namespace jio = sim::jsonio;

namespace {

[[nodiscard]] std::string hex_addr(BlockAddr a) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(a));
  return buf;
}

class ChromeWriter {
 public:
  ChromeWriter(const TraceMeta& meta, std::ostream& out)
      : meta_(meta), out_(out) {}

  void write(const TraceRecorder& rec) {
    out_ << "{\"traceEvents\":[";
    write_process_meta();
    rec.for_each([&](const TraceEvent& ev) { dispatch(ev); });
    close_open_txns();
    out_ << "\n],\"otherData\":{\"workload\":\""
         << jio::escape(meta_.workload) << "\",\"scheme\":\""
         << jio::escape(meta_.scheme) << "\",\"seed\":" << meta_.seed
         << ",\"num_nodes\":" << meta_.num_nodes
         << ",\"recorded\":" << rec.recorded()
         << ",\"dropped\":" << rec.dropped() << ",\"filter\":\""
         << jio::escape(filter_to_string(rec.category_mask()))
         << "\"},\"displayTimeUnit\":\"ns\"}\n";
  }

 private:
  struct OpenTxn {
    bool active = false;
    Cycle begin = 0;
    Timestamp ts = 0;
    std::uint64_t id = 0;
    bool retry = false;
  };

  void comma() {
    if (first_) {
      first_ = false;
    } else {
      out_ << ',';
    }
    out_ << "\n";
  }

  void write_process_meta() {
    static constexpr std::array<const char*, 3> kProc = {"cores",
                                                         "directories", "noc"};
    static constexpr std::array<const char*, 3> kThread = {"core", "dir",
                                                           "ni"};
    for (int pid = 0; pid < 3; ++pid) {
      comma();
      out_ << "{\"ph\":\"M\",\"pid\":" << pid
           << ",\"name\":\"process_name\",\"args\":{\"name\":\"" << kProc[pid]
           << "\"}}";
      for (std::uint32_t n = 0; n < meta_.num_nodes; ++n) {
        comma();
        out_ << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << n
             << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
             << kThread[pid] << " " << n << "\"}}";
      }
    }
  }

  void span(int pid, NodeId tid, const char* name, Cycle start, Cycle dur,
            const std::string& args) {
    comma();
    out_ << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid
         << ",\"ts\":" << start << ",\"dur\":" << dur << ",\"name\":\""
         << name << "\"";
    if (!args.empty()) out_ << ",\"args\":{" << args << "}";
    out_ << "}";
  }

  void instant(int pid, NodeId tid, const char* name, Cycle at,
               const std::string& args) {
    comma();
    out_ << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid << ",\"tid\":" << tid
         << ",\"ts\":" << at << ",\"name\":\"" << name << "\"";
    if (!args.empty()) out_ << ",\"args\":{" << args << "}";
    out_ << "}";
  }

  [[nodiscard]] static std::string txn_args(const OpenTxn& t,
                                            const char* outcome) {
    std::ostringstream a;
    a << "\"txn\":" << t.id << ",\"priority_ts\":" << t.ts
      << ",\"retry\":" << (t.retry ? "true" : "false") << ",\"outcome\":\""
      << outcome << "\"";
    return a.str();
  }

  void dispatch(const TraceEvent& ev) {
    std::ostringstream a;
    switch (ev.kind) {
      case EventKind::kTxnBegin: {
        OpenTxn& t = open_txn(ev.node);
        t = OpenTxn{true, ev.cycle, ev.ts, ev.a, (ev.flags & 1) != 0};
        return;  // span written at commit/abort
      }
      case EventKind::kTxnCommit: {
        OpenTxn& t = open_txn(ev.node);
        if (t.active) {
          span(0, ev.node, "txn", t.begin, ev.cycle - t.begin,
               txn_args(t, "commit"));
          t.active = false;
        } else {  // begin lost to ring wraparound
          a << "\"txn\":" << ev.a << ",\"outcome\":\"commit\"";
          instant(0, ev.node, "txn_commit", ev.cycle, a.str());
        }
        return;
      }
      case EventKind::kTxnAbort: {
        OpenTxn& t = open_txn(ev.node);
        std::ostringstream extra;
        extra << "\"by\":" << ev.peer << ",\"addr\":\"" << hex_addr(ev.addr)
              << "\",\"cause\":" << ev.a << ",\"aborter_ts\":" << ev.b;
        if (t.active) {
          span(0, ev.node, "txn", t.begin, ev.cycle - t.begin,
               txn_args(t, "abort") + "," + extra.str());
          t.active = false;
        } else {
          instant(0, ev.node, "txn_abort", ev.cycle, extra.str());
        }
        return;
      }
      case EventKind::kTxnStall:
        a << "\"stall\":" << ev.a << ",\"aborts\":" << ev.b;
        span(0, ev.node, "stall", ev.cycle, ev.a, a.str());
        return;
      case EventKind::kBackoffWindow:
        a << "\"window\":" << ev.a << ",\"retries\":" << ev.b
          << ",\"notification\":" << ev.ts << ",\"guided\":"
          << ((ev.flags & 1) != 0 ? "true" : "false") << ",\"addr\":\""
          << hex_addr(ev.addr) << "\"";
        span(0, ev.node, "backoff", ev.cycle, ev.a, a.str());
        return;
      case EventKind::kDirBlock:
        a << "\"requester\":" << ev.peer << ",\"addr\":\""
          << hex_addr(ev.addr) << "\",\"tx_getx\":"
          << ((ev.flags & 1) != 0 ? "true" : "false");
        span(1, ev.node, "dir_block", ev.cycle, ev.a, a.str());
        return;
      case EventKind::kNackSent:
      case EventKind::kNackMispredict:
        a << "\"requester\":" << ev.peer << ",\"addr\":\""
          << hex_addr(ev.addr) << "\",\"requester_ts\":" << ev.ts
          << ",\"local_ts\":" << ev.b;
        if (ev.kind == EventKind::kNackSent) {
          a << ",\"notification\":" << ev.a;
        }
        instant(0, ev.node, to_string(ev.kind), ev.cycle, a.str());
        return;
      case EventKind::kGetxOutcome:
        a << "\"addr\":\"" << hex_addr(ev.addr) << "\",\"nacks\":" << ev.a
          << ",\"aborted_sharers\":" << ev.b << ",\"success\":"
          << ((ev.flags & 1) != 0 ? "true" : "false");
        instant(0, ev.node, "getx_outcome", ev.cycle, a.str());
        return;
      case EventKind::kGetxUnicast:
        a << "\"requester\":" << ev.a << ",\"target\":" << ev.peer
          << ",\"addr\":\"" << hex_addr(ev.addr)
          << "\",\"spared_sharers\":" << ev.b << ",\"requester_ts\":"
          << ev.ts;
        instant(1, ev.node, "getx_unicast", ev.cycle, a.str());
        return;
      case EventKind::kGetxMulticast:
        a << "\"requester\":" << ev.peer << ",\"addr\":\""
          << hex_addr(ev.addr) << "\",\"targets\":" << ev.b
          << ",\"requester_ts\":" << ev.ts << ",\"transactional\":"
          << ((ev.flags & 1) != 0 ? "true" : "false");
        instant(1, ev.node, "getx_multicast", ev.cycle, a.str());
        return;
      case EventKind::kUdPredict:
        a << "\"requester\":" << ev.a << ",\"target\":" << ev.peer
          << ",\"target_ts\":" << ev.b << ",\"requester_ts\":" << ev.ts;
        instant(1, ev.node, "ud_predict", ev.cycle, a.str());
        return;
      case EventKind::kUdFallback:
        a << "\"requester\":" << ev.a << ",\"requester_ts\":" << ev.ts;
        instant(1, ev.node, "ud_fallback", ev.cycle, a.str());
        return;
      case EventKind::kMpFeedback:
        a << "\"stale_node\":" << ev.peer;
        instant(1, ev.node, "mp_feedback", ev.cycle, a.str());
        return;
      case EventKind::kFlitInject:
      case EventKind::kFlitEject:
        a << "\"peer\":" << ev.peer << ",\"packet\":" << ev.a
          << ",\"vnet\":" << ev.b << ",\"head\":"
          << ((ev.flags & 1) != 0 ? "true" : "false")
          << ",\"tail\":" << ((ev.flags & 2) != 0 ? "true" : "false");
        instant(2, ev.node, to_string(ev.kind), ev.cycle, a.str());
        return;
    }
  }

  void close_open_txns() {
    for (std::size_t n = 0; n < open_.size(); ++n) {
      const OpenTxn& t = open_[n];
      if (!t.active) continue;
      const Cycle end =
          meta_.final_cycle > t.begin ? meta_.final_cycle : t.begin;
      span(0, static_cast<NodeId>(n), "txn", t.begin, end - t.begin,
           txn_args(t, "open"));
    }
  }

  OpenTxn& open_txn(NodeId node) {
    if (open_.size() <= node) open_.resize(node + std::size_t{1});
    return open_[node];
  }

  const TraceMeta& meta_;
  std::ostream& out_;
  std::vector<OpenTxn> open_;
  bool first_ = true;
};

}  // namespace

void write_chrome_trace(const TraceRecorder& rec, const TraceMeta& meta,
                        std::ostream& out) {
  ChromeWriter(meta, out).write(rec);
}

bool write_chrome_trace_file(const TraceRecorder& rec, const TraceMeta& meta,
                             const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return false;
  write_chrome_trace(rec, meta, out);
  out.flush();
  return out.good();
}

std::optional<ChromeTraceCheck> validate_chrome_trace(std::istream& in,
                                                      std::string* error) {
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ChromeTraceCheck check;
  bool saw_trace_events = false;
  // One element of "traceEvents": an object with string "ph" and "name".
  const auto event = [&](std::string_view& s) {
    const std::string_view at = s;
    std::string ph, name;
    bool has_name = false;
    if (!jio::parse_object(
            s,
            [&](const std::string& key, std::string_view& v) {
              if (key == "ph") return jio::parse_string(v, ph);
              if (key == "name") {
                has_name = true;
                return jio::parse_string(v, name);
              }
              return jio::skip_value(v);
            },
            error)) {
      return false;
    }
    if (ph.empty()) {
      return jio::fail(at, "traceEvents element missing \"ph\"", error);
    }
    if (!has_name) {
      return jio::fail(at, "traceEvents element missing \"name\"", error);
    }
    ++check.events;
    if (ph == "X") ++check.complete;
    else if (ph == "i" || ph == "I") ++check.instants;
    else if (ph == "M") ++check.metadata;
    return true;
  };
  const bool ok = jio::parse_document(
      text,
      [&](const std::string& key, std::string_view& v) {
        if (key != "traceEvents") return jio::skip_value(v);
        saw_trace_events = true;
        return jio::parse_array(v, event, error);
      },
      error);
  if (!ok) return std::nullopt;
  if (!saw_trace_events) {
    jio::fail(text, "no \"traceEvents\" array", error);
    return std::nullopt;
  }
  return check;
}

}  // namespace puno::trace
