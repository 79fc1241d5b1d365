// punofuzz: deterministic fuzz campaign for the protocol invariant oracle.
//
//   ./punofuzz --seeds 64 --scheme both --invariants all
//
// Runs randomized synthetic workloads on randomized machine shapes, each
// derived entirely from its seed, with the invariant checker attached and —
// whenever the scheme list includes baseline plus at least one other scheme
// — the per-scheme-vs-baseline commit-count differential oracle. Every
// failure prints a one-command repro line. Exit status: 0 clean, 1 any
// invariant violation / liveness failure / differential mismatch.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "check/fuzz.hpp"
#include "runner/grid.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --seeds N         number of seeds to run (default: 16)\n"
      "  --seed-start N    first seed (default: 1)\n"
      "  --traffic         fuzz the open-loop traffic kernels (map/set/\n"
      "                    queue/counter with randomized skew, arrivals and\n"
      "                    placement) instead of synthetic closed-loop specs\n"
      "  --scheme LIST     comma list of baseline|backoff|rmw|puno|reqwins|\n"
      "                    limited, or both (= baseline,puno, the default)\n"
      "                    or all (every registered scheme); any list with\n"
      "                    baseline + another scheme enables the\n"
      "                    differential oracle\n"
      "  --max-cycles N    per-run cycle cap (default: 2000000)\n"
      "  --stride N        check every N cycles (default: 16; failures are\n"
      "                    re-run at stride 1 automatically)\n"
      "  --invariants LIST all|none|comma-list of dir-state,dir-l1,\n"
      "                    ud-pointer,txn-pin,noc (default: all)\n"
      "  --no-differential skip the cross-scheme commit-count oracle\n"
      "  --quiet           only print the summary and failures\n",
      argv0);
}

bool apply_invariant(puno::check::CheckerConfig& cfg, const std::string& tok) {
  using puno::check::InvariantId;
  if (tok == "dir-state") cfg.set_enabled(InvariantId::kDirState, true);
  else if (tok == "dir-l1") cfg.set_enabled(InvariantId::kDirL1, true);
  else if (tok == "ud-pointer") cfg.set_enabled(InvariantId::kUdPointer, true);
  else if (tok == "txn-pin") cfg.set_enabled(InvariantId::kTxnPin, true);
  else if (tok == "noc") cfg.set_enabled(InvariantId::kNocConservation, true);
  else return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace puno;
  check::FuzzOptions opts;
  bool quiet = false;

  // A numeric flag's value, read with runner's checked parsers; exits 2
  // naming the flag and the value when it is malformed.
  const auto number = [](const char* flag, const char* text, auto parse,
                         auto& out) {
    if (!parse(text, out)) {
      std::fprintf(stderr, "bad value '%s' for %s\n", text, flag);
      std::exit(2);
    }
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      number("--seeds", next(), runner::parse_u32, opts.num_seeds);
    } else if (arg == "--seed-start") {
      number("--seed-start", next(), runner::parse_u64, opts.seed_start);
    } else if (arg == "--scheme") {
      const std::string list = next();
      if (list == "both") {
        opts.schemes = {Scheme::kBaseline, Scheme::kPuno};
      } else if (list == "all") {
        opts.schemes.assign(std::begin(kAllSchemes), std::end(kAllSchemes));
      } else {
        opts.schemes.clear();
        std::size_t pos = 0;
        while (pos <= list.size()) {
          const std::size_t comma = list.find(',', pos);
          const std::string tok =
              list.substr(pos, comma == std::string::npos ? std::string::npos
                                                          : comma - pos);
          const auto s = scheme_from_string(tok);
          if (!s) {
            std::fprintf(stderr, "unknown scheme '%s'\n", tok.c_str());
            return 2;
          }
          opts.schemes.push_back(*s);
          if (comma == std::string::npos) break;
          pos = comma + 1;
        }
      }
    } else if (arg == "--max-cycles") {
      number("--max-cycles", next(), runner::parse_u64, opts.max_cycles);
    } else if (arg == "--stride") {
      number("--stride", next(), runner::parse_u32, opts.checker.stride);
    } else if (arg == "--invariants") {
      const std::string list = next();
      if (list == "all") {
        // default config already has everything on
      } else {
        const std::uint32_t stride = opts.checker.stride;
        opts.checker = check::CheckerConfig::none();
        opts.checker.stride = stride;
        if (list != "none") {
          std::size_t pos = 0;
          while (pos < list.size()) {
            const std::size_t comma = list.find(',', pos);
            const std::string tok =
                list.substr(pos, comma == std::string::npos ? std::string::npos
                                                            : comma - pos);
            if (!apply_invariant(opts.checker, tok)) {
              std::fprintf(stderr, "unknown invariant '%s'\n", tok.c_str());
              return 2;
            }
            if (comma == std::string::npos) break;
            pos = comma + 1;
          }
        }
      }
    } else if (arg == "--traffic") {
      opts.traffic = true;
    } else if (arg == "--no-differential") {
      opts.differential = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  opts.log = quiet ? nullptr : &std::cout;
  const check::FuzzReport report = check::run_fuzz(opts);

  std::printf(
      "\n%u runs: %u invariant failures, %u liveness failures, "
      "%u differential mismatches\n",
      report.runs, report.violation_runs, report.incomplete_runs,
      report.differential_failures);
  if (report.baseline_falsely_aborted + report.puno_falsely_aborted > 0) {
    std::printf("falsely aborted txns: baseline %llu, PUNO %llu\n",
                static_cast<unsigned long long>(
                    report.baseline_falsely_aborted),
                static_cast<unsigned long long>(report.puno_falsely_aborted));
  }
  for (const std::string& line : report.repro_lines) {
    std::printf("repro: %s\n", line.c_str());
  }
  return report.clean() ? 0 : 1;
}
