// Shared plumbing for the perf-gate benches (sim_events, policy_exec,
// map_scale, sim_parallel): flags, interleaved best-of-N timing, the JSON
// report, and the verdict against a checked-in baseline.
//
// Every gated number carries its own reference: a ratio of two paths timed
// in the same process, or a deterministic count; an absolute time would
// judge the machine as much as the code. Its bound sits in the baseline at
// the dotted key path the number has in the JSON output. Flags:
//   --quick            fewer events or ops per rep (CI smoke mode)
//   --baseline <file>  judge every gated number; exit 1 on a regression
//   --out <file>       JSON output path (default BENCH_<bench>.json)
#ifndef SYRUP_BENCH_HARNESS_H_
#define SYRUP_BENCH_HARNESS_H_

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace syrup::bench {

// Reps per timed comparison. Interference on a shared machine only ever
// slows a rep down, so the best of five is a steady read of each side.
inline constexpr int kReps = 5;

// A checked-in baseline: every number in a JSON object, by dotted key path.
using Baseline = std::map<std::string, double>;

// Returns nullopt when the braces or quotes of `text` do not balance.
inline std::optional<Baseline> ParseBaseline(const std::string& text) {
  Baseline numbers;
  std::vector<std::string> prefix;  // one per enclosing object
  std::string key;                  // the last string read
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '"') {
      size_t end = i + 1;
      while (end < text.size() && text[end] != '"') {
        end += text[end] == '\\' ? 2 : 1;
      }
      if (end >= text.size()) return std::nullopt;
      key = text.substr(i + 1, end - i - 1);
      i = end;
    } else if (c == '{') {
      prefix.push_back(prefix.empty() ? "" : prefix.back() + key + ".");
    } else if (c == '}') {
      if (prefix.empty()) return std::nullopt;
      prefix.pop_back();
    } else if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      char* end = nullptr;
      const double value = std::strtod(text.c_str() + i, &end);
      if (prefix.empty() || end == text.c_str() + i) return std::nullopt;
      numbers[prefix.back() + key] = value;
      i = static_cast<size_t>(end - text.c_str()) - 1;
    }
  }
  if (!prefix.empty()) return std::nullopt;
  return numbers;
}

struct Flags {
  bool quick = false;
  std::string out;
  std::optional<Baseline> baseline;  // set by --baseline: judge the gates
};

// Parses the gate flags. Prints the usage and exits 2 on an unknown flag or
// one missing its value; exits 1 when the baseline cannot be read.
inline Flags ParseFlags(int argc, char** argv,
                        const std::string& default_out) {
  Flags flags;
  flags.out = default_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      flags.quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      flags.out = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      const char* path = argv[++i];
      std::ifstream in(path);
      std::stringstream text;
      text << in.rdbuf();
      if (in) flags.baseline = ParseBaseline(text.str());
      if (!flags.baseline) {
        std::fprintf(stderr, "cannot read baseline %s\n", path);
        std::exit(1);
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--baseline <file>] [--out <file>]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return flags;
}

// One side's reads, one per rep, each a cost where lower is better (ns per
// op, seconds). The best rep is the least disturbed one.
struct Series {
  std::vector<double> reps;
  double Best() const { return *std::min_element(reps.begin(), reps.end()); }
};

// Runs every side once per rep, in order on even reps and in reverse on odd
// ones, so no side always runs first and passing load hits every side.
inline std::vector<Series> Interleave(
    const std::vector<std::function<double()>>& sides, int reps = kReps) {
  std::vector<Series> out(sides.size());
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t i = 0; i < sides.size(); ++i) {
      const size_t side = rep % 2 == 0 ? i : sides.size() - 1 - i;
      out[side].reps.push_back(sides[side]());
    }
  }
  return out;
}

// `num`'s best over `den`'s best (den's speedup over num, both costs), and
// the range of the per-rep ratios; or a count or time, with a NaN spread.
struct Ratio {
  double value = 0;
  double spread = 0;
};
inline Ratio RatioOf(const Series& num, const Series& den) {
  std::vector<double> per_rep;
  for (size_t r = 0; r < num.reps.size(); ++r) {
    per_rep.push_back(num.reps[r] / den.reps[r]);
  }
  const auto [lo, hi] = std::minmax_element(per_rep.begin(), per_rep.end());
  return {num.Best() / den.Best(), *hi - *lo};
}

inline unsigned HardwareThreads() {
  return std::thread::hardware_concurrency();
}

// Why a parallel speedup cannot be judged here, or "": on fewer hardware
// threads its parallel side is timeshared and measures the OS scheduler.
inline std::string NeedsThreads(unsigned threads) {
  if (HardwareThreads() >= threads) return "";
  return std::to_string(HardwareThreads()) + " hw threads < " +
         std::to_string(threads);
}

enum class Bound { kFloor, kCeiling };

// A bench's JSON output, by dotted key path, plus its gated numbers.
class Report {
 public:
  Report(const std::string& bench, const std::string& unit, bool quick) {
    values_["bench"] = "\"" + bench + "\"";
    values_["unit"] = "\"" + unit + "\"";
    values_["mode"] = quick ? "\"quick\"" : "\"full\"";
    Number("hardware_concurrency", HardwareThreads(), 0);
  }

  // A non-finite value is written as null (and fails any gate).
  void Number(const std::string& path, double value, int precision = 2) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    values_[path] = std::isfinite(value) ? buf : "null";
  }

  // A gated number, recorded at `path` (a ratio's spread at `<path>_spread`)
  // and judged against the baseline's bound at the same path. A non-empty
  // `skip` says why this machine cannot judge it: never ok, never failing.
  void Gate(const std::string& path, Bound bound, const Ratio& r,
            const std::string& skip = "") {
    if (std::isnan(r.spread)) {  // a count, or a single timed value
      Number(path, r.value, r.value == std::floor(r.value) ? 0 : 2);
    } else {
      Number(path, r.value, 3);
      Number(path + "_spread", r.spread, 3);
    }
    gates_.push_back({path, bound, r, skip});
  }

  // The one verdict rule: a number fails when its best-of-N read is on the
  // wrong side of its bound (equal passes), is not finite (a side that read
  // 0 ns makes a ratio infinite), or the baseline has no bound for it. The
  // spread is printed, not forgiven: widening a bound by it would loosen
  // every gate exactly when the machine is noisy. Appends a line per gate
  // to `log`; returns the number of failures.
  int Judge(const Baseline& baseline, std::string* log) const {
    int failures = 0;
    for (const Gated& g : gates_) {
      const auto bound = baseline.find(g.path);
      std::string verdict = "gate_skipped " + g.path + ": " + g.skip;
      if (g.skip.empty() && bound == baseline.end()) {
        verdict = "REGRESSION " + g.path + ": baseline has no bound";
      } else if (g.skip.empty()) {
        const bool floor = g.bound == Bound::kFloor;
        const double value = g.read.value;
        const double limit = bound->second;
        const bool ok = std::isfinite(value) &&
                        (floor ? value >= limit : value <= limit);
        const char* sign = !std::isfinite(value) ? "is not finite, bound"
                           : floor ? (ok ? ">=" : "<") : (ok ? "<=" : ">");
        char line[96];
        std::snprintf(line, sizeof(line), ": %.4g %s %.4g", value, sign, limit);
        verdict = (ok ? "ok " : "REGRESSION ") + g.path + line;
        if (!std::isnan(g.read.spread)) {
          std::snprintf(line, sizeof(line), " (spread %.3g)", g.read.spread);
          verdict += line;
        }
      }
      failures += verdict.rfind("REGRESSION", 0) == 0 ? 1 : 0;
      *log += verdict + "\n";
    }
    return failures;
  }

  // Keys print sorted; every path below `prefix` nests under it.
  std::string Json(const std::string& prefix = "",
                   const std::string& indent = "") const {
    std::string out = "{";
    auto it = values_.lower_bound(prefix);
    while (it != values_.end() && it->first.rfind(prefix, 0) == 0) {
      const size_t dot = it->first.find('.', prefix.size());
      const std::string key =
          it->first.substr(prefix.size(), dot - prefix.size());
      out += (out == "{" ? "\n  " : ",\n  ") + indent + "\"" + key + "\": ";
      if (dot == std::string::npos) {
        out += (it++)->second;
        continue;
      }
      out += Json(prefix + key + ".", indent + "  ");
      it = values_.lower_bound(prefix + key + "/");  // '/' follows '.'
    }
    return out + "\n" + indent + (prefix.empty() ? "}\n" : "}");
  }

  // Writes the JSON to --out and, with --baseline, prints every verdict.
  // Returns the exit code: 1 on a failed gate or an unwritable output.
  int Finish(const Flags& flags) const {
    std::ofstream out(flags.out);
    out << Json();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", flags.out.c_str());
      return 1;
    }
    std::printf("# wrote %s\n", flags.out.c_str());
    if (!flags.baseline) return 0;
    std::string log;
    const int failures = Judge(*flags.baseline, &log);
    std::fputs(log.c_str(), stdout);
    return failures > 0 ? 1 : 0;
  }

 private:
  struct Gated {
    std::string path;
    Bound bound;
    Ratio read;
    std::string skip;
  };

  std::map<std::string, std::string> values_;  // path -> JSON text
  std::vector<Gated> gates_;
};

}  // namespace syrup::bench

#endif  // SYRUP_BENCH_HARNESS_H_
