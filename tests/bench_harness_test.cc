// The perf-gate harness (bench/harness.h) on synthetic reads: the verdict
// rule, baseline lookup, the interleaved best-of-N helper and flag parsing.
// Nothing here reads a clock.
#include "bench/harness.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace syrup::bench {
namespace {

Baseline MustParse(const std::string& text) {
  const std::optional<Baseline> baseline = ParseBaseline(text);
  EXPECT_TRUE(baseline.has_value()) << text;
  return baseline.value_or(Baseline{});
}

// Judges `report` against `baseline`; returns the verdict lines.
std::string Verdicts(const Report& report, const std::string& baseline,
                     int* failures) {
  std::string log;
  *failures = report.Judge(MustParse(baseline), &log);
  return log;
}

TEST(BenchHarnessVerdict, MetFloorPasses) {
  Report report("t", "ratio", true);
  report.Gate("scenarios.a.speedup", Bound::kFloor, Ratio{2.5, 0.25});
  int failures = -1;
  EXPECT_EQ(Verdicts(report, R"({"scenarios": {"a": {"speedup": 2.0}}})",
                     &failures),
            "ok scenarios.a.speedup: 2.5 >= 2 (spread 0.25)\n");
  EXPECT_EQ(failures, 0);
}

TEST(BenchHarnessVerdict, MissedFloorFails) {
  Report report("t", "ratio", true);
  report.Gate("scenarios.a.speedup", Bound::kFloor, Ratio{1.5, 0.25});
  int failures = -1;
  EXPECT_EQ(Verdicts(report, R"({"scenarios": {"a": {"speedup": 2.0}}})",
                     &failures),
            "REGRESSION scenarios.a.speedup: 1.5 < 2 (spread 0.25)\n");
  EXPECT_EQ(failures, 1);
}

TEST(BenchHarnessVerdict, ReadEqualToItsFloorPasses) {
  Report report("t", "ratio", true);
  report.Gate("speedup", Bound::kFloor, Ratio{0.85, 0.5});
  int failures = -1;
  EXPECT_EQ(Verdicts(report, R"({"speedup": 0.85})", &failures),
            "ok speedup: 0.85 >= 0.85 (spread 0.5)\n");
  EXPECT_EQ(failures, 0);
}

TEST(BenchHarnessVerdict, CeilingFailsOnlyAboveItsBound) {
  Report report("t", "count", true);
  report.Gate("allocs_at_bound", Bound::kCeiling, Ratio{0, NAN});
  report.Gate("allocs_over", Bound::kCeiling, Ratio{3, NAN});
  int failures = -1;
  EXPECT_EQ(Verdicts(report, R"({"allocs_at_bound": 0, "allocs_over": 0})",
                     &failures),
            "ok allocs_at_bound: 0 <= 0\n"
            "REGRESSION allocs_over: 3 > 0\n");
  EXPECT_EQ(failures, 1);
}

TEST(BenchHarnessVerdict, NonFiniteReadFailsEveryBound) {
  Report report("t", "ratio", true);
  // A side that read 0 ns makes its speedup infinite.
  report.Gate("speedup", Bound::kFloor, Ratio{INFINITY, NAN});
  report.Gate("ns", Bound::kCeiling, Ratio{-INFINITY, NAN});
  report.Gate("ratio", Bound::kCeiling, Ratio{NAN, NAN});
  int failures = -1;
  EXPECT_EQ(Verdicts(report, R"({"speedup": 2, "ns": 100, "ratio": 1.1})",
                     &failures),
            "REGRESSION speedup: inf is not finite, bound 2\n"
            "REGRESSION ns: -inf is not finite, bound 100\n"
            "REGRESSION ratio: nan is not finite, bound 1.1\n");
  EXPECT_EQ(failures, 3);
}

TEST(BenchHarnessVerdict, SkipPrintsGateSkippedAndNeverFails) {
  Report report("t", "ratio", true);
  // Far below its floor, and its bound is not even in the baseline.
  report.Gate("speedup_4", Bound::kFloor, Ratio{0.1, 0}, "2 hw threads < 4");
  int failures = -1;
  EXPECT_EQ(Verdicts(report, "{}", &failures),
            "gate_skipped speedup_4: 2 hw threads < 4\n");
  EXPECT_EQ(failures, 0);
}

TEST(BenchHarnessBaseline, FindsNestedKeysAndSkipsStrings) {
  const Baseline baseline = MustParse(R"({
    "bench": "x_baseline",
    "comment": "digits 12 and braces { } inside strings are text, \"ok\"",
    "jit_published": 4,
    "policies": {
      "sita": {"interpret_vs_compiled": 2.5, "native_vs_compiled": 1.1},
      "token": {"native_vs_compiled": -1e-3}
    }
  })");
  EXPECT_EQ(baseline.at("jit_published"), 4);
  EXPECT_EQ(baseline.at("policies.sita.interpret_vs_compiled"), 2.5);
  EXPECT_EQ(baseline.at("policies.sita.native_vs_compiled"), 1.1);
  EXPECT_EQ(baseline.at("policies.token.native_vs_compiled"), -1e-3);
  EXPECT_EQ(baseline.size(), 4u);
}

TEST(BenchHarnessBaseline, MissingKeyFails) {
  Report report("t", "ratio", true);
  report.Gate("policies.token.interpret_vs_compiled", Bound::kFloor,
              Ratio{9.0, 0});
  int failures = -1;
  // The same leaf name under a sibling object is not a bound for it.
  EXPECT_EQ(Verdicts(report,
                     R"({"policies": {"sita": {"interpret_vs_compiled": 1},
                                      "token": {}}})",
                     &failures),
            "REGRESSION policies.token.interpret_vs_compiled: baseline has "
            "no bound\n");
  EXPECT_EQ(failures, 1);
}

TEST(BenchHarnessBaseline, RejectsUnbalancedText) {
  EXPECT_FALSE(ParseBaseline(R"({"a": {"b": 1})").has_value());
  EXPECT_FALSE(ParseBaseline(R"({"a": 1}})").has_value());
  EXPECT_FALSE(ParseBaseline(R"({"a: 1})").has_value());
}

TEST(BenchHarnessInterleave, AlternatesFirstSideAndKeepsEachSidesBest) {
  std::vector<int> order;
  // Each side returns its next canned read; side 1's best is its 3rd rep.
  const std::vector<std::vector<double>> canned = {
      {5, 4, 6, 7, 9}, {8, 9, 2, 8, 8}, {3, 3, 3, 3, 1}};
  std::vector<size_t> calls(3, 0);
  std::vector<std::function<double()>> sides;
  for (int s = 0; s < 3; ++s) {
    sides.push_back([&, s] {
      order.push_back(s);
      return canned[s][calls[s]++];
    });
  }
  const std::vector<Series> reads = Interleave(sides, 5);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 2, 1, 0, 0, 1, 2, 2, 1, 0, 0,
                                     1, 2}));
  ASSERT_EQ(reads.size(), 3u);
  EXPECT_EQ(reads[0].reps, canned[0]);
  EXPECT_EQ(reads[1].reps, canned[1]);
  EXPECT_EQ(reads[0].Best(), 4);
  EXPECT_EQ(reads[1].Best(), 2);
  EXPECT_EQ(reads[2].Best(), 1);
}

TEST(BenchHarnessInterleave, DefaultsToKRepsAndRatioSpansPerRepRatios) {
  int calls = 0;
  const std::vector<Series> reads = Interleave({
      [&] { return 10.0 + ++calls; },
      [&] { return 20.0; },
  });
  EXPECT_EQ(calls, kReps);
  ASSERT_EQ(reads[1].reps.size(), static_cast<size_t>(kReps));
  Series num{{4, 6, 8}};
  Series den{{2, 2, 2}};
  const Ratio r = RatioOf(num, den);
  EXPECT_EQ(r.value, 2.0);   // best over best
  EXPECT_EQ(r.spread, 2.0);  // per-rep ratios 2, 3, 4
}

TEST(BenchHarnessReport, JsonNestsDottedPathsInKeyOrder) {
  Report report("demo", "ns", false);
  report.Number("scenarios.b.ns", 1.5);
  report.Gate("scenarios.b.speedup", Bound::kFloor, Ratio{2, 0.5});
  report.Number("scenarios.a.ns", 3);
  report.Number("scenarios.b.wcet.native", 7, 1);
  const std::string json = report.Json();
  EXPECT_EQ(json.rfind("{\n  \"bench\": \"demo\",\n  \"hardware_", 0), 0u)
      << json;
  EXPECT_NE(json.find("\"mode\": \"full\",\n  \"scenarios\": {\n"
                      "    \"a\": {\n      \"ns\": 3.00\n    },\n"
                      "    \"b\": {\n      \"ns\": 1.50,\n"
                      "      \"speedup\": 2.000,\n"
                      "      \"speedup_spread\": 0.500,\n"
                      "      \"wcet\": {\n        \"native\": 7.0\n      }\n"
                      "    }\n  },\n  \"unit\": \"ns\"\n}\n"),
            std::string::npos)
      << json;
}

// Runs ParseFlags over `args` (argv[0] included).
Flags Parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return ParseFlags(static_cast<int>(argv.size()), argv.data(),
                    "BENCH_default.json");
}

TEST(BenchHarnessFlags, EachFlagParses) {
  const Flags defaults = Parse({"bench"});
  EXPECT_FALSE(defaults.quick);
  EXPECT_EQ(defaults.out, "BENCH_default.json");
  EXPECT_FALSE(defaults.baseline.has_value());

  const std::string path = ::testing::TempDir() + "bench_harness_baseline";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(R"({"scenarios": {"steady": {"speedup_4": 1.8}}})", f);
  std::fclose(f);
  const Flags flags =
      Parse({"bench", "--quick", "--out", "o.json", "--baseline", path});
  EXPECT_TRUE(flags.quick);
  EXPECT_EQ(flags.out, "o.json");
  ASSERT_TRUE(flags.baseline.has_value());
  EXPECT_EQ(flags.baseline->at("scenarios.steady.speedup_4"), 1.8);
  std::remove(path.c_str());
}

TEST(BenchHarnessFlagsDeathTest, UnknownFlagExits2) {
  EXPECT_EXIT(Parse({"bench", "--fast"}), ::testing::ExitedWithCode(2),
              "usage: bench");
  // The old positional output path is gone too.
  EXPECT_EXIT(Parse({"bench", "out.json"}), ::testing::ExitedWithCode(2),
              "usage: bench");
}

TEST(BenchHarnessFlagsDeathTest, FlagMissingItsValueExits2) {
  EXPECT_EXIT(Parse({"bench", "--out"}), ::testing::ExitedWithCode(2),
              "usage: bench");
  EXPECT_EXIT(Parse({"bench", "--quick", "--baseline"}),
              ::testing::ExitedWithCode(2), "usage: bench");
}

TEST(BenchHarnessFlagsDeathTest, UnreadableBaselineExits1) {
  EXPECT_EXIT(Parse({"bench", "--baseline", "/nonexistent/baseline.json"}),
              ::testing::ExitedWithCode(1),
              "cannot read baseline /nonexistent/baseline.json");
}

}  // namespace
}  // namespace syrup::bench
