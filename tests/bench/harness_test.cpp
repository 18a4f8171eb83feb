// Bench-harness tests: the trials clamp (a non-positive --trials must
// still execute the workload once), measure_counters isolation, and
// render_json's schema shape.  The harness is shared by every bench
// binary, so these are the regression net for the --json pipeline.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/telemetry.hpp"
#include "bench/harness.hpp"
#include "cc/afforest.hpp"
#include "graph/generators/suite.hpp"

namespace afforest {
namespace {

TEST(TimeTrials, NonPositiveTrialCountStillRunsOnce) {
  // Regression test: trials <= 0 used to skip the loop entirely and
  // summarize an empty sample vector.
  for (const int trials : {0, -3}) {
    int runs = 0;
    const TrialSummary t = bench::time_trials([&] { ++runs; }, trials);
    EXPECT_EQ(runs, 1) << "trials=" << trials;
    EXPECT_EQ(t.trials, 1) << "trials=" << trials;
    EXPECT_GE(t.median_s, 0.0);
  }
}

TEST(TimeTrials, RunsRequestedTrials) {
  int runs = 0;
  const TrialSummary t = bench::time_trials([&] { ++runs; }, 4);
  EXPECT_EQ(runs, 4);
  EXPECT_EQ(t.trials, 4);
  EXPECT_LE(t.min_s, t.median_s);
  EXPECT_LE(t.median_s, t.max_s);
}

TEST(SelectNames, EmptySelectsAllAndSubsetsKeepTheValidOrder) {
  const std::vector<std::string> valid = {"sv", "lp", "afforest"};
  EXPECT_EQ(bench::select_names("", valid, "algorithms"), valid);
  EXPECT_EQ(bench::select_names("afforest,sv", valid, "algorithms"),
            (std::vector<std::string>{"sv", "afforest"}));
  EXPECT_EQ(bench::select_names("lp,,lp", valid, "algorithms"),
            (std::vector<std::string>{"lp"}));
}

TEST(SelectNames, UnknownNameThrowsListingTheValidOnes) {
  const std::vector<std::string> valid = {"road", "kron"};
  try {
    (void)bench::select_names("road,korn", valid, "graphs");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "--graphs: unknown name 'korn' (valid: road, kron)");
  }
}

TEST(ParseList, ReadsNumbersInOrderAndSkipsEmptyEntries) {
  const auto positive = [](auto v) { return v > 0; };
  EXPECT_EQ(bench::parse_list<std::int64_t>("256,,4096,", "batch-sizes",
                                            positive, "positive"),
            (std::vector<std::int64_t>{256, 4096}));
  EXPECT_EQ(bench::parse_list<double>(
                "0.5,0.95", "read-fractions",
                [](double f) { return f >= 0.0 && f < 1.0; }, "in [0, 1)"),
            (std::vector<double>{0.5, 0.95}));
}

TEST(ParseList, BadEntriesThrowNamingTheFlag) {
  const auto positive = [](auto v) { return v > 0; };
  const auto message = [](const auto& parse) {
    try {
      parse();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_EQ(message([&] {
              (void)bench::parse_list<std::int64_t>(
                  "99999999999999999999", "batch-sizes", positive,
                  "positive");
            }),
            "--batch-sizes: entry '99999999999999999999' is out of range");
  EXPECT_EQ(message([&] {
              (void)bench::parse_list<int>("1,3000000000", "shards",
                                           positive, "positive");
            }),
            "--shards: entry '3000000000' is out of range");
  EXPECT_EQ(message([&] {
              (void)bench::parse_list<std::int64_t>("12abc", "batch-sizes",
                                                    positive, "positive");
            }),
            "--batch-sizes: entry '12abc' is not a number");
  EXPECT_EQ(message([&] {
              (void)bench::parse_list<double>(
                  "0.5x", "read-fractions", [](double) { return true; },
                  "a fraction");
            }),
            "--read-fractions: entry '0.5x' is not a number");
  EXPECT_EQ(message([&] {
              (void)bench::parse_list<int>("", "shards", positive,
                                           "positive");
            }),
            "--shards parsed to an empty list");
  EXPECT_EQ(message([&] {
              (void)bench::parse_list<int>(",", "shards", positive,
                                           "positive");
            }),
            "--shards parsed to an empty list");
  EXPECT_EQ(message([&] {
              (void)bench::parse_list<std::int64_t>("4,0", "workers",
                                                    positive, "positive");
            }),
            "--workers: entry '0' is not positive");
}

TEST(MeasureCounters, CapturesWithoutLeavingTelemetryArmed) {
  if (!telemetry::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  telemetry::set_enabled(false);
  const Graph g = make_suite_graph("kron", 10);
  const telemetry::Report report =
      bench::measure_counters([&] { afforest_cc(g); });
  EXPECT_GT(report.counters.link_calls, 0u);
  EXPECT_FALSE(report.phases.empty());
  EXPECT_FALSE(telemetry::enabled()) << "measure_counters must restore state";
}

TEST(RenderJson, EmptyRecordListIsStillAValidDocument) {
  const std::string text = bench::render_json("unit", {});
  EXPECT_NE(text.find("\"schema\":\"afforest-bench-1\""), std::string::npos);
  EXPECT_NE(text.find("\"experiment\":\"unit\""), std::string::npos);
  EXPECT_NE(text.find("\"records\":[]"), std::string::npos);
  EXPECT_NE(text.find("\"host\":"), std::string::npos);
  EXPECT_NE(text.find("\"build\":"), std::string::npos);
}

TEST(RenderJson, RecordCarriesGraphAlgorithmParamsAndTrials) {
  bench::JsonRecord rec;
  rec.graph = "kron";
  rec.algorithm = "afforest";
  rec.params = {{"scale", 16}, {"family", "kron"}, {"p", 0.5}, {"skip", true}};
  rec.trials.median_s = 0.25;
  rec.trials.p25_s = 0.2;
  rec.trials.p75_s = 0.3;
  rec.trials.min_s = 0.1;
  rec.trials.max_s = 0.4;
  rec.trials.trials = 5;
  const std::string text = bench::render_json("unit", {rec});

  EXPECT_NE(text.find("\"graph\":\"kron\""), std::string::npos);
  EXPECT_NE(text.find("\"algorithm\":\"afforest\""), std::string::npos);
  EXPECT_NE(text.find("\"scale\":16"), std::string::npos);
  EXPECT_NE(text.find("\"family\":\"kron\""), std::string::npos);
  EXPECT_NE(text.find("\"p\":0.5"), std::string::npos);
  EXPECT_NE(text.find("\"skip\":true"), std::string::npos);
  EXPECT_NE(text.find("\"median_s\":0.25"), std::string::npos);
  EXPECT_NE(text.find("\"count\":5"), std::string::npos);
  // No telemetry attached: the optional keys must be absent.
  EXPECT_EQ(text.find("\"counters\""), std::string::npos);
  EXPECT_EQ(text.find("\"phases\""), std::string::npos);
}

TEST(RenderJson, TelemetryReportAddsCountersPhasesAndRss) {
  bench::JsonRecord rec;
  rec.graph = "g";
  rec.algorithm = "a";
  rec.has_telemetry = true;
  rec.report.counters.link_calls = 7;
  rec.report.counters.cas_failures = 2;
  rec.report.counters.serve_queries_served = 11;
  rec.report.counters.serve_snapshot_swaps = 4;
  rec.report.counters.serve_edges_ingested = 9;
  rec.report.counters.wal_records_appended = 5;
  rec.report.counters.wal_records_replayed = 3;
  rec.report.phases.push_back({"afforest.sampling", 0.125, 3});
  rec.report.peak_rss_bytes = 4096;
  const std::string text = bench::render_json("unit", {rec});

  EXPECT_NE(text.find("\"counters\":"), std::string::npos);
  EXPECT_NE(text.find("\"link_calls\":7"), std::string::npos);
  EXPECT_NE(text.find("\"cas_failures\":2"), std::string::npos);
  EXPECT_NE(text.find("\"serve_queries_served\":11"), std::string::npos);
  EXPECT_NE(text.find("\"serve_snapshot_swaps\":4"), std::string::npos);
  EXPECT_NE(text.find("\"serve_edges_ingested\":9"), std::string::npos);
  EXPECT_NE(text.find("\"wal_records_appended\":5"), std::string::npos);
  EXPECT_NE(text.find("\"wal_records_replayed\":3"), std::string::npos);
  EXPECT_NE(text.find("\"phases\":"), std::string::npos);
  EXPECT_NE(text.find("\"afforest.sampling\""), std::string::npos);
  EXPECT_NE(text.find("\"peak_rss_bytes\":4096"), std::string::npos);
}

TEST(RenderJson, BalancedBracesAndQuotes) {
  // Cheap structural sanity without a parser: every brace/bracket closes
  // and quotes pair up (escaping is covered by json_writer_test).
  bench::JsonRecord rec;
  rec.graph = "kron";
  rec.algorithm = "afforest";
  rec.params = {{"note", "quote\"inside"}};
  const std::string text = bench::render_json("unit", {rec});
  int braces = 0, brackets = 0, quotes = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const bool escaped = i > 0 && text[i - 1] == '\\';
    if (c == '"' && !escaped) ++quotes;
    if (quotes % 2 == 1) continue;  // inside a string literal
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_EQ(quotes % 2, 0);
}

}  // namespace
}  // namespace afforest
