// Unit tests for the common utilities: strong units, error/result types,
// deterministic RNG, CSV round-tripping, table formatting, and statistics.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "synergy/common/csv.hpp"
#include "synergy/common/error.hpp"
#include "synergy/common/ewma.hpp"
#include "synergy/common/log.hpp"
#include "synergy/common/parse.hpp"
#include "synergy/common/rng.hpp"
#include "synergy/common/stats.hpp"
#include "synergy/common/table.hpp"
#include "synergy/common/units.hpp"

namespace sc = synergy::common;

// ---------------------------------------------------------------- units ----

TEST(Units, LikeUnitArithmetic) {
  const sc::joules a{10.0};
  const sc::joules b{2.5};
  EXPECT_DOUBLE_EQ((a + b).value, 12.5);
  EXPECT_DOUBLE_EQ((a - b).value, 7.5);
  EXPECT_DOUBLE_EQ((a * 2.0).value, 20.0);
  EXPECT_DOUBLE_EQ((a / 2.0).value, 5.0);
  EXPECT_DOUBLE_EQ(a / b, 4.0);
}

TEST(Units, PowerTimesTimeIsEnergy) {
  const sc::watts p{250.0};
  const sc::seconds t{0.4};
  const sc::joules e = p * t;
  EXPECT_DOUBLE_EQ(e.value, 100.0);
  EXPECT_DOUBLE_EQ((e / t).value, 250.0);
}

TEST(Units, CompoundAssignment) {
  sc::joules e{1.0};
  e += sc::joules{2.0};
  e -= sc::joules{0.5};
  EXPECT_DOUBLE_EQ(e.value, 2.5);
}

TEST(Units, Ordering) {
  EXPECT_LT(sc::megahertz{135.0}, sc::megahertz{1530.0});
  EXPECT_GT(sc::seconds{1.0}, sc::seconds{0.1});
  EXPECT_EQ(sc::watts{5.0}, sc::watts{5.0});
}

TEST(Units, FrequencyConfigOrderingAndHash) {
  const sc::frequency_config a{sc::megahertz{877}, sc::megahertz{135}};
  const sc::frequency_config b{sc::megahertz{877}, sc::megahertz{1530}};
  EXPECT_LT(a, b);
  EXPECT_NE(std::hash<sc::frequency_config>{}(a), std::hash<sc::frequency_config>{}(b));
  EXPECT_EQ(std::hash<sc::frequency_config>{}(a), std::hash<sc::frequency_config>{}(a));
}

TEST(Units, ConversionHelpers) {
  EXPECT_DOUBLE_EQ(sc::megahertz{877.0}.hz(), 877.0e6);
  EXPECT_DOUBLE_EQ(sc::seconds{0.015}.ms(), 15.0);
  EXPECT_DOUBLE_EQ(sc::seconds{2e-6}.us(), 2.0);
}

TEST(Units, StreamOutput) {
  std::ostringstream oss;
  oss << sc::megahertz{1312.0} << "|" << sc::frequency_config{sc::megahertz{877}, sc::megahertz{1312}};
  EXPECT_NE(oss.str().find("1312 MHz"), std::string::npos);
  EXPECT_NE(oss.str().find("mem 877"), std::string::npos);
}

// ---------------------------------------------------------------- error ----

TEST(Error, ResultHoldsValue) {
  sc::result<int> r{42};
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(Error, ResultHoldsError) {
  sc::result<int> r{sc::error{sc::errc::no_permission, "denied"}};
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.err().code, sc::errc::no_permission);
  EXPECT_EQ(r.value_or(-1), -1);
  EXPECT_THROW((void)r.value(), std::runtime_error);
}

TEST(Error, StatusDefaultsToSuccess) {
  const sc::status ok = sc::status::success();
  EXPECT_TRUE(ok.ok());
  const sc::status bad = sc::error{sc::errc::not_found, "missing"};
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.err().code, sc::errc::not_found);
}

TEST(Error, ErrcNames) {
  EXPECT_STREQ(sc::to_string(sc::errc::no_permission), "no_permission");
  EXPECT_STREQ(sc::to_string(sc::errc::not_supported), "not_supported");
  EXPECT_STREQ(sc::to_string(sc::errc::uninitialized), "uninitialized");
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicForSameSeed) {
  sc::pcg32 a{123}, b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  sc::pcg32 a{123}, b{124};
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange) {
  sc::pcg32 rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BoundedIsUnbiasedEnough) {
  sc::pcg32 rng{99};
  std::array<int, 10> counts{};
  for (int i = 0; i < 100000; ++i) counts[rng.bounded(10)]++;
  for (const int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(Rng, BoundedZeroReturnsZero) {
  sc::pcg32 rng{1};
  EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  sc::pcg32 rng{2024};
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(Rng, NormalWithParameters) {
  sc::pcg32 rng{5};
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

// ------------------------------------------------------------------ csv ----

TEST(Csv, PlainRow) {
  std::ostringstream oss;
  sc::csv_writer w{oss};
  w.row({"a", "b", "c"});
  EXPECT_EQ(oss.str(), "a,b,c\n");
}

TEST(Csv, QuotesSpecialFields) {
  std::ostringstream oss;
  sc::csv_writer w{oss};
  w.row({"has,comma", "has\"quote", "plain"});
  EXPECT_EQ(oss.str(), "\"has,comma\",\"has\"\"quote\",plain\n");
}

TEST(Csv, RoundTrip) {
  std::ostringstream oss;
  sc::csv_writer w{oss};
  w.row({"x,y", "z\"w", "plain", ""});
  std::string line = oss.str();
  line.pop_back();  // strip newline
  const auto fields = sc::parse_csv_line(line);
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "x,y");
  EXPECT_EQ(fields[1], "z\"w");
  EXPECT_EQ(fields[2], "plain");
  EXPECT_EQ(fields[3], "");
}

TEST(Csv, NumberFormatting) {
  EXPECT_EQ(sc::csv_writer::num(1.5), "1.5");
  EXPECT_EQ(sc::csv_writer::num(std::nan("")), "nan");
}

TEST(Csv, SplitRecordsHandlesLineEndings) {
  // LF, CRLF, and a missing trailing newline all yield the same records.
  const std::vector<std::string> expected{"a,b", "c,d"};
  EXPECT_EQ(sc::split_csv_records("a,b\nc,d\n"), expected);
  EXPECT_EQ(sc::split_csv_records("a,b\r\nc,d\r\n"), expected);
  EXPECT_EQ(sc::split_csv_records("a,b\nc,d"), expected);
  EXPECT_EQ(sc::split_csv_records("a,b\r\nc,d"), expected);
}

TEST(Csv, SplitRecordsKeepsQuotedNewlinesInOneRecord) {
  const auto records = sc::split_csv_records("x,\"two\nlines\",y\nnext,row\n");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], "x,\"two\nlines\",y");
  EXPECT_EQ(records[1], "next,row");
  // The preserved record parses back to the original fields.
  const auto fields = sc::parse_csv_line(records[0]);
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "two\nlines");
}

TEST(Csv, SplitRecordsPreservesCrInsideQuotes) {
  // A CR belonging to field data (quoted) survives; a CRLF terminator does not.
  const auto records = sc::split_csv_records("\"a\rb\",c\r\n");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "\"a\rb\",c");
}

TEST(Csv, SplitRecordsHandlesDoubledQuotesAndBlanks) {
  // Doubled quotes stay inside the quoted state; blank lines are preserved
  // as empty records for the caller's skip policy.
  const auto records = sc::split_csv_records("\"he said \"\"hi\"\"\",x\n\nlast");
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], "\"he said \"\"hi\"\"\",x");
  EXPECT_EQ(records[1], "");
  EXPECT_EQ(records[2], "last");
  EXPECT_TRUE(sc::split_csv_records("").empty());
}

// ---------------------------------------------------------------- table ----

TEST(Parse, NumbersParseWholeOrNameWhatFailed) {
  using synergy::common::parse_number;
  EXPECT_EQ(parse_number<std::size_t>("64", "--nodes"), 64u);
  EXPECT_EQ(parse_number<int>("-3", "id"), -3);
  EXPECT_EQ(parse_number<double>("-1", "deadline_s"), -1.0);
  // Every %.17g rendering reads back to its bits.
  for (const double v : {5.59, 1.0 / 3.0, 268435456.0, 1e-300, 4.9e-324,
                         std::numeric_limits<double>::max()}) {
    char text[32];
    std::snprintf(text, sizeof text, "%.17g", v);
    EXPECT_EQ(parse_number<double>(text, "submit_s"), v) << text;
  }
  // stoul read "2x" as 2 and wrapped "-1" to 2^64 - 1; std::stod read
  // " 5" and "+5" as 5. None is a whole number token.
  for (const char* bad : {"", "2x", "-1", "+1", " 1", "1 ", "0x10", "18446744073709551616"}) {
    try {
      (void)parse_number<std::uint64_t>(bad, "--seed");
      ADD_FAILURE() << "parsed \"" << bad << "\"";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("--seed: \"" + std::string(bad) + "\" is ", 0), 0u)
          << e.what();
    }
  }
  EXPECT_THROW((void)parse_number<int>("99999999999", "n_gpus"), std::invalid_argument);
  EXPECT_THROW((void)parse_number<double>("1e400", "work_items"), std::invalid_argument);
  EXPECT_THROW((void)parse_number<double>("3000W", "--cap"), std::invalid_argument);
}

TEST(Table, AlignsColumns) {
  sc::text_table t;
  t.header({"name", "value"});
  t.row({"short", "1.0"});
  t.row({"much_longer_name", "12345.678"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("much_longer_name"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(sc::text_table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(sc::text_table::fmt(-1.0, 0), "-1");
}

// ---------------------------------------------------------------- stats ----

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(sc::mean(xs), 5.0);
  EXPECT_NEAR(sc::stddev(xs), 2.138, 1e-3);
}

TEST(Stats, EmptyAndSingleton) {
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(sc::mean(empty), 0.0);
  EXPECT_DOUBLE_EQ(sc::stddev(empty), 0.0);
  const std::vector<double> one{3.0};
  EXPECT_DOUBLE_EQ(sc::stddev(one), 0.0);
}

TEST(Stats, Percentile) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(sc::percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(sc::percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(sc::percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(sc::percentile(xs, 25), 2.0);
}

TEST(Stats, PercentileThrowsOnEmpty) {
  const std::vector<double> empty;
  EXPECT_THROW((void)sc::percentile(empty, 50), std::invalid_argument);
}

TEST(Stats, Linspace) {
  const auto xs = sc::linspace(0.0, 1.0, 5);
  ASSERT_EQ(xs.size(), 5u);
  EXPECT_DOUBLE_EQ(xs[0], 0.0);
  EXPECT_DOUBLE_EQ(xs[2], 0.5);
  EXPECT_DOUBLE_EQ(xs[4], 1.0);
  EXPECT_EQ(sc::linspace(3.0, 9.0, 1), std::vector<double>{3.0});
  EXPECT_TRUE(sc::linspace(0, 1, 0).empty());
}

TEST(Stats, MinMax) {
  const std::vector<double> xs{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(sc::min_value(xs), -1.0);
  EXPECT_DOUBLE_EQ(sc::max_value(xs), 7.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{2, 4, 6, 8};
  EXPECT_NEAR(sc::pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> neg{8, 6, 4, 2};
  EXPECT_NEAR(sc::pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonDegenerate) {
  const std::vector<double> xs{1, 1, 1};
  const std::vector<double> ys{1, 2, 3};
  EXPECT_DOUBLE_EQ(sc::pearson(xs, ys), 0.0);
}

// ------------------------------------------------------------------ log ----

TEST(Log, SinkCapturesMessagesAtLevel) {
  auto& lg = sc::logger::instance();
  std::vector<std::string> captured;
  auto previous = lg.set_sink([&](sc::log_level, const std::string& m) { captured.push_back(m); });
  const auto previous_level = lg.level();
  lg.set_level(sc::log_level::info);

  sc::log_debug("hidden");
  sc::log_info("visible ", 42);
  sc::log_error("error ", 3.5);

  lg.set_level(previous_level);
  lg.set_sink(previous);

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0], "visible 42");
  EXPECT_EQ(captured[1], "error 3.5");
}

TEST(Log, OffSilencesEverything) {
  auto& lg = sc::logger::instance();
  int count = 0;
  auto previous = lg.set_sink([&](sc::log_level, const std::string&) { ++count; });
  const auto previous_level = lg.level();
  lg.set_level(sc::log_level::off);
  sc::log_error("should not appear");
  lg.set_level(previous_level);
  lg.set_sink(previous);
  EXPECT_EQ(count, 0);
}

TEST(Log, StructuredFieldsRenderIntoSinkMessage) {
  auto& lg = sc::logger::instance();
  std::vector<std::string> captured;
  auto previous = lg.set_sink([&](sc::log_level, const std::string& m) { captured.push_back(m); });
  const auto previous_level = lg.level();
  lg.set_level(sc::log_level::info);

  sc::log_info_kv("clock set", {{"device", 0}, {"core_mhz", 1312.5}, {"state", "two words"}});

  lg.set_level(previous_level);
  lg.set_sink(previous);

  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "clock set device=0 core_mhz=1312.5 state=\"two words\"");
}

TEST(Log, FormatFieldsQuotesAndEmpty) {
  EXPECT_EQ(sc::format_fields({}), "");
  EXPECT_EQ(sc::format_fields({{"a", 1}}), " a=1");
  EXPECT_EQ(sc::format_fields({{"msg", "has space"}}), " msg=\"has space\"");
}

TEST(Log, TapSeesFieldsSeparately) {
  auto& lg = sc::logger::instance();
  std::string tap_message;
  sc::log_fields tap_fields;
  auto previous_tap = lg.set_tap([&](sc::log_level, const std::string& m, const sc::log_fields& f) {
    tap_message = m;
    tap_fields = f;
  });
  auto previous_sink = lg.set_sink(nullptr);
  const auto previous_level = lg.level();
  lg.set_level(sc::log_level::info);

  sc::log_warn_kv("rebalance", {{"nodes", 3}});

  lg.set_level(previous_level);
  lg.set_sink(previous_sink);
  lg.set_tap(previous_tap);

  EXPECT_EQ(tap_message, "rebalance");
  ASSERT_EQ(tap_fields.size(), 1u);
  EXPECT_EQ(tap_fields[0].key, "nodes");
  EXPECT_EQ(tap_fields[0].value, "3");
}

TEST(Log, ConcurrentLoggingThroughCapturedSinkIsSerialised) {
  auto& lg = sc::logger::instance();
  // The sink mutates unsynchronised state; the logger's internal mutex must
  // serialise invocations or this races (and fails under TSan / count drift).
  std::vector<std::string> captured;
  auto previous = lg.set_sink([&](sc::log_level, const std::string& m) { captured.push_back(m); });
  const auto previous_level = lg.level();
  lg.set_level(sc::log_level::info);

  constexpr int n_threads = 8;
  constexpr int per_thread = 500;
  std::vector<std::thread> threads;
  threads.reserve(n_threads);
  for (int t = 0; t < n_threads; ++t)
    threads.emplace_back([t] {
      for (int i = 0; i < per_thread; ++i)
        sc::log_info_kv("msg", {{"thread", t}, {"i", i}});
    });
  for (auto& t : threads) t.join();

  lg.set_level(previous_level);
  lg.set_sink(previous);

  EXPECT_EQ(captured.size(), static_cast<std::size_t>(n_threads) * per_thread);
  for (const auto& m : captured) EXPECT_EQ(m.rfind("msg thread=", 0), 0u);
}

// ----------------------------------------------------------- smoothing ----

TEST(Ewma, FirstObservationBecomesTheValueExactly) {
  sc::ewma e{0.25, 100.0};  // seeded well away from the signal
  EXPECT_TRUE(e.empty());
  EXPECT_DOUBLE_EQ(e.value(), 100.0);
  e.observe(4.0);
  // No pull toward the seed on the first sample.
  EXPECT_DOUBLE_EQ(e.value(), 4.0);
  EXPECT_FALSE(e.empty());
  e.observe(8.0);
  EXPECT_DOUBLE_EQ(e.value(), 4.0 + 0.25 * (8.0 - 4.0));
}

TEST(Ewma, ResetReturnsToTheSeed) {
  sc::ewma e{0.5, 7.0};
  e.observe(1.0);
  e.observe(2.0);
  ASSERT_EQ(e.count(), 2u);
  e.reset();
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.count(), 0u);
  EXPECT_DOUBLE_EQ(e.value(), 7.0);
  // Post-reset behaves like a fresh average: first sample becomes the value.
  e.observe(3.0);
  EXPECT_DOUBLE_EQ(e.value(), 3.0);
}

TEST(Ewma, OutOfRangeAlphaIsClampedIntoUnitInterval) {
  EXPECT_DOUBLE_EQ(sc::ewma{2.0}.alpha(), 1.0);
  EXPECT_GT(sc::ewma{-0.5}.alpha(), 0.0);
  sc::ewma raw{5.0};  // clamps to 1: tracks the raw signal
  raw.observe(1.0);
  raw.observe(9.0);
  EXPECT_DOUBLE_EQ(raw.value(), 9.0);
}

TEST(MovingAverage, PartialWindowDividesBySamplesSeen) {
  sc::moving_average m{4};
  EXPECT_TRUE(m.empty());
  EXPECT_DOUBLE_EQ(m.value(), 0.0);
  m.observe(10.0);
  EXPECT_DOUBLE_EQ(m.value(), 10.0);  // 10/1, never 10/4
  m.observe(20.0);
  EXPECT_DOUBLE_EQ(m.value(), 15.0);
  EXPECT_FALSE(m.full());
  EXPECT_EQ(m.size(), 2u);
}

TEST(MovingAverage, FullWindowEvictsTheOldestSample) {
  sc::moving_average m{3};
  for (const double x : {1.0, 2.0, 3.0}) m.observe(x);
  EXPECT_TRUE(m.full());
  EXPECT_DOUBLE_EQ(m.value(), 2.0);
  m.observe(10.0);  // evicts the 1.0
  EXPECT_DOUBLE_EQ(m.value(), 5.0);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.count(), 4u);  // lifetime observations keep counting
}

TEST(MovingAverage, ResetEmptiesTheWindow) {
  sc::moving_average m{3};
  m.observe(5.0);
  m.observe(7.0);
  m.reset();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.count(), 0u);
  EXPECT_DOUBLE_EQ(m.value(), 0.0);
  m.observe(2.0);
  EXPECT_DOUBLE_EQ(m.value(), 2.0);
}

TEST(MovingAverage, ZeroCapacityIsClampedToOne) {
  sc::moving_average m{0};
  EXPECT_EQ(m.capacity(), 1u);
  m.observe(3.0);
  m.observe(9.0);
  EXPECT_DOUBLE_EQ(m.value(), 9.0);  // window of one: latest sample only
}
