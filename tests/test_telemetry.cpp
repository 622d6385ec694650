#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "synergy/common/csv.hpp"
#include "synergy/common/log.hpp"
#include "synergy/telemetry/export.hpp"
#include "synergy/telemetry/telemetry.hpp"

namespace tel = synergy::telemetry;

namespace telemetry_compileout {
int compiled_state();
void run_all_macros();
}  // namespace telemetry_compileout

namespace {

// ---------------------------------------------------------------- mini JSON --
// Just enough of a strict JSON parser to round-trip the Chrome exporter's
// output: objects, arrays, strings with escapes, numbers, bools, null.

struct json_value {
  enum class kind { null, boolean, number, string, array, object };
  kind k{kind::null};
  bool b{false};
  double num{0.0};
  std::string str;
  std::vector<json_value> arr;
  std::map<std::string, json_value> obj;

  [[nodiscard]] const json_value* find(const std::string& key) const {
    const auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
};

class json_parser {
 public:
  explicit json_parser(std::string_view text) : s_(text) {}

  std::optional<json_value> parse() {
    auto v = parse_value();
    skip_ws();
    if (!v || pos_ != s_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  std::string_view s_;
  std::size_t pos_{0};

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                                s_[pos_] == '\r'))
      ++pos_;
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<json_value> parse_value() {
    skip_ws();
    if (pos_ >= s_.size()) return std::nullopt;
    const char c = s_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return parse_string();
    if (c == 't' || c == 'f') return parse_bool();
    if (c == 'n') return parse_null();
    return parse_number();
  }

  std::optional<json_value> parse_object() {
    if (!eat('{')) return std::nullopt;
    json_value v;
    v.k = json_value::kind::object;
    skip_ws();
    if (eat('}')) return v;
    while (true) {
      auto key = parse_string();
      if (!key || !eat(':')) return std::nullopt;
      auto val = parse_value();
      if (!val) return std::nullopt;
      v.obj.emplace(key->str, std::move(*val));
      if (eat(',')) continue;
      if (eat('}')) return v;
      return std::nullopt;
    }
  }

  std::optional<json_value> parse_array() {
    if (!eat('[')) return std::nullopt;
    json_value v;
    v.k = json_value::kind::array;
    skip_ws();
    if (eat(']')) return v;
    while (true) {
      auto item = parse_value();
      if (!item) return std::nullopt;
      v.arr.push_back(std::move(*item));
      if (eat(',')) continue;
      if (eat(']')) return v;
      return std::nullopt;
    }
  }

  std::optional<json_value> parse_string() {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != '"') return std::nullopt;
    ++pos_;
    json_value v;
    v.k = json_value::kind::string;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return std::nullopt;
        const char e = s_[pos_++];
        switch (e) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return std::nullopt;
            c = static_cast<char>(std::stoi(std::string(s_.substr(pos_, 4)), nullptr, 16));
            pos_ += 4;
            break;
          }
          default: return std::nullopt;
        }
      }
      v.str += c;
    }
    if (pos_ >= s_.size()) return std::nullopt;
    ++pos_;  // closing quote
    return v;
  }

  std::optional<json_value> parse_bool() {
    json_value v;
    v.k = json_value::kind::boolean;
    if (s_.substr(pos_, 4) == "true") {
      v.b = true;
      pos_ += 4;
      return v;
    }
    if (s_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return v;
    }
    return std::nullopt;
  }

  std::optional<json_value> parse_null() {
    if (s_.substr(pos_, 4) != "null") return std::nullopt;
    pos_ += 4;
    return json_value{};
  }

  std::optional<json_value> parse_number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                                s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
                                s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) return std::nullopt;
    json_value v;
    v.k = json_value::kind::number;
    try {
      v.num = std::stod(std::string(s_.substr(start, pos_ - start)));
    } catch (...) {
      return std::nullopt;
    }
    return v;
  }
};

// ------------------------------------------------------------------ fixtures --

class telemetry_test : public ::testing::Test {
 protected:
  void SetUp() override {
    tel::set_enabled(true);
    tel::trace_recorder::instance().clear();
  }
  void TearDown() override { tel::set_enabled(true); }
};

// ------------------------------------------------------------------- metrics --

TEST_F(telemetry_test, counter_semantics) {
  auto& c = tel::metrics_registry::instance().get_counter("test.counter_semantics");
  c.reset();
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(telemetry_test, counter_concurrent_adds_do_not_lose_updates) {
  auto& c = tel::metrics_registry::instance().get_counter("test.counter_concurrent");
  c.reset();
  constexpr int n_threads = 8;
  constexpr int per_thread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(n_threads);
  for (int t = 0; t < n_threads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < per_thread; ++i) c.add();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(n_threads) * per_thread);
}

TEST_F(telemetry_test, gauge_set_and_accumulate) {
  auto& g = tel::metrics_registry::instance().get_gauge("test.gauge");
  g.reset();
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST_F(telemetry_test, histogram_fixed_buckets) {
  auto& h =
      tel::metrics_registry::instance().get_histogram("test.histogram", {1.0, 10.0, 100.0});
  h.reset();
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(1.0);   // bucket 0 (inclusive upper bound)
  h.observe(5.0);   // bucket 1
  h.observe(50.0);  // bucket 2
  h.observe(500.0); // overflow bucket
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 556.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  EXPECT_NEAR(h.mean(), 556.5 / 5.0, 1e-12);
  ASSERT_EQ(h.bounds().size(), 3u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
}

TEST_F(telemetry_test, histogram_quantile_interpolates_within_buckets) {
  auto& h =
      tel::metrics_registry::instance().get_histogram("test.quantile_hist", {10.0, 20.0});
  h.reset();
  // 10 observations spread across the (0,10] bucket.
  for (int i = 1; i <= 10; ++i) h.observe(static_cast<double>(i));
  // Rank p*total falls inside the single populated bucket; linear
  // interpolation maps the fractional rank onto the bucket span [min, 10].
  EXPECT_GT(h.quantile(0.5), h.min());
  EXPECT_LT(h.quantile(0.5), 10.0);
  EXPECT_LT(h.quantile(0.1), h.quantile(0.9));
  EXPECT_LE(h.quantile(1.0), 10.0);
  // Monotone in p.
  EXPECT_LE(h.quantile(0.25), h.quantile(0.75));
}

TEST_F(telemetry_test, histogram_quantile_empty_is_zero) {
  auto& h = tel::metrics_registry::instance().get_histogram("test.quantile_empty", {1.0});
  h.reset();
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST_F(telemetry_test, histogram_quantile_single_bucket_spans_min_to_bound) {
  auto& h = tel::metrics_registry::instance().get_histogram("test.quantile_one", {100.0});
  h.reset();
  h.observe(40.0);
  h.observe(60.0);
  // Everything sits in one bucket: quantiles interpolate across
  // [min_observed, bound], clamped to the observed range at the edges.
  EXPECT_GE(h.quantile(0.0), 0.0);
  EXPECT_LE(h.quantile(1.0), 100.0);
  EXPECT_GE(h.quantile(1.0), h.quantile(0.0));
}

TEST_F(telemetry_test, histogram_quantile_overflow_bucket_reports_max) {
  auto& h = tel::metrics_registry::instance().get_histogram("test.quantile_over", {1.0});
  h.reset();
  h.observe(0.5);
  h.observe(50.0);   // overflow bucket (> 1.0)
  h.observe(500.0);  // overflow bucket
  // The +inf bucket has no upper edge to interpolate against; quantiles
  // landing there report the observed maximum.
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 500.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 500.0);
  // Quantiles below the overflow mass stay in the finite bucket.
  EXPECT_LE(h.quantile(0.2), 1.0);
  // p is clamped to [0, 1]: out-of-range requests behave like the edges.
  EXPECT_DOUBLE_EQ(h.quantile(1.5), 500.0);
  EXPECT_LE(h.quantile(-0.5), 1.0);
}

TEST_F(telemetry_test, histogram_default_buckets_cover_decades) {
  auto& h = tel::metrics_registry::instance().get_histogram("test.histogram_default");
  EXPECT_GE(h.bounds().size(), 8u);  // 1e-6 .. 1e3 decades
  EXPECT_TRUE(std::is_sorted(h.bounds().begin(), h.bounds().end()));
}

TEST_F(telemetry_test, registry_snapshot_is_sorted_and_typed) {
  auto& reg = tel::metrics_registry::instance();
  reg.get_counter("test.zz_counter").add(7);
  reg.get_gauge("test.aa_gauge").set(1.25);
  const auto snap = reg.snapshot();
  ASSERT_GE(snap.size(), 2u);
  EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end(), [](const auto& a, const auto& b) {
    return a.name < b.name;
  }));
  bool found_counter = false, found_gauge = false;
  for (const auto& m : snap) {
    if (m.name == "test.zz_counter") {
      found_counter = true;
      EXPECT_EQ(m.type, tel::metric_snapshot::kind::counter);
      EXPECT_GE(m.value, 7.0);
    }
    if (m.name == "test.aa_gauge") {
      found_gauge = true;
      EXPECT_EQ(m.type, tel::metric_snapshot::kind::gauge);
      EXPECT_DOUBLE_EQ(m.value, 1.25);
    }
  }
  EXPECT_TRUE(found_counter);
  EXPECT_TRUE(found_gauge);
}

TEST_F(telemetry_test, summary_table_renders_every_kind) {
  auto& reg = tel::metrics_registry::instance();
  reg.get_counter("test.table_counter").add(3);
  reg.get_gauge("test.table_gauge").set(9.5);
  reg.get_histogram("test.table_histogram", {1.0}).observe(0.5);
  std::ostringstream os;
  reg.summary_table(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("test.table_counter"), std::string::npos);
  EXPECT_NE(out.find("test.table_gauge"), std::string::npos);
  EXPECT_NE(out.find("test.table_histogram"), std::string::npos);
  EXPECT_NE(out.find("metric"), std::string::npos);
}

// --------------------------------------------------------------------- trace --

TEST_F(telemetry_test, ring_buffer_wraps_and_counts_drops) {
  tel::trace_recorder rec{4};
  for (int i = 0; i < 6; ++i) {
    tel::trace_event e;
    e.name = "event_" + std::to_string(i);
    e.ts_us = static_cast<double>(i);
    rec.record(std::move(e));
  }
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 2u);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest two were overwritten; order is oldest -> newest.
  EXPECT_EQ(events.front().name, "event_2");
  EXPECT_EQ(events.back().name, "event_5");
}

TEST_F(telemetry_test, clear_and_set_capacity_reset_state) {
  tel::trace_recorder rec{2};
  rec.instant(tel::category::other, "x");
  rec.instant(tel::category::other, "y");
  rec.instant(tel::category::other, "z");
  EXPECT_EQ(rec.dropped(), 1u);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  rec.set_capacity(8);
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_EQ(rec.size(), 0u);
}

TEST_F(telemetry_test, ring_names_round_trip_up_to_the_inline_capacity) {
  constexpr std::size_t cap = tel::trace_name::capacity;
  tel::trace_recorder rec{32};
  std::vector<std::string> names;
  for (const std::size_t len : {std::size_t{0}, std::size_t{1}, cap - 1, cap, cap + 1, 3 * cap}) {
    std::string name;
    for (std::size_t i = 0; i < len; ++i) name += static_cast<char>('a' + i % 26);
    names.push_back(name);
    rec.instant(tel::category::other, name);
    rec.complete(tel::category::other, name, 0.0, 1.0, tel::trace_event::device_pid);
    tel::trace_event e;
    e.name = name;
    rec.record(std::move(e));
  }
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 3 * names.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string& name = names[i / 3];
    EXPECT_EQ(events[i].name, std::string_view(name).substr(0, cap)) << "length " << name.size();
    EXPECT_EQ(events[i].name.size(), std::min(name.size(), cap));
  }
}

TEST_F(telemetry_test, ring_concurrent_record_and_snapshot_keep_names_whole) {
  // Writers record mixed-length names (some past the inline capacity) into a
  // ring small enough to wrap many times while a reader takes snapshots.
  // Every event is either held or counted as dropped, and every name read
  // back is one a writer recorded (cut at the capacity) -- never a mix of
  // two slot writes.
  constexpr int writers = 8;
  constexpr int per_writer = 2000;
  constexpr std::size_t cap = tel::trace_name::capacity;
  tel::trace_recorder rec{64};
  const auto name_of = [](int w, int i) {
    return std::to_string(w) + ':' + std::string(static_cast<std::size_t>(i % 70), 'a' + w);
  };
  std::set<std::string, std::less<>> allowed;
  for (int w = 0; w < writers; ++w)
    for (int i = 0; i < 70; ++i) allowed.insert(name_of(w, i).substr(0, cap));

  std::atomic<bool> done{false};
  std::size_t torn = 0;
  std::size_t snapshots = 0;
  std::thread reader([&] {
    while (!done.load()) {
      for (const auto& e : rec.snapshot())
        if (!allowed.contains(std::string_view(e.name))) ++torn;
      ++snapshots;
    }
  });
  std::vector<std::thread> pool;
  for (int w = 0; w < writers; ++w)
    pool.emplace_back([&, w] {
      for (int i = 0; i < per_writer; ++i) {
        const std::string name = name_of(w, i);
        if (i % 2 == 0)
          rec.instant(tel::category::other, name, {{"i", static_cast<double>(i)}});
        else
          rec.complete(tel::category::other, name, 0.0, 1.0, tel::trace_event::host_pid);
      }
    });
  for (auto& t : pool) t.join();
  done.store(true);
  reader.join();

  EXPECT_EQ(rec.size() + rec.dropped(), static_cast<std::size_t>(writers * per_writer));
  EXPECT_EQ(rec.size(), rec.capacity());
  EXPECT_EQ(torn, 0u);
  EXPECT_GT(snapshots, 0u);
  for (const auto& e : rec.snapshot())
    EXPECT_TRUE(allowed.contains(std::string_view(e.name))) << std::string_view(e.name);
}

TEST_F(telemetry_test, span_nesting_is_contained_and_ordered) {
  auto& rec = tel::trace_recorder::instance();
  {
    tel::scoped_span outer(tel::category::sched, "outer");
    {
      tel::scoped_span inner(tel::category::plan, "inner");
      inner.arg("depth", 2.0);
    }
  }
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Spans are recorded at destruction: inner closes first.
  const auto& inner = events[0];
  const auto& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us + 1e-6);
  ASSERT_EQ(inner.n_args, 1);
  EXPECT_STREQ(inner.args[0].key, "depth");
  EXPECT_DOUBLE_EQ(inner.args[0].value, 2.0);
}

TEST_F(telemetry_test, instant_events_carry_args) {
  auto& rec = tel::trace_recorder::instance();
  rec.instant(tel::category::freq_change, "clock", {{"core_mhz", 1312.0}, {"ok", 1.0}});
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_EQ(events[0].cat, tel::category::freq_change);
  ASSERT_EQ(events[0].n_args, 2);
  EXPECT_DOUBLE_EQ(events[0].args[0].value, 1312.0);
}

TEST_F(telemetry_test, runtime_kill_switch_stops_spans) {
  auto& rec = tel::trace_recorder::instance();
  tel::set_enabled(false);
  {
    tel::scoped_span span(tel::category::kernel, "disabled");
    span.arg("x", 1.0);
  }
  EXPECT_EQ(rec.size(), 0u);
  tel::set_enabled(true);
  { tel::scoped_span span(tel::category::kernel, "enabled"); }
  EXPECT_EQ(rec.size(), 1u);
}

// ----------------------------------------------------------------- exporters --

TEST_F(telemetry_test, chrome_trace_json_round_trips) {
  auto& rec = tel::trace_recorder::instance();
  rec.instant(tel::category::power_sample, "sample \"quoted\"\nline", {{"watts", 250.5}});
  {
    tel::scoped_span span(tel::category::kernel, "submit");
    span.str("kernel", "mat_mul");
    span.arg("energy_j", 1.5);
  }
  rec.complete(tel::category::kernel, "device_kernel", 10.0, 20.0,
               tel::trace_event::device_pid, {{"core_mhz", 1100.0}});

  std::ostringstream os;
  tel::write_chrome_trace(os, rec.snapshot());
  const std::string json = os.str();

  json_parser parser(json);
  const auto parsed = parser.parse();
  ASSERT_TRUE(parsed.has_value()) << json;
  ASSERT_EQ(parsed->k, json_value::kind::object);
  const auto* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->k, json_value::kind::array);
  // 3 process_name metadata events (host, device, cluster) + 3 recorded events.
  ASSERT_EQ(events->arr.size(), 6u);

  bool found_instant = false, found_span = false, found_device = false;
  for (const auto& e : events->arr) {
    ASSERT_EQ(e.k, json_value::kind::object);
    const auto* name = e.find("name");
    const auto* ph = e.find("ph");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("args"), nullptr);
    if (name->str == "sample \"quoted\"\nline") {
      found_instant = true;
      EXPECT_EQ(ph->str, "i");
      EXPECT_DOUBLE_EQ(e.find("args")->find("watts")->num, 250.5);
    }
    if (name->str == "submit") {
      found_span = true;
      EXPECT_EQ(ph->str, "X");
      ASSERT_NE(e.find("dur"), nullptr);
      EXPECT_EQ(e.find("args")->find("kernel")->str, "mat_mul");
    }
    if (name->str == "device_kernel") {
      found_device = true;
      EXPECT_DOUBLE_EQ(e.find("pid")->num, tel::trace_event::device_pid);
      EXPECT_DOUBLE_EQ(e.find("ts")->num, 10.0);
      EXPECT_DOUBLE_EQ(e.find("dur")->num, 20.0);
    }
  }
  EXPECT_TRUE(found_instant);
  EXPECT_TRUE(found_span);
  EXPECT_TRUE(found_device);
}

TEST_F(telemetry_test, chrome_trace_json_valid_when_empty) {
  // Regression: with zero recorded events the metadata events must not
  // leave a trailing comma (the compiled-out build exports an empty trace).
  std::ostringstream os;
  tel::write_chrome_trace(os, {});
  const std::string json = os.str();
  json_parser parser(json);
  const auto parsed = parser.parse();
  ASSERT_TRUE(parsed.has_value()) << json;
  ASSERT_EQ(parsed->find("traceEvents")->arr.size(), 3u);  // metadata only
}

TEST_F(telemetry_test, csv_export_one_row_per_event) {
  auto& rec = tel::trace_recorder::instance();
  rec.instant(tel::category::sched, "a", {{"x", 1.0}});
  rec.instant(tel::category::sched, "b");
  std::ostringstream os;
  tel::write_csv(os, rec.snapshot());
  const std::string csv = os.str();
  EXPECT_EQ(csv.find("ts_us,dur_us,pid,tid,category,phase,name,args"), 0u);
  std::size_t lines = 0;
  for (const char c : csv)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 3u);  // header + 2 events
  EXPECT_NE(csv.find("x=1.000000"), std::string::npos);
}

TEST_F(telemetry_test, csv_export_round_trips_hostile_names) {
  // Regression: the CSV writer used to emit span names and string args
  // verbatim inside quotes — a name containing `"` ended the field early
  // and shifted every later column.
  auto& rec = tel::trace_recorder::instance();
  rec.instant(tel::category::kernel, "mat \"mul\", tiled", {{"watts", 1.0}});
  {
    tel::scoped_span span(tel::category::sched, "place");
    span.str("node", "rack\"7\"\nslot");
  }
  std::ostringstream os;
  tel::write_csv(os, rec.snapshot());

  const auto records = synergy::common::split_csv_records(os.str());
  ASSERT_EQ(records.size(), 3u);  // header + 2 events
  const auto header = synergy::common::parse_csv_line(records[0]);
  ASSERT_EQ(header.size(), 8u);

  const auto row0 = synergy::common::parse_csv_line(records[1]);
  ASSERT_EQ(row0.size(), 8u);
  EXPECT_EQ(row0[6], "mat \"mul\", tiled");
  EXPECT_EQ(row0[4], "kernel");
  EXPECT_EQ(row0[7], "watts=1.000000");

  const auto row1 = synergy::common::parse_csv_line(records[2]);
  ASSERT_EQ(row1.size(), 8u);
  EXPECT_EQ(row1[6], "place");
  EXPECT_EQ(row1[7], "node=rack\"7\"\nslot");
}

TEST_F(telemetry_test, chrome_trace_escapes_backslash_names) {
  // Span names with backslashes must not smuggle escape sequences into the
  // JSON (e.g. a name ending in `\` would escape the closing quote).
  auto& rec = tel::trace_recorder::instance();
  rec.instant(tel::category::other, "path\\to\\kernel\\", {});
  std::ostringstream os;
  tel::write_chrome_trace(os, rec.snapshot());
  const std::string json = os.str();  // json_parser keeps a view: outlive it
  json_parser parser(json);
  const auto parsed = parser.parse();
  ASSERT_TRUE(parsed.has_value()) << json;
  const auto* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool found = false;
  for (const auto& e : events->arr)
    if (e.find("name") && e.find("name")->str == "path\\to\\kernel\\") found = true;
  EXPECT_TRUE(found);
}

TEST_F(telemetry_test, json_escape_handles_control_characters) {
  EXPECT_EQ(tel::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(tel::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(tel::json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(tel::json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

// --------------------------------------------------------------- compile-out --

TEST_F(telemetry_test, compiled_out_macros_record_nothing) {
  EXPECT_EQ(telemetry_compileout::compiled_state(), 0);
  auto& rec = tel::trace_recorder::instance();
  rec.clear();
  telemetry_compileout::run_all_macros();
  EXPECT_EQ(rec.size(), 0u);
  for (const auto& m : tel::metrics_registry::instance().snapshot())
    EXPECT_EQ(m.name.find("compileout."), std::string::npos) << m.name;
}

#if SYNERGY_TELEMETRY_ENABLED

// -------------------------------------------------- macro instrumentation ----

TEST_F(telemetry_test, macros_record_when_enabled) {
  auto& rec = tel::trace_recorder::instance();
  {
    SYNERGY_SPAN_VAR(span, tel::category::plan, "macro.span");
    span.arg("k", 3.0);
    SYNERGY_INSTANT(tel::category::sched, "macro.instant", {"v", 1.0});
  }
  SYNERGY_COUNTER_ADD("macro.counter", 2);
  SYNERGY_HISTOGRAM_OBSERVE("macro.histogram", 0.5, 1.0, 10.0);
  SYNERGY_GAUGE_SET("macro.gauge", 7.0);

  ASSERT_EQ(rec.size(), 2u);
  const auto events = rec.snapshot();
  EXPECT_EQ(events[0].name, "macro.instant");
  EXPECT_EQ(events[1].name, "macro.span");
  auto& reg = tel::metrics_registry::instance();
  EXPECT_GE(reg.get_counter("macro.counter").value(), 2u);
  EXPECT_GE(reg.get_histogram("macro.histogram").count(), 1u);
  EXPECT_DOUBLE_EQ(reg.get_gauge("macro.gauge").value(), 7.0);
}

TEST_F(telemetry_test, macros_respect_runtime_kill_switch) {
  auto& rec = tel::trace_recorder::instance();
  auto& ctr = tel::metrics_registry::instance().get_counter("macro.kill_switch");
  ctr.reset();
  tel::set_enabled(false);
  SYNERGY_COUNTER_ADD("macro.kill_switch", 1);
  SYNERGY_INSTANT(tel::category::other, "macro.kill_switch_instant");
  EXPECT_EQ(ctr.value(), 0u);
  EXPECT_EQ(rec.size(), 0u);
  tel::set_enabled(true);
}

TEST_F(telemetry_test, log_tap_mirrors_records_into_trace) {
  namespace sc = synergy::common;
  auto& lg = sc::logger::instance();
  auto previous_sink = lg.set_sink(nullptr);  // keep stderr quiet
  const auto previous_level = lg.level();
  lg.set_level(sc::log_level::info);

  ASSERT_TRUE(tel::install_log_tap());
  EXPECT_FALSE(tel::install_log_tap());  // already installed
  sc::log_warn_kv("clock rejected", {{"device", 0}});
  tel::remove_log_tap();
  sc::log_warn("after removal");

  lg.set_level(previous_level);
  lg.set_sink(previous_sink);

  const auto events = tel::trace_recorder::instance().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].cat, tel::category::log);
  EXPECT_EQ(events[0].name, "clock rejected");
  EXPECT_NE(events[0].str_value.find("WARN"), std::string::npos);
  EXPECT_NE(events[0].str_value.find("device=0"), std::string::npos);
}

TEST_F(telemetry_test, log_tap_keeps_a_long_message_in_the_string_arg) {
  namespace sc = synergy::common;
  auto& lg = sc::logger::instance();
  auto previous_sink = lg.set_sink(nullptr);
  const std::string message(tel::trace_name::capacity + 20, 'm');

  ASSERT_TRUE(tel::install_log_tap());
  sc::log_warn("short");
  sc::log_warn(message);
  tel::remove_log_tap();
  lg.set_sink(previous_sink);

  const auto events = tel::trace_recorder::instance().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "short");
  EXPECT_EQ(events[0].str_value, "WARN");
  EXPECT_EQ(events[1].name, message.substr(0, tel::trace_name::capacity));
  EXPECT_EQ(events[1].str_value, "WARN message=" + message);
}

#endif  // SYNERGY_TELEMETRY_ENABLED

}  // namespace
