/// Observability-plane tests: energy ledger semantics, attribution scopes,
/// SLO rule parsing and watchdog latching, the JSON reader, snapshot
/// rendering, and the cross-layer acceptance properties — per-cause
/// attribution conserving the simulated energy, byte-identical snapshots
/// across same-seed replays, and fault-correlated alerts.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "synergy/cluster/simulator.hpp"
#include "synergy/common/rng.hpp"
#include "synergy/obs/energy_ledger.hpp"
#include "synergy/obs/json.hpp"
#include "synergy/obs/slo_watchdog.hpp"
#include "synergy/obs/snapshot.hpp"
#include "synergy/telemetry/metrics_registry.hpp"

namespace obs = synergy::obs;
namespace sc = synergy::cluster;
namespace tel = synergy::telemetry;

namespace {

class obs_test : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::energy_ledger::instance().reset();
    obs::energy_ledger::instance().set_enabled(true);
    tel::metrics_registry::instance().reset_values();
  }
  void TearDown() override { obs::energy_ledger::instance().reset(); }
};

obs::charge_key key(const std::string& node, const std::string& job) {
  return {node, "V100", job, "kernel"};
}

/// One deterministic faulted cluster replay with the ledger charging. The
/// optional watchdog gets the scrape-tick evaluations.
sc::run_summary run_faulted(std::shared_ptr<obs::slo_watchdog> wd = nullptr) {
  obs::energy_ledger::instance().reset();
  tel::metrics_registry::instance().reset_values();
  sc::trace_config tc;
  tc.n_jobs = 40;
  tc.seed = 11;
  const auto trace = sc::generate_trace(tc);
  sc::cluster_config cc;
  cc.n_nodes = 4;
  cc.gpus_per_node = 4;
  cc.faults.clock_set_fail_rate = 0.05;
  cc.faults.power_read_dropout_rate = 0.05;
  cc.faults.device_lost_rate = 0.03;
  cc.faults.max_node_losses = 1;
  cc.faults.seed = 99;
  cc.obs_scrape_interval_s = 5.0;
  sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  if (wd) sim.attach_observability(wd, nullptr);
  return sim.run(trace);
}

}  // namespace

// The cross-layer acceptance tests assert what the *charge sites* put into
// the ledger; with -DSYNERGY_TELEMETRY=OFF those sites compile to nothing,
// so the replay legitimately attributes zero joules.
#if SYNERGY_TELEMETRY_ENABLED
#define SYNERGY_REQUIRE_CHARGE_SITES() ((void)0)
#else
#define SYNERGY_REQUIRE_CHARGE_SITES() \
  GTEST_SKIP() << "charge sites compiled out (SYNERGY_TELEMETRY=OFF)"
#endif

// ---------------------------------------------------------------- ledger

TEST_F(obs_test, ledger_accumulates_per_key_and_cause) {
  auto& l = obs::energy_ledger::instance();
  l.charge(key("n0", "a"), obs::cause::model, 2.0);
  l.charge(key("n0", "a"), obs::cause::model, 3.0);
  l.charge(key("n1", "b"), obs::cause::fault_wasted, 1.5);

  EXPECT_DOUBLE_EQ(l.total_j(), 6.5);
  EXPECT_EQ(l.charges(), 3u);
  const auto totals = l.totals_by_cause();
  EXPECT_DOUBLE_EQ(totals[static_cast<std::size_t>(obs::cause::model)], 5.0);
  EXPECT_DOUBLE_EQ(totals[static_cast<std::size_t>(obs::cause::fault_wasted)], 1.5);

  const auto entries = l.entries();
  ASSERT_EQ(entries.size(), 2u);
  // Key-ordered: n0 before n1.
  EXPECT_EQ(entries[0].key.node, "n0");
  EXPECT_DOUBLE_EQ(entries[0].total_j, 5.0);
  EXPECT_EQ(entries[1].key.node, "n1");
  EXPECT_DOUBLE_EQ(entries[1].total_j, 1.5);
}

TEST_F(obs_test, ledger_drops_hostile_amounts) {
  auto& l = obs::energy_ledger::instance();
  l.charge(key("n0", "a"), obs::cause::model, std::numeric_limits<double>::quiet_NaN());
  l.charge(key("n0", "a"), obs::cause::model, std::numeric_limits<double>::infinity());
  l.charge(key("n0", "a"), obs::cause::model, -1.0);
  l.charge(key("n0", "a"), obs::cause::model, 0.0);
  EXPECT_DOUBLE_EQ(l.total_j(), 0.0);
  EXPECT_EQ(l.charges(), 0u);
  EXPECT_TRUE(l.entries().empty());
}

TEST_F(obs_test, ledger_kill_switch_drops_charges) {
  auto& l = obs::energy_ledger::instance();
  l.set_enabled(false);
  l.charge(key("n0", "a"), obs::cause::model, 2.0);
  EXPECT_DOUBLE_EQ(l.total_j(), 0.0);
  l.set_enabled(true);
  l.charge(key("n0", "a"), obs::cause::model, 2.0);
  EXPECT_DOUBLE_EQ(l.total_j(), 2.0);
}

TEST_F(obs_test, ledger_reset_clears_everything) {
  auto& l = obs::energy_ledger::instance();
  l.charge(key("n0", "a"), obs::cause::idle, 1.0);
  l.scrape(1.0);
  l.reset();
  EXPECT_DOUBLE_EQ(l.total_j(), 0.0);
  EXPECT_EQ(l.charges(), 0u);
  EXPECT_TRUE(l.entries().empty());
  EXPECT_TRUE(l.series().empty());
}

TEST_F(obs_test, scrape_series_is_cumulative_on_virtual_time) {
  auto& l = obs::energy_ledger::instance();
  l.charge(key("n0", "a"), obs::cause::model, 1.0);
  l.scrape(5.0);
  l.charge(key("n0", "a"), obs::cause::model, 2.0);
  l.scrape(10.0);
  const auto s = l.series();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0].t_s, 5.0);
  EXPECT_DOUBLE_EQ(s[0].total_j, 1.0);
  EXPECT_DOUBLE_EQ(s[1].t_s, 10.0);
  EXPECT_DOUBLE_EQ(s[1].total_j, 3.0);
  EXPECT_EQ(s[1].charges, 2u);
}

TEST_F(obs_test, attribution_scope_nests_and_restores) {
  EXPECT_EQ(obs::current_attribution().why, obs::cause::unattributed);
  {
    obs::attribution_scope outer{"node-7", "job-1", obs::cause::model};
    EXPECT_EQ(obs::current_attribution().node, "node-7");
    EXPECT_EQ(obs::current_attribution().why, obs::cause::model);
    {
      obs::attribution_scope inner{obs::cause::fault_wasted};
      EXPECT_EQ(obs::current_attribution().why, obs::cause::fault_wasted);
      // The cause-only scope keeps the outer node/job context.
      EXPECT_EQ(obs::current_attribution().node, "node-7");
      EXPECT_EQ(obs::current_attribution().job, "job-1");
    }
    EXPECT_EQ(obs::current_attribution().why, obs::cause::model);
  }
  EXPECT_EQ(obs::current_attribution().why, obs::cause::unattributed);
  EXPECT_EQ(obs::current_attribution().node, "host");
}

TEST_F(obs_test, concurrent_charges_preserve_every_joule) {
  // TSan-friendly hammer: many threads charging disjoint and shared keys;
  // no charge may be lost or double-counted.
  auto& l = obs::energy_ledger::instance();
  constexpr int n_threads = 8;
  constexpr int n_charges = 5000;
  std::vector<std::thread> threads;
  threads.reserve(n_threads);
  for (int t = 0; t < n_threads; ++t)
    threads.emplace_back([&l, t] {
      const auto mine = key("n" + std::to_string(t % 3), "job" + std::to_string(t));
      for (int i = 0; i < n_charges; ++i)
        l.charge(mine, static_cast<obs::cause>(i % obs::n_causes), 0.001);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(l.charges(), static_cast<std::uint64_t>(n_threads) * n_charges);
  EXPECT_NEAR(l.total_j(), n_threads * n_charges * 0.001, 1e-6);
  double cause_sum = 0.0;
  for (const double c : l.totals_by_cause()) cause_sum += c;
  EXPECT_NEAR(cause_sum, l.total_j(), 1e-9);
}

TEST_F(obs_test, concurrent_readers_see_key_order_while_writers_charge) {
  // The key index is mutable state that const reads sort and merge: readers
  // racing writers that add cells must each see a whole, key-ordered view.
  auto& l = obs::energy_ledger::instance();
  constexpr int n_writers = 4;
  constexpr int n_readers = 2;
  constexpr int n_charges = 2000;
  std::atomic<int> writers_left{n_writers};
  std::atomic<int> bad_reads{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < n_writers; ++t)
    threads.emplace_back([&l, &writers_left, t] {
      for (int i = 0; i < n_charges; ++i) {
        // A new job every eight charges, on nodes the other writers use too.
        const int job = i / 8;
        const auto k = key("n" + std::to_string((job + t) % 5),
                           "w" + std::to_string(t) + "-" + std::to_string(job));
        l.charge(k, static_cast<obs::cause>(i % obs::n_causes), 0.5);
      }
      --writers_left;
    });
  obs::snapshot_options opts;
  opts.include_metrics = false;
  for (int r = 0; r < n_readers; ++r)
    threads.emplace_back([&] {
      do {
        const auto cells = l.entries();
        const bool ordered = std::adjacent_find(cells.begin(), cells.end(),
                                                [](const auto& a, const auto& b) {
                                                  return !(a.key < b.key);
                                                }) == cells.end();
        const auto doc = obs::json::parse(obs::render_json(l, nullptr, opts));
        bool rendered = doc.has_value();
        if (rendered) {
          const auto& rows = doc.value().find("ledger")->find("entries")->as_array();
          for (std::size_t i = 1; i < rows.size() && rendered; ++i) {
            const obs::charge_key a{rows[i - 1].string_or("node", ""),
                                    rows[i - 1].string_or("device", ""),
                                    rows[i - 1].string_or("job", ""),
                                    rows[i - 1].string_or("kernel", "")};
            const obs::charge_key b{rows[i].string_or("node", ""), rows[i].string_or("device", ""),
                                    rows[i].string_or("job", ""), rows[i].string_or("kernel", "")};
            rendered = a < b;
          }
        }
        if (!ordered || !rendered) ++bad_reads;
        ++reads;
      } while (writers_left.load() > 0);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_GE(reads.load(), n_readers);
  EXPECT_EQ(l.charges(), static_cast<std::uint64_t>(n_writers) * n_charges);
  // Each writer's jobs are new keys: n_charges / 8 jobs per writer.
  EXPECT_EQ(l.entries().size(), static_cast<std::size_t>(n_writers) * (n_charges / 8));
}

TEST_F(obs_test, concurrent_snapshots_agree_with_their_own_totals) {
  // A document reads its ledger section in one acquisition of the ledger's
  // lock: rendered while writers charge, its entries and its cause totals
  // must each sum to its own ledger.total_j.
  auto& l = obs::energy_ledger::instance();
  constexpr int n_writers = 4;
  constexpr int n_readers = 2;
  constexpr int n_charges = 40000;
  std::atomic<int> writers_left{n_writers};
  std::atomic<int> bad_docs{0};
  std::atomic<int> docs{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < n_writers; ++t)
    threads.emplace_back([&l, &writers_left, t] {
      for (int i = 0; i < n_charges; ++i) {
        // A new cell every 64 charges, so readers render cells that are
        // charged again after their text is kept.
        const int job = i / 64;
        l.charge(key("n" + std::to_string(job % 5),
                     "w" + std::to_string(t) + "-" + std::to_string(job)),
                 static_cast<obs::cause>(i % obs::n_causes), 0.5);
      }
      --writers_left;
    });
  obs::snapshot_options opts;
  opts.include_metrics = false;
  for (int r = 0; r < n_readers; ++r)
    threads.emplace_back([&] {
      do {
        const auto doc = obs::json::parse(obs::render_json(l, nullptr, opts));
        bool agrees = doc.has_value();
        if (agrees) {
          const auto& ledger = *doc.value().find("ledger");
          const double total = ledger.number_or("total_j", -1.0);
          double entries = 0.0;
          for (const auto& e : ledger.find("entries")->as_array())
            entries += e.number_or("total_j", 0.0);
          double causes = 0.0;
          for (const auto& [name, j] : ledger.find("by_cause")->as_object())
            causes += j.as_number();
          const double tolerance = 1e-9 * std::abs(total);
          agrees = std::abs(entries - total) <= tolerance && std::abs(causes - total) <= tolerance;
        }
        if (!agrees) ++bad_docs;
        ++docs;
      } while (writers_left.load() > 0);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad_docs.load(), 0) << "of " << docs.load() << " documents";
  EXPECT_GE(docs.load(), n_readers);
  EXPECT_EQ(l.charges(), static_cast<std::uint64_t>(n_writers) * n_charges);
}

// ----------------------------------------------------------- rule parsing

TEST_F(obs_test, rule_parse_roundtrip) {
  const auto r = obs::slo_rule::parse("energy_per_job_ratio > 1.5 window 24");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r.value().what, obs::slo_rule::kind::energy_per_job_ratio);
  EXPECT_DOUBLE_EQ(r.value().threshold, 1.5);
  EXPECT_EQ(r.value().window, 24u);

  const auto bare = obs::slo_rule::parse("wasted_energy_j > 0");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare.value().what, obs::slo_rule::kind::wasted_energy_j);
}

TEST_F(obs_test, rule_parse_rejects_malformed_lines) {
  EXPECT_FALSE(obs::slo_rule::parse("bogus_kind > 1").has_value());
  EXPECT_FALSE(obs::slo_rule::parse("wasted_energy_j < 1").has_value());
  EXPECT_FALSE(obs::slo_rule::parse("wasted_energy_j > nan").has_value());
  EXPECT_FALSE(obs::slo_rule::parse("wasted_energy_j > 1 window 0").has_value());
  EXPECT_FALSE(obs::slo_rule::parse("wasted_energy_j > 1 trailing").has_value());
}

TEST_F(obs_test, rules_file_errors_carry_line_numbers) {
  const auto rules = obs::parse_rules(
      "# comment\n"
      "wasted_energy_j > 0\n"
      "\n"
      "not_a_kind > 3\n");
  ASSERT_FALSE(rules.has_value());
  EXPECT_NE(rules.err().message.find("line 4"), std::string::npos) << rules.err().message;

  const auto ok = obs::parse_rules("# only comments\n\nquarantine_dwell_s > 60\n");
  ASSERT_TRUE(ok.has_value());
  ASSERT_EQ(ok.value().size(), 1u);
  EXPECT_EQ(ok.value()[0].what, obs::slo_rule::kind::quarantine_dwell_s);
}

// -------------------------------------------------------------- watchdog

TEST_F(obs_test, watchdog_latches_and_rearms) {
  auto rules = obs::parse_rules("quarantine_dwell_s > 10\n");
  ASSERT_TRUE(rules.has_value());
  obs::slo_watchdog wd{std::move(rules.value())};

  wd.observe_quarantine(0.0, true);
  wd.evaluate(5.0);
  EXPECT_TRUE(wd.alerts().empty());  // dwell 5s, under threshold

  wd.evaluate(20.0);
  ASSERT_EQ(wd.alerts().size(), 1u);  // fires on the transition
  EXPECT_EQ(wd.alerts()[0].kind_name, "quarantine_dwell_s");
  EXPECT_GT(wd.alerts()[0].value, 10.0);

  wd.evaluate(30.0);
  EXPECT_EQ(wd.alerts().size(), 1u);  // latched: still violating, no repeat

  wd.observe_quarantine(30.0, false);
  wd.evaluate(31.0);  // cleared -> re-armed
  wd.observe_quarantine(40.0, true);
  wd.evaluate(60.0);
  EXPECT_EQ(wd.alerts().size(), 2u);  // second transition fires again
}

TEST_F(obs_test, watchdog_wasted_energy_reads_the_ledger) {
  auto& l = obs::energy_ledger::instance();
  auto rules = obs::parse_rules("wasted_energy_j > 10\n");
  ASSERT_TRUE(rules.has_value());
  obs::slo_watchdog wd{std::move(rules.value()), &l};

  l.charge(key("n0", "a"), obs::cause::fault_wasted, 5.0);
  wd.evaluate(1.0);
  EXPECT_TRUE(wd.alerts().empty());

  std::size_t sink_calls = 0;
  wd.set_alert_sink([&sink_calls](const obs::alert&) { ++sink_calls; });
  l.charge(key("n0", "a"), obs::cause::fault_wasted, 20.0);
  wd.evaluate(2.0);
  ASSERT_EQ(wd.alerts().size(), 1u);
  EXPECT_EQ(sink_calls, 1u);
  EXPECT_DOUBLE_EQ(wd.alerts()[0].value, 25.0);
  EXPECT_DOUBLE_EQ(wd.alerts()[0].t_s, 2.0);

  // The JSONL rendering is parseable and carries the rule text.
  const auto line = obs::json::parse(wd.alerts()[0].to_json_line());
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line.value().string_or("rule", ""), "wasted_energy_j > 10");
  EXPECT_DOUBLE_EQ(line.value().number_or("value", 0.0), 25.0);
}

TEST_F(obs_test, watchdog_energy_regression_needs_two_windows) {
  auto rules = obs::parse_rules("energy_per_job_ratio > 2 window 4\n");
  ASSERT_TRUE(rules.has_value());
  obs::slo_watchdog wd{std::move(rules.value())};

  for (int i = 0; i < 4; ++i) wd.observe_job(1.0);
  wd.evaluate(1.0);
  EXPECT_TRUE(wd.alerts().empty());  // only one window of history

  for (int i = 0; i < 4; ++i) wd.observe_job(3.0);
  wd.evaluate(2.0);  // recent mean 3.0 vs baseline 1.0 -> ratio 3 > 2
  ASSERT_EQ(wd.alerts().size(), 1u);
  EXPECT_NEAR(wd.alerts()[0].value, 3.0, 1e-9);
}

// ------------------------------------------------------------ JSON reader

TEST_F(obs_test, json_parses_documents_and_escapes) {
  const auto doc = obs::json::parse(R"({"a": [1, -2.5e1, true, null], "s": "x\n\u0041"})");
  ASSERT_TRUE(doc.has_value());
  const auto* a = doc.value().find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_DOUBLE_EQ(a->as_array()[0].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(a->as_array()[1].as_number(), -25.0);
  EXPECT_TRUE(a->as_array()[2].as_bool());
  EXPECT_TRUE(a->as_array()[3].is_null());
  EXPECT_EQ(doc.value().string_or("s", ""), "x\nA");
}

TEST_F(obs_test, json_rejects_malformed_input_with_position) {
  for (const char* bad : {"{", "[1,]", "{\"a\":}", "tru", "1 2", "\"\\q\"", ""}) {
    const auto r = obs::json::parse(bad);
    EXPECT_FALSE(r.has_value()) << "accepted: " << bad;
    if (!r.has_value())
      EXPECT_NE(r.err().message.find("line"), std::string::npos) << r.err().message;
  }
}

TEST_F(obs_test, json_accepts_documents_at_the_nesting_cap) {
  // Exactly max_nesting_depth containers deep: the recursion bound is a
  // cap, not an off-by-one rejection of legitimate documents.
  std::string deep(static_cast<std::size_t>(obs::json::max_nesting_depth), '[');
  deep += "1";
  deep.append(static_cast<std::size_t>(obs::json::max_nesting_depth), ']');
  EXPECT_TRUE(obs::json::parse(deep).has_value());
}

TEST_F(obs_test, json_rejects_documents_past_the_nesting_cap) {
  // One level past the cap fails with a structured error instead of
  // recursing toward stack exhaustion — arrays and objects alike.
  const auto levels = static_cast<std::size_t>(obs::json::max_nesting_depth) + 1;
  std::string arrays(levels, '[');
  arrays += "1";
  arrays.append(levels, ']');
  const auto ra = obs::json::parse(arrays);
  ASSERT_FALSE(ra.has_value());
  EXPECT_NE(ra.err().message.find("nesting too deep"), std::string::npos) << ra.err().message;

  std::string objects;
  for (std::size_t i = 0; i < levels; ++i) objects += "{\"k\":";
  objects += "1";
  objects.append(levels, '}');
  const auto ro = obs::json::parse(objects);
  ASSERT_FALSE(ro.has_value());
  EXPECT_NE(ro.err().message.find("nesting too deep"), std::string::npos) << ro.err().message;

  // A hostile megadocument (10k levels) dies the same structured way.
  std::string hostile(10000, '[');
  EXPECT_FALSE(obs::json::parse(hostile).has_value());
}

// ------------------------------------------------------- snapshot render

TEST_F(obs_test, snapshot_json_renders_ledger_and_alerts) {
  auto& l = obs::energy_ledger::instance();
  l.charge(key("n0", "a"), obs::cause::model, 2.0);
  l.charge(key("n1", "b"), obs::cause::fault_wasted, 1.0);
  l.scrape(5.0);

  auto rules = obs::parse_rules("wasted_energy_j > 0.5\n");
  ASSERT_TRUE(rules.has_value());
  obs::slo_watchdog wd{std::move(rules.value()), &l};
  wd.evaluate(5.0);
  ASSERT_EQ(wd.alerts().size(), 1u);

  obs::snapshot_options opts;
  opts.sequence = 3;
  opts.time_s = 5.0;
  opts.source = "test";
  const auto doc = obs::json::parse(obs::render_json(l, &wd, opts));
  ASSERT_TRUE(doc.has_value());
  const auto& v = doc.value();
  EXPECT_EQ(v.string_or("schema", ""), "synergy.obs.snapshot/v1");
  EXPECT_EQ(v.string_or("source", ""), "test");
  EXPECT_DOUBLE_EQ(v.number_or("sequence", 0.0), 3.0);
  const auto* ledger = v.find("ledger");
  ASSERT_NE(ledger, nullptr);
  EXPECT_DOUBLE_EQ(ledger->number_or("total_j", 0.0), 3.0);
  ASSERT_NE(ledger->find("entries"), nullptr);
  EXPECT_EQ(ledger->find("entries")->as_array().size(), 2u);
  ASSERT_NE(v.find("alerts"), nullptr);
  EXPECT_EQ(v.find("alerts")->as_array().size(), 1u);
  // Every cause appears in by_cause, charged or not.
  ASSERT_NE(ledger->find("by_cause"), nullptr);
  EXPECT_EQ(ledger->find("by_cause")->as_object().size(), obs::n_causes);
}

TEST_F(obs_test, snapshot_prometheus_exposition_shape) {
  auto& l = obs::energy_ledger::instance();
  l.charge({"n0", "V100", "job a", "k"}, obs::cause::model, 2.0);
  tel::metrics_registry::instance().get_histogram("obs.test_hist", {1.0, 10.0}).observe(0.5);

  const auto text = obs::render_prometheus(l, {});
  EXPECT_NE(text.find("synergy_energy_total_joules 2"), std::string::npos) << text;
  EXPECT_NE(text.find("cause=\"model\""), std::string::npos);
  EXPECT_NE(text.find("job=\"job a\""), std::string::npos);
  // Registry metrics are sanitized and histograms expose buckets + quantiles.
  EXPECT_NE(text.find("synergy_obs_test_hist_bucket"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("synergy_obs_test_hist_p99"), std::string::npos);
}

namespace {

using cell_map = std::unordered_map<obs::charge_key, obs::cause_array, obs::charge_key_hash>;

/// The reference's cells as an ordered read must return them: std::sort by key.
std::vector<obs::ledger_entry> sorted_cells(const cell_map& ref) {
  std::vector<obs::ledger_entry> out;
  for (const auto& [k, by_cause] : ref) {
    obs::ledger_entry e{k, by_cause, 0.0};
    for (const double j : by_cause) e.total_j += j;
    out.push_back(std::move(e));
  }
  std::sort(out.begin(), out.end(),
            [](const obs::ledger_entry& a, const obs::ledger_entry& b) { return a.key < b.key; });
  return out;
}

/// The cell lines of a Prometheus rendering (keys without escaped bytes).
std::string prometheus_cell_lines(const std::vector<obs::ledger_entry>& cells) {
  std::string out;
  for (const auto& e : cells)
    for (std::size_t c = 0; c < obs::n_causes; ++c) {
      if (e.by_cause[c] == 0.0) continue;
      out += "synergy_energy_joules{node=\"" + e.key.node + "\",device=\"" + e.key.device +
             "\",job=\"" + e.key.job + "\",kernel=\"" + e.key.kernel + "\",cause=\"" +
             obs::to_string(static_cast<obs::cause>(c)) + "\"} " +
             obs::format_double(e.by_cause[c]) + "\n";
    }
  return out;
}

}  // namespace

TEST_F(obs_test, ordered_reads_match_a_sorted_reference_through_resets_and_imports) {
  // Charges of new and existing keys interleaved with every ordered read
  // (entries() and both renderers), reset() and import_state(): each read
  // must equal a std::sort of the reference cells kept here.
  auto& l = obs::energy_ledger::instance();
  cell_map ref;
  synergy::common::pcg32 rng{20261018};
  obs::snapshot_options opts;
  opts.include_metrics = false;
  const auto random_key = [&rng] {
    return obs::charge_key{"n" + std::to_string(rng.bounded(6)), rng.bounded(2) ? "V100" : "A100",
                           "j" + std::to_string(rng.bounded(40)),
                           "k" + std::to_string(rng.bounded(3))};
  };
  int reads = 0;
  for (int step = 0; step < 4000; ++step) {
    const auto op = rng.bounded(100);
    if (op < 80) {
      const auto k = random_key();
      const auto why = rng.bounded(static_cast<std::uint32_t>(obs::n_causes));
      const double joules = 0.25 * (1 + rng.bounded(64));
      l.charge(k, static_cast<obs::cause>(why), joules);
      ref[k][why] += joules;
      continue;
    }
    const auto expected = sorted_cells(ref);
    if (op < 86) {
      const auto got = l.entries();
      ASSERT_EQ(got.size(), expected.size()) << "step " << step;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].key, expected[i].key) << "step " << step << " cell " << i;
        ASSERT_EQ(got[i].by_cause, expected[i].by_cause) << "step " << step << " cell " << i;
        ASSERT_EQ(got[i].total_j, expected[i].total_j) << "step " << step << " cell " << i;
      }
    } else if (op < 92) {
      const auto doc = obs::json::parse(obs::render_json(l, nullptr, opts));
      ASSERT_TRUE(doc.has_value()) << "step " << step;
      const auto& rows = doc.value().find("ledger")->find("entries")->as_array();
      ASSERT_EQ(rows.size(), expected.size()) << "step " << step;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const obs::charge_key k{rows[i].string_or("node", ""), rows[i].string_or("device", ""),
                                rows[i].string_or("job", ""), rows[i].string_or("kernel", "")};
        ASSERT_EQ(k, expected[i].key) << "step " << step << " row " << i;
        ASSERT_EQ(rows[i].number_or("total_j", -1.0), expected[i].total_j)
            << "step " << step << " row " << i;
      }
    } else if (op < 98) {
      const auto text = obs::render_prometheus(l, opts);
      const std::string head = "# TYPE synergy_energy_joules counter\n";
      const auto begin = text.find(head) + head.size();
      const auto end = text.find("# TYPE synergy_energy_cause_joules");
      ASSERT_EQ(text.substr(begin, end - begin), prometheus_cell_lines(expected))
          << "step " << step;
    } else if (op < 99) {
      l.reset();
      ref.clear();
    } else {
      // A checkpoint's ledger: a subset of the cells, in key order.
      obs::ledger_state st;
      ref.clear();
      for (const auto& e : expected)
        if (rng.bounded(2) == 0) {
          st.cells.push_back(e);
          ref.emplace(e.key, e.by_cause);
        }
      l.import_state(st);
    }
    ++reads;
  }
  EXPECT_GT(reads, 500);
}

TEST_F(obs_test, reused_cell_text_equals_a_fresh_render) {
  // The ledger hands back each cell's kept text until a charge changes the
  // cell; reset() and import_state() drop all of it. After every step of a
  // seeded mix of charges (new keys, keys that sort between rendered ones,
  // rendered keys again), scrapes, resets and re-imports, both renderings
  // must equal those of a fresh ledger loaded with the same state, which
  // renders every cell anew.
  auto& l = obs::energy_ledger::instance();
  synergy::common::pcg32 rng{20261019};
  obs::snapshot_options opts;
  opts.include_metrics = false;
  std::vector<obs::charge_key> charged;
  const auto charge = [&](const obs::charge_key& k) {
    l.charge(k, static_cast<obs::cause>(rng.bounded(static_cast<std::uint32_t>(obs::n_causes))),
             0.125 * (1 + rng.bounded(80)));
  };
  for (int step = 0; step < 1000; ++step) {
    const auto op = rng.bounded(100);
    if (op < 45 || charged.empty()) {
      // Mostly new keys, landing anywhere in the key order.
      charged.push_back({"n" + std::to_string(rng.bounded(8)), rng.bounded(2) ? "V100" : "A100",
                         "j" + std::to_string(rng.bounded(1000)), "k"});
      charge(charged.back());
    } else if (op < 92) {
      for (auto n = 1 + rng.bounded(3); n > 0; --n)
        charge(charged[rng.bounded(static_cast<std::uint32_t>(charged.size()))]);
    } else if (op < 95) {
      l.scrape(step);
    } else if (op < 96) {
      l.reset();
      charged.clear();
    } else {
      l.import_state(l.export_state());
    }
    obs::energy_ledger fresh;
    fresh.import_state(l.export_state());
    // Either format may render first.
    if (rng.bounded(2) == 0) {
      ASSERT_EQ(obs::render_json(l, nullptr, opts), obs::render_json(fresh, nullptr, opts))
          << "step " << step;
      ASSERT_EQ(obs::render_prometheus(l, opts), obs::render_prometheus(fresh, opts))
          << "step " << step;
    } else {
      ASSERT_EQ(obs::render_prometheus(l, opts), obs::render_prometheus(fresh, opts))
          << "step " << step;
      ASSERT_EQ(obs::render_json(l, nullptr, opts), obs::render_json(fresh, nullptr, opts))
          << "step " << step;
    }
  }
}

TEST_F(obs_test, prometheus_label_values_escape_only_backslash_quote_and_newline) {
  // The text exposition format has three label escapes: \\, \" and \n.
  // Every other byte (TAB, CR, other control bytes) is copied verbatim; a
  // JSON escape such as \t or \u0001 would fail a strict scrape.
  auto& l = obs::energy_ledger::instance();
  l.charge({"n0", "V100", "tab\there\r \"q\" back\\slash\x01" "ctl\nend", "k"}, obs::cause::model,
           2.0);
  obs::snapshot_options opts;
  opts.include_metrics = false;
  const auto text = obs::render_prometheus(l, opts);
  const std::string expected =
      "synergy_energy_joules{node=\"n0\",device=\"V100\","
      "job=\"tab\there\r \\\"q\\\" back\\\\slash\x01" "ctl\\nend\","
      "kernel=\"k\",cause=\"model\"} 2\n";
  EXPECT_NE(text.find(expected), std::string::npos) << text;
  // The JSON document keeps its own escapes for the same name.
  EXPECT_NE(obs::render_json(l, nullptr, opts)
                .find(R"("job":"tab\there\r \"q\" back\\slash\u0001ctl\nend")"),
            std::string::npos);
}

TEST_F(obs_test, snapshot_renderings_match_golden_bytes) {
  // Pins both snapshot formats byte for byte. The expected texts were
  // rendered by the copy-and-sort renderer the in-place one replaced.
  auto& l = obs::energy_ledger::instance();
  // Cells charged out of key order; keys with a quote, a backslash, a
  // newline and multi-byte UTF-8; amounts from the denormal floor to
  // DBL_MAX.
  l.charge({"node-b", "V100", "job \"quoted\"", "k\\back"}, obs::cause::model, 0.1);
  l.charge({"node-a", "V100", "job-2", "stencil"}, obs::cause::tuning_table, 1e-300);
  l.charge({"node-a", "MI100", "line\nbreak", "k"}, obs::cause::idle, 5e-324);
  l.charge({"node-a", "V100", "job-2", "stencil"}, obs::cause::fault_wasted, 2.5);
  l.scrape(10.0);
  (void)obs::render_json(l, nullptr, {});
  (void)obs::render_prometheus(l, {});
  // New cells after a first render, and more joules for an existing cell.
  l.charge({"node-0", "A100", "jöb-µs", "kernel"}, obs::cause::econ_deferred,
           1.7976931348623157e308);
  l.charge({"node-c", "V100", "job-1", "k"}, obs::cause::governor, 3.0);
  l.charge({"node-b", "V100", "job \"quoted\"", "k\\back"}, obs::cause::cap_demoted, 0.25);
  l.scrape(20.0);

  auto rules = obs::parse_rules("wasted_energy_j > 1\n");
  ASSERT_TRUE(rules.has_value());
  obs::slo_watchdog wd{std::move(rules.value()), &l};
  wd.evaluate(20.0);
  ASSERT_EQ(wd.alerts().size(), 1u);

  obs::snapshot_options opts;
  opts.sequence = 7;
  opts.time_s = 20.5;
  opts.source = "golden \"run\"";
  auto& ec = opts.econ;
  ec.enabled = true;
  ec.cost_usd = 12.5;
  ec.capex_usd = 2.0;
  ec.carbon_g = 300.0;
  ec.cost_per_job_usd = std::numeric_limits<double>::quiet_NaN();
  ec.carbon_per_job_g = 75.0;
  ec.attributed_cost_usd = 10.5;
  ec.attributed_carbon_g = 250.0;
  ec.cost_by_cause[static_cast<std::size_t>(obs::cause::model)] = 10.0;
  ec.cost_by_cause[static_cast<std::size_t>(obs::cause::idle)] = 0.5;
  ec.carbon_by_cause[static_cast<std::size_t>(obs::cause::model)] = 200.0;
  ec.carbon_by_cause[static_cast<std::size_t>(obs::cause::idle)] = 50.0;
  ec.jobs_completed = 4;

  auto& registry = tel::metrics_registry::instance();
  registry.get_counter("golden.jobs").add(3);
  registry.get_gauge("golden.queue depth").set(2.5);
  auto& wait = registry.get_histogram("golden.wait_s", {1.0, 10.0});
  for (const double v : {0.5, 4.0, 20.0}) wait.observe(v);
  registry.get_gauge("golden.wall_us").set(123.0);
  // The wall-clock gauge is volatile; so is every instrument other tests in
  // this process registered.
  opts.volatile_metrics = {"golden.wall_us"};
  for (const auto& m : registry.snapshot())
    if (!m.name.starts_with("golden.")) opts.volatile_metrics.push_back(m.name);

  const std::string expected_json =
      R"golden({"schema":"synergy.obs.snapshot/v1","source":"golden \"run\"","sequence":7)golden"
      R"golden(,"time_s":20.5,"ledger":{"total_j":1.7976931348623157e+308,"charges":7)golden"
      R"golden(,"by_cause":{"model":0.1,"tuning_table":1e-300,"default_clocks":0,"quarantine_probe":0)golden"
      R"golden(,"oracle":0,"fixed":0,"cap_demoted":0.25,"fault_degraded":0,"fault_wasted":2.5)golden"
      R"golden(,"idle":5e-324,"governor":3,"unattributed":0,"econ_deferred":1.7976931348623157e+308)golden"
      R"golden(,"econ_price_demoted":0},"entries":[{"node":"node-0","device":"A100","job":"jöb-µs")golden"
      R"golden(,"kernel":"kernel","total_j":1.7976931348623157e+308)golden"
      R"golden(,"by_cause":{"econ_deferred":1.7976931348623157e+308}})golden"
      R"golden(,{"node":"node-a","device":"MI100","job":"line\nbreak","kernel":"k","total_j":5e-324)golden"
      R"golden(,"by_cause":{"idle":5e-324}})golden"
      R"golden(,{"node":"node-a","device":"V100","job":"job-2","kernel":"stencil","total_j":2.5)golden"
      R"golden(,"by_cause":{"tuning_table":1e-300,"fault_wasted":2.5}})golden"
      R"golden(,{"node":"node-b","device":"V100","job":"job \"quoted\"","kernel":"k\\back")golden"
      R"golden(,"total_j":0.35,"by_cause":{"model":0.1,"cap_demoted":0.25}})golden"
      R"golden(,{"node":"node-c","device":"V100","job":"job-1","kernel":"k","total_j":3)golden"
      R"golden(,"by_cause":{"governor":3}})golden"
      R"golden(],"series":[{"t_s":10,"total_j":2.6,"charges":4,"by_cause":{"model":0.1)golden"
      R"golden(,"tuning_table":1e-300,"fault_wasted":2.5,"idle":5e-324}})golden"
      R"golden(,{"t_s":20,"total_j":1.7976931348623157e+308,"charges":7,"by_cause":{"model":0.1)golden"
      R"golden(,"tuning_table":1e-300,"cap_demoted":0.25,"fault_wasted":2.5,"idle":5e-324,"governor":3)golden"
      R"golden(,"econ_deferred":1.7976931348623157e+308}}]},"econ":{"cost_usd":12.5,"capex_usd":2)golden"
      R"golden(,"carbon_g":300,"cost_per_job_usd":0,"carbon_per_job_g":75,"jobs_completed":4)golden"
      R"golden(,"attributed_cost_usd":10.5,"cost_by_cause":{"model":10,"tuning_table":0)golden"
      R"golden(,"default_clocks":0,"quarantine_probe":0,"oracle":0,"fixed":0,"cap_demoted":0)golden"
      R"golden(,"fault_degraded":0,"fault_wasted":0,"idle":0.5,"governor":0,"unattributed":0)golden"
      R"golden(,"econ_deferred":0,"econ_price_demoted":0},"attributed_carbon_g":250)golden"
      R"golden(,"carbon_by_cause":{"model":200,"tuning_table":0,"default_clocks":0)golden"
      R"golden(,"quarantine_probe":0,"oracle":0,"fixed":0,"cap_demoted":0,"fault_degraded":0)golden"
      R"golden(,"fault_wasted":0,"idle":50,"governor":0,"unattributed":0,"econ_deferred":0)golden"
      R"golden(,"econ_price_demoted":0}},"alerts":[{"t_s":20,"rule":"wasted_energy_j > 1")golden"
      R"golden(,"kind":"wasted_energy_j","value":2.5,"threshold":1)golden"
      R"golden(,"detail":"ledger joules tagged fault_wasted"})golden"
      R"golden(],"metrics":[{"name":"golden.jobs","kind":"counter","value":3})golden"
      R"golden(,{"name":"golden.queue depth","kind":"gauge","value":2.5})golden"
      R"golden(,{"name":"golden.wait_s","kind":"histogram","count":3,"sum":24.5,"min":0.5,"max":20)golden"
      R"golden(,"mean":8.166666666666666,"p50":5.5,"p99":20}]})golden";
  const std::string expected_prom = R"golden(# HELP synergy_energy_joules Simulated joules attributed by node/device/job/kernel and cause.
# TYPE synergy_energy_joules counter
synergy_energy_joules{node="node-0",device="A100",job="jöb-µs",kernel="kernel",cause="econ_deferred"} 1.7976931348623157e+308
synergy_energy_joules{node="node-a",device="MI100",job="line\nbreak",kernel="k",cause="idle"} 5e-324
synergy_energy_joules{node="node-a",device="V100",job="job-2",kernel="stencil",cause="tuning_table"} 1e-300
synergy_energy_joules{node="node-a",device="V100",job="job-2",kernel="stencil",cause="fault_wasted"} 2.5
synergy_energy_joules{node="node-b",device="V100",job="job \"quoted\"",kernel="k\\back",cause="model"} 0.1
synergy_energy_joules{node="node-b",device="V100",job="job \"quoted\"",kernel="k\\back",cause="cap_demoted"} 0.25
synergy_energy_joules{node="node-c",device="V100",job="job-1",kernel="k",cause="governor"} 3
# TYPE synergy_energy_cause_joules counter
synergy_energy_cause_joules{cause="model"} 0.1
synergy_energy_cause_joules{cause="tuning_table"} 1e-300
synergy_energy_cause_joules{cause="default_clocks"} 0
synergy_energy_cause_joules{cause="quarantine_probe"} 0
synergy_energy_cause_joules{cause="oracle"} 0
synergy_energy_cause_joules{cause="fixed"} 0
synergy_energy_cause_joules{cause="cap_demoted"} 0.25
synergy_energy_cause_joules{cause="fault_degraded"} 0
synergy_energy_cause_joules{cause="fault_wasted"} 2.5
synergy_energy_cause_joules{cause="idle"} 5e-324
synergy_energy_cause_joules{cause="governor"} 3
synergy_energy_cause_joules{cause="unattributed"} 0
synergy_energy_cause_joules{cause="econ_deferred"} 1.7976931348623157e+308
synergy_energy_cause_joules{cause="econ_price_demoted"} 0
# TYPE synergy_energy_total_joules counter
synergy_energy_total_joules 1.7976931348623157e+308
# TYPE synergy_obs_ledger_charges_total counter
synergy_obs_ledger_charges_total 7
# TYPE synergy_obs_snapshot_sequence counter
synergy_obs_snapshot_sequence 7
# TYPE synergy_obs_snapshot_time_seconds gauge
synergy_obs_snapshot_time_seconds 20.5
# TYPE synergy_econ_cost_usd gauge
synergy_econ_cost_usd 12.5
# TYPE synergy_econ_capex_usd gauge
synergy_econ_capex_usd 2
# TYPE synergy_econ_carbon_grams gauge
synergy_econ_carbon_grams 300
# TYPE synergy_econ_cost_per_job_usd gauge
synergy_econ_cost_per_job_usd 0
# TYPE synergy_econ_carbon_per_job_grams gauge
synergy_econ_carbon_per_job_grams 75
# TYPE synergy_econ_cause_cost_usd counter
synergy_econ_cause_cost_usd{cause="model"} 10
synergy_econ_cause_cost_usd{cause="tuning_table"} 0
synergy_econ_cause_cost_usd{cause="default_clocks"} 0
synergy_econ_cause_cost_usd{cause="quarantine_probe"} 0
synergy_econ_cause_cost_usd{cause="oracle"} 0
synergy_econ_cause_cost_usd{cause="fixed"} 0
synergy_econ_cause_cost_usd{cause="cap_demoted"} 0
synergy_econ_cause_cost_usd{cause="fault_degraded"} 0
synergy_econ_cause_cost_usd{cause="fault_wasted"} 0
synergy_econ_cause_cost_usd{cause="idle"} 0.5
synergy_econ_cause_cost_usd{cause="governor"} 0
synergy_econ_cause_cost_usd{cause="unattributed"} 0
synergy_econ_cause_cost_usd{cause="econ_deferred"} 0
synergy_econ_cause_cost_usd{cause="econ_price_demoted"} 0
# TYPE synergy_econ_cause_carbon_grams counter
synergy_econ_cause_carbon_grams{cause="model"} 200
synergy_econ_cause_carbon_grams{cause="tuning_table"} 0
synergy_econ_cause_carbon_grams{cause="default_clocks"} 0
synergy_econ_cause_carbon_grams{cause="quarantine_probe"} 0
synergy_econ_cause_carbon_grams{cause="oracle"} 0
synergy_econ_cause_carbon_grams{cause="fixed"} 0
synergy_econ_cause_carbon_grams{cause="cap_demoted"} 0
synergy_econ_cause_carbon_grams{cause="fault_degraded"} 0
synergy_econ_cause_carbon_grams{cause="fault_wasted"} 0
synergy_econ_cause_carbon_grams{cause="idle"} 50
synergy_econ_cause_carbon_grams{cause="governor"} 0
synergy_econ_cause_carbon_grams{cause="unattributed"} 0
synergy_econ_cause_carbon_grams{cause="econ_deferred"} 0
synergy_econ_cause_carbon_grams{cause="econ_price_demoted"} 0
# TYPE synergy_golden_jobs counter
synergy_golden_jobs 3
# TYPE synergy_golden_queue_depth gauge
synergy_golden_queue_depth 2.5
# TYPE synergy_golden_wait_s histogram
synergy_golden_wait_s_bucket{le="1"} 1
synergy_golden_wait_s_bucket{le="10"} 2
synergy_golden_wait_s_bucket{le="+Inf"} 3
synergy_golden_wait_s_sum 24.5
synergy_golden_wait_s_count 3
# TYPE synergy_golden_wait_s_p50 gauge
synergy_golden_wait_s_p50 5.5
# TYPE synergy_golden_wait_s_p99 gauge
synergy_golden_wait_s_p99 20
)golden";
  EXPECT_EQ(obs::render_json(l, &wd, opts), expected_json);
  EXPECT_EQ(obs::render_prometheus(l, opts), expected_prom);
}

// ------------------------------------------- cross-layer acceptance tests

TEST_F(obs_test, faulted_replay_conserves_energy_within_tolerance) {
  SYNERGY_REQUIRE_CHARGE_SITES();
  const auto summary = run_faulted();
  auto& l = obs::energy_ledger::instance();

  // Every simulated joule (busy GPU energy + device-loss waste) lands in the
  // ledger exactly once; 0.1% slack for float accumulation order.
  const double simulated = summary.total_gpu_energy_j + summary.wasted_gpu_energy_j;
  ASSERT_GT(simulated, 0.0);
  EXPECT_NEAR(l.total_j(), simulated, 1e-3 * simulated);

  double cause_sum = 0.0;
  for (const double c : l.totals_by_cause()) cause_sum += c;
  EXPECT_NEAR(cause_sum, l.total_j(), 1e-9 * std::max(1.0, l.total_j()));

  // The fault plan actually wasted energy and the ledger tagged it.
  EXPECT_GT(summary.wasted_gpu_energy_j, 0.0);
  EXPECT_NEAR(l.totals_by_cause()[static_cast<std::size_t>(obs::cause::fault_wasted)],
              summary.wasted_gpu_energy_j, 1e-6 * summary.wasted_gpu_energy_j);

  // The scrape series sampled the run and ends at the final totals.
  const auto s = l.series();
  ASSERT_FALSE(s.empty());
  EXPECT_DOUBLE_EQ(s.back().total_j, l.total_j());
}

TEST_F(obs_test, same_seed_replays_render_byte_identical_snapshots) {
  SYNERGY_REQUIRE_CHARGE_SITES();
  run_faulted();
  obs::snapshot_options opts;
  opts.sequence = 1;
  opts.time_s = 100.0;
  const auto json1 = obs::render_json(obs::energy_ledger::instance(), nullptr, opts);
  const auto prom_excluded = obs::render_prometheus(obs::energy_ledger::instance(), opts);

  run_faulted();
  const auto json2 = obs::render_json(obs::energy_ledger::instance(), nullptr, opts);

  EXPECT_EQ(json1, json2);
  // Sanity: the documents are not trivially empty.
  EXPECT_GT(obs::energy_ledger::instance().total_j(), 0.0);
  EXPECT_FALSE(prom_excluded.empty());
}

TEST_F(obs_test, watchdog_alert_correlates_with_fault_window) {
  SYNERGY_REQUIRE_CHARGE_SITES();
  auto rules = obs::parse_rules("wasted_energy_j > 0\n");
  ASSERT_TRUE(rules.has_value());
  auto wd = std::make_shared<obs::slo_watchdog>(std::move(rules.value()),
                                                &obs::energy_ledger::instance());
  const auto summary = run_faulted(wd);
  ASSERT_GT(summary.wasted_gpu_energy_j, 0.0);

  // The scrape-tick evaluation caught the fault: at least one alert, tagged
  // with the wasted-energy rule, fired at a virtual time inside the run.
  ASSERT_FALSE(wd->alerts().empty());
  EXPECT_EQ(wd->alerts()[0].kind_name, "wasted_energy_j");
  EXPECT_GT(wd->alerts()[0].t_s, 0.0);
  EXPECT_LE(wd->alerts()[0].t_s, summary.makespan_s + 1e-9);
  EXPECT_GT(wd->alerts()[0].value, 0.0);
}
