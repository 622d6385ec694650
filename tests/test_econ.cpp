/// Facility-economics tests: step-trace semantics (periodic wrap, hold-last,
/// time-weighted means), the strict fail-closed trace parser under seeded
/// corruption fuzzing, the cost meter's two accountings (facility integral
/// vs. per-cause attribution) with exact export/import round-trips, the
/// econ columns of the job-trace CSV, the obs::cause exhaustiveness
/// contract, the watchdog's cost/carbon regression rules, and end-to-end
/// determinism of cost-aware cluster replays.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "synergy/cluster/job_trace.hpp"
#include "synergy/cluster/simulator.hpp"
#include "synergy/common/rng.hpp"
#include "synergy/econ/tco.hpp"
#include "synergy/econ/trace.hpp"
#include "synergy/obs/energy_ledger.hpp"
#include "synergy/obs/slo_watchdog.hpp"
#include "synergy/telemetry/metrics_registry.hpp"

namespace econ = synergy::econ;
namespace obs = synergy::obs;
namespace sc = synergy::cluster;

using synergy::common::pcg32;

namespace {

/// Two-step aperiodic tariff over [0, span): expensive opening third, cheap
/// tail (the trailing equal point gives the tail weight in mean()).
econ::step_trace two_step(double span_s, double high, double low) {
  return econ::step_trace{{{0.0, high}, {span_s / 3.0, low}, {span_s, low}}, 0.0};
}

/// One seeded mutation: bit flip, truncation, or splice — the same moves the
/// guardrails fuzz suite makes against serialized artefacts.
std::string mutate(const std::string& text, pcg32& rng) {
  if (text.empty()) return text;
  std::string out = text;
  const auto n = static_cast<std::uint32_t>(out.size());
  switch (rng.bounded(3)) {
    case 0: {  // bit flip
      const auto pos = rng.bounded(n);
      out[pos] = static_cast<char>(out[pos] ^ (1u << rng.bounded(8)));
      break;
    }
    case 1:  // truncate
      out.resize(rng.bounded(n));
      break;
    default: {  // splice a chunk over another position
      const auto from = rng.bounded(n);
      const auto len = std::min<std::uint32_t>(1 + rng.bounded(16), n - from);
      const auto to = rng.bounded(n);
      out.replace(to, std::min<std::uint32_t>(len, n - to), out.substr(from, len));
      break;
    }
  }
  return out;
}

}  // namespace

// ------------------------------------------------------ step-trace semantics ----

TEST(StepTrace, AperiodicHoldsLastValueForever) {
  const econ::step_trace t{{{0.0, 0.30}, {100.0, 0.05}}, 0.0};
  EXPECT_DOUBLE_EQ(t.value_at(0.0), 0.30);
  EXPECT_DOUBLE_EQ(t.value_at(99.9), 0.30);
  EXPECT_DOUBLE_EQ(t.value_at(100.0), 0.05);
  EXPECT_DOUBLE_EQ(t.value_at(1e9), 0.05);
  // Negative aperiodic times clamp to the first step.
  EXPECT_DOUBLE_EQ(t.value_at(-5.0), 0.30);
}

TEST(StepTrace, PeriodicWrapsThroughEveryCycle) {
  const econ::step_trace t{{{0.0, 0.08}, {3600.0, 0.12}}, 7200.0};
  EXPECT_DOUBLE_EQ(t.value_at(0.0), 0.08);
  EXPECT_DOUBLE_EQ(t.value_at(3600.0), 0.12);
  EXPECT_DOUBLE_EQ(t.value_at(7200.0), 0.08);   // next cycle
  EXPECT_DOUBLE_EQ(t.value_at(10800.0), 0.12);  // 1.5 cycles in
  EXPECT_DOUBLE_EQ(t.value_at(72000.0 + 1.0), 0.08);
}

TEST(StepTrace, NextChangeAfterWalksBoundaries) {
  const econ::step_trace ap{{{0.0, 1.0}, {10.0, 2.0}, {20.0, 3.0}}, 0.0};
  EXPECT_DOUBLE_EQ(ap.next_change_after(0.0), 10.0);
  EXPECT_DOUBLE_EQ(ap.next_change_after(10.0), 20.0);
  EXPECT_DOUBLE_EQ(ap.next_change_after(20.0), -1.0);  // holds forever after

  const econ::step_trace per{{{0.0, 1.0}, {10.0, 2.0}}, 30.0};
  EXPECT_DOUBLE_EQ(per.next_change_after(0.0), 10.0);
  EXPECT_DOUBLE_EQ(per.next_change_after(10.0), 30.0);  // wrap to next cycle
  EXPECT_DOUBLE_EQ(per.next_change_after(35.0), 40.0);

  // Constant traces never change, periodic or not.
  EXPECT_DOUBLE_EQ((econ::step_trace{{{0.0, 5.0}}, 0.0}).next_change_after(0.0), -1.0);
  EXPECT_DOUBLE_EQ((econ::step_trace{{{0.0, 5.0}}, 60.0}).next_change_after(0.0), -1.0);
}

TEST(StepTrace, MeanIsTimeWeighted) {
  // Periodic: weighted over one full period, including the wrap segment.
  const econ::step_trace per{{{0.0, 0.30}, {25.0, 0.05}}, 100.0};
  EXPECT_NEAR(per.mean(), (0.30 * 25.0 + 0.05 * 75.0) / 100.0, 1e-12);

  // Aperiodic: the LAST step has zero width — a bare 2-point {high, low}
  // trace means "high" and nothing would ever defer against it. The
  // trailing equal point is what gives the cheap tail its weight.
  const econ::step_trace bare{{{0.0, 0.30}, {100.0, 0.05}}, 0.0};
  EXPECT_DOUBLE_EQ(bare.mean(), 0.30);
  const auto weighted = two_step(300.0, 0.30, 0.05);
  EXPECT_NEAR(weighted.mean(), (0.30 * 100.0 + 0.05 * 200.0) / 300.0, 1e-12);

  EXPECT_DOUBLE_EQ((econ::step_trace{{{0.0, 7.0}}, 0.0}).mean(), 7.0);
  EXPECT_DOUBLE_EQ(econ::step_trace{}.mean(), 0.0);
}

TEST(StepTrace, ConstructorRejectsMalformedSteps) {
  using sp = std::vector<econ::step_point>;
  EXPECT_THROW((econ::step_trace{sp{}, 0.0}), std::invalid_argument);
  EXPECT_THROW((econ::step_trace{sp{{1.0, 0.1}}, 0.0}), std::invalid_argument);  // t0 != 0
  EXPECT_THROW((econ::step_trace{sp{{0.0, 0.1}, {0.0, 0.2}}, 0.0}),
               std::invalid_argument);  // non-increasing
  EXPECT_THROW((econ::step_trace{sp{{0.0, -0.1}}, 0.0}), std::invalid_argument);
  EXPECT_THROW((econ::step_trace{sp{{0.0, std::nan("")}}, 0.0}), std::invalid_argument);
  EXPECT_THROW((econ::step_trace{sp{{0.0, 0.1}, {60.0, 0.2}}, 60.0}),
               std::invalid_argument);  // step at the period
  EXPECT_THROW((econ::step_trace{sp{{0.0, 0.1}}, -1.0}), std::invalid_argument);
}

TEST(StepTrace, CsvRoundTripsThroughStrictParser) {
  econ::synthetic_config cfg;
  cfg.seed = 11;
  cfg.noise = 0.02;
  const auto original = econ::synthetic_diurnal(cfg);
  const auto reparsed = econ::parse_step_trace(original.to_csv("price"), "price");
  EXPECT_EQ(original, reparsed);

  const auto ap = two_step(300.0, 0.30, 0.05);
  EXPECT_EQ(ap, econ::parse_step_trace(ap.to_csv("carbon"), "carbon"));
}

// ------------------------------------------------------- strict trace parser ----

TEST(EconTraceParser, AcceptsCommentsAndBlankLines) {
  const std::string text =
      "# synergy-econ-trace v1 kind=price period=7200\n"
      "\n"
      "# a comment before the column header\n"
      "t_s,value\n"
      "0,0.08\n"
      "# mid-data comment\n"
      "3600,0.12\n";
  const auto t = econ::parse_step_trace(text, "price");
  EXPECT_EQ(t.points().size(), 2u);
  EXPECT_DOUBLE_EQ(t.period_s(), 7200.0);
  EXPECT_DOUBLE_EQ(t.value_at(3601.0), 0.12);
}

TEST(EconTraceParser, RejectionsCarryLineNumbers) {
  const auto expect_fail = [](const std::string& text, const std::string& needle) {
    try {
      (void)econ::parse_step_trace(text, "price");
      FAIL() << "expected a throw for: " << needle;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line "), std::string::npos) << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
  };
  const std::string head = "# synergy-econ-trace v1 kind=price\nt_s,value\n";

  expect_fail("", "empty trace file");
  expect_fail("not a trace\n", "expected header");
  expect_fail("# synergy-econ-trace v1 kind=carbon\nt_s,value\n0,1\n", "expected 'price'");
  expect_fail("# synergy-econ-trace v1 kind=price bogus=1\nt_s,value\n0,1\n",
              "unknown header token");
  expect_fail("# synergy-econ-trace v1 period=60\nt_s,value\n0,1\n", "declares no kind");
  expect_fail("# synergy-econ-trace v1 kind=price period=-60\nt_s,value\n0,1\n",
              "period is negative");
  expect_fail("# synergy-econ-trace v1 kind=price\n", "missing column header");
  expect_fail("# synergy-econ-trace v1 kind=price\ntime,price\n0,1\n",
              "expected column header");
  expect_fail(head + "0,1,2\n", "expected 2 fields");
  expect_fail(head + "0,abc\n", "not a number");
  expect_fail(head + "0,inf\n", "not finite");
  expect_fail(head + "0,-1\n", "value is negative");
  expect_fail(head + "-1,1\n", "timestamp is negative");
  expect_fail(head + "5,1\n", "first step must start at t=0");
  expect_fail(head + "0,1\n0,2\n", "does not increase");
  expect_fail("# synergy-econ-trace v1 kind=price period=60\nt_s,value\n0,1\n60,2\n",
              "at or beyond the period");
  expect_fail(head, "no data rows");

  EXPECT_THROW((void)econ::parse_step_trace(head + "0,1\n", "voltage"),
               std::invalid_argument);
}

TEST(CorruptionFuzz, MutatedEconTracesFailClosedOrParseValid) {
  econ::synthetic_config cfg;
  cfg.seed = 23;
  cfg.step_s = 7200.0;
  cfg.noise = 0.01;
  const auto clean = econ::synthetic_diurnal(cfg).to_csv("price");
  ASSERT_NO_THROW((void)econ::parse_step_trace(clean, "price"));

  pcg32 rng{0xec0f022u};
  for (int i = 0; i < 400; ++i) {
    const auto bad = mutate(clean, rng);
    // Structured throws only — and anything that survives must be a valid
    // trace (finite, non-negative, increasing steps are constructor-enforced).
    try {
      const auto t = econ::parse_step_trace(bad, "price");
      for (const auto& p : t.points()) {
        EXPECT_TRUE(std::isfinite(p.value));
        EXPECT_GE(p.value, 0.0);
      }
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find("econ trace:"), std::string::npos);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("econ trace:"), std::string::npos);
    }
  }
}

TEST(SyntheticDiurnal, DeterministicPerSeedAndStream) {
  econ::synthetic_config cfg;
  cfg.seed = 7;
  cfg.noise = 0.02;
  EXPECT_EQ(econ::synthetic_diurnal(cfg), econ::synthetic_diurnal(cfg));

  auto other_seed = cfg;
  other_seed.seed = 8;
  EXPECT_NE(econ::synthetic_diurnal(cfg), econ::synthetic_diurnal(other_seed));

  // Price (stream 0) and carbon (stream 1) draws never share a sequence.
  auto carbon = cfg;
  carbon.stream = 1;
  EXPECT_NE(econ::synthetic_diurnal(cfg), econ::synthetic_diurnal(carbon));

  const auto clamped = econ::synthetic_diurnal(cfg);
  for (const auto& p : clamped.points()) EXPECT_GE(p.value, 0.0);

  auto bad = cfg;
  bad.step_s = 0.0;
  EXPECT_THROW((void)econ::synthetic_diurnal(bad), std::invalid_argument);
  bad = cfg;
  bad.period_s = cfg.step_s / 2.0;
  EXPECT_THROW((void)econ::synthetic_diurnal(bad), std::invalid_argument);
}

// -------------------------------------------------------------- cost meter ----

TEST(CostMeter, InactiveWithoutUsableConfig) {
  econ::cost_meter unconfigured;
  EXPECT_FALSE(unconfigured.active());

  econ::econ_config disabled;
  disabled.price = two_step(100.0, 0.3, 0.1);
  EXPECT_FALSE(econ::cost_meter(disabled, 4).active());

  econ::econ_config priceless;
  priceless.enabled = true;
  EXPECT_FALSE(econ::cost_meter(priceless, 4).active());
}

TEST(CostMeter, IntegratesAcrossPriceBoundaries) {
  econ::econ_config cfg;
  cfg.enabled = true;
  cfg.capex_usd_per_node_hour = 0.36;
  cfg.price = econ::step_trace{{{0.0, 0.30}, {100.0, 0.06}}, 0.0};
  cfg.carbon = econ::step_trace{{{0.0, 600.0}, {100.0, 100.0}}, 0.0};
  econ::cost_meter meter{cfg, 2};
  ASSERT_TRUE(meter.active());

  // 1 kW over [50, 150): 50 s at $0.30 + 50 s at $0.06, stepped through the
  // boundary analytically.
  meter.integrate(1000.0, 50.0, 150.0);
  const double kwh_half = 1000.0 * 50.0 / econ::joules_per_kwh;
  EXPECT_NEAR(meter.facility_cost_usd(), kwh_half * (0.30 + 0.06), 1e-12);
  EXPECT_NEAR(meter.facility_carbon_g(), kwh_half * (600.0 + 100.0), 1e-12);
  // Capex: 2 nodes x $0.36/h over 100 s = $0.02.
  EXPECT_NEAR(meter.capex_usd(), 2.0 * 0.36 * 100.0 / 3600.0, 1e-12);
  EXPECT_NEAR(meter.total_cost_usd(), meter.facility_cost_usd() + meter.capex_usd(),
              1e-12);

  EXPECT_DOUBLE_EQ(meter.price_at(0.0), 0.30);
  EXPECT_DOUBLE_EQ(meter.price_at(100.0), 0.06);
  EXPECT_DOUBLE_EQ(meter.carbon_at(150.0), 100.0);
}

TEST(CostMeter, ChargesBucketByCauseAndConserve) {
  econ::econ_config cfg;
  cfg.enabled = true;
  cfg.price = econ::step_trace{{{0.0, 0.30}, {100.0, 0.06}}, 0.0};
  cfg.carbon = econ::step_trace{{{0.0, 600.0}, {100.0, 100.0}}, 0.0};
  econ::cost_meter meter{cfg, 1};

  meter.charge(obs::cause::model, econ::joules_per_kwh, 10.0);         // $0.30, 600 g
  meter.charge(obs::cause::econ_deferred, econ::joules_per_kwh, 110.0);  // $0.06, 100 g
  // Dropped, matching the ledger's posture.
  meter.charge(obs::cause::model, 0.0, 10.0);
  meter.charge(obs::cause::model, -5.0, 10.0);
  meter.charge(obs::cause::model, std::numeric_limits<double>::quiet_NaN(), 10.0);

  const auto idx = [](obs::cause c) { return static_cast<std::size_t>(c); };
  EXPECT_NEAR(meter.cost_by_cause()[idx(obs::cause::model)], 0.30, 1e-12);
  EXPECT_NEAR(meter.cost_by_cause()[idx(obs::cause::econ_deferred)], 0.06, 1e-12);
  EXPECT_NEAR(meter.carbon_by_cause()[idx(obs::cause::model)], 600.0, 1e-9);

  double cost_sum = 0.0, carbon_sum = 0.0;
  for (const double v : meter.cost_by_cause()) cost_sum += v;
  for (const double v : meter.carbon_by_cause()) carbon_sum += v;
  EXPECT_DOUBLE_EQ(cost_sum, meter.attributed_cost_usd());
  EXPECT_DOUBLE_EQ(carbon_sum, meter.attributed_carbon_g());

  meter.complete_job();
  meter.complete_job();
  meter.integrate(1000.0, 0.0, 100.0);
  EXPECT_NEAR(meter.cost_per_job_usd(), meter.total_cost_usd() / 2.0, 1e-12);
  EXPECT_NEAR(meter.carbon_per_job_g(), meter.facility_carbon_g() / 2.0, 1e-12);
}

TEST(CostMeter, StateRoundTripsVerbatim) {
  econ::econ_config cfg;
  cfg.enabled = true;
  cfg.capex_usd_per_node_hour = 0.11;
  cfg.price = econ::synthetic_diurnal({.seed = 5, .stream = 0, .noise = 0.01});
  cfg.carbon = econ::synthetic_diurnal(
      {.seed = 5, .stream = 1, .base = 300.0, .amplitude = 120.0, .noise = 20.0});
  econ::cost_meter meter{cfg, 3};
  meter.integrate(750.0, 0.0, 5000.0);
  meter.charge(obs::cause::oracle, 1.25e6, 1200.0);
  meter.charge(obs::cause::econ_price_demoted, 3.75e5, 4300.0);
  meter.complete_job();

  econ::cost_meter resumed{cfg, 3};
  resumed.import_state(meter.export_state());

  // Bit-exact: resumed reports must match to the last double.
  EXPECT_EQ(meter.facility_cost_usd(), resumed.facility_cost_usd());
  EXPECT_EQ(meter.facility_carbon_g(), resumed.facility_carbon_g());
  EXPECT_EQ(meter.capex_usd(), resumed.capex_usd());
  EXPECT_EQ(meter.attributed_cost_usd(), resumed.attributed_cost_usd());
  EXPECT_EQ(meter.attributed_carbon_g(), resumed.attributed_carbon_g());
  EXPECT_EQ(meter.cost_by_cause(), resumed.cost_by_cause());
  EXPECT_EQ(meter.carbon_by_cause(), resumed.carbon_by_cause());
  EXPECT_EQ(meter.jobs_completed(), resumed.jobs_completed());

  // Further accrual continues from the imported accumulators.
  resumed.integrate(750.0, 5000.0, 5100.0);
  EXPECT_GT(resumed.facility_cost_usd(), meter.facility_cost_usd());
}

// ------------------------------------------------------- job-trace columns ----

TEST(JobTraceEcon, TenColumnRoundTripAndLegacyEightColumnRows) {
  sc::trace_config tc;
  tc.n_jobs = 40;
  tc.seed = 13;
  tc.deferrable_fraction = 0.5;
  tc.deadline_slack_s = 300.0;
  const auto trace = sc::generate_trace(tc);

  std::size_t n_deferrable = 0;
  for (const auto& j : trace.jobs) {
    if (!j.deferrable) {
      EXPECT_DOUBLE_EQ(j.deadline_s, -1.0);
      continue;
    }
    ++n_deferrable;
    // Deadline lands in submit + [0.5, 1.5] x slack.
    EXPECT_GE(j.deadline_s, j.submit_s + 0.5 * tc.deadline_slack_s);
    EXPECT_LE(j.deadline_s, j.submit_s + 1.5 * tc.deadline_slack_s);
  }
  EXPECT_GT(n_deferrable, 0u);
  EXPECT_LT(n_deferrable, trace.jobs.size());

  EXPECT_EQ(trace, sc::job_trace::from_csv(trace.to_csv()));

  // Pre-econ 8-column rows still parse, defaulting the econ columns.
  const std::string legacy =
      "# synergy-cluster-trace v1 seed=0 jobs=1\n"
      "id,name,submit_s,n_gpus,kernel,work_items,iterations,target\n"
      "1,job_1,0,2,vec_add,1024,10,default\n";
  const auto parsed = sc::job_trace::from_csv(legacy);
  ASSERT_EQ(parsed.jobs.size(), 1u);
  EXPECT_FALSE(parsed.jobs[0].deferrable);
  EXPECT_DOUBLE_EQ(parsed.jobs[0].deadline_s, -1.0);

  // Malformed econ columns fail closed.
  const std::string head =
      "# synergy-cluster-trace v1 seed=0 jobs=1\n"
      "id,name,submit_s,n_gpus,kernel,work_items,iterations,target,deferrable,deadline_s\n";
  EXPECT_THROW((void)sc::job_trace::from_csv(head + "1,j,0,1,vec_add,8,1,default,2,-1\n"),
               std::invalid_argument);
  EXPECT_THROW((void)sc::job_trace::from_csv(head + "1,j,50,1,vec_add,8,1,default,1,10\n"),
               std::invalid_argument);  // deadline before submit
}

TEST(JobTraceEcon, ZeroDeferrableFractionDrawsNothingFromTheRng) {
  // Pre-econ traces must regenerate bit-identically: fraction 0 may not
  // consume rng draws that would shift arrivals or sizes.
  sc::trace_config tc;
  tc.n_jobs = 30;
  tc.seed = 99;
  const auto baseline = sc::generate_trace(tc);
  auto with_field = tc;
  with_field.deferrable_fraction = 0.0;
  with_field.deadline_slack_s = 777.0;  // irrelevant while fraction is 0
  EXPECT_EQ(baseline.to_csv(), sc::generate_trace(with_field).to_csv());
}

// ------------------------------------------------------ cause exhaustiveness ----

TEST(ObsCause, EveryCauseIsNamedAndUnique) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < obs::n_causes; ++i) {
    const char* name = obs::to_string(static_cast<obs::cause>(i));
    EXPECT_STRNE(name, "?") << "cause index " << i << " is unnamed";
    EXPECT_TRUE(names.insert(name).second) << "duplicate cause name " << name;
  }
  // The econ causes append after unattributed so serialized cause indices
  // stay stable across the PR boundary.
  EXPECT_STREQ(obs::to_string(obs::cause::unattributed), "unattributed");
  EXPECT_EQ(static_cast<std::size_t>(obs::cause::econ_deferred),
            static_cast<std::size_t>(obs::cause::unattributed) + 1);
  EXPECT_STREQ(obs::to_string(obs::cause::econ_deferred), "econ_deferred");
  EXPECT_STREQ(obs::to_string(obs::cause::econ_price_demoted), "econ_price_demoted");
}

// --------------------------------------------------- watchdog cost/carbon ----

TEST(WatchdogEcon, CostRatioRuleParsesAndFiresOnRegression) {
  const auto rules = obs::parse_rules(
      "cost_per_job_ratio > 1.4 window 4\n"
      "carbon_per_job_ratio > 2.0 window 4\n");
  ASSERT_TRUE(rules.has_value()) << rules.err().to_string();
  ASSERT_EQ(rules.value().size(), 2u);
  EXPECT_EQ(rules.value()[0].what, obs::slo_rule::kind::cost_per_job_ratio);
  EXPECT_EQ(rules.value()[1].what, obs::slo_rule::kind::carbon_per_job_ratio);

  obs::slo_watchdog dog{rules.value()};
  // Needs 2N priced completions before it can fire: 4 cheap, then 4 that
  // cost 2x (cost rule fires) but emit identical carbon (carbon rule holds).
  for (int i = 0; i < 4; ++i) dog.observe_job_cost(0.10, 50.0);
  dog.evaluate(100.0);
  EXPECT_TRUE(dog.alerts().empty());
  for (int i = 0; i < 4; ++i) dog.observe_job_cost(0.20, 50.0);
  dog.evaluate(200.0);
  ASSERT_EQ(dog.alerts().size(), 1u);
  EXPECT_EQ(dog.alerts()[0].kind_name, "cost_per_job_ratio");
  EXPECT_NEAR(dog.alerts()[0].value, 2.0, 1e-9);

  // Latched: a persisting violation does not re-fire.
  dog.evaluate(300.0);
  EXPECT_EQ(dog.alerts().size(), 1u);

  // The rolling windows ride through export/import with the latches.
  auto restored_dog = obs::slo_watchdog{rules.value()};
  ASSERT_TRUE(restored_dog.import_state(dog.export_state()));
  restored_dog.evaluate(400.0);
  EXPECT_EQ(restored_dog.alerts().size(), 1u);  // latch survived, no re-fire
}

TEST(WatchdogEcon, RuleParserRejectsMalformedEconRules) {
  EXPECT_FALSE(obs::parse_rules("cost_per_job_ratio 1.4\n").has_value());
  EXPECT_FALSE(obs::parse_rules("price_per_job_ratio > 1.4\n").has_value());
  EXPECT_FALSE(obs::parse_rules("carbon_per_job_ratio > nan\n").has_value());
}

// --------------------------------------------------- end-to-end determinism ----

namespace {

econ::econ_config bench_econ() {
  econ::econ_config cfg;
  cfg.enabled = true;
  cfg.capex_usd_per_node_hour = 0.05;
  cfg.price = two_step(600.0, 0.30, 0.05);
  cfg.carbon = two_step(600.0, 600.0, 100.0);
  cfg.defer_price_ratio = 1.0;
  cfg.demote_price_ratio = 1.3;
  return cfg;
}

std::string run_cost_aware(const sc::job_trace& trace) {
  synergy::obs::energy_ledger::instance().reset();
  synergy::telemetry::metrics_registry::instance().reset_values();
  sc::cluster_config config;
  config.n_nodes = 2;
  config.gpus_per_node = 4;
  config.econ = bench_econ();
  sc::simulator sim{config, sc::make_policy("cost", {}, std::nullopt, &config.econ)};
  const auto summary = sim.run(trace);
  std::ostringstream os;
  summary.csv(os);
  return os.str();
}

}  // namespace

TEST(SimulatorEcon, CostAwareReplayIsDeterministicAndConserves) {
  sc::trace_config tc;
  tc.n_jobs = 60;
  tc.seed = 31;
  tc.mean_interarrival_s = 8.0;
  tc.deferrable_fraction = 0.6;
  tc.deadline_slack_s = 700.0;
  const auto trace = sc::generate_trace(tc);

  EXPECT_EQ(run_cost_aware(trace), run_cost_aware(trace));

  synergy::obs::energy_ledger::instance().reset();
  synergy::telemetry::metrics_registry::instance().reset_values();
  sc::cluster_config config;
  config.n_nodes = 2;
  config.gpus_per_node = 4;
  config.econ = bench_econ();
  sc::simulator sim{config, sc::make_policy("cost", {}, std::nullopt, &config.econ)};
  const auto summary = sim.run(trace);
  EXPECT_EQ(summary.completed, trace.jobs.size());
  EXPECT_GT(summary.econ_jobs_deferred, 0u);

  const auto& meter = sim.econ_meter();
  ASSERT_TRUE(meter.active());
  EXPECT_GT(meter.total_cost_usd(), 0.0);
  EXPECT_NEAR(summary.econ_cost_usd, meter.total_cost_usd(), 1e-12);
  EXPECT_NEAR(summary.econ_carbon_g, meter.facility_carbon_g(), 1e-9);
  double cost_sum = 0.0, carbon_sum = 0.0;
  for (const double v : meter.cost_by_cause()) cost_sum += v;
  for (const double v : meter.carbon_by_cause()) carbon_sum += v;
  EXPECT_NEAR(cost_sum, meter.attributed_cost_usd(),
              1e-3 * std::max(meter.attributed_cost_usd(), 1e-9));
  EXPECT_NEAR(carbon_sum, meter.attributed_carbon_g(),
              1e-3 * std::max(meter.attributed_carbon_g(), 1e-9));

  // Deferral is visible in the cause split: the shifted jobs' joules landed
  // in the econ_deferred bucket.
  EXPECT_GT(meter.cost_by_cause()[static_cast<std::size_t>(obs::cause::econ_deferred)],
            0.0);
}

TEST(SimulatorEcon, EconDisabledLeavesSummaryZeroed) {
  sc::trace_config tc;
  tc.n_jobs = 15;
  tc.seed = 3;
  const auto trace = sc::generate_trace(tc);
  synergy::obs::energy_ledger::instance().reset();
  synergy::telemetry::metrics_registry::instance().reset_values();
  sc::cluster_config config;
  config.n_nodes = 2;
  sc::simulator sim{config, sc::make_policy("fifo", {}, std::nullopt, nullptr)};
  const auto summary = sim.run(trace);
  EXPECT_FALSE(sim.econ_meter().active());
  EXPECT_DOUBLE_EQ(summary.econ_cost_usd, 0.0);
  EXPECT_DOUBLE_EQ(summary.econ_carbon_g, 0.0);
  EXPECT_EQ(summary.econ_jobs_deferred, 0u);
  EXPECT_EQ(summary.econ_price_demotions, 0u);
}

namespace {

/// Wraps a policy and records each instant at which defer() held a job
/// while no GPU of the view was busy and every job had arrived. At such an
/// instant nothing can wake the queue but the econ tick, and the tick
/// re-arms only on the scheduling pass's own deferral verdict.
class idle_deferral_probe final : public sc::scheduling_policy {
 public:
  idle_deferral_probe(std::unique_ptr<sc::scheduling_policy> inner, double last_arrival_s)
      : inner_(std::move(inner)), last_arrival_s_(last_arrival_s) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool backfills() const override { return inner_->backfills(); }
  [[nodiscard]] bool defer(const sc::queued_job& job, const sc::cluster_view& view) const override {
    const bool held = inner_->defer(job, view);
    const bool idle = std::none_of(view.nodes.begin(), view.nodes.end(), [](const auto& node) {
      return std::find(node.gpu_busy.begin(), node.gpu_busy.end(), true) != node.gpu_busy.end();
    });
    if (held && idle && view.now > last_arrival_s_) idle_deferrals.push_back(view.now);
    return held;
  }
  std::optional<sc::placement> place(const sc::queued_job& job,
                                     const sc::cluster_view& view) override {
    return inner_->place(job, view);
  }

  mutable std::vector<double> idle_deferrals;

 private:
  std::unique_ptr<sc::scheduling_policy> inner_;
  double last_arrival_s_;
};

}  // namespace

TEST(SimulatorEcon, EconTickWakesJobsDeferredOnAnIdleCluster) {
  // synergy_cluster --nodes 4 --gpus 4 --policy cost --econ --deferrable 0.6
  // --jobs 100 --mean-interarrival 1 --seed 3: the arrivals end within two
  // minutes, and deferred jobs then wait out pricey windows on an idle
  // cluster until the makespan of ~830 s.
  sc::cluster_config cc;
  cc.n_nodes = 4;
  cc.gpus_per_node = 4;
  cc.econ.enabled = true;
  econ::synthetic_config syn;
  syn.seed = 3;
  syn.period_s = 240.0;
  syn.step_s = 10.0;
  syn.noise = 0.01;
  cc.econ.price = econ::synthetic_diurnal(syn);
  syn.stream = 1;
  syn.base = 300.0;
  syn.amplitude = 120.0;
  syn.noise = 20.0;
  cc.econ.carbon = econ::synthetic_diurnal(syn);
  sc::trace_config tc;
  tc.n_jobs = 100;
  tc.mean_interarrival_s = 1.0;
  tc.seed = 3;
  tc.deferrable_fraction = 0.6;
  const auto trace = sc::generate_trace(tc);
  double last_arrival_s = 0.0;
  for (const auto& job : trace.jobs) last_arrival_s = std::max(last_arrival_s, job.submit_s);

  synergy::obs::energy_ledger::instance().reset();
  synergy::telemetry::metrics_registry::instance().reset_values();
  auto probe = std::make_unique<idle_deferral_probe>(
      sc::make_cost_aware(&cc.econ, sc::make_suite_planner(cc.device)), last_arrival_s);
  const auto& idle_deferrals = probe->idle_deferrals;
  sc::simulator sim{cc, std::move(probe)};
  const auto summary = sim.run(trace);

  ASSERT_FALSE(idle_deferrals.empty()) << "no job was deferred on an idle cluster";
  EXPECT_GT(summary.econ_jobs_deferred, 0u);
  // Had the tick stopped re-arming there, the waiting jobs would have
  // failed as "deferred by the power budget with nothing left to drain".
  EXPECT_EQ(summary.failed, 0u);
  EXPECT_EQ(summary.completed, trace.jobs.size());
}
