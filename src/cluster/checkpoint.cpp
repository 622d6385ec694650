#include "synergy/cluster/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "synergy/cluster/simulator.hpp"
#include "synergy/common/checksum.hpp"
#include "synergy/common/envelope.hpp"
#include "synergy/common/log.hpp"
#include "synergy/guarded_planner.hpp"
#include "synergy/obs/slo_watchdog.hpp"
#include "synergy/plan_service.hpp"
#include "synergy/telemetry/metrics_registry.hpp"

namespace synergy::cluster {

namespace fs = std::filesystem;
using common::errc;
using common::error;

namespace {

/// Parse failures inside the payload raise this; restore_checkpoint catches
/// it (and everything else) and reports a fail-closed status — a corrupt
/// payload that survived the CRC must still never produce UB or a throw.
struct parse_fail : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Upper bound on any serialized collection count: a CRC-valid but hostile
/// payload (the fuzz suite re-seals mutated payloads) must not drive a
/// multi-gigabyte reserve.
constexpr std::uint64_t max_count = 1ull << 24;

constexpr char hex_digits[] = "0123456789abcdef";

/// Doubles travel as the 16-hex IEEE-754 bit pattern: decimal round-trips
/// are not bit-exact, and byte-identical resume hangs on every last bit.
std::string hexd(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) out[static_cast<std::size_t>(i)] = hex_digits[(bits >> (4 * (15 - i))) & 0xF];
  return out;
}

double unhexd(const std::string& tok) {
  if (tok.size() != 16) throw parse_fail("bad double token '" + tok + "'");
  std::uint64_t bits = 0;
  for (const char c : tok) {
    bits <<= 4;
    if (c >= '0' && c <= '9')
      bits |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      bits |= static_cast<std::uint64_t>(c - 'a' + 10);
    else
      throw parse_fail("bad hex digit in double token '" + tok + "'");
  }
  return std::bit_cast<double>(bits);
}

/// Strings travel percent-encoded so whitespace tokenization stays trivial:
/// the empty string encodes as "~"; '~', '%', spaces, and control bytes
/// escape as %XX (a literal "~" therefore encodes as "%7e" — no ambiguity).
std::string enc(std::string_view in) {
  if (in.empty()) return "~";
  std::string out;
  out.reserve(in.size());
  for (const char ch : in) {
    const auto c = static_cast<unsigned char>(ch);
    if (c <= 0x20 || c == 0x7F || c == '%' || c == '~') {
      out += '%';
      out += hex_digits[c >> 4];
      out += hex_digits[c & 0xF];
    } else {
      out += ch;
    }
  }
  return out;
}

int unhex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  throw parse_fail("bad percent escape in string token");
}

std::string dec(const std::string& in) {
  if (in == "~") return {};
  std::string out;
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] != '%') {
      out += in[i];
      continue;
    }
    if (i + 2 >= in.size()) throw parse_fail("truncated percent escape");
    out += static_cast<char>((unhex_nibble(in[i + 1]) << 4) | unhex_nibble(in[i + 2]));
    i += 2;
  }
  return out;
}

/// Whitespace tokenizer over the payload. Newlines and spaces are equal
/// separators — the format is fixed-order and tagged, so line structure is
/// for human eyes only.
class tokenizer {
 public:
  explicit tokenizer(std::string_view text) : text_(text) {}

  std::string next() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
    if (pos_ >= text_.size()) throw parse_fail("unexpected end of payload");
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && text_[pos_] != ' ' && text_[pos_] != '\n' && text_[pos_] != '\r')
      ++pos_;
    return std::string(text_.substr(begin, pos_ - begin));
  }

  void expect(std::string_view tag) {
    const std::string got = next();
    if (got != tag)
      throw parse_fail("expected section '" + std::string(tag) + "', found '" + got + "'");
  }

  std::uint64_t u64() {
    const std::string tok = next();
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
    if (ec != std::errc{} || end != tok.data() + tok.size())
      throw parse_fail("bad integer token '" + tok + "'");
    return v;
  }

  std::uint64_t count() {
    const std::uint64_t v = u64();
    if (v > max_count) throw parse_fail("collection count " + std::to_string(v) + " out of range");
    return v;
  }

  std::int64_t i64() {
    const std::string tok = next();
    std::int64_t v = 0;
    const auto [end, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
    if (ec != std::errc{} || end != tok.data() + tok.size())
      throw parse_fail("bad integer token '" + tok + "'");
    return v;
  }

  double d() { return unhexd(next()); }
  std::string str() { return dec(next()); }

  /// A `<sect> <n>` header and its n `<row> ...` records, each read by
  /// `fn`. Records are appended as they parse, so a hostile count fails at
  /// the end of the payload instead of driving an allocation.
  template <class Fn>
  auto rows(std::string_view sect, std::string_view row, Fn fn) {
    expect(sect);
    std::vector<decltype(fn())> out;
    for (std::uint64_t n = count(); n > 0; --n) {
      expect(row);
      out.push_back(fn());
    }
    return out;
  }

  bool b01() {
    const std::uint64_t v = u64();
    if (v > 1) throw parse_fail("bad boolean token");
    return v == 1;
  }

 private:
  std::string_view text_;
  std::size_t pos_{0};
};

/// Payload writer: space-separated tokens, newline per record.
class writer {
 public:
  writer& tag(std::string_view t) {
    begin();
    out_ += t;
    return *this;
  }
  writer& u(std::uint64_t v) { return raw(std::to_string(v)); }
  writer& i(std::int64_t v) { return raw(std::to_string(v)); }
  writer& d(double v) { return raw(hexd(v)); }
  writer& s(std::string_view v) { return raw(enc(v)); }
  writer& nl() {
    out_ += '\n';
    at_line_start_ = true;
    return *this;
  }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  void begin() {
    if (!at_line_start_) out_ += ' ';
    at_line_start_ = false;
  }
  writer& raw(std::string_view v) {
    begin();
    out_ += v;
    return *this;
  }
  std::string out_;
  bool at_line_start_{true};
};

void write_rng(writer& w, std::string_view tag, const common::pcg32& rng) {
  const auto s = rng.state();
  w.tag(tag).u(s.state).u(s.inc).u(s.has_spare ? 1 : 0).d(s.spare).nl();
}

common::pcg32_state read_rng(tokenizer& t, std::string_view tag) {
  t.expect(tag);
  common::pcg32_state s;
  s.state = t.u64();
  s.inc = t.u64();
  s.has_spare = t.b01();
  s.spare = t.d();
  return s;
}

void write_cause_array(writer& w, const obs::cause_array& a) {
  for (const double v : a) w.d(v);
}

obs::cause_array read_cause_array(tokenizer& t) {
  obs::cause_array a{};
  for (auto& v : a) v = t.d();
  return a;
}

}  // namespace

// ---------------------------------------------------------------------------
// Checkpoint artefact file helpers
// ---------------------------------------------------------------------------

std::string checkpoint_file_name(std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "ckpt-%06llu.synergy", static_cast<unsigned long long>(index));
  return buf;
}

common::result<fs::path> latest_checkpoint(const fs::path& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec))
    return error{errc::not_found, "checkpoint directory missing: " + dir.string()};
  // Zero-padded names make lexical order numeric order, so the maximum
  // filename is the newest checkpoint.
  std::string best;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() == std::string("ckpt-000000.synergy").size() &&
        name.starts_with("ckpt-") && name.ends_with(".synergy") && name > best)
      best = name;
  }
  if (ec) return error{errc::unavailable, "cannot list " + dir.string() + ": " + ec.message()};
  if (best.empty())
    return error{errc::not_found, "no checkpoint artefacts in " + dir.string()};
  return dir / best;
}

common::result<std::string> read_checkpoint_payload(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  if (!in) return error{errc::unavailable, "cannot read checkpoint " + file.string()};
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto op = common::envelope::open(buf.str(), checkpoint_kind, checkpoint_version);
  if (!op.ok())
    return error{errc::invalid_argument,
                 "checkpoint " + file.string() + " failed to open (" +
                     common::envelope::to_string(op.error) + "): " + op.detail};
  return op.payload;
}

common::status write_checkpoint_file(const fs::path& file, std::string_view payload) {
  return common::atomic_write_file(
      file, common::envelope::seal(checkpoint_kind, checkpoint_version, payload));
}

// ---------------------------------------------------------------------------
// simulator: checkpoint configuration
// ---------------------------------------------------------------------------

void simulator::set_checkpointing(checkpoint_options opts) {
  if (config_.governor.enabled)
    throw std::invalid_argument(
        "simulator: checkpointing is incompatible with the reactive governor "
        "(per-job governor state is not serialisable; see ARCHITECTURE Sec. 17)");
  if (recovery_manager_)
    throw std::invalid_argument(
        "simulator: checkpointing is incompatible with the lifecycle recovery loop "
        "(in-memory retrain state is not serialisable; see ARCHITECTURE Sec. 17)");
  ckpt_ = std::move(opts);
  ckpt_enabled_ = true;
}

std::string simulator::config_fingerprint() const {
  // Everything that shapes replay decisions. A checkpoint refuses to restore
  // into a simulator whose fingerprint differs — resuming under a different
  // policy or fault plan would silently diverge instead of failing loudly.
  writer w;
  w.tag("cfg").u(config_.n_nodes).u(config_.gpus_per_node).s(config_.device);
  w.d(config_.host_power_w).d(config_.facility_cap_w).u(config_.tag_nvgpufreq ? 1 : 0);
  w.u(config_.faults.seed).d(config_.faults.clock_set_fail_rate);
  w.d(config_.faults.power_read_dropout_rate).d(config_.faults.device_lost_rate);
  w.u(config_.faults.max_node_losses == std::numeric_limits<std::size_t>::max()
          ? 0
          : config_.faults.max_node_losses + 1);
  w.d(config_.drift.at_s).d(config_.drift.power_skew).d(config_.drift.freq_exponent);
  w.u(config_.chaos.seed).d(config_.chaos.mtbf_s).d(config_.chaos.restart_delay_s);
  w.u(config_.chaos.max_crashes);
  w.u(config_.governor.enabled ? 1 : 0).d(config_.obs_scrape_interval_s);
  w.s(policy_->name());
  // Econ parameters shape deferral/demotion decisions and every cost figure;
  // the step traces hash via their canonical CSV rendering.
  w.u(config_.econ.enabled ? 1 : 0).d(config_.econ.capex_usd_per_node_hour);
  w.d(config_.econ.defer_price_ratio).d(config_.econ.demote_price_ratio);
  w.u(common::crc32(config_.econ.price.to_csv("price")));
  w.u(common::crc32(config_.econ.carbon.to_csv("carbon")));
  return w.take();
}

// ---------------------------------------------------------------------------
// simulator: serialize
// ---------------------------------------------------------------------------

std::string simulator::serialize_checkpoint() const {
  for (const auto& rj : running_)
    if (rj.gov)
      throw std::logic_error("simulator: cannot checkpoint a governed job");

  writer w;
  w.tag("synergy_ckpt").u(2).nl();
  w.tag("fingerprint").u(common::crc32(config_fingerprint())).nl();
  w.tag("trace").u(trace_crc_).u(results_.size()).nl();
  // Budget counters travel as run totals: the resuming process builds a
  // fresh budget (counters zero) and carries these in the summary.
  run_summary totals = summary_;
  totals.cap_rebalances += budget_->rebalances();
  totals.cap_demotions += budget_->demotions();
  w.tag("summary");
  for (const auto& f : run_summary::fields()) {
    if (f.count)
      w.u(totals.*f.count);
    else
      w.d(totals.*f.value);
  }
  w.nl();
  w.tag("integ").d(last_integrated_s_).d(busy_gpu_seconds_).d(last_live_t_).nl();
  w.tag("epoch").u(next_epoch_).nl();
  w.tag("ticks").u(scrape_ticks_).u(ckpt_index_).nl();
  write_rng(w, "rng_fault", fault_rng_);
  write_rng(w, "rng_chaos", chaos_rng_);

  w.tag("nodes").u(ctl_->node_count()).nl();
  for (std::size_t i = 0; i < ctl_->node_count(); ++i)
    w.tag("node").s(ctl_->node_at(i).name()).nl();

  w.tag("slots").u(slots_.size()).nl();
  for (const auto& row : slots_) {
    w.tag("srow").u(row.size());
    for (const auto& s : row) w.u(s.busy ? 1 : 0).d(s.busy_until);
    w.nl();
  }

  w.tag("results").u(results_.size()).nl();
  for (const auto& r : results_) {
    w.tag("res").i(r.id).s(r.name).s(r.kernel).s(r.target);
    w.u(static_cast<std::uint64_t>(r.state)).i(r.n_gpus);
    w.d(r.submit_s).d(r.start_s).d(r.end_s).d(r.queue_wait_s).d(r.gpu_energy_j).d(r.core_mhz);
    w.u(r.demoted ? 1 : 0).u(r.clock_set_failed ? 1 : 0).u(r.energy_degraded ? 1 : 0);
    w.i(r.requeues).s(r.failure_reason).nl();
  }

  const auto write_traced = [&w](const traced_job& j) {
    w.i(j.id).s(j.name).d(j.submit_s).i(j.n_gpus).s(j.kernel).d(j.work_items).i(j.iterations);
    w.s(j.target).u(j.deferrable ? 1 : 0).d(j.deadline_s);
  };

  w.tag("queue").u(queue_.size()).nl();
  for (const auto& qj : queue_) {
    w.tag("q");
    write_traced(qj.job);
    w.d(qj.est_runtime_s).nl();
  }

  w.tag("running").u(running_.size()).nl();
  for (const auto& rj : running_) {
    w.tag("runj").i(rj.id).u(rj.epoch).u(rj.gpus.size());
    for (const auto& s : rj.gpus) w.u(s.node).u(s.gpu);
    write_traced(rj.job);
    w.d(rj.est).d(rj.start_s).d(rj.duration).d(rj.energy_j).d(rj.avg_power_w);
    w.u(static_cast<std::uint64_t>(rj.why)).s(rj.node).nl();
  }

  // The event heap as it stands, less the checkpoint tick and the crash
  // injection, which resume() re-arms from its own options.
  const auto& pending = engine_.entries();
  const auto written = [](const sim_engine::entry& e) {
    return e.event.kind < event_kind::checkpoint;
  };
  w.tag("engine").d(engine_.now()).u(engine_.next_seq()).nl();
  w.tag("events");
  w.u(static_cast<std::uint64_t>(std::count_if(pending.begin(), pending.end(), written))).nl();
  for (const auto& e : pending)
    if (written(e))
      w.tag("ev").d(e.t).u(e.seq).u(static_cast<std::uint64_t>(e.event.kind)).i(e.event.id)
          .u(e.event.epoch).nl();

  w.tag("guard").u(ckpt_.guard ? 1 : 0).nl();
  if (ckpt_.guard) {
    const guard_state gs = ckpt_.guard->export_state();
    w.tag("ggen").u(gs.generation).nl();
    w.tag("gcounts").u(gs.model_plans).u(gs.table_fallbacks).u(gs.default_fallbacks);
    w.u(gs.ood_rejections).u(gs.prediction_rejections).u(gs.quarantine_rejections);
    w.u(gs.quarantine_probes).nl();
    w.tag("gdrift").u(gs.drift.total).u(gs.drift.rejected).u(gs.drift.quarantined ? 1 : 0);
    w.u(gs.drift.next).d(gs.drift.window_sum).s(gs.drift.reason).nl();
    w.tag("gscale").u(gs.drift.scale.size()).nl();
    for (const auto& [kernel, scale] : gs.drift.scale) w.tag("gs").s(kernel).d(scale).nl();
    w.tag("gwin").u(gs.drift.window.size()).nl();
    for (const double v : gs.drift.window) w.tag("gw").d(v).nl();
  }

  w.tag("service").u(ckpt_.service ? 1 : 0).nl();
  if (ckpt_.service) {
    const auto cache = ckpt_.service->export_cache();
    w.tag("cache").u(cache.size()).nl();
    for (const auto& e : cache) {
      w.tag("ce").s(e.kernel).s(e.target);
      w.d(e.decision.config.memory.value).d(e.decision.config.core.value);
      w.u(static_cast<std::uint64_t>(e.decision.tier)).u(e.decision.ood ? 1 : 0);
      w.u(e.decision.clamped ? 1 : 0).u(e.decision.probe ? 1 : 0).s(e.decision.reason).nl();
    }
  }

  const obs::ledger_state ls = obs::energy_ledger::instance().export_state();
  w.tag("ledger").u(ls.cells.size()).nl();
  for (const auto& cell : ls.cells) {
    w.tag("lc").s(cell.key.node).s(cell.key.device).s(cell.key.job).s(cell.key.kernel);
    write_cause_array(w, cell.by_cause);
    w.d(cell.total_j).nl();
  }
  w.tag("ltot");
  write_cause_array(w, ls.totals);
  w.d(ls.total_j).u(ls.charges).nl();
  w.tag("lseries").u(ls.series.size()).nl();
  for (const auto& sample : ls.series) {
    w.tag("ls").d(sample.t_s);
    write_cause_array(w, sample.by_cause);
    w.d(sample.total_j).u(sample.charges).nl();
  }

  w.tag("watchdog").u(watchdog_ ? 1 : 0).nl();
  if (watchdog_) {
    const obs::watchdog_state ws = watchdog_->export_state();
    w.tag("wstate").u(ws.firing.size());
    for (const bool f : ws.firing) w.u(f ? 1 : 0);
    w.u(ws.plans_total).u(ws.plans_model).d(ws.quarantine_since).u(ws.breaker_opens_base).nl();
    w.tag("wjobs").u(ws.job_energies.size()).nl();
    for (const double v : ws.job_energies) w.tag("wj").d(v).nl();
    w.tag("wcosts").u(ws.job_costs.size()).nl();
    for (const double v : ws.job_costs) w.tag("wc").d(v).nl();
    w.tag("wcarbons").u(ws.job_carbons.size()).nl();
    for (const double v : ws.job_carbons) w.tag("wb").d(v).nl();
    w.tag("walerts").u(ws.alerts.size()).nl();
    for (const auto& a : ws.alerts) {
      w.tag("wa").d(a.t_s).s(a.rule).s(a.kind_name).d(a.value).d(a.threshold).s(a.detail).nl();
    }
  }

  const auto metrics = telemetry::metrics_registry::instance().snapshot();
  w.tag("metrics").u(metrics.size()).nl();
  for (const auto& m : metrics) {
    using kind = telemetry::metric_snapshot::kind;
    switch (m.type) {
      case kind::counter:
        // Counter totals are exact in a double far beyond any event count
        // this simulator produces; serialize the integer form.
        w.tag("mc").s(m.name).u(static_cast<std::uint64_t>(m.value)).nl();
        break;
      case kind::gauge: w.tag("mg").s(m.name).d(m.value).nl(); break;
      case kind::histogram: {
        w.tag("mh").s(m.name).u(m.count).d(m.sum).d(m.min).d(m.max);
        w.u(m.bounds.size());
        for (const double b : m.bounds) w.d(b);
        w.u(m.buckets.size());
        for (const std::uint64_t c : m.buckets) w.u(c);
        w.nl();
        break;
      }
    }
  }

  // Econ accumulators travel verbatim (never recomputed) so the resumed
  // run's cost report is byte-identical.
  w.tag("econ").u(econ_meter_.active() ? 1 : 0).nl();
  if (econ_meter_.active()) {
    const econ::cost_meter::state es = econ_meter_.export_state();
    w.tag("emeter").d(es.facility_cost_usd).d(es.facility_carbon_g).d(es.capex_usd);
    w.d(es.attributed_cost_usd).d(es.attributed_carbon_g).u(es.jobs_completed).nl();
    w.tag("eca");
    write_cause_array(w, es.cost_by_cause);
    w.nl();
    w.tag("ecb");
    write_cause_array(w, es.carbon_by_cause);
    w.nl();
    w.tag("edef").u(econ_deferred_ids_.size()).nl();
    for (const int id : econ_deferred_ids_) w.tag("ed").i(id).nl();
  }

  w.tag("end").nl();
  return w.take();
}

// ---------------------------------------------------------------------------
// simulator: restore
// ---------------------------------------------------------------------------

/// Everything a checkpoint payload parses into. The restore path fills this
/// completely and cross-validates it before mutating one byte of simulator
/// state, so a failed restore really does restore nothing.
struct simulator::parsed_checkpoint {
  std::uint32_t fingerprint{0};
  std::uint64_t trace_crc{0};
  std::uint64_t n_jobs{0};
  run_summary summary;
  double last_integrated{0.0}, busy_gpu_seconds{0.0}, last_live_t{0.0};
  std::uint64_t next_epoch{0}, scrape_ticks{0}, ckpt_index{0};
  common::pcg32_state rng_fault, rng_chaos;
  std::vector<std::string> node_names;
  std::vector<std::vector<slot_state>> slots;
  std::vector<job_result> results;
  std::vector<queued_job> queue;
  std::vector<running_job> running;
  double now{0.0};
  std::uint64_t next_seq{0};
  std::vector<sim_engine::entry> events;
  bool has_guard{false};
  guard_state guard;
  bool has_service{false};
  std::vector<cached_plan> cache;
  obs::ledger_state ledger;
  bool has_watchdog{false};
  obs::watchdog_state watchdog;
  std::vector<telemetry::metric_snapshot> metrics;
  bool has_econ{false};
  econ::cost_meter::state econ_state;
  std::vector<int> econ_deferred_ids;

  static parsed_checkpoint parse(const std::string& payload);
};

namespace {

traced_job read_traced(tokenizer& t) {
  traced_job j;
  j.id = static_cast<int>(t.i64());
  j.name = t.str();
  j.submit_s = t.d();
  j.n_gpus = static_cast<int>(t.i64());
  j.kernel = t.str();
  j.work_items = t.d();
  j.iterations = static_cast<int>(t.i64());
  j.target = t.str();
  j.deferrable = t.b01();
  j.deadline_s = t.d();
  return j;
}

}  // namespace

simulator::parsed_checkpoint simulator::parsed_checkpoint::parse(const std::string& payload) {
  tokenizer t{payload};
  parsed_checkpoint p;

  t.expect("synergy_ckpt");
  if (t.u64() != 2) throw parse_fail("unknown payload schema version");
  t.expect("fingerprint");
  p.fingerprint = static_cast<std::uint32_t>(t.u64());
  t.expect("trace");
  p.trace_crc = t.u64();
  p.n_jobs = t.count();
  t.expect("summary");
  for (const auto& f : run_summary::fields()) {
    if (f.count)
      p.summary.*f.count = t.u64();
    else
      p.summary.*f.value = t.d();
  }
  t.expect("integ");
  p.last_integrated = t.d();
  p.busy_gpu_seconds = t.d();
  p.last_live_t = t.d();
  t.expect("epoch");
  p.next_epoch = t.u64();
  t.expect("ticks");
  p.scrape_ticks = t.u64();
  p.ckpt_index = t.u64();
  p.rng_fault = read_rng(t, "rng_fault");
  p.rng_chaos = read_rng(t, "rng_chaos");

  p.node_names = t.rows("nodes", "node", [&] { return t.str(); });
  p.slots = t.rows("slots", "srow", [&] {
    std::vector<slot_state> row;
    for (std::uint64_t c = t.count(); c > 0; --c) {
      const bool busy = t.b01();
      row.push_back({busy, t.d()});
    }
    return row;
  });
  p.results = t.rows("results", "res", [&] {
    job_result r;
    r.id = static_cast<int>(t.i64());
    r.name = t.str();
    r.kernel = t.str();
    r.target = t.str();
    const std::uint64_t state = t.u64();
    if (state > static_cast<std::uint64_t>(sched::job_state::cancelled))
      throw parse_fail("job state out of range");
    r.state = static_cast<sched::job_state>(state);
    r.n_gpus = static_cast<int>(t.i64());
    r.submit_s = t.d();
    r.start_s = t.d();
    r.end_s = t.d();
    r.queue_wait_s = t.d();
    r.gpu_energy_j = t.d();
    r.core_mhz = t.d();
    r.demoted = t.b01();
    r.clock_set_failed = t.b01();
    r.energy_degraded = t.b01();
    r.requeues = static_cast<int>(t.i64());
    r.failure_reason = t.str();
    return r;
  });
  p.queue = t.rows("queue", "q", [&] {
    queued_job qj;
    qj.job = read_traced(t);
    qj.est_runtime_s = t.d();
    return qj;
  });
  p.running = t.rows("running", "runj", [&] {
    running_job rj;
    rj.id = static_cast<int>(t.i64());
    rj.epoch = t.u64();
    for (std::uint64_t g = t.count(); g > 0; --g) {
      const auto node = static_cast<std::size_t>(t.u64());
      rj.gpus.push_back({node, static_cast<std::size_t>(t.u64())});
    }
    rj.job = read_traced(t);
    rj.est = t.d();
    rj.start_s = t.d();
    rj.duration = t.d();
    rj.energy_j = t.d();
    rj.avg_power_w = t.d();
    const std::uint64_t why = t.u64();
    if (why >= obs::n_causes) throw parse_fail("attribution cause out of range");
    rj.why = static_cast<obs::cause>(why);
    rj.node = t.str();
    return rj;
  });

  t.expect("engine");
  p.now = t.d();
  p.next_seq = t.u64();
  p.events = t.rows("events", "ev", [&] {
    sim_engine::entry e;
    e.t = t.d();
    e.seq = t.u64();
    const std::uint64_t kind = t.u64();
    if (kind >= static_cast<std::uint64_t>(event_kind::checkpoint))
      throw parse_fail("event kind out of range");
    e.event = {static_cast<event_kind>(kind), t.i64(), t.u64()};
    return e;
  });

  t.expect("guard");
  p.has_guard = t.b01();
  if (p.has_guard) {
    t.expect("ggen");
    p.guard.generation = t.u64();
    t.expect("gcounts");
    p.guard.model_plans = t.u64();
    p.guard.table_fallbacks = t.u64();
    p.guard.default_fallbacks = t.u64();
    p.guard.ood_rejections = t.u64();
    p.guard.prediction_rejections = t.u64();
    p.guard.quarantine_rejections = t.u64();
    p.guard.quarantine_probes = t.u64();
    t.expect("gdrift");
    p.guard.drift.total = t.u64();
    p.guard.drift.rejected = t.u64();
    p.guard.drift.quarantined = t.b01();
    p.guard.drift.next = t.u64();
    p.guard.drift.window_sum = t.d();
    p.guard.drift.reason = t.str();
    for (auto& [kernel, scale] : t.rows("gscale", "gs", [&] {
           std::string name = t.str();
           return std::pair{std::move(name), t.d()};
         }))
      p.guard.drift.scale[kernel] = scale;
    p.guard.drift.window = t.rows("gwin", "gw", [&] { return t.d(); });
  }

  t.expect("service");
  p.has_service = t.b01();
  if (p.has_service) {
    p.cache = t.rows("cache", "ce", [&] {
      cached_plan e;
      e.kernel = t.str();
      e.target = t.str();
      e.decision.config.memory = common::megahertz{t.d()};
      e.decision.config.core = common::megahertz{t.d()};
      const std::uint64_t tier = t.u64();
      if (tier > static_cast<std::uint64_t>(plan_tier::default_clocks))
        throw parse_fail("plan tier out of range");
      e.decision.tier = static_cast<plan_tier>(tier);
      e.decision.ood = t.b01();
      e.decision.clamped = t.b01();
      e.decision.probe = t.b01();
      e.decision.reason = t.str();
      return e;
    });
  }

  p.ledger.cells = t.rows("ledger", "lc", [&] {
    obs::ledger_entry cell;
    cell.key.node = t.str();
    cell.key.device = t.str();
    cell.key.job = t.str();
    cell.key.kernel = t.str();
    cell.by_cause = read_cause_array(t);
    cell.total_j = t.d();
    return cell;
  });
  t.expect("ltot");
  p.ledger.totals = read_cause_array(t);
  p.ledger.total_j = t.d();
  p.ledger.charges = t.u64();
  p.ledger.series = t.rows("lseries", "ls", [&] {
    obs::scrape_sample sample;
    sample.t_s = t.d();
    sample.by_cause = read_cause_array(t);
    sample.total_j = t.d();
    sample.charges = t.u64();
    return sample;
  });

  t.expect("watchdog");
  p.has_watchdog = t.b01();
  if (p.has_watchdog) {
    t.expect("wstate");
    for (std::uint64_t n = t.count(); n > 0; --n) p.watchdog.firing.push_back(t.b01());
    p.watchdog.plans_total = t.u64();
    p.watchdog.plans_model = t.u64();
    p.watchdog.quarantine_since = t.d();
    p.watchdog.breaker_opens_base = t.u64();
    p.watchdog.job_energies = t.rows("wjobs", "wj", [&] { return t.d(); });
    p.watchdog.job_costs = t.rows("wcosts", "wc", [&] { return t.d(); });
    p.watchdog.job_carbons = t.rows("wcarbons", "wb", [&] { return t.d(); });
    p.watchdog.alerts = t.rows("walerts", "wa", [&] {
      obs::alert a;
      a.t_s = t.d();
      a.rule = t.str();
      a.kind_name = t.str();
      a.value = t.d();
      a.threshold = t.d();
      a.detail = t.str();
      return a;
    });
  }

  t.expect("metrics");
  for (std::uint64_t n = t.count(); n > 0; --n) {
    using kind = telemetry::metric_snapshot::kind;
    telemetry::metric_snapshot m;
    const std::string row = t.next();
    if (row == "mc") {
      m.type = kind::counter;
      m.name = t.str();
      m.value = static_cast<double>(t.u64());
    } else if (row == "mg") {
      m.type = kind::gauge;
      m.name = t.str();
      m.value = t.d();
    } else if (row == "mh") {
      m.type = kind::histogram;
      m.name = t.str();
      m.count = t.u64();
      m.sum = t.d();
      m.min = t.d();
      m.max = t.d();
      const std::uint64_t n_bounds = t.count();
      for (std::uint64_t b = 0; b < n_bounds; ++b) m.bounds.push_back(t.d());
      const std::uint64_t n_buckets = t.count();
      if (n_buckets != n_bounds + 1) throw parse_fail("histogram bucket count mismatch");
      for (std::uint64_t b = 0; b < n_buckets; ++b) m.buckets.push_back(t.u64());
    } else {
      throw parse_fail("unknown metric row '" + row + "'");
    }
    p.metrics.push_back(std::move(m));
  }

  t.expect("econ");
  p.has_econ = t.b01();
  if (p.has_econ) {
    t.expect("emeter");
    p.econ_state.facility_cost_usd = t.d();
    p.econ_state.facility_carbon_g = t.d();
    p.econ_state.capex_usd = t.d();
    p.econ_state.attributed_cost_usd = t.d();
    p.econ_state.attributed_carbon_g = t.d();
    p.econ_state.jobs_completed = t.u64();
    t.expect("eca");
    p.econ_state.cost_by_cause = read_cause_array(t);
    t.expect("ecb");
    p.econ_state.carbon_by_cause = read_cause_array(t);
    p.econ_deferred_ids = t.rows("edef", "ed", [&] { return static_cast<int>(t.i64()); });
  }

  t.expect("end");
  return p;
}

common::status simulator::restore_checkpoint(const std::string& payload,
                                             const job_trace& trace) {
  if (!ckpt_enabled_)
    return error{errc::invalid_argument,
                 "restore: call set_checkpointing() before restore_checkpoint()"};
  parsed_checkpoint p;
  try {
    p = parsed_checkpoint::parse(payload);
  } catch (const std::exception& e) {
    return error{errc::invalid_argument, std::string("restore: malformed checkpoint: ") + e.what()};
  }

  // --- cross-validation: everything checks out before anything mutates ---
  if (p.fingerprint != common::crc32(config_fingerprint()))
    return error{errc::invalid_argument,
                 "restore: config fingerprint mismatch (different cluster/policy/fault setup)"};
  if (p.trace_crc != common::crc32(trace.to_csv()) || p.n_jobs != trace.jobs.size())
    return error{errc::invalid_argument,
                 "restore: trace mismatch (checkpoint was taken replaying a different trace)"};
  if (p.has_guard != (ckpt_.guard != nullptr) || p.has_service != (ckpt_.service != nullptr))
    return error{errc::invalid_argument,
                 "restore: planner guard/service presence differs from the exporting run"};
  if (p.has_watchdog != (watchdog_ != nullptr))
    return error{errc::invalid_argument,
                 "restore: watchdog presence differs from the exporting run"};
  if (p.node_names.empty() || p.slots.size() != p.node_names.size())
    return error{errc::invalid_argument, "restore: node/slot tables inconsistent"};
  for (const auto& name : p.node_names)
    if (node_ordinal(name) >= config_.n_nodes)
      return error{errc::invalid_argument, "restore: nodes: not an inventory node name"};
  for (const auto& row : p.slots)
    if (row.size() != config_.gpus_per_node)
      return error{errc::invalid_argument, "restore: GPU slot row width mismatch"};
  if (p.results.size() != trace.jobs.size())
    return error{errc::invalid_argument, "restore: per-job result count mismatch"};
  for (std::size_t i = 0; i < p.results.size(); ++i)
    if (p.results[i].id != trace.jobs[i].id)
      return error{errc::invalid_argument, "restore: job id order mismatch"};
  // Queued and running jobs are copies of trace rows, and job events name
  // trace job ids: anything else would fault mid-resume.
  std::map<std::int64_t, const traced_job*> by_id;
  for (const auto& j : trace.jobs) by_id.emplace(j.id, &j);
  const auto in_trace = [&by_id](const traced_job& j) {
    const auto it = by_id.find(j.id);
    return it != by_id.end() && *it->second == j;
  };
  for (const auto& qj : p.queue)
    if (!in_trace(qj.job))
      return error{errc::invalid_argument, "restore: queue: job " + std::to_string(qj.job.id) +
                                               " does not match the trace"};
  for (const auto& rj : p.running) {
    if (rj.id != rj.job.id || !in_trace(rj.job))
      return error{errc::invalid_argument, "restore: running: job " + std::to_string(rj.id) +
                                               " does not match the trace"};
    if (rj.epoch >= p.next_epoch)
      return error{errc::invalid_argument, "restore: running-job epoch out of range"};
    for (const auto& s : rj.gpus)
      if (s.node >= p.slots.size() || s.gpu >= config_.gpus_per_node)
        return error{errc::invalid_argument, "restore: running-job GPU slot out of range"};
  }
  if (!std::isfinite(p.now) || p.now < 0.0)
    return error{errc::invalid_argument, "restore: events: engine clock out of range"};
  for (const auto& e : p.events) {
    const std::int64_t id = e.event.id;
    bool ok = std::isfinite(e.t) && e.t >= p.now && e.seq < p.next_seq;
    switch (e.event.kind) {
      case event_kind::arrival:
        ok = ok && id >= 0 && static_cast<std::uint64_t>(id) < trace.jobs.size();
        break;
      case event_kind::completion:
      case event_kind::governor_tick:
        ok = ok && by_id.contains(id) && e.event.epoch < p.next_epoch;
        break;
      case event_kind::device_lost:
      case event_kind::node_restart:
        ok = ok && id >= 0 && static_cast<std::uint64_t>(id) < config_.n_nodes;
        break;
      default: break;
    }
    if (!ok)
      return error{errc::invalid_argument,
                   "restore: events: pending event (seq " + std::to_string(e.seq) + ") out of range"};
  }
  if (p.has_econ != config_.econ.usable())
    return error{errc::invalid_argument,
                 "restore: econ accounting presence differs from the exporting run"};
  for (const int id : p.econ_deferred_ids)
    if (std::none_of(p.queue.begin(), p.queue.end(),
                     [id](const queued_job& qj) { return qj.job.id == id; }))
      return error{errc::invalid_argument,
                   "restore: econ-deferred job id not present in the queue"};

  // --- external subsystem imports (each is individually atomic) ---
  if (!telemetry::metrics_registry::instance().restore(p.metrics))
    return error{errc::invalid_argument, "restore: metrics registry shape mismatch"};
  if (ckpt_.guard && !ckpt_.guard->import_state(p.guard))
    return error{errc::invalid_argument,
                 "restore: guard/drift state inconsistent with this guard's options"};
  if (watchdog_ && !watchdog_->import_state(p.watchdog))
    return error{errc::invalid_argument,
                 "restore: watchdog rule count differs from the exporting run"};
  obs::energy_ledger::instance().import_state(p.ledger);

  // --- simulator state proper (cannot fail past this point) ---
  live_events_ = static_cast<std::size_t>(std::count_if(
      p.events.begin(), p.events.end(),
      [](const sim_engine::entry& e) { return is_live(e.event.kind); }));
  engine_.restore(p.now, p.next_seq, std::move(p.events));

  std::vector<sched::node_config> nodes;
  nodes.reserve(p.node_names.size());
  for (const auto& name : p.node_names) nodes.push_back(make_node_config(name));
  ctl_ = std::make_unique<sched::controller>(std::move(nodes));

  slots_ = std::move(p.slots);
  results_ = std::move(p.results);
  queue_ = std::move(p.queue);
  running_ = std::move(p.running);

  // Fresh budget over the restored inventory; running jobs re-register their
  // demand and node occupancy. No restore-time rebalance — the summary
  // carries the exporting run's counters, and a gratuitous rebalance here
  // would put the resumed summary one count ahead.
  budget_ = std::make_unique<power_budget>(*ctl_, config_.facility_cap_w);
  for (const auto& rj : running_) {
    std::set<std::size_t> nodes_used;
    for (const auto& s : rj.gpus) {
      budget_->gpu_busy(s.node, s.gpu, rj.avg_power_w);
      nodes_used.insert(s.node);
    }
    for (const std::size_t n : nodes_used) ctl_->node_at(n).add_job();
  }

  summary_ = p.summary;
  last_integrated_s_ = p.last_integrated;
  busy_gpu_seconds_ = p.busy_gpu_seconds;
  last_live_t_ = p.last_live_t;
  power_samples_.clear();  // diagnostics only; not part of any output artefact
  next_epoch_ = p.next_epoch;
  fault_rng_.set_state(p.rng_fault);
  chaos_rng_.set_state(p.rng_chaos);
  recovery_was_quarantined_ = false;
  scrape_ticks_ = p.scrape_ticks;
  ckpt_index_ = p.ckpt_index;
  trace_crc_ = p.trace_crc;

  econ_meter_ = econ::cost_meter{config_.econ, config_.n_nodes};
  if (p.has_econ) econ_meter_.import_state(p.econ_state);
  econ_deferred_ids_.clear();
  econ_deferred_ids_.insert(p.econ_deferred_ids.begin(), p.econ_deferred_ids.end());

  if (ckpt_.service) ckpt_.service->import_cache(p.cache);

  restored_ = true;
  return common::status::success();
}

// ---------------------------------------------------------------------------
// simulator: resume + periodic tick
// ---------------------------------------------------------------------------

run_summary simulator::resume(const job_trace& trace) {
  if (!restored_)
    throw std::logic_error("simulator::resume without a successful restore_checkpoint");
  if (trace.jobs.size() != results_.size())
    throw std::invalid_argument("simulator::resume: not the trace restore_checkpoint() verified");
  restored_ = false;
  trace_ = &trace;
  // The restored heap holds every other pending event at its original
  // (t, seq) rank. Periodic checkpointing continues on this simulator's
  // cadence; the tick is inert, so its rank among co-timed events does not
  // matter.
  if (ckpt_.interval_s > 0.0 && has_live_work())
    schedule(engine_.now() + ckpt_.interval_s, event_kind::checkpoint);
  if (ckpt_.crash_at_s >= 0.0 && ckpt_.crash_at_s > engine_.now())
    schedule(ckpt_.crash_at_s, event_kind::crash_injection);
  return finish_run();
}

void simulator::checkpoint_tick() {
  // Decide on the next tick before serializing, like resume() does after a
  // restore. The tick itself is inert: no integrate, no power sample — a
  // checkpointed run's accounting spans are identical to an uncheckpointed
  // one's.
  const bool more = has_live_work();
  ++ckpt_index_;

  const std::string payload = serialize_checkpoint();
  const fs::path file = ckpt_.dir / checkpoint_file_name(ckpt_index_ - 1);
  if (const auto st = write_checkpoint_file(file, payload); !st.ok()) {
    // Warn-and-continue: a full disk must not kill the replay it exists to
    // protect; the previous checkpoint (atomic rename) is still intact.
    common::log_warn("cluster: checkpoint write failed: ", st.err().to_string());
  }

  if (more) schedule(engine_.now() + ckpt_.interval_s, event_kind::checkpoint);
}

}  // namespace synergy::cluster
