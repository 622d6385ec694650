#include "synergy/cluster/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
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

/// The payload schema, named on the payload's first line.
constexpr std::uint64_t payload_schema = 4;

constexpr char hex_digits[] = "0123456789abcdef";

/// Doubles travel as the 16-hex IEEE-754 bit pattern: decimal round-trips
/// are not bit-exact, and byte-identical resume hangs on every last bit.
void append_hex_double(std::string& out, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  char buf[16];
  for (std::size_t i = 0; i < 16; ++i) buf[i] = hex_digits[(bits >> (60 - 4 * i)) & 0xF];
  out.append(buf, sizeof buf);
}

double unhexd(std::string_view tok) {
  if (tok.size() != 16) throw parse_fail("bad double token '" + std::string(tok) + "'");
  std::uint64_t bits = 0;
  for (const char c : tok) {
    bits <<= 4;
    if (c >= '0' && c <= '9')
      bits |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      bits |= static_cast<std::uint64_t>(c - 'a' + 10);
    else
      throw parse_fail("bad hex digit in double token '" + std::string(tok) + "'");
  }
  return std::bit_cast<double>(bits);
}

/// Strings travel percent-encoded so whitespace tokenization stays trivial:
/// the empty string encodes as "~"; '~', '%', spaces, and control bytes
/// escape as %XX (a literal "~" therefore encodes as "%7e" — no ambiguity).
void append_encoded(std::string& out, std::string_view in) {
  if (in.empty()) {
    out += '~';
    return;
  }
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
}

int unhex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  throw parse_fail("bad percent escape in string token");
}

std::string dec(std::string_view in) {
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

/// What rows() reads one record into: a map's key loses its const.
template <class C>
struct element {
  using type = typename C::value_type;
};
template <class K, class V>
struct element<std::map<K, V>> {
  using type = std::pair<K, V>;
};

/// Payload writer: space-separated tokens, a newline per record. It shares
/// its vocabulary with `reader`, and every record is spelled once, by a
/// transfer() that both instantiate, so the two directions cannot drift.
class writer {
 public:
  static constexpr bool reading = false;

  writer& tag(std::string_view t) { return token(t); }
  /// The next fields of the current record, in order.
  template <class... T>
  writer& operator()(const T&... v) {
    (io(v), ...);
    return *this;
  }
  /// A `<tag> <fields>...` record.
  template <class... T>
  writer& line(std::string_view t, const T&... v) {
    tag(t)(v...);
    return end_line();
  }
  /// A `<sect> <n>` header and n `<row> <record>` lines (an empty `row`
  /// leaves the tag to the record, as the metric rows do).
  template <class C>
  writer& rows(std::string_view sect, std::string_view row, const C& c) {
    line(sect, static_cast<std::uint64_t>(c.size()));
    for (const auto& e : c) {
      if (!row.empty()) tag(row);
      io(e);
      end_line();
    }
    return *this;
  }
  /// A `<tag> 0|1` presence flag; true when the section follows.
  template <class T>
  bool present(std::string_view t, const std::optional<T>& v) {
    line(t, v.has_value());
    return v.has_value();
  }
  /// An enum as its number (the reader range-checks it against `last`).
  template <class E>
  writer& en(E v, E /*last*/, const char* /*what*/) {
    return (*this)(static_cast<std::uint64_t>(v));
  }
  /// An enum as one of `tags`, indexed by its value.
  template <class E, std::size_t N>
  writer& pick(E v, const std::array<std::string_view, N>& tags, const char* /*what*/) {
    return tag(tags[static_cast<std::size_t>(v)]);
  }
  /// A double that holds a whole count, as an integer.
  writer& whole(double v) { return (*this)(static_cast<std::uint64_t>(v)); }
  /// A condition the reader enforces on what it just read.
  writer& check(bool /*ok*/, const char* /*what*/) { return *this; }

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  /// Scalars are written straight into the payload, with no string per
  /// token.
  template <class T>
  void io(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      token(v ? "1" : "0");
    } else if constexpr (std::is_same_v<T, double>) {
      separate();
      append_hex_double(out_, v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      separate();
      append_encoded(out_, v);
    } else if constexpr (std::is_integral_v<T>) {
      char buf[24];
      token({buf, static_cast<std::size_t>(std::to_chars(buf, buf + sizeof buf, v).ptr - buf)});
    } else {
      transfer(*this, v);
    }
  }
  /// Inline counted list: `<n> <item>...` on the current record.
  template <class T>
  void io(const std::vector<T>& c) {
    io(static_cast<std::uint64_t>(c.size()));
    for (const auto& e : c) io(e);
  }
  template <class T, std::size_t N>
  void io(const std::array<T, N>& a) {
    for (const auto& e : a) io(e);
  }
  template <class A, class B>
  void io(const std::pair<A, B>& p) {
    io(p.first);
    io(p.second);
  }
  /// The space before every token but a record's first.
  void separate() {
    if (!at_line_start_) out_ += ' ';
    at_line_start_ = false;
  }
  writer& token(std::string_view v) {
    separate();
    out_ += v;
    return *this;
  }
  writer& end_line() {
    out_ += '\n';
    at_line_start_ = true;
    return *this;
  }

  std::string out_;
  bool at_line_start_{true};
};

/// Payload reader: the writer's mirror, token for token. Newlines and
/// spaces are equal separators — the format is fixed-order and tagged, so
/// line structure is for human eyes only. Anything malformed throws
/// parse_fail.
class reader {
 public:
  static constexpr bool reading = true;

  explicit reader(std::string_view text) : text_(text) {}

  reader& tag(std::string_view t) {
    const std::string_view got = next();
    if (got != t)
      throw parse_fail("expected section '" + std::string(t) + "', found '" + std::string(got) +
                       "'");
    return *this;
  }
  template <class... T>
  reader& operator()(T&... v) {
    (io(v), ...);
    return *this;
  }
  template <class... T>
  reader& line(std::string_view t, T&... v) {
    return tag(t)(v...);
  }
  /// Records are appended as they parse, so a hostile count fails at the
  /// end of the payload instead of driving an allocation.
  template <class C>
  reader& rows(std::string_view sect, std::string_view row, C& c) {
    tag(sect);
    for (std::uint64_t n = count(); n > 0; --n) {
      if (!row.empty()) tag(row);
      typename element<C>::type e{};
      io(e);
      c.insert(c.end(), std::move(e));
    }
    return *this;
  }
  template <class T>
  bool present(std::string_view t, std::optional<T>& v) {
    bool has = false;
    line(t, has);
    if (has) v.emplace();
    return has;
  }
  template <class E>
  reader& en(E& v, E last, const char* what) {
    std::uint64_t n = 0;
    io(n);
    if (n > static_cast<std::uint64_t>(last)) throw parse_fail(std::string(what) + " out of range");
    v = static_cast<E>(n);
    return *this;
  }
  template <class E, std::size_t N>
  reader& pick(E& v, const std::array<std::string_view, N>& tags, const char* what) {
    const std::string_view got = next();
    const auto it = std::find(tags.begin(), tags.end(), got);
    if (it == tags.end())
      throw parse_fail("unknown " + std::string(what) + " '" + std::string(got) + "'");
    v = static_cast<E>(it - tags.begin());
    return *this;
  }
  reader& whole(double& v) {
    std::uint64_t n = 0;
    io(n);
    v = static_cast<double>(n);
    return *this;
  }
  reader& check(bool ok, const char* what) {
    if (!ok) throw parse_fail(what);
    return *this;
  }

 private:
  /// The next token, as a view into the payload.
  std::string_view next() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
    if (pos_ >= text_.size()) throw parse_fail("unexpected end of payload");
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && text_[pos_] != ' ' && text_[pos_] != '\n' && text_[pos_] != '\r')
      ++pos_;
    return text_.substr(begin, pos_ - begin);
  }
  std::uint64_t count() {
    std::uint64_t n = 0;
    io(n);
    if (n > max_count) throw parse_fail("collection count " + std::to_string(n) + " out of range");
    return n;
  }
  template <class T>
  void io(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      std::uint64_t n = 0;
      io(n);
      if (n > 1) throw parse_fail("bad boolean token");
      v = n == 1;
    } else if constexpr (std::is_same_v<T, double>) {
      v = unhexd(next());
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = dec(next());
    } else if constexpr (std::is_integral_v<T>) {
      const std::string_view tok = next();
      const auto [end, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (ec != std::errc{} || end != tok.data() + tok.size())
        throw parse_fail("bad integer token '" + std::string(tok) + "'");
    } else {
      transfer(*this, v);
    }
  }
  template <class T>
  void io(std::vector<T>& c) {
    for (std::uint64_t n = count(); n > 0; --n) {
      T e{};
      io(e);
      c.push_back(std::move(e));
    }
  }
  template <class T, std::size_t N>
  void io(std::array<T, N>& a) {
    for (auto& e : a) io(e);
  }
  template <class A, class B>
  void io(std::pair<A, B>& p) {
    io(p.first);
    io(p.second);
  }

  std::string_view text_;
  std::size_t pos_{0};
};

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
  // One read of the whole file into a buffer of its size.
  const error unreadable{errc::unavailable, "cannot read checkpoint " + file.string()};
  std::error_code ec;
  const auto size = fs::file_size(file, ec);
  std::ifstream in(file, std::ios::binary);
  if (ec || !in) return unreadable;
  std::string text(size, '\0');
  if (!in.read(text.data(), static_cast<std::streamsize>(size))) return unreadable;
  auto op = common::envelope::open(text, checkpoint_kind, checkpoint_version);
  if (!op.ok())
    return error{errc::invalid_argument,
                 "checkpoint " + file.string() + " failed to open (" +
                     common::envelope::to_string(op.error) + "): " + op.detail};
  return std::move(op.payload);
}

common::status write_checkpoint_file(const fs::path& file, std::string_view payload) {
  return common::atomic_write_file(
      file, common::envelope::seal(checkpoint_kind, checkpoint_version, payload));
}

// ---------------------------------------------------------------------------
// The payload layout
// ---------------------------------------------------------------------------

/// Where the payload's layout lives. A friend of simulator, so the
/// transfer()s below can name its private records.
struct checkpoint_layout {
  using queue_entry = simulator::queue_entry;
  using running_job = simulator::running_job;
  using event_kind = simulator::event_kind;
  using entry = simulator::sim_engine::entry;

  /// The payload beside the run state: schema, config fingerprint and job
  /// count, the inventory, the event heap, and the exported state of the
  /// attached subsystems. serialize_checkpoint() fills one from the live
  /// objects; restore_checkpoint() reads one and validates it before
  /// importing anything.
  struct sections {
    std::uint64_t schema{payload_schema};
    std::uint32_t fingerprint{0};
    std::uint64_t n_jobs{0};
    std::vector<std::string> nodes;
    double now{0.0};
    std::uint64_t next_seq{0};
    std::vector<entry> events;
    std::optional<guard_state> guard;
    std::optional<std::vector<cached_plan>> cache;
    obs::ledger_state ledger;
    std::optional<obs::watchdog_state> watchdog;
    std::vector<telemetry::metric_snapshot> metrics;
    std::optional<econ::cost_meter::state> econ;
  };

  /// The section order, for both directions: `st` is the simulator's
  /// (const) run state when writing, a fresh local when reading.
  template <class Ar, class State>
  static void payload(Ar& ar, const simulator& sim, State& st, sections& x);
};

namespace {

/// `T` is the record `R`, const on the writing side: each transfer() below
/// is instantiated by both archives.
template <class T, class R>
concept record = std::same_as<std::remove_const_t<T>, R>;

/// The summary row, in run_summary::fields() order (the CSV's columns).
template <class Ar, record<run_summary> S>
void transfer(Ar& ar, S& s) {
  for (const auto& f : run_summary::fields()) {
    if (f.count)
      ar(s.*f.count);
    else
      ar(s.*f.value);
  }
}

template <class Ar, record<common::pcg32_state> S>
void transfer(Ar& ar, S& s) {
  ar(s.state, s.inc, s.has_spare, s.spare);
}

/// A stream travels as its mid-draw pcg32_state.
template <class Ar, record<common::pcg32> R>
void transfer(Ar& ar, R& rng) {
  common::pcg32_state s = rng.state();
  ar(s);
  if constexpr (Ar::reading) rng.set_state(s);
}

template <class Ar, record<gpu_slot> S>
void transfer(Ar& ar, S& s) {
  ar(s.node, s.gpu);
}

/// A result row holds what happened, never the trace row's columns: the
/// results section has one row per trace row, in trace order.
template <class Ar, record<job_result> R>
void transfer(Ar& ar, R& r) {
  ar.en(r.state, sched::job_state::cancelled, "job state")(
      r.start_s, r.end_s, r.queue_wait_s, r.gpu_energy_j, r.core_mhz, r.demoted,
      r.clock_set_failed, r.energy_degraded, r.requeues, r.failure_reason);
}

template <class Ar, record<checkpoint_layout::queue_entry> Q>
void transfer(Ar& ar, Q& q) {
  ar(q.row, q.est_runtime_s, q.econ_deferred);
}

/// A running job without its governor state: serialize_checkpoint() refuses
/// governed jobs. Its submission, start time, energy and node name are read
/// from its trace row, its result row and the inventory.
template <class Ar, record<checkpoint_layout::running_job> J>
void transfer(Ar& ar, J& rj) {
  ar(rj.epoch, rj.gpus, rj.row, rj.est, rj.busy_until, rj.duration, rj.avg_power_w)
      .en(rj.why, static_cast<obs::cause>(obs::n_causes - 1), "attribution cause");
}

template <class Ar, record<checkpoint_layout::entry> E>
void transfer(Ar& ar, E& e) {
  using kind = checkpoint_layout::event_kind;
  // Kinds from `checkpoint` on are never written; resume() re-arms them.
  constexpr auto last_written = static_cast<kind>(static_cast<int>(kind::checkpoint) - 1);
  ar(e.t, e.seq).en(e.event.kind, last_written, "event kind");
  ar(e.event.id, e.event.epoch);
}

template <class Ar, record<guard_state> G>
void transfer(Ar& ar, G& g) {
  auto& d = g.drift;
  ar.line("ggen", g.generation)
      .line("gcounts", g.model_plans, g.table_fallbacks, g.default_fallbacks, g.ood_rejections,
            g.prediction_rejections, g.quarantine_rejections, g.quarantine_probes)
      .line("gdrift", d.total, d.rejected, d.quarantined, d.next, d.window_sum, d.reason)
      .rows("gscale", "gs", d.scale)
      .rows("gwin", "gw", d.window);
}

template <class Ar, record<cached_plan> P>
void transfer(Ar& ar, P& p) {
  auto& d = p.decision;
  ar(p.kernel, p.target, d.config.memory.value, d.config.core.value)
      .en(d.tier, plan_tier::default_clocks, "plan tier");
  ar(d.ood, d.clamped, d.probe, d.reason);
}

template <class Ar, record<obs::ledger_entry> C>
void transfer(Ar& ar, C& c) {
  ar(c.key.node, c.key.device, c.key.job, c.key.kernel, c.by_cause, c.total_j);
}

template <class Ar, record<obs::scrape_sample> S>
void transfer(Ar& ar, S& s) {
  ar(s.t_s, s.by_cause, s.total_j, s.charges);
}

template <class Ar, record<obs::ledger_state> L>
void transfer(Ar& ar, L& l) {
  ar.rows("ledger", "lc", l.cells)
      .line("ltot", l.totals, l.total_j, l.charges)
      .rows("lseries", "ls", l.series);
}

template <class Ar, record<obs::alert> A>
void transfer(Ar& ar, A& a) {
  ar(a.t_s, a.rule, a.kind_name, a.value, a.threshold, a.detail);
}

template <class Ar, record<obs::watchdog_state> W>
void transfer(Ar& ar, W& w) {
  ar.line("wstate", w.firing, w.plans_total, w.plans_model, w.quarantine_since,
          w.breaker_opens_base)
      .rows("wjobs", "wj", w.job_energies)
      .rows("wcosts", "wc", w.job_costs)
      .rows("wcarbons", "wb", w.job_carbons)
      .rows("walerts", "wa", w.alerts);
}

template <class Ar, record<telemetry::metric_snapshot> M>
void transfer(Ar& ar, M& m) {
  using kind = telemetry::metric_snapshot::kind;
  constexpr std::array<std::string_view, 3> row_tags{"mc", "mg", "mh"};  // by kind
  ar.pick(m.type, row_tags, "metric row")(m.name);
  switch (m.type) {
    case kind::counter:
      // Counter totals are exact in a double far beyond any event count
      // this simulator produces; serialize the integer form.
      ar.whole(m.value);
      break;
    case kind::gauge: ar(m.value); break;
    case kind::histogram:
      ar(m.count, m.sum, m.min, m.max, m.bounds, m.buckets)
          .check(m.buckets.size() == m.bounds.size() + 1, "histogram bucket count mismatch");
      break;
  }
}

/// Econ accumulators travel verbatim (never recomputed) so the resumed
/// run's cost report is byte-identical.
template <class Ar, record<econ::cost_meter::state> E>
void transfer(Ar& ar, E& e) {
  ar.line("emeter", e.facility_cost_usd, e.facility_carbon_g, e.capex_usd, e.attributed_cost_usd,
          e.attributed_carbon_g, e.jobs_completed)
      .line("eca", e.cost_by_cause)
      .line("ecb", e.carbon_by_cause);
}

}  // namespace

template <class Ar, class State>
void checkpoint_layout::payload(Ar& ar, const simulator& sim, State& st, sections& x) {
  ar.line("synergy_ckpt", x.schema)
      .check(x.schema == payload_schema, "unknown payload schema version");
  ar.line("fingerprint", x.fingerprint)
      .line("trace", st.trace_crc, x.n_jobs)
      .check(x.n_jobs <= max_count, "job count out of range");
  if constexpr (Ar::reading) {
    ar.line("summary", st.summary);
  } else {
    // Budget counters travel as run totals: the resuming process builds a
    // fresh budget (counters zero) and carries these in the summary.
    run_summary totals = st.summary;
    totals.cap_rebalances += sim.budget_->rebalances();
    totals.cap_demotions += sim.budget_->demotions();
    ar.line("summary", totals);
  }
  ar.line("integ", st.last_integrated_s, st.busy_gpu_seconds, st.last_live_t)
      .line("epoch", st.next_epoch)
      .line("ticks", st.scrape_ticks, st.ckpt_index)
      .line("rng_fault", st.fault_rng)
      .line("rng_chaos", st.chaos_rng)
      .rows("nodes", "node", x.nodes)
      .rows("results", "res", st.results)
      .rows("queue", "q", st.queue)
      .rows("running", "runj", st.running)
      .line("engine", x.now, x.next_seq)
      .rows("events", "ev", x.events);
  if (ar.present("guard", x.guard)) ar(*x.guard);
  if (ar.present("service", x.cache)) ar.rows("cache", "ce", *x.cache);
  ar(x.ledger);
  if (ar.present("watchdog", x.watchdog)) ar(*x.watchdog);
  ar.rows("metrics", "", x.metrics);
  if (ar.present("econ", x.econ)) ar(*x.econ);
  ar.line("end");
}

// ---------------------------------------------------------------------------
// simulator: checkpoint configuration
// ---------------------------------------------------------------------------

void simulator::set_checkpointing(checkpoint_options opts) {
  if (config_.governor.enabled)
    throw std::invalid_argument(
        "simulator: checkpointing is incompatible with the reactive governor "
        "(per-job governor state is not serialisable; see ARCHITECTURE Sec. 17)");
  if (recovery_manager_) throw std::invalid_argument(lifecycle_checkpointing_error);
  ckpt_ = std::move(opts);
  ckpt_enabled_ = true;
}

std::string simulator::config_fingerprint() const {
  // Everything that shapes replay decisions. A checkpoint refuses to restore
  // into a simulator whose fingerprint differs — resuming under a different
  // policy or fault plan would silently diverge instead of failing loudly.
  const auto& f = config_.faults;
  const auto& c = config_.chaos;
  const auto& e = config_.econ;
  writer w;
  w.tag("cfg")(config_.n_nodes, config_.gpus_per_node, config_.device, config_.host_power_w,
               config_.facility_cap_w, config_.tag_nvgpufreq);
  w(f.seed, f.clock_set_fail_rate, f.power_read_dropout_rate, f.device_lost_rate,
    f.max_node_losses == std::numeric_limits<std::size_t>::max() ? 0 : f.max_node_losses + 1);
  w(config_.drift.at_s, config_.drift.power_skew, config_.drift.freq_exponent);
  w(c.seed, c.mtbf_s, c.restart_delay_s, c.max_crashes);
  w(config_.governor.enabled, config_.obs_scrape_interval_s, policy_->name());
  // Econ parameters shape deferral/demotion decisions and every cost figure;
  // the step traces hash via their canonical CSV rendering.
  w(e.enabled, e.capex_usd_per_node_hour, e.defer_price_ratio, e.demote_price_ratio);
  w(common::crc32(e.price.to_csv("price")), common::crc32(e.carbon.to_csv("carbon")));
  return w.take();
}

// ---------------------------------------------------------------------------
// simulator: serialize
// ---------------------------------------------------------------------------

std::string simulator::serialize_checkpoint() const {
  for (const auto& rj : run_.running)
    if (rj.gov)
      throw std::logic_error("simulator: cannot checkpoint a governed job");

  checkpoint_layout::sections x;
  x.fingerprint = common::crc32(config_fingerprint());
  x.n_jobs = run_.results.size();
  x.nodes = node_names();
  // The event heap as it stands, less the checkpoint tick and the crash
  // injection, which resume() re-arms from its own options.
  x.now = engine_.now();
  x.next_seq = engine_.next_seq();
  for (const auto& e : engine_.entries())
    if (e.event.kind < event_kind::checkpoint) x.events.push_back(e);
  if (ckpt_.guard) x.guard = ckpt_.guard->export_state();
  if (ckpt_.service) x.cache = ckpt_.service->export_cache();
  x.ledger = obs::energy_ledger::instance().export_state();
  if (watchdog_) x.watchdog = watchdog_->export_state();
  x.metrics = telemetry::metrics_registry::instance().snapshot();
  if (econ_meter_.active()) x.econ = econ_meter_.export_state();

  writer w;
  checkpoint_layout::payload(w, *this, run_, x);
  return w.take();
}

// ---------------------------------------------------------------------------
// simulator: restore
// ---------------------------------------------------------------------------

common::status simulator::restore_checkpoint(const std::string& payload,
                                             const job_trace& trace) {
  if (!ckpt_enabled_)
    return error{errc::invalid_argument,
                 "restore: call set_checkpointing() before restore_checkpoint()"};
  // Everything is read into locals and cross-validated before one byte of
  // simulator or subsystem state changes, so a failed restore restores
  // nothing.
  run_state st;
  checkpoint_layout::sections x;
  try {
    reader r{payload};
    checkpoint_layout::payload(r, *this, st, x);
  } catch (const std::exception& e) {
    return error{errc::invalid_argument, std::string("restore: malformed checkpoint: ") + e.what()};
  }
  const auto reject = [](std::string what) {
    return error{errc::invalid_argument, "restore: " + std::move(what)};
  };

  // --- cross-validation: every check that can reject the payload ---
  if (x.fingerprint != common::crc32(config_fingerprint()))
    return reject("config fingerprint mismatch (different cluster/policy/fault setup)");
  try {
    validate_trace(trace);
  } catch (const std::invalid_argument& e) {
    return reject(e.what());
  }
  if (st.trace_crc != common::crc32(trace.to_csv()) || x.n_jobs != trace.jobs.size())
    return reject("trace mismatch (checkpoint was taken replaying a different trace)");
  if (x.guard.has_value() != (ckpt_.guard != nullptr) ||
      x.cache.has_value() != (ckpt_.service != nullptr))
    return reject("planner guard/service presence differs from the exporting run");
  if (x.watchdog.has_value() != (watchdog_ != nullptr))
    return reject("watchdog presence differs from the exporting run");
  if (x.nodes.empty()) return reject("nodes: empty inventory");
  // Which ordinals are up; a node joins the inventory once.
  std::vector<bool> up(config_.n_nodes, false);
  std::vector<std::size_t> ordinals;
  for (const auto& name : x.nodes) {
    const std::size_t ordinal = node_ordinal(name);
    if (ordinal >= config_.n_nodes) return reject("nodes: not an inventory node name");
    if (up[ordinal]) return reject("nodes: node " + name + " appears twice");
    up[ordinal] = true;
    ordinals.push_back(ordinal);
  }
  if (st.results.size() != trace.jobs.size()) return reject("per-job result count mismatch");
  // complete() and governor_tick() binary-search the running jobs by epoch.
  if (std::adjacent_find(st.running.begin(), st.running.end(),
                         [](const running_job& a, const running_job& b) {
                           return a.epoch >= b.epoch;
                         }) != st.running.end())
    return reject("running: jobs out of epoch order");
  // The ledger keeps one cell per key, and its totals count every cell's
  // joules: a repeated key would drop joules the totals still hold.
  if (std::adjacent_find(x.ledger.cells.begin(), x.ledger.cells.end(),
                         [](const obs::ledger_entry& a, const obs::ledger_entry& b) {
                           return !(a.key < b.key);
                         }) != x.ledger.cells.end())
    return reject("ledger: cells out of key order or repeated");
  // Queued jobs, running jobs and job events name trace rows: a row past
  // the trace would fault mid-resume.
  const std::size_t n_rows = trace.jobs.size();
  // A job's phase is recorded twice, by its result row's state and by where
  // the job sits: each queued job is pending, each running job is running,
  // neither appears twice, and every running row has its running job.
  std::vector<bool> placed(n_rows, false);
  const auto misplaced = [&](std::size_t row, sched::job_state phase) {
    const bool bad = placed[row] || st.results[row].state != phase;
    placed[row] = true;
    return bad;
  };
  for (const auto& qe : st.queue) {
    if (qe.row >= n_rows)
      return reject("queue: row " + std::to_string(qe.row) + " past the trace");
    const std::string job = "queue: job " + std::to_string(trace.jobs[qe.row].id);
    if (misplaced(qe.row, sched::job_state::pending))
      return reject(job + " appears twice or its result row is not pending");
  }
  // The running jobs are the occupancy: each holds GPUs of the inventory
  // that no other running job holds. Otherwise the scheduler could place a
  // second job on a GPU that is still in use.
  std::vector<std::vector<bool>> held(x.nodes.size(),
                                      std::vector<bool>(config_.gpus_per_node, false));
  for (const auto& rj : st.running) {
    if (rj.row >= n_rows)
      return reject("running: row " + std::to_string(rj.row) + " past the trace");
    const std::string job = "running: job " + std::to_string(trace.jobs[rj.row].id);
    if (misplaced(rj.row, sched::job_state::running))
      return reject(job + " appears twice or its result row is not running");
    if (rj.epoch >= st.next_epoch) return reject("running-job epoch out of range");
    if (rj.gpus.empty()) return reject(job + " holds no GPUs");
    for (const auto& s : rj.gpus) {
      if (s.node >= held.size() || s.gpu >= config_.gpus_per_node)
        return reject("running-job GPU slot out of range");
      if (held[s.node][s.gpu]) return reject(job + " holds a GPU another running job holds");
      held[s.node][s.gpu] = true;
    }
  }
  for (std::size_t i = 0; i < n_rows; ++i)
    if (st.results[i].state == sched::job_state::running && !placed[i])
      return reject("results: job " + std::to_string(trace.jobs[i].id) +
                    " is running without a running job");
  if (!std::isfinite(x.now) || x.now < 0.0) return reject("events: engine clock out of range");
  for (const auto& e : x.events) {
    const std::int64_t id = e.event.id;
    const auto below = [id](std::size_t n) {
      return id >= 0 && static_cast<std::uint64_t>(id) < n;
    };
    bool ok = std::isfinite(e.t) && e.t >= x.now && e.seq < x.next_seq;
    switch (e.event.kind) {
      case event_kind::arrival: ok = ok && below(n_rows); break;
      case event_kind::completion:
      case event_kind::governor_tick:
        ok = ok && below(n_rows) && e.event.epoch < st.next_epoch;
        break;
      case event_kind::device_lost:
      case event_kind::node_restart: ok = ok && below(config_.n_nodes); break;
      default: break;
    }
    if (!ok)
      return reject("events: pending event (seq " + std::to_string(e.seq) + ") out of range");
    // node_crash() schedules one restart per node it removed, so a restart
    // names a node that is down and restarts it once; any other would add a
    // second node of one name.
    if (e.event.kind == event_kind::node_restart) {
      if (up[static_cast<std::size_t>(id)])
        return reject("events: restart of " + node_name(static_cast<std::size_t>(id)) +
                      ", which is up or already restarting");
      up[static_cast<std::size_t>(id)] = true;
    }
  }
  if (x.econ.has_value() != config_.econ.usable())
    return reject("econ accounting presence differs from the exporting run");
  auto& registry = telemetry::metrics_registry::instance();
  if (!registry.accepts(x.metrics)) return reject("metrics registry shape mismatch");
  if (x.guard && !ckpt_.guard->accepts(*x.guard))
    return reject("guard/drift state inconsistent with this guard's options");
  if (x.watchdog && !watchdog_->accepts(*x.watchdog))
    return reject("watchdog rule count differs from the exporting run");

  // --- imports and simulator state proper (cannot fail past this point) ---
  registry.restore(x.metrics);
  if (x.guard) ckpt_.guard->import_state(*x.guard);
  if (x.watchdog) watchdog_->import_state(*x.watchdog);
  obs::energy_ledger::instance().import_state(x.ledger);

  live_events_ = static_cast<std::size_t>(std::count_if(
      x.events.begin(), x.events.end(),
      [](const sim_engine::entry& e) { return is_live(e.event.kind); }));
  engine_.restore(x.now, x.next_seq, std::move(x.events));
  run_ = std::move(st);

  // Fresh budget and view over the restored inventory; the running jobs
  // re-register their demand and GPUs. No restore-time rebalance — the
  // summary carries the exporting run's counters, and a gratuitous
  // rebalance here would put the resumed summary one count ahead.
  install_nodes(std::move(ordinals));
  for (const auto& rj : run_.running) occupy(rj);

  power_samples_.clear();  // diagnostics only; not part of any output artefact
  recovery_was_quarantined_ = false;
  econ_meter_ = econ::cost_meter{config_.econ, config_.n_nodes};
  if (x.econ) econ_meter_.import_state(*x.econ);
  if (ckpt_.service) ckpt_.service->import_cache(*x.cache);

  restored_ = true;
  return common::status::success();
}

// ---------------------------------------------------------------------------
// simulator: resume + periodic tick
// ---------------------------------------------------------------------------

run_summary simulator::resume(const job_trace& trace) {
  if (!restored_)
    throw std::logic_error("simulator::resume without a successful restore_checkpoint");
  if (trace.jobs.size() != run_.results.size())
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
  ++run_.ckpt_index;

  const std::string payload = serialize_checkpoint();
  const fs::path file = ckpt_.dir / checkpoint_file_name(run_.ckpt_index - 1);
  if (const auto st = write_checkpoint_file(file, payload); !st.ok()) {
    // Warn-and-continue: a full disk must not kill the replay it exists to
    // protect; the previous checkpoint (atomic rename) is still intact.
    common::log_warn("cluster: checkpoint write failed: ", st.err().to_string());
  }

  if (more) schedule(engine_.now() + ckpt_.interval_s, event_kind::checkpoint);
}

}  // namespace synergy::cluster
