#pragma once

/// \file energy_ledger.hpp
/// Cross-layer energy-attribution ledger.
///
/// The paper's value proposition is *measured joules saved per kernel*, so
/// the observability plane's core question is "where did the joules go, and
/// which decision spent them?". Every simulated joule is charged to a
/// hierarchical key — node → device → job → kernel — and cross-tagged with
/// a `cause`: the planner tier that chose the clocks (model / tuning-table /
/// default / quarantine-probe), fault-wasted energy from the resilience and
/// device-loss paths, power-cap demotions, and idle draw. Charge points live
/// in synergy::queue (per-submission attribution scope), gpusim::device
/// (execute/advance_idle), vendor::resilient_library (backoff idle burn),
/// and cluster::simulator (job completion / device-lost waste).
///
/// Determinism contract: totals are aggregated as plain double sums in
/// event order and every cell view (entries(), view::append_cells()) walks
/// the cells in key order, so a same-seed replay produces a byte-identical
/// ledger rendering. The scrape series samples the ledger on the cluster's
/// *virtual* clock, never wall time.
///
/// Snapshots read the ledger through read(): one acquisition of its lock per
/// document, so a document's totals, cells and series agree with each other
/// while other threads charge. The ledger keeps the text each snapshot
/// format rendered for each cell and hands it back until the cell changes,
/// so a scrape renders only the cells charged since the last one.
///
/// Charge sites use SYNERGY_OBS_CHARGE, which compiles to nothing together
/// with the rest of the telemetry plane (-DSYNERGY_TELEMETRY=OFF); the
/// classes themselves always build, like the telemetry primitives they sit
/// beside.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "synergy/telemetry/telemetry.hpp"

namespace synergy::obs {

/// Why a joule was spent — the decision (or failure) that priced it.
enum class cause : std::uint8_t {
  model,             ///< clocks chosen by the guarded model tier
  tuning_table,      ///< clocks from the compiled tuning-table artefact
  default_clocks,    ///< driver default clocks (no policy or bottom of the chain)
  quarantine_probe,  ///< deliberate default-clock probe while quarantined
  oracle,            ///< simulator-exact oracle plan (tests / upper bounds)
  fixed,             ///< user-pinned frequencies (Listing 2 / Listing 4)
  cap_demoted,       ///< clocks lowered by the facility power budget
  fault_degraded,    ///< ran at fallback clocks after persistent clock-set failure
  fault_wasted,      ///< partial executions killed by device loss, retry backoff burn
  idle,              ///< idle draw between kernels
  governor,          ///< clocks chosen by a reactive governor after it
                     ///< diverged from the seeded plan (hybrid drift chase)
  unattributed,      ///< no active attribution scope
  // Econ causes append after unattributed so every serialized cause index
  // from earlier artefact versions keeps its meaning.
  econ_deferred,      ///< job shifted into a cheap/clean price window
  econ_price_demoted, ///< clocks tightened by the spot-price demotion rule
};

inline constexpr std::size_t n_causes = 14;

[[nodiscard]] constexpr const char* to_string(cause c) {
  switch (c) {
    case cause::model: return "model";
    case cause::tuning_table: return "tuning_table";
    case cause::default_clocks: return "default_clocks";
    case cause::quarantine_probe: return "quarantine_probe";
    case cause::oracle: return "oracle";
    case cause::fixed: return "fixed";
    case cause::cap_demoted: return "cap_demoted";
    case cause::fault_degraded: return "fault_degraded";
    case cause::fault_wasted: return "fault_wasted";
    case cause::idle: return "idle";
    case cause::governor: return "governor";
    case cause::unattributed: return "unattributed";
    case cause::econ_deferred: return "econ_deferred";
    case cause::econ_price_demoted: return "econ_price_demoted";
  }
  return "?";
}

// Exhaustiveness tripwire (the governor cause was once added by hand in
// three places): the enum's last member, the bucket count, and to_string
// must move together. A new cause that misses one fails to compile here.
static_assert(static_cast<std::size_t>(cause::econ_price_demoted) + 1 == n_causes,
              "obs::n_causes must count every cause enumerator");
static_assert(to_string(static_cast<cause>(n_causes - 1))[0] != '?',
              "obs::to_string must name the last cause");

/// Per-cause joule totals, indexed by static_cast<std::size_t>(cause).
using cause_array = std::array<double, n_causes>;

/// Hierarchical attribution key. Empty components are legal (a queue-level
/// charge has no job; idle charges have kernel "idle").
struct charge_key {
  std::string node;
  std::string device;
  std::string job;
  std::string kernel;

  [[nodiscard]] bool operator<(const charge_key& o) const {
    if (node != o.node) return node < o.node;
    if (device != o.device) return device < o.device;
    if (job != o.job) return job < o.job;
    return kernel < o.kernel;
  }
  [[nodiscard]] bool operator==(const charge_key& o) const {
    return node == o.node && device == o.device && job == o.job && kernel == o.kernel;
  }
};

/// Hash for the hot charge path. Cells live in a hashed map; the ordered
/// view the determinism contract needs is the ledger's key index.
struct charge_key_hash {
  [[nodiscard]] std::size_t operator()(const charge_key& k) const noexcept {
    std::size_t h = std::hash<std::string>{}(k.node);
    const auto mix = [&h](const std::string& s) {
      h ^= std::hash<std::string>{}(s) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    mix(k.device);
    mix(k.job);
    mix(k.kernel);
    return h;
  }
};

/// A cell's joules over all causes, summed in cause order.
[[nodiscard]] inline double cell_total(const cause_array& by_cause) {
  double total = 0.0;
  for (const double j : by_cause) total += j;
  return total;
}

/// One ledger cell: a key and its per-cause joules.
struct ledger_entry {
  charge_key key;
  cause_array by_cause{};
  double total_j{0.0};
};

/// Point on the scrape time-series: cumulative totals at virtual time t_s.
struct scrape_sample {
  double t_s{0.0};
  cause_array by_cause{};
  double total_j{0.0};
  std::uint64_t charges{0};
};

/// Full ledger contents in exportable form (checkpoint/resume support).
/// Totals are carried verbatim, not recomputed from the cells: the ledger's
/// running sums accumulate in charge order, so recomputing them cell-by-cell
/// could differ in the last bits and break byte-identical resume.
struct ledger_state {
  std::vector<ledger_entry> cells;  ///< key-sorted (export order)
  cause_array totals{};
  double total_j{0.0};
  std::uint64_t charges{0};
  std::vector<scrape_sample> series;
};

/// A snapshot format whose per-cell text the ledger keeps.
enum class cell_format : std::uint8_t { json, prometheus };

inline constexpr std::size_t n_cell_formats = 2;

/// Appends one cell's text, made from its key and per-cause joules only.
using cell_renderer = void (*)(std::string& out, const charge_key& key,
                               const cause_array& by_cause);

class energy_ledger {
 public:
  /// Process-global ledger used by SYNERGY_OBS_CHARGE.
  static energy_ledger& instance();

  energy_ledger() = default;
  energy_ledger(const energy_ledger&) = delete;
  energy_ledger& operator=(const energy_ledger&) = delete;

  /// Attribute `joules` to (key, why). Hostile input is dropped, never
  /// propagated: non-finite or negative amounts are ignored.
  void charge(const charge_key& key, cause why, double joules);

  [[nodiscard]] double total_j() const;
  [[nodiscard]] std::uint64_t charges() const;
  [[nodiscard]] cause_array totals_by_cause() const;

  /// What one rendering reads of the ledger. It exists only inside read(),
  /// which holds the ledger's lock, so every figure it returns comes from
  /// the same ledger state.
  class view {
   public:
    view(const view&) = delete;
    view& operator=(const view&) = delete;

    [[nodiscard]] double total_j() const { return ledger_.total_j_; }
    [[nodiscard]] std::uint64_t charges() const { return ledger_.charges_; }
    [[nodiscard]] const cause_array& totals_by_cause() const { return ledger_.totals_; }
    [[nodiscard]] const std::vector<scrape_sample>& series() const { return ledger_.series_; }

    /// Append every cell's `format` text to `out` in key order, with
    /// `separator` between cells. `render` runs only for a cell the ledger
    /// holds no such text for (new, or charged since its last rendering),
    /// and the ledger keeps what it appended.
    void append_cells(std::string& out, cell_format format, cell_renderer render,
                      std::string_view separator) const;

   private:
    friend class energy_ledger;
    explicit view(const energy_ledger& ledger) : ledger_(ledger) {}
    const energy_ledger& ledger_;
  };

  /// Call `f(view)` under one acquisition of the ledger's lock. `f` must
  /// not call back into this ledger.
  template <class F>
  void read(F&& f) const {
    std::scoped_lock lock(mutex_);
    f(view{*this});
  }

  /// A copy of every cell in key order (deterministic across replays).
  [[nodiscard]] std::vector<ledger_entry> entries() const;

  /// Append a cumulative sample at virtual time `t_s` to the series.
  void scrape(double t_s);
  [[nodiscard]] std::vector<scrape_sample> series() const;

  /// Drop every cell, total, series point and kept text (run isolation).
  void reset();

  /// Per-ledger kill switch: a disabled ledger drops charges at the mutex
  /// boundary — what the overhead bench compares against.
  void set_enabled(bool on);
  [[nodiscard]] bool is_enabled() const;

  /// Snapshot every cell, the exact running totals, and the scrape series.
  [[nodiscard]] ledger_state export_state() const;
  /// Replace the ledger contents wholesale (the enabled flag is untouched).
  /// A repeated key keeps its first cell; checkpoint restore rejects cells
  /// that are not in strictly ascending key order before it gets here.
  void import_state(const ledger_state& s);

 private:
  using cell_map = std::unordered_map<charge_key, cause_array, charge_key_hash>;
  using cell = cell_map::value_type;

  /// Rendered text of each cell, one string per cell_format; an empty
  /// string is no text.
  using cell_texts = std::unordered_map<const cell*, std::array<std::string, n_cell_formats>>;

  /// The key index in key order: sorts the cells charged since the last
  /// ordered read and merges them in. Caller holds mutex_.
  const std::vector<const cell*>& ordered_locked() const;
  /// entries() for a caller that holds mutex_.
  [[nodiscard]] std::vector<ledger_entry> entries_locked() const;
  /// Forget every cell: the map, its index and the texts keyed by its cells.
  void clear_cells_locked();

  mutable std::mutex mutex_;
  bool enabled_{true};
  cell_map cells_;
  /// Pointers to every cell (map nodes keep their address across rehashes):
  /// the first `indexed_` in key order, then new cells in charge order.
  mutable std::vector<const cell*> index_;
  mutable std::size_t indexed_{0};
  /// Made by the first rendering. charge() drops the text of the cell it
  /// changes, and cells die only in clear_cells_locked(), which drops all
  /// of it, so no text outlives its cell.
  mutable std::unique_ptr<cell_texts> texts_;
  cause_array totals_{};
  double total_j_{0.0};
  std::uint64_t charges_{0};
  std::vector<scrape_sample> series_;
};

/// Thread-local attribution context: who is spending and why. The layers
/// that *know* the decision (queue target resolution, the resilience
/// layer's retry backoff) open a scope; the layer that *prices* the energy
/// (gpusim::device) reads it at charge time — no plumbing through the SYCL
/// submission path.
struct attribution {
  std::string node{"host"};
  std::string job;
  cause why{cause::unattributed};
};

/// The calling thread's current attribution (defaults above when no scope
/// is open).
[[nodiscard]] const attribution& current_attribution() noexcept;

/// RAII scope: installs an attribution for the calling thread, restores the
/// previous one on destruction. Nests.
class attribution_scope {
 public:
  attribution_scope(std::string node, std::string job, cause why);
  explicit attribution_scope(cause why);
  ~attribution_scope();
  attribution_scope(const attribution_scope&) = delete;
  attribution_scope& operator=(const attribution_scope&) = delete;

 private:
  attribution prev_;
};

}  // namespace synergy::obs

/// Charge the global ledger; compiles to nothing with the telemetry plane.
#if SYNERGY_TELEMETRY_ENABLED
#define SYNERGY_OBS_CHARGE(key, why, joules) \
  ::synergy::obs::energy_ledger::instance().charge((key), (why), (joules))
#else
#define SYNERGY_OBS_CHARGE(key, why, joules) ((void)0)
#endif
