#pragma once

/// \file trace.hpp
/// Ring-buffered structured trace recorder.
///
/// Events carry a category (the observability dimensions the paper's
/// argument needs: per-kernel execution, frequency changes, power samples,
/// planning decisions, scheduler decisions), a phase in the Chrome
/// trace-event sense ('X' complete span, 'i' instant), a timestamp/duration
/// in microseconds, and up to four numeric {key, value} args plus one
/// string arg. Keys are expected to be string literals (they are stored as
/// const char* and never freed).
///
/// Two timelines coexist, distinguished by pid, exactly as a real profile
/// of this system would show host threads next to the device:
///   pid 1 — host wall clock (steady_clock, zeroed at recorder creation);
///   pid 2 — the simulated device timeline (gpusim virtual seconds).
/// Chrome's trace viewer renders them as two process lanes.
///
/// The buffer is a bounded ring: recording never blocks progress for longer
/// than one mutex-protected slot write; once full, the oldest events are
/// overwritten and counted in dropped(). Event names are stored inline
/// (trace_name), so a slot owns no heap memory for its name and the ring
/// costs capacity() x sizeof(trace_event) however many events pass through
/// it. Capacity defaults to 65536 events and can be set via the
/// SYNERGY_TRACE_CAPACITY environment variable or set_capacity().

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace synergy::telemetry {

enum class category : std::uint8_t {
  kernel,        ///< kernel submission/execution
  freq_change,   ///< frequency-change attempts and outcomes
  power_sample,  ///< power-sensor reads
  plan,          ///< energy-target → frequency resolution
  sched,         ///< cluster controller / plugin decisions
  train,         ///< model training and inference
  log,           ///< mirrored log records (install_log_tap)
  alert,         ///< SLO watchdog rule violations (obs::slo_watchdog)
  other,
};

[[nodiscard]] const char* to_string(category c) noexcept;

/// Numeric key/value attached to an event; `key` must outlive the recorder
/// (pass string literals).
struct trace_arg {
  const char* key{nullptr};
  double value{0.0};
};

/// An event name held in fixed inline storage. Names longer than `capacity`
/// bytes keep their first `capacity` bytes; every literal span/instant name
/// in the code base and every generated job name fits.
class trace_name {
 public:
  static constexpr std::size_t capacity = 47;

  trace_name& operator=(std::string_view s) noexcept {
    size_ = static_cast<std::uint8_t>(std::min(s.size(), capacity));
    std::copy_n(s.data(), size_, data_);
    return *this;
  }

  // NOLINTNEXTLINE(google-explicit-constructor): reads like a string_view
  operator std::string_view() const noexcept { return {data_, size_}; }
  [[nodiscard]] const char* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  friend bool operator==(const trace_name& a, std::string_view b) noexcept {
    return std::string_view(a) == b;
  }

 private:
  char data_[capacity]{};
  std::uint8_t size_{0};
};

struct trace_event {
  static constexpr std::size_t max_args = 4;
  static constexpr std::uint32_t host_pid = 1;
  static constexpr std::uint32_t device_pid = 2;
  /// Cluster-simulation timeline (synergy::cluster virtual seconds): job
  /// lifetimes and power-budget decisions render as a third process lane.
  static constexpr std::uint32_t cluster_pid = 3;

  // The one-byte members sit next to the name so they share its padding.
  trace_name name;
  category cat{category::other};
  char phase{'X'};  ///< 'X' complete (has dur), 'i' instant
  std::uint8_t n_args{0};
  std::uint32_t pid{host_pid};
  std::uint32_t tid{0};
  double ts_us{0.0};
  double dur_us{0.0};
  std::array<trace_arg, max_args> args{};
  const char* str_key{nullptr};  ///< optional string arg (literal key)
  std::string str_value;

  void add_arg(const char* key, double value) noexcept {
    if (n_args < max_args) args[n_args++] = {key, value};
  }
};

class trace_recorder {
 public:
  /// Process-global recorder used by the SYNERGY_* macros.
  static trace_recorder& instance();

  explicit trace_recorder(std::size_t capacity = default_capacity());
  trace_recorder(const trace_recorder&) = delete;
  trace_recorder& operator=(const trace_recorder&) = delete;

  /// Microseconds of host wall clock since the global recorder's epoch.
  [[nodiscard]] static double now_us() noexcept;

  /// Append one event (fills ts for instants with ts_us < 0).
  void record(trace_event e);

  /// Zero-duration host-timeline event at the current wall clock.
  void instant(category cat, std::string_view name,
               std::initializer_list<trace_arg> args = {});

  /// Complete event with caller-provided timestamps — used by the simulated
  /// device timeline (pid 2), where time is gpusim virtual seconds.
  void complete(category cat, std::string_view name, double ts_us, double dur_us,
                std::uint32_t pid, std::initializer_list<trace_arg> args = {});

  /// Oldest-to-newest copy of the buffered events.
  [[nodiscard]] std::vector<trace_event> snapshot() const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const;
  /// Events overwritten because the ring was full.
  [[nodiscard]] std::size_t dropped() const;

  /// Replace the buffer with an empty one of `capacity` slots.
  void set_capacity(std::size_t capacity);
  void clear();

  /// Stable small id of the calling thread (1-based, assigned on first use).
  [[nodiscard]] static std::uint32_t thread_id() noexcept;

 private:
  static std::size_t default_capacity() noexcept;

  mutable std::mutex mutex_;
  std::vector<trace_event> ring_;
  std::size_t head_{0};   ///< next slot to write
  std::size_t count_{0};  ///< live events (<= ring_.size())
  std::size_t dropped_{0};
};

/// RAII span: times a scope on the host timeline and records one complete
/// event at destruction. Construction is a no-op when telemetry is
/// runtime-disabled.
class scoped_span {
 public:
  scoped_span(category cat, std::string_view name);
  ~scoped_span();
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  /// Attach a numeric arg (no-op on inactive spans).
  void arg(const char* key, double value) noexcept {
    if (active_) ev_.add_arg(key, value);
  }
  /// Attach the string arg (no-op on inactive spans).
  void str(const char* key, std::string_view value) {
    if (active_) {
      ev_.str_key = key;
      ev_.str_value = value;
    }
  }

 private:
  bool active_{false};
  trace_event ev_;
};

}  // namespace synergy::telemetry
