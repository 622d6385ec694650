#pragma once

/// \file engine.hpp
/// Deterministic discrete-event engine on virtual time.
///
/// The cluster simulation advances by *events* (job arrivals and
/// completions, governor ticks, device losses, node crashes and restarts,
/// scrape, econ and checkpoint ticks), never by wall clock, so a 64-node /
/// 1000-job day of cluster operation replays in milliseconds and
/// bit-identically across runs and platforms. Events at equal timestamps
/// fire in schedule order (a monotone sequence number breaks ties), which
/// is what makes policy comparisons on the same trace meaningful.
///
/// The engine is one array-backed binary heap of {t, seq, event} records
/// ordered by (t, seq). basic_event_engine<Event> stores plain values and
/// hands each one to a caller-supplied `fire` callback, so a simulator whose
/// events are flat records can read the pending entries and later restore
/// them verbatim: checkpointing the queue is writing the heap. event_engine
/// is the closure instantiation, for callers that schedule handlers.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

namespace synergy::cluster {

template <class Event>
class basic_event_engine {
 public:
  struct entry {
    double t{0.0};
    std::uint64_t seq{0};
    Event event{};
  };

  /// Current virtual time in seconds (0 at construction).
  [[nodiscard]] double now() const { return now_; }

  /// Schedule `ev` at absolute virtual time `t` (clamped to now()). Returns
  /// the event's monotone sequence number — its tie-break rank among events
  /// at the same timestamp.
  std::uint64_t at(double t, Event ev) {
    const std::uint64_t seq = next_seq_++;
    heap_.push_back(entry{std::max(t, now_), seq, std::move(ev)});
    std::push_heap(heap_.begin(), heap_.end(), later{});
    return seq;
  }

  /// Schedule `ev` `dt` seconds from now (clamped to non-negative delay).
  std::uint64_t after(double dt, Event ev) { return at(now_ + dt, std::move(ev)); }

  /// Fire events in (time, schedule-order) until none remain, passing each
  /// to `fire(Event&)`; returns how many fired. `fire` may schedule more.
  template <class Fire>
  std::size_t run(Fire&& fire) {
    return drain(std::numeric_limits<double>::infinity(), fire);
  }

  /// Fire events with timestamp <= t, then advance the clock to t.
  template <class Fire>
  std::size_t run_until(double t, Fire&& fire) {
    const std::size_t fired = drain(t, fire);
    now_ = std::max(now_, t);
    return fired;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  /// The pending entries, in heap order (not fire order).
  [[nodiscard]] const std::vector<entry>& entries() const { return heap_; }
  /// The sequence number the next at() returns.
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  /// Reinstate a clock, sequence counter and pending set read from another
  /// engine. Entries keep their (t, seq) ranks, so they fire in the order
  /// they would have, and events scheduled afterwards rank behind them.
  /// Precondition: every entry has a finite t >= now and seq < next_seq.
  void restore(double now, std::uint64_t next_seq, std::vector<entry> entries) {
    now_ = now;
    next_seq_ = next_seq;
    heap_ = std::move(entries);
    std::make_heap(heap_.begin(), heap_.end(), later{});
  }

 private:
  struct later {
    bool operator()(const entry& a, const entry& b) const {
      return a.t > b.t || (a.t == b.t && a.seq > b.seq);
    }
  };

  template <class Fire>
  std::size_t drain(double limit, Fire& fire) {
    std::size_t fired = 0;
    while (!heap_.empty() && heap_.front().t <= limit) {
      // pop_heap parks the earliest entry at the back; take it out before
      // fire() pushes new events.
      std::pop_heap(heap_.begin(), heap_.end(), later{});
      entry e = std::move(heap_.back());
      heap_.pop_back();
      now_ = e.t;
      ++fired;
      fire(e.event);
    }
    return fired;
  }

  double now_{0.0};
  std::uint64_t next_seq_{0};
  std::vector<entry> heap_;
};

/// The closure engine: every event is a handler called when it fires.
class event_engine : public basic_event_engine<std::function<void()>> {
 public:
  using handler = std::function<void()>;

  std::size_t run() { return basic_event_engine::run([](handler& fn) { fn(); }); }
  std::size_t run_until(double t) {
    return basic_event_engine::run_until(t, [](handler& fn) { fn(); });
  }
};

}  // namespace synergy::cluster
