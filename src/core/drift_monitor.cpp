#include "synergy/drift_monitor.hpp"

#include <algorithm>
#include <cmath>

#include "synergy/common/log.hpp"
#include "synergy/telemetry/telemetry.hpp"

namespace synergy {

drift_monitor::drift_monitor(drift_options options) : opt_(options) {
  opt_.window = std::max<std::size_t>(1, opt_.window);
  opt_.min_samples = std::max<std::size_t>(1, opt_.min_samples);
}

void drift_monitor::observe(const std::string& kernel, double predicted, double measured) {
  if (!std::isfinite(predicted) || !std::isfinite(measured) || predicted <= 0.0 ||
      measured <= 0.0) {
    ++rejected_;
    SYNERGY_COUNTER_ADD("planner.drift_rejected_samples", 1);
    return;
  }
  const auto [it, inserted] = scale_.emplace(kernel, measured / predicted);
  const double err = inserted ? 0.0 : std::fabs(measured / (it->second * predicted) - 1.0);

  if (window_.size() < opt_.window) {
    window_.push_back(err);
    window_sum_ += err;
  } else {
    window_sum_ += err - window_[next_];
    window_[next_] = err;
    next_ = (next_ + 1) % opt_.window;
  }
  ++total_;
  SYNERGY_COUNTER_ADD("planner.drift_samples", 1);
  SYNERGY_GAUGE_SET("planner.drift_error", rolling_error());

  if (!quarantined_ && total_ >= opt_.min_samples && rolling_error() > opt_.threshold) {
    quarantined_ = true;
    reason_ = "rolling prediction error " + std::to_string(rolling_error()) +
              " exceeds threshold " + std::to_string(opt_.threshold) + " after " +
              std::to_string(total_) + " samples (last kernel: " + kernel + ")";
    SYNERGY_COUNTER_ADD("planner.quarantines", 1);
    SYNERGY_INSTANT(telemetry::category::plan, "planner.model_quarantined",
                    {"rolling_error", rolling_error()}, {"threshold", opt_.threshold},
                    {"samples", static_cast<double>(total_)});
    SYNERGY_INSTANT(telemetry::category::plan, "planner.retrain_recommended",
                    {"rolling_error", rolling_error()});
    common::log_warn("synergy::drift_monitor model set quarantined: ", reason_,
                     " — retrain with synergy_train and redeploy");
  }
}

double drift_monitor::rolling_error() const {
  if (window_.empty()) return 0.0;
  return window_sum_ / static_cast<double>(window_.size());
}

drift_state drift_monitor::export_state() const {
  drift_state s;
  s.scale = scale_;
  s.window = window_;
  s.next = next_;
  s.window_sum = window_sum_;
  s.total = total_;
  s.rejected = rejected_;
  s.quarantined = quarantined_;
  s.reason = reason_;
  return s;
}

bool drift_monitor::accepts(const drift_state& s) const {
  if (s.window.size() > opt_.window) return false;
  if (s.window.size() == opt_.window) return s.next < opt_.window;
  // While the ring is still filling, observe() appends; next_ stays 0.
  return s.next == 0;
}

bool drift_monitor::import_state(const drift_state& s) {
  if (!accepts(s)) return false;
  scale_ = s.scale;
  window_ = s.window;
  next_ = s.next;
  window_sum_ = s.window_sum;
  total_ = s.total;
  rejected_ = s.rejected;
  quarantined_ = s.quarantined;
  reason_ = s.reason;
  return true;
}

void drift_monitor::reset() {
  scale_.clear();
  window_.clear();
  next_ = 0;
  window_sum_ = 0.0;
  total_ = 0;
  rejected_ = 0;
  quarantined_ = false;
  reason_.clear();
}

}  // namespace synergy
