#include "synergy/obs/energy_ledger.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace synergy::obs {

energy_ledger& energy_ledger::instance() {
  static energy_ledger global;
  return global;
}

void energy_ledger::charge(const charge_key& key, cause why, double joules) {
  if (!std::isfinite(joules) || joules <= 0.0) return;
  std::scoped_lock lock(mutex_);
  if (!enabled_) return;
  const auto ci = static_cast<std::size_t>(why);
  // Pre-size the table on first use: growth rehashes re-link every node,
  // which is most of the insert cost on large runs.
  if (cells_.bucket_count() < 1024) cells_.rehash(4096);
  const auto [it, fresh] = cells_.try_emplace(key);
  if (fresh)
    index_.push_back(&*it);
  else if (texts_)
    texts_->erase(&*it);
  it->second[ci] += joules;
  totals_[ci] += joules;
  total_j_ += joules;
  ++charges_;
}

double energy_ledger::total_j() const {
  std::scoped_lock lock(mutex_);
  return total_j_;
}

std::uint64_t energy_ledger::charges() const {
  std::scoped_lock lock(mutex_);
  return charges_;
}

cause_array energy_ledger::totals_by_cause() const {
  std::scoped_lock lock(mutex_);
  return totals_;
}

const std::vector<const energy_ledger::cell*>& energy_ledger::ordered_locked() const {
  if (indexed_ < index_.size()) {
    const auto by_key = [](const cell* a, const cell* b) { return a->first < b->first; };
    const auto tail = index_.begin() + static_cast<std::ptrdiff_t>(indexed_);
    std::sort(tail, index_.end(), by_key);
    std::inplace_merge(index_.begin(), tail, index_.end(), by_key);
    indexed_ = index_.size();
  }
  return index_;
}

void energy_ledger::view::append_cells(std::string& out, cell_format format,
                                       cell_renderer render, std::string_view separator) const {
  const auto& index = ledger_.ordered_locked();
  auto& texts = ledger_.texts_;
  if (!texts) {
    texts = std::make_unique<cell_texts>();
    texts->reserve(index.size());
  }
  const auto f = static_cast<std::size_t>(format);
  bool first = true;
  for (const cell* c : index) {
    if (!first) out += separator;
    first = false;
    std::string& text = (*texts)[c][f];
    if (text.empty()) render(text, c->first, c->second);
    out += text;
  }
}

std::vector<ledger_entry> energy_ledger::entries_locked() const {
  std::vector<ledger_entry> out;
  // Reserve first: growing by doubling would hold the old and the new
  // block at once, up to three times the copy's size.
  out.reserve(cells_.size());
  for (const cell* c : ordered_locked())
    out.push_back({c->first, c->second, cell_total(c->second)});
  return out;
}

std::vector<ledger_entry> energy_ledger::entries() const {
  std::scoped_lock lock(mutex_);
  return entries_locked();
}

void energy_ledger::scrape(double t_s) {
  std::scoped_lock lock(mutex_);
  if (!enabled_) return;
  scrape_sample s;
  s.t_s = t_s;
  s.by_cause = totals_;
  s.total_j = total_j_;
  s.charges = charges_;
  series_.push_back(std::move(s));
}

std::vector<scrape_sample> energy_ledger::series() const {
  std::scoped_lock lock(mutex_);
  return series_;
}

void energy_ledger::clear_cells_locked() {
  cells_.clear();
  index_.clear();
  indexed_ = 0;
  texts_.reset();
}

void energy_ledger::reset() {
  std::scoped_lock lock(mutex_);
  clear_cells_locked();
  totals_ = {};
  total_j_ = 0.0;
  charges_ = 0;
  series_.clear();
}

void energy_ledger::set_enabled(bool on) {
  std::scoped_lock lock(mutex_);
  enabled_ = on;
}

bool energy_ledger::is_enabled() const {
  std::scoped_lock lock(mutex_);
  return enabled_;
}

ledger_state energy_ledger::export_state() const {
  ledger_state s;
  std::scoped_lock lock(mutex_);
  s.cells = entries_locked();
  s.totals = totals_;
  s.total_j = total_j_;
  s.charges = charges_;
  s.series = series_;
  return s;
}

void energy_ledger::import_state(const ledger_state& s) {
  std::scoped_lock lock(mutex_);
  clear_cells_locked();
  if (!s.cells.empty()) cells_.rehash(std::max<std::size_t>(4096, s.cells.size() * 2));
  for (const auto& e : s.cells)
    if (const auto [it, fresh] = cells_.emplace(e.key, e.by_cause); fresh)
      index_.push_back(&*it);
  totals_ = s.totals;
  total_j_ = s.total_j;
  charges_ = s.charges;
  series_ = s.series;
}

namespace {

attribution& thread_attribution() noexcept {
  static thread_local attribution current;
  return current;
}

}  // namespace

const attribution& current_attribution() noexcept { return thread_attribution(); }

attribution_scope::attribution_scope(std::string node, std::string job, cause why)
    : prev_(std::move(thread_attribution())) {
  thread_attribution() = attribution{std::move(node), std::move(job), why};
}

attribution_scope::attribution_scope(cause why) : prev_(thread_attribution()) {
  thread_attribution().why = why;
}

attribution_scope::~attribution_scope() { thread_attribution() = std::move(prev_); }

}  // namespace synergy::obs
