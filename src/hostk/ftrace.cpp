#include "hostk/ftrace.h"

#include <utility>

namespace hostk {

void Ftrace::start() {
  counts_.clear();
  for (Expansion& e : expansions_) {
    e.pending = 0;
  }
  ++window_;
  recording_ = true;
}

void Ftrace::stop() {
  expand();
  recording_ = false;
}

void Ftrace::record(FunctionId fn, std::uint64_t count) {
  if (!recording_ || count == 0) {
    return;
  }
  counts_[fn] += count;
}

Ftrace::ExpansionId Ftrace::add_expansion(const std::vector<FunctionHit>& hits) {
  Expansion e;
  for (const FunctionHit& hit : hits) {
    if (hit.count > 0) {
      e.hits.push_back(hit);
    }
  }
  expansions_.push_back(std::move(e));
  return static_cast<ExpansionId>(expansions_.size() - 1);
}

void Ftrace::open(Expansion& e) {
  e.slots.clear();
  for (const FunctionHit& hit : e.hits) {
    e.slots.push_back(&counts_[hit.fn]);
  }
  e.window = window_;
}

void Ftrace::expand() const {
  for (Expansion& e : expansions_) {
    if (e.pending == 0) {
      continue;
    }
    for (std::size_t i = 0; i < e.hits.size(); ++i) {
      *e.slots[i] += e.hits[i].count * e.pending;
    }
    e.pending = 0;
  }
}

std::uint64_t Ftrace::total_invocations() const {
  expand();
  std::uint64_t total = 0;
  for (const auto& [fn, count] : counts_) {
    total += count;
  }
  return total;
}

std::uint64_t Ftrace::count_of(FunctionId fn) const {
  expand();
  const auto it = counts_.find(fn);
  return it == counts_.end() ? 0 : it->second;
}

std::unordered_map<Subsystem, std::size_t> Ftrace::distinct_by_subsystem() const {
  std::unordered_map<Subsystem, std::size_t> out;
  for (const auto& [fn, count] : counts_) {
    ++out[registry_->function(fn).subsystem];
  }
  return out;
}

}  // namespace hostk
