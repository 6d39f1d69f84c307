#include "fleet/placement.h"

#include <algorithm>
#include <stdexcept>
#include <array>
#include <optional>

#include "fleet/indexed_heap.h"

namespace fleet {

namespace {

// --- Ranking keys, shared by the sort path (rank_hosts over a HostView
// snapshot) and the heap path (incremental walk over HostState) so the two
// orderings cannot drift apart. ------------------------------------------

std::uint64_t free_bytes_of(std::uint64_t cap, std::uint64_t resident) {
  return cap > resident ? cap - resident : 0;
}

std::uint64_t free_bytes(const HostView& h) {
  return free_bytes_of(h.ram_cap_bytes, h.resident_bytes);
}

std::uint64_t free_bytes(const HostState& h) {
  return free_bytes_of(h.ram_cap_bytes, h.resident_bytes);
}

/// Weighted pressure score: RAM dominates (it is the hard admission
/// limit), CPU demand stretches every in-flight duration, the NIC only
/// congests network phases.
constexpr double kRamWeight = 0.5;
constexpr double kCpuWeight = 0.35;
constexpr double kNicWeight = 0.15;

double pressure_score_of(std::uint64_t cap, std::uint64_t resident,
                         const HostPressure& p) {
  const double ram_used =
      cap == 0 ? 1.0
               : 1.0 - static_cast<double>(free_bytes_of(cap, resident)) /
                           static_cast<double>(cap);
  const double threads = static_cast<double>(std::max(1, p.cpu_threads));
  // CPU and NIC saturate at 1.0: past saturation everything on the host is
  // already stretched, and RAM — the hard admission limit — must keep
  // dominating the comparison.
  const double cpu = std::min(1.0, p.cpu_demand / threads);
  const double nic = std::min(1.0, static_cast<double>(p.net_active) / threads);
  return kRamWeight * ram_used + kCpuWeight * cpu + kNicWeight * nic;
}

double pressure_score(const HostView& h) {
  return pressure_score_of(h.ram_cap_bytes, h.resident_bytes, h.pressure);
}

double pressure_score(const HostState& h) {
  return pressure_score_of(h.ram_cap_bytes, h.resident_bytes, h.pressure);
}

/// Fraction of a host's RAM that pack-then-spill fills before opening the
/// next host. Below 1.0 so the pile leaves headroom for admission-time
/// variance; the retry walk absorbs overshoot as a spill, not an OOM.
constexpr double kPackWatermark = 0.9;

bool above_watermark_of(std::uint64_t cap, std::uint64_t resident) {
  return static_cast<double>(resident) >=
         kPackWatermark * static_cast<double>(cap);
}

bool above_watermark(const HostView& h) {
  return above_watermark_of(h.ram_cap_bytes, h.resident_bytes);
}

bool above_watermark(const HostState& h) {
  return above_watermark_of(h.ram_cap_bytes, h.resident_bytes);
}

/// Sort positions 0..n-1 by `less` (which must totally order ties, e.g. by
/// index) and append the corresponding HostView::index values to `ranked`.
/// Sorts inside `ranked` itself — no scratch allocation on the per-arrival
/// hot path (the engine recycles the ranked buffer).
template <typename Less>
void rank_by(const std::vector<HostView>& hosts, std::vector<int>& ranked,
             Less less) {
  const auto first = static_cast<std::ptrdiff_t>(ranked.size());
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    ranked.push_back(static_cast<int>(i));
  }
  std::sort(ranked.begin() + first, ranked.end(), [&](int a, int b) {
    return less(hosts[static_cast<std::size_t>(a)],
                hosts[static_cast<std::size_t>(b)]);
  });
  for (auto it = ranked.begin() + first; it != ranked.end(); ++it) {
    *it = hosts[static_cast<std::size_t>(*it)].index;
  }
}

// --- Incremental machinery -----------------------------------------------
// The state bookkeeping and heap walks live in placement.h as the shared
// IncrementalRanking / HeapWalkRanking templates (fleet::RoutingPolicy
// reuses them for cell ranking); these aliases bind them to the host
// domain.

using IncrementalPolicy = IncrementalRanking<PlacementPolicy>;

template <typename Cmp>
using HeapWalkPolicy = HeapWalkRanking<PlacementPolicy, Cmp>;

class RoundRobinPlacement final : public PlacementPolicy {
 public:
  std::string name() const override { return "round-robin"; }
  bool incremental() const override { return true; }
  void reset() override {
    cursor_ = 0;
    live_hosts_.clear();
    walk_start_ = 0;
    walk_emitted_ = 0;
  }
  void rank_hosts(const PlacementRequest&, const std::vector<HostView>& hosts,
                  std::vector<int>& ranked) override {
    // One cursor step per arrival; the retry walk continues around the
    // cycle from wherever the cursor landed.
    const std::size_t n = hosts.size();
    const std::size_t start = static_cast<std::size_t>(cursor_++ % n);
    for (std::size_t k = 0; k < n; ++k) {
      ranked.push_back(hosts[(start + k) % n].index);
    }
  }

  void target_updated(const HostState& s) override {
    const auto it =
        std::lower_bound(live_hosts_.begin(), live_hosts_.end(), s.index);
    if (it == live_hosts_.end() || *it != s.index) {
      live_hosts_.insert(it, s.index);
    }
  }
  void target_removed(int host) override {
    const auto it =
        std::lower_bound(live_hosts_.begin(), live_hosts_.end(), host);
    if (it != live_hosts_.end() && *it == host) {
      live_hosts_.erase(it);
    }
  }
  void walk_begin(const PlacementRequest&) override {
    walk_start_ = static_cast<std::size_t>(cursor_++ % live_hosts_.size());
    walk_emitted_ = 0;
  }
  int walk_next() override {
    if (walk_emitted_ >= live_hosts_.size()) {
      return -1;
    }
    return live_hosts_[(walk_start_ + walk_emitted_++) % live_hosts_.size()];
  }

 private:
  std::uint64_t cursor_ = 0;
  std::vector<int> live_hosts_;  // sorted, mirrors the snapshot's order
  std::size_t walk_start_ = 0;
  std::size_t walk_emitted_ = 0;
};

struct LeastLoadedCmp {
  const std::vector<HostState>* states;
  bool operator()(int a, int b) const {
    const std::uint64_t fa = free_bytes((*states)[static_cast<std::size_t>(a)]);
    const std::uint64_t fb = free_bytes((*states)[static_cast<std::size_t>(b)]);
    if (fa != fb) {
      return fa > fb;
    }
    return a < b;
  }
};

class LeastLoadedPlacement final : public HeapWalkPolicy<LeastLoadedCmp> {
 public:
  LeastLoadedPlacement() : HeapWalkPolicy<LeastLoadedCmp>(LeastLoadedCmp{&states_}) {}
  std::string name() const override { return "least-loaded"; }
  void rank_hosts(const PlacementRequest&, const std::vector<HostView>& hosts,
                  std::vector<int>& ranked) override {
    rank_by(hosts, ranked, [](const HostView& a, const HostView& b) {
      const std::uint64_t fa = free_bytes(a);
      const std::uint64_t fb = free_bytes(b);
      if (fa != fb) {
        return fa > fb;
      }
      return a.index < b.index;
    });
  }
};

class KsmAffinityPlacement;

struct AffinityCmp {
  const KsmAffinityPlacement* self;
  platforms::PlatformId platform;
  bool operator()(int a, int b) const;
};

class KsmAffinityPlacement final : public IncrementalPolicy {
 public:
  std::string name() const override { return "ksm-affinity"; }
  void rank_hosts(const PlacementRequest&, const std::vector<HostView>& hosts,
                  std::vector<int>& ranked) override {
    // Lexicographic (co-tenants, free RAM): with no co-tenant anywhere this
    // degrades to least-loaded, which also spreads the first tenant of each
    // platform onto the emptiest host before piles start forming.
    rank_by(hosts, ranked, [](const HostView& a, const HostView& b) {
      if (a.same_platform_tenants != b.same_platform_tenants) {
        return a.same_platform_tenants > b.same_platform_tenants;
      }
      const std::uint64_t fa = free_bytes(a);
      const std::uint64_t fb = free_bytes(b);
      if (fa != fb) {
        return fa > fb;
      }
      return a.index < b.index;
    });
  }

  void platform_count_changed(int host, platforms::PlatformId platform,
                              int count) override {
    auto& per_host = counts_[platforms::platform_slot(platform)];
    if (per_host.size() <= static_cast<std::size_t>(host)) {
      per_host.resize(static_cast<std::size_t>(host) + 1, 0);
    }
    per_host[static_cast<std::size_t>(host)] = count;
    auto& heap = heaps_[platforms::platform_slot(platform)];
    if (heap && heap->contains(host)) {
      heap->update(host);
    }
  }

  void walk_begin(const PlacementRequest& req) override {
    restore_popped();
    walk_platform_ = req.platform_id;
    has_walked_ = true;
    auto& heap = heaps_[platforms::platform_slot(walk_platform_)];
    if (!heap) {
      // First arrival of this platform: build its ordering lazily from the
      // current live set (counts default to zero, so this is just a
      // free-RAM ordering until piles form).
      heap.emplace(AffinityCmp{this, walk_platform_});
      for (std::size_t i = 0; i < live_.size(); ++i) {
        if (live_[i] != 0) {
          heap->push(static_cast<int>(i));
        }
      }
    }
  }

  int walk_next() override {
    auto& heap = *heaps_[platforms::platform_slot(walk_platform_)];
    if (heap.empty()) {
      return -1;
    }
    const int host = heap.pop();
    popped_.push_back(host);
    return host;
  }

  int count_for(platforms::PlatformId platform, int host) const {
    const auto& per_host = counts_[platforms::platform_slot(platform)];
    return per_host.size() <= static_cast<std::size_t>(host)
               ? 0
               : per_host[static_cast<std::size_t>(host)];
  }

  const HostState& state_of(int host) const {
    return states_[static_cast<std::size_t>(host)];
  }

 protected:
  void reset_orderings() override {
    for (auto& heap : heaps_) {
      heap.reset();
    }
    for (auto& per_platform : counts_) {
      per_platform.clear();
    }
    has_walked_ = false;
  }
  void target_added(int host) override {
    for (auto& heap : heaps_) {
      if (heap) {
        heap->push(host);
      }
    }
  }
  void target_changed(int host) override {
    for (auto& heap : heaps_) {
      if (heap && heap->contains(host)) {
        heap->update(host);
      }
    }
  }
  void target_dropped(int host) override {
    for (auto& heap : heaps_) {
      if (heap && heap->contains(host)) {
        heap->erase(host);
      }
    }
  }

  void restore_popped() {
    if (!has_walked_) {
      popped_.clear();
      return;
    }
    auto& heap = *heaps_[platforms::platform_slot(walk_platform_)];
    for (const int host : popped_) {
      if (is_live(host) && !heap.contains(host)) {
        heap.push(host);
      }
    }
    popped_.clear();
  }

 private:
  /// Per-platform co-tenant counts by host, and the platform's lazily
  /// built ordering (absent until its first walk), indexed by
  /// platforms::platform_slot.
  std::array<std::vector<int>, platforms::kPlatformIdSlots> counts_;
  std::array<std::optional<IndexedHeap<AffinityCmp>>,
             platforms::kPlatformIdSlots>
      heaps_;
  platforms::PlatformId walk_platform_ = platforms::PlatformId::kNative;
  bool has_walked_ = false;
};

bool AffinityCmp::operator()(int a, int b) const {
  const int ca = self->count_for(platform, a);
  const int cb = self->count_for(platform, b);
  if (ca != cb) {
    return ca > cb;
  }
  const std::uint64_t fa = free_bytes(self->state_of(a));
  const std::uint64_t fb = free_bytes(self->state_of(b));
  if (fa != fb) {
    return fa > fb;
  }
  return a < b;
}

struct LeastPressureCmp {
  const std::vector<HostState>* states;
  bool operator()(int a, int b) const {
    const double sa = pressure_score((*states)[static_cast<std::size_t>(a)]);
    const double sb = pressure_score((*states)[static_cast<std::size_t>(b)]);
    if (sa != sb) {
      return sa < sb;
    }
    return a < b;
  }
};

class LeastPressurePlacement final : public HeapWalkPolicy<LeastPressureCmp> {
 public:
  LeastPressurePlacement()
      : HeapWalkPolicy<LeastPressureCmp>(LeastPressureCmp{&states_}) {}
  std::string name() const override { return "least-pressure"; }
  void rank_hosts(const PlacementRequest&, const std::vector<HostView>& hosts,
                  std::vector<int>& ranked) override {
    rank_by(hosts, ranked, [](const HostView& a, const HostView& b) {
      const double sa = pressure_score(a);
      const double sb = pressure_score(b);
      if (sa != sb) {
        return sa < sb;
      }
      return a.index < b.index;
    });
  }
};

struct PackThenSpillCmp {
  const std::vector<HostState>* states;
  bool operator()(int a, int b) const {
    const bool fa = above_watermark((*states)[static_cast<std::size_t>(a)]);
    const bool fb = above_watermark((*states)[static_cast<std::size_t>(b)]);
    if (fa != fb) {
      return !fa;
    }
    return a < b;
  }
};

class PackThenSpillPlacement final : public HeapWalkPolicy<PackThenSpillCmp> {
 public:
  PackThenSpillPlacement()
      : HeapWalkPolicy<PackThenSpillCmp>(PackThenSpillCmp{&states_}) {}
  std::string name() const override { return "pack-then-spill"; }
  void rank_hosts(const PlacementRequest&, const std::vector<HostView>& hosts,
                  std::vector<int>& ranked) override {
    // Hosts below the watermark in index order (so the lowest-index open
    // host soaks up every arrival until it crosses the line), then the
    // full hosts in index order as spill targets of last resort.
    rank_by(hosts, ranked, [](const HostView& a, const HostView& b) {
      const bool fa = above_watermark(a);
      const bool fb = above_watermark(b);
      if (fa != fb) {
        return !fa;
      }
      return a.index < b.index;
    });
  }
};

}  // namespace

int PlacementPolicy::place(const PlacementRequest& req,
                           const std::vector<HostView>& hosts) {
  std::vector<int> ranked;
  rank_hosts(req, hosts, ranked);
  if (ranked.empty()) {
    throw std::logic_error("PlacementPolicy::rank_hosts ranked no hosts");
  }
  return ranked.front();
}

std::string placement_kind_name(PlacementKind k) {
  switch (k) {
    case PlacementKind::kRoundRobin:
      return "round-robin";
    case PlacementKind::kLeastLoaded:
      return "least-loaded";
    case PlacementKind::kKsmAffinity:
      return "ksm-affinity";
    case PlacementKind::kLeastPressure:
      return "least-pressure";
    case PlacementKind::kPackThenSpill:
      return "pack-then-spill";
  }
  return "unknown";
}

std::vector<PlacementKind> all_placement_kinds() {
  return {PlacementKind::kRoundRobin, PlacementKind::kLeastLoaded,
          PlacementKind::kKsmAffinity, PlacementKind::kLeastPressure,
          PlacementKind::kPackThenSpill};
}

std::unique_ptr<PlacementPolicy> make_placement(PlacementKind kind) {
  switch (kind) {
    case PlacementKind::kRoundRobin:
      return std::make_unique<RoundRobinPlacement>();
    case PlacementKind::kLeastLoaded:
      return std::make_unique<LeastLoadedPlacement>();
    case PlacementKind::kKsmAffinity:
      return std::make_unique<KsmAffinityPlacement>();
    case PlacementKind::kLeastPressure:
      return std::make_unique<LeastPressurePlacement>();
    case PlacementKind::kPackThenSpill:
      return std::make_unique<PackThenSpillPlacement>();
  }
  throw std::invalid_argument("make_placement: unknown PlacementKind");
}

}  // namespace fleet
