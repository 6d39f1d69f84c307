// PlacementPolicy: where does the next tenant land — and where next if
// that host refuses?
//
// The cluster splits scheduling into policy (this header) and mechanism
// (FleetEngine charging one shard's host models): a policy sees every live
// host's load and ranks them, nothing more. Placement runs once per
// arrival, consults no RNG, and admission control on the hosts remains
// authoritative — the engine walks the candidate ranking in order and
// admits on the first host whose RAM accepts the tenant (retry-on-reject).
// Only when every live host refused is the arrival an OOM, attributed to
// the last host tried; an admission on any host other than the
// first-ranked one is a *spill*, counted per host (HostRollup::spill_out on
// the first choice, spill_in on the admitter) so policies can be compared
// on how much spilling they cause.
//
// Built-in policies:
//   round-robin     — cycle hosts in index order, ignoring load
//   least-loaded    — most free RAM first (ties: lowest index)
//   ksm-affinity    — co-locate tenants of the same platform image so their
//                     KSM digest runs (and boot image cache) merge; falls
//                     back to least-loaded while no co-tenant exists
//   least-pressure  — lowest weighted RAM/CPU/NIC pressure score first,
//                     using the HostPressure state the engine pushes
//                     incrementally (free RAM, vCPU demand, active network
//                     phases)
//   pack-then-spill — fill the lowest-index host to a resident watermark
//                     before opening the next, maximizing KSM merge
//                     density; the retry walk turns watermark overshoot
//                     into a spill instead of an OOM
//
// One rule set serves both levels of the fleet: fleet::RoutingPolicy
// (federation.h) ranks *cells* for a global router exactly the way
// PlacementPolicy ranks hosts for a cluster. Both are RankingPolicy<State,
// Request> below, and each ordering rule is one comparator template over
// the fields hosts and cells share (index, ram_cap_bytes, resident_bytes
// and a per-platform tenant count). round-robin, least-loaded and
// ksm-affinity are the cell routers round-robin, least-loaded-cell and
// platform-affinity; least-pressure and pack-then-spill read host-only
// fields.
//
// How a policy is walked: the engine (or federation) pushes each live
// target's state after every change — host_updated, platform_count_changed,
// host_removed — and asks for candidates with walk_begin()/walk_next().
// The built-ins serve that walk from indexed heaps, O(log M) per candidate
// actually tried, and their rank_hosts sorts a snapshot with the very rule
// the heap uses. A custom policy implements rank_hosts only: the default
// walk ranks a snapshot of the pushed state through it once per arrival —
// O(M log M), and the easiest way to write a one-off or test policy.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/indexed_heap.h"
#include "platforms/platform.h"

namespace fleet {

enum class PlacementKind {
  kRoundRobin,
  kLeastLoaded,
  kKsmAffinity,
  kLeastPressure,
  kPackThenSpill,
};

std::string placement_kind_name(PlacementKind k);

/// All built-in policies, in a stable sweep order for benches and tests.
std::vector<PlacementKind> all_placement_kinds();

/// One host's runtime CPU/NIC pressure as the engine tracks it
/// incrementally: nothing here is recomputed from scratch at an arrival.
struct HostPressure {
  /// vCPUs currently demanded by in-flight boots and phases on this host.
  double cpu_demand = 0.0;
  int cpu_threads = 1;
  /// Tenants currently inside a network phase (sharing this host's NIC).
  int net_active = 0;
};

/// One live host's load, as host_updated() pushes it after every
/// engine-side change.
struct HostState {
  int index = 0;
  std::uint64_t ram_cap_bytes = 0;
  /// Bytes currently charged against this host (non-KSM resident plus KSM
  /// backing pages).
  std::uint64_t resident_bytes = 0;
  int active_tenants = 0;
  HostPressure pressure;
};

/// A target's pushed state plus the one quantity that depends on the
/// arriving tenant: one snapshot row of rank_hosts (HostView) or
/// rank_cells (CellView).
template <typename State>
struct RankedView : State {
  /// Active tenants on this target running the arriving tenant's platform.
  int same_platform_tenants = 0;
};

using HostView = RankedView<HostState>;

/// The arriving tenant, as much as a policy may know about it.
struct PlacementRequest {
  std::uint64_t tenant_id = 0;
  platforms::PlatformId platform_id = platforms::PlatformId::kNative;
  bool hypervisor_backed = false;
  std::uint64_t guest_ram_bytes = 0;
};

// --- Ordering rules --------------------------------------------------------
// Each rule is a strict total order over targets (ties: lowest index),
// written once. A rule reads targets through a Rows source: row(i) is the
// target's state, index(i) its target index and count(i) its tenant count
// for the request's platform. SnapshotRows serves rank_hosts / rank_cells,
// PushedRows the heap walk.

template <typename Row>
std::uint64_t free_bytes(const Row& r) {
  return r.ram_cap_bytes > r.resident_bytes ? r.ram_cap_bytes - r.resident_bytes
                                            : 0;
}

/// Rows of a snapshot: i is a position in the view vector.
template <typename View>
struct SnapshotRows {
  const std::vector<View>* views;
  const View& row(int i) const { return (*views)[static_cast<std::size_t>(i)]; }
  int index(int i) const { return row(i).index; }
  int count(int i) const { return row(i).same_platform_tenants; }
};

/// Rows of pushed state: i is the target index; `counts` holds one
/// platform's per-target tenant counts (short when trailing targets have
/// none).
template <typename State>
struct PushedRows {
  const std::vector<State>* states;
  const std::vector<int>* counts;
  const State& row(int i) const {
    return (*states)[static_cast<std::size_t>(i)];
  }
  int index(int i) const { return i; }
  int count(int i) const {
    const auto k = static_cast<std::size_t>(i);
    return k < counts->size() ? (*counts)[k] : 0;
  }
};

/// least-loaded / least-loaded-cell: most free RAM first.
template <typename Rows>
struct MostFreeFirst {
  Rows rows;
  bool operator()(int a, int b) const {
    const auto& x = rows.row(a);
    const auto& y = rows.row(b);
    const std::uint64_t fx = free_bytes(x);
    const std::uint64_t fy = free_bytes(y);
    if (fx != fy) {
      return fx > fy;
    }
    return rows.index(a) < rows.index(b);
  }
};

/// ksm-affinity / platform-affinity: most tenants of the arriving platform
/// first, then most free RAM. With no co-tenant anywhere this is
/// MostFreeFirst, which spreads each platform's first tenant onto the
/// emptiest target before piles start forming.
template <typename Rows>
struct MostCoTenantsFirst {
  Rows rows;
  bool operator()(int a, int b) const {
    const int ca = rows.count(a);
    const int cb = rows.count(b);
    if (ca != cb) {
      return ca > cb;
    }
    return MostFreeFirst<Rows>{rows}(a, b);
  }
};

/// Sort positions 0..n-1 of a snapshot by a rule over SnapshotRows and
/// append the matching View::index values to `ranked`. Sorts inside
/// `ranked` itself: no scratch allocation.
template <typename View, typename Less>
void rank_by(const std::vector<View>& views, std::vector<int>& ranked,
             Less less) {
  const auto first = static_cast<std::ptrdiff_t>(ranked.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    ranked.push_back(static_cast<int>(i));
  }
  std::sort(ranked.begin() + first, ranked.end(), less);
  for (auto it = ranked.begin() + first; it != ranked.end(); ++it) {
    *it = views[static_cast<std::size_t>(*it)].index;
  }
}

/// The ranking protocol, generic over what is ranked: hosts inside one
/// cluster (PlacementPolicy, StateT = HostState) or whole cells inside a
/// federation (RoutingPolicy, StateT = CellState).
///
/// The caller pushes target_updated() after each change to a live target
/// (also how targets are introduced), platform_count_changed() when its
/// tenant count for one platform moves, and target_removed() when it leaves
/// (drain, crash, outage). It then walks candidates per request with
/// walk_begin()/walk_next(). The default walk ranks a snapshot of the
/// pushed state with rank_snapshot — rank_hosts / rank_cells on the
/// concrete interfaces. Built-ins override the walk with indexed heaps
/// that emit the same order (tests/placement_equivalence_test.cpp).
template <typename StateT, typename RequestT>
class RankingPolicy {
 public:
  using State = StateT;
  using View = RankedView<StateT>;
  using Request = RequestT;

  virtual ~RankingPolicy() = default;

  virtual std::string name() const = 0;

  /// Called once at the start of every run: forgets every target and all
  /// cursor state, so identical runs make identical decisions.
  void reset() {
    states_.clear();
    live_.clear();
    for (auto& per_target : counts_) {
      per_target.clear();
    }
    order_.clear();
    next_ = 0;
    reset_orderings();
  }

  /// Upsert one live target's state.
  void target_updated(const State& s) {
    const auto i = static_cast<std::size_t>(s.index);
    if (i >= states_.size()) {
      states_.resize(i + 1);
      live_.resize(i + 1, 0);
    }
    const bool was_live = live_[i] != 0;
    states_[i] = s;
    live_[i] = 1;
    if (was_live) {
      target_changed(s.index);
    } else {
      target_added(s.index);
    }
  }

  /// A target's active tenant count for one platform changed.
  void platform_count_changed(int target, platforms::PlatformId platform,
                              int count) {
    auto& per_target = counts_[platforms::platform_slot(platform)];
    const auto i = static_cast<std::size_t>(target);
    if (i >= per_target.size()) {
      per_target.resize(i + 1, 0);
    }
    per_target[i] = count;
    count_changed(target, platform);
  }

  /// The target was drained or crashed (host) or went dark (cell): it is
  /// never emitted again unless re-pushed.
  void target_removed(int target) {
    if (!is_live(target)) {
      return;
    }
    live_[static_cast<std::size_t>(target)] = 0;
    target_dropped(target);
  }

  /// Start a candidate walk for one request. The default ranks one view
  /// per live target, in index order, through rank_snapshot — so cursor
  /// state advances exactly once per request either way.
  virtual void walk_begin(const Request& req) {
    snapshot_.clear();
    const auto& counts = counts_[platforms::platform_slot(req.platform_id)];
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (live_[i] == 0) {
        continue;
      }
      View v;
      static_cast<State&>(v) = states_[i];
      v.same_platform_tenants = i < counts.size() ? counts[i] : 0;
      snapshot_.push_back(v);
    }
    order_.clear();
    next_ = 0;
    if (!snapshot_.empty()) {
      rank_snapshot(req, snapshot_, order_);
    }
    for (const int target : order_) {
      if (!is_live(target)) {
        throw std::out_of_range(name() + " ranked target " +
                                std::to_string(target) +
                                ", which is not live");
      }
    }
  }

  /// Next candidate in ranked order, or -1 when the ranking is exhausted.
  /// Only valid between walk_begin() calls.
  virtual int walk_next() {
    return next_ < order_.size() ? order_[next_++] : -1;
  }

 protected:
  /// Rank `views` (one per live target, in index order, never empty) from
  /// most to least preferred, appending View::index values to `ranked`.
  virtual void rank_snapshot(const Request& req, const std::vector<View>& views,
                             std::vector<int>& ranked) = 0;

  // Hooks for policies that keep their own orderings over the pushed
  // state; each fires after the state above has changed.
  virtual void reset_orderings() {}
  virtual void target_added(int) {}    // newly live: join orderings
  virtual void target_changed(int) {}  // state changed: reposition
  virtual void target_dropped(int) {}  // gone: leave the orderings
  virtual void count_changed(int, platforms::PlatformId) {}

  bool is_live(int target) const {
    return target >= 0 && static_cast<std::size_t>(target) < live_.size() &&
           live_[static_cast<std::size_t>(target)] != 0;
  }

  /// Pushed state by target index, valid where live_ is set.
  std::vector<State> states_;
  std::vector<char> live_;
  /// Per-platform tenant counts by target, indexed by
  /// platforms::platform_slot.
  std::array<std::vector<int>, platforms::kPlatformIdSlots> counts_;

 private:
  // The default walk's ranked snapshot and cursor.
  std::vector<View> snapshot_;
  std::vector<int> order_;
  std::size_t next_ = 0;
};

/// Host placement inside one cluster. host_updated/host_removed spell the
/// generic protocol names so engine and test call sites read naturally.
class PlacementPolicy : public RankingPolicy<HostState, PlacementRequest> {
 public:
  /// The only method a custom policy must implement: rank hosts from most
  /// to least preferred, appending HostView::index values to `ranked`
  /// (which arrives cleared). `hosts` has one view per live host, in index
  /// order, and is never empty. The engine tries admission in ranked
  /// order, reaching this method through the default walk. Must append a
  /// non-empty subset, each host at most once; hosts left unranked are
  /// simply never tried (that is how SingleShotPolicy emulates single-shot
  /// placement).
  virtual void rank_hosts(const PlacementRequest& req,
                          const std::vector<HostView>& hosts,
                          std::vector<int>& ranked) = 0;

  /// Convenience: the most-preferred host (front of rank_hosts). Advances
  /// any cursor state exactly like one rank_hosts call.
  int place(const PlacementRequest& req, const std::vector<HostView>& hosts);

  void host_updated(const HostState& state) { target_updated(state); }
  void host_removed(int host) { target_removed(host); }

 protected:
  void rank_snapshot(const PlacementRequest& req,
                     const std::vector<HostView>& hosts,
                     std::vector<int>& ranked) final {
    rank_hosts(req, hosts, ranked);
  }
};

std::unique_ptr<PlacementPolicy> make_placement(PlacementKind kind);

// --- Built-in rankings -----------------------------------------------------
// Base is PlacementPolicy or RoutingPolicy. Each template supplies the walk
// and rank_views(), the snapshot sort; the domain's built-in adapter
// (placement.cpp, federation.cpp) answers rank_hosts / rank_cells with it.

/// round-robin: cycle live targets in index order, one cursor step per
/// request, ignoring load; the walk continues around the cycle from
/// wherever the cursor landed.
template <typename Base>
class RoundRobinRanking : public Base {
 public:
  using Request = typename Base::Request;
  using View = typename Base::View;

  void walk_begin(const Request&) override {
    start_ = static_cast<std::size_t>(cursor_++ % live_targets_.size());
    emitted_ = 0;
  }

  int walk_next() override {
    if (emitted_ >= live_targets_.size()) {
      return -1;
    }
    return live_targets_[(start_ + emitted_++) % live_targets_.size()];
  }

 protected:
  void rank_views(const std::vector<View>& views, std::vector<int>& ranked) {
    const std::size_t n = views.size();
    const auto start = static_cast<std::size_t>(cursor_++ % n);
    for (std::size_t k = 0; k < n; ++k) {
      ranked.push_back(views[(start + k) % n].index);
    }
  }

  void reset_orderings() override {
    cursor_ = 0;
    live_targets_.clear();
    start_ = 0;
    emitted_ = 0;
  }
  void target_added(int target) override {
    live_targets_.insert(
        std::lower_bound(live_targets_.begin(), live_targets_.end(), target),
        target);
  }
  void target_dropped(int target) override {
    live_targets_.erase(
        std::lower_bound(live_targets_.begin(), live_targets_.end(), target));
  }

 private:
  std::uint64_t cursor_ = 0;
  std::vector<int> live_targets_;  // sorted: the snapshot's index order
  std::size_t start_ = 0;
  std::size_t emitted_ = 0;
};

/// A rule served from indexed heaps over the pushed state. The walk pops
/// candidates lazily — O(log N) per candidate actually tried — and
/// walk_begin() re-inserts the previous walk's pops. A per-platform rule
/// (kByPlatform) keeps one heap per platform; every heap is built from
/// the live set on its first walk.
template <typename Base, template <typename> class Rule,
          bool kByPlatform = false>
class HeapWalkRanking : public Base {
 public:
  using Request = typename Base::Request;
  using State = typename Base::State;
  using View = typename Base::View;

  void walk_begin(const Request& req) override {
    restore_popped();
    slot_ = kByPlatform ? platforms::platform_slot(req.platform_id) : 0;
    auto& heap = heaps_[slot_];
    if (!heap) {
      heap.emplace(HeapRule{PushedRows<State>{&this->states_,
                                              &this->counts_[slot_]}});
      for (std::size_t i = 0; i < this->live_.size(); ++i) {
        if (this->live_[i] != 0) {
          heap->push(static_cast<int>(i));
        }
      }
    }
  }

  int walk_next() override {
    auto& heap = walk_heap();
    if (heap.empty()) {
      return -1;
    }
    const int target = heap.pop();
    popped_.push_back(target);
    return target;
  }

 protected:
  void rank_views(const std::vector<View>& views,
                  std::vector<int>& ranked) const {
    rank_by(views, ranked, Rule<SnapshotRows<View>>{SnapshotRows<View>{&views}});
  }

  void reset_orderings() override {
    for (auto& heap : heaps_) {
      heap.reset();
    }
    popped_.clear();
    slot_ = 0;
  }
  void target_added(int target) override {
    for (auto& heap : heaps_) {
      if (heap) {
        heap->push(target);
      }
    }
  }
  void target_changed(int target) override {
    for (auto& heap : heaps_) {
      if (heap && heap->contains(target)) {  // popped: rejoin on restore
        heap->update(target);
      }
    }
  }
  void target_dropped(int target) override {
    for (auto& heap : heaps_) {
      if (heap && heap->contains(target)) {
        heap->erase(target);
      }
    }
  }
  void count_changed(int target, platforms::PlatformId platform) override {
    if constexpr (kByPlatform) {
      auto& heap = heaps_[platforms::platform_slot(platform)];
      if (heap && heap->contains(target)) {
        heap->update(target);
      }
    } else {
      (void)target;
      (void)platform;
    }
  }

 private:
  using HeapRule = Rule<PushedRows<State>>;

  /// The heap the current walk pops from. A constant slot for single-heap
  /// rules keeps the hot walk free of the slot load.
  IndexedHeap<HeapRule>& walk_heap() {
    return *heaps_[kByPlatform ? slot_ : 0];
  }

  void restore_popped() {
    if (popped_.empty()) {
      return;
    }
    auto& heap = walk_heap();
    for (const int target : popped_) {
      if (this->is_live(target) && !heap.contains(target)) {
        heap.push(target);
      }
    }
    popped_.clear();
  }

  std::array<std::optional<IndexedHeap<HeapRule>>,
             kByPlatform ? platforms::kPlatformIdSlots : 1>
      heaps_;
  /// Targets emitted by the current walk (out of heaps_[slot_] until
  /// restored).
  std::vector<int> popped_;
  std::size_t slot_ = 0;
};

/// Wraps a policy but ranks only its first choice — single-shot placement
/// semantics, where a refusal is an OOM even if another host has room. For
/// differential comparisons against the retry walk (bench/fleet_scale's
/// retry_vs_single_shot block and the spill-chain tests share this
/// definition). The engine serves it through the default walk.
class SingleShotPolicy final : public PlacementPolicy {
 public:
  explicit SingleShotPolicy(std::unique_ptr<PlacementPolicy> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name() + "-single-shot"; }
  void rank_hosts(const PlacementRequest& req,
                  const std::vector<HostView>& hosts,
                  std::vector<int>& ranked) override {
    ranked.push_back(inner_->place(req, hosts));
  }

 protected:
  void reset_orderings() override { inner_->reset(); }

 private:
  std::unique_ptr<PlacementPolicy> inner_;
};

}  // namespace fleet
