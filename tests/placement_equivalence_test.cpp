// Candidate walks vs the snapshot-sort specification, for hosts and cells.
//
// Every ranking policy is walked through the incremental protocol: the
// caller pushes target state (target_updated / platform_count_changed /
// target_removed) and pulls candidates with walk_begin / walk_next. The
// built-in placements and routers serve that walk from indexed heaps; a
// policy that implements only rank_hosts / rank_cells is served by the
// default walk, which ranks a snapshot of the pushed state. This sweep
// drives both faces of each policy — the walk and rank_hosts / rank_cells
// over an equivalent snapshot — through randomized state churn, partial
// walks and topology changes, in both domains, and requires the emitted
// orders to be identical. Any divergence means the engine's or the
// federation's walk would place tenants differently than the
// specification, breaking byte-identical reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/federation.h"
#include "fleet/placement.h"
#include "sim/rng.h"

namespace {

using fleet::CellState;
using fleet::CellView;
using fleet::HostState;
using fleet::HostView;
using fleet::PlacementKind;
using fleet::PlacementRequest;
using fleet::RoutingKind;
using platforms::PlatformId;

constexpr PlatformId kPlatforms[] = {PlatformId::kDocker,
                                     PlatformId::kFirecracker,
                                     PlatformId::kQemuKvm};

/// Snapshot-only ranking for both domains: fewest active tenants first,
/// then most co-tenants, then highest index, and the last-ranked target is
/// left out. It reads active_tenants, which no built-in rule does, and
/// ranks a strict subset, so the default walk must reproduce both.
template <typename View>
void rank_busy_last(const std::vector<View>& views, std::vector<int>& ranked) {
  std::vector<View> order = views;
  std::sort(order.begin(), order.end(), [](const View& a, const View& b) {
    if (a.active_tenants != b.active_tenants) {
      return a.active_tenants < b.active_tenants;
    }
    if (a.same_platform_tenants != b.same_platform_tenants) {
      return a.same_platform_tenants > b.same_platform_tenants;
    }
    return a.index > b.index;
  });
  const std::size_t keep = std::max<std::size_t>(1, order.size() - 1);
  for (std::size_t i = 0; i < keep; ++i) {
    ranked.push_back(order[i].index);
  }
}

class BusyLastPlacement final : public fleet::PlacementPolicy {
 public:
  std::string name() const override { return "busy-last"; }
  void rank_hosts(const PlacementRequest&, const std::vector<HostView>& hosts,
                  std::vector<int>& ranked) override {
    rank_busy_last(hosts, ranked);
  }
};

class BusyLastRouting final : public fleet::RoutingPolicy {
 public:
  std::string name() const override { return "busy-last"; }
  void rank_cells(const PlacementRequest&, const std::vector<CellView>& cells,
                  std::vector<int>& ranked) override {
    rank_busy_last(cells, ranked);
  }
};

/// What the sweep needs to know about one domain.
struct Hosts {
  using Policy = fleet::PlacementPolicy;
  using State = HostState;
  using View = HostView;
  static void rank(Policy& p, const PlacementRequest& req,
                   const std::vector<View>& views, std::vector<int>& ranked) {
    p.rank_hosts(req, views, ranked);
  }
  static void randomize_pressure(State& s, sim::Rng& rng) {
    s.pressure.cpu_demand = static_cast<double>(rng.next_u64() % 4) * 32.0;
    s.pressure.cpu_threads = 128;
    s.pressure.net_active = static_cast<int>(rng.next_u64() % 3);
  }
};

struct Cells {
  using Policy = fleet::RoutingPolicy;
  using State = CellState;
  using View = CellView;
  static void rank(Policy& p, const PlacementRequest& req,
                   const std::vector<View>& views, std::vector<int>& ranked) {
    p.rank_cells(req, views, ranked);
  }
  static void randomize_pressure(State&, sim::Rng&) {}  // cells have none
};

/// Reference model of the targets a caller would publish: per-target load
/// plus per-platform tenant counts, with add/remove churn.
template <typename Domain>
struct Model {
  using State = typename Domain::State;
  using View = typename Domain::View;
  struct Target {
    bool live = false;
    State state;
    int counts[3] = {0, 0, 0};
  };
  std::vector<Target> targets;

  int live_count() const {
    int n = 0;
    for (const auto& t : targets) {
      n += t.live ? 1 : 0;
    }
    return n;
  }

  std::vector<View> snapshot(PlatformId platform) const {
    std::vector<View> views;
    for (const auto& t : targets) {
      if (!t.live) {
        continue;
      }
      View v;
      static_cast<State&>(v) = t.state;
      for (std::size_t p = 0; p < 3; ++p) {
        if (kPlatforms[p] == platform) {
          v.same_platform_tenants = t.counts[p];
        }
      }
      views.push_back(v);
    }
    return views;
  }
};

template <typename Domain>
void randomize(typename Model<Domain>::Target& t, sim::Rng& rng) {
  // Coarse buckets on purpose: collisions in free RAM, pressure score and
  // watermark state exercise every rule's tie-breaking. Two capacities so
  // equal residency does not always mean equal free RAM.
  t.state.ram_cap_bytes = (rng.chance(0.5) ? 64ull : 48ull) << 30;
  t.state.resident_bytes = (rng.next_u64() % 9) * (8ull << 30);
  t.state.active_tenants = static_cast<int>(rng.next_u64() % 5);
  Domain::randomize_pressure(t.state, rng);
}

template <typename Domain>
void publish(typename Domain::Policy& policy,
             const typename Model<Domain>::Target& t) {
  policy.target_updated(t.state);
  for (std::size_t p = 0; p < 3; ++p) {
    policy.platform_count_changed(t.state.index, kPlatforms[p], t.counts[p]);
  }
}

template <typename Domain>
using Factory = std::function<std::unique_ptr<typename Domain::Policy>()>;

template <typename Domain>
void run_equivalence_sweep(const Factory<Domain>& make, std::uint64_t seed) {
  sim::Rng rng(seed);
  // Two instances of the same policy. The sorter is only ever driven
  // through rank_hosts / rank_cells (the specification); the walker only
  // through the walk protocol. Separate instances keep cursor state (round
  // robin) advancing once per request on each side.
  const auto sorter = make();
  const auto walker = make();
  sorter->reset();
  walker->reset();
  const std::string name = walker->name();

  Model<Domain> model;
  const int initial = 3 + static_cast<int>(rng.next_u64() % 6);
  for (int i = 0; i < initial; ++i) {
    typename Model<Domain>::Target t;
    t.live = true;
    t.state.index = i;
    randomize<Domain>(t, rng);
    model.targets.push_back(t);
    publish<Domain>(*walker, t);
  }

  for (int request = 0; request < 300; ++request) {
    // Churn: load deltas, occasional removal, occasional new target.
    for (auto& t : model.targets) {
      if (t.live && rng.chance(0.5)) {
        randomize<Domain>(t, rng);
        const std::size_t p = rng.next_u64() % 3;
        t.counts[p] = static_cast<int>(rng.next_u64() % 4);
        publish<Domain>(*walker, t);
      }
    }
    if (model.live_count() > 1 && rng.chance(0.08)) {
      for (auto& t : model.targets) {
        if (t.live) {
          t.live = false;
          walker->target_removed(t.state.index);
          break;
        }
      }
    }
    if (rng.chance(0.10)) {
      typename Model<Domain>::Target t;
      t.live = true;
      t.state.index = static_cast<int>(model.targets.size());
      randomize<Domain>(t, rng);
      model.targets.push_back(t);
      publish<Domain>(*walker, t);
    }

    const PlatformId platform = kPlatforms[rng.next_u64() % 3];
    PlacementRequest req;
    req.tenant_id = static_cast<std::uint64_t>(request);
    req.platform_id = platform;

    std::vector<int> expected;
    Domain::rank(*sorter, req, model.snapshot(platform), expected);
    ASSERT_FALSE(expected.empty()) << name;

    walker->walk_begin(req);
    // Most walks stop early, like an admission that lands on the first or
    // second candidate; every few requests drain the whole ranking.
    const std::size_t want =
        rng.chance(0.3) ? expected.size()
                        : 1 + rng.next_u64() % expected.size();
    std::vector<int> actual;
    for (std::size_t i = 0; i < want; ++i) {
      const int target = walker->walk_next();
      ASSERT_GE(target, 0) << name;
      actual.push_back(target);
    }
    if (want == expected.size()) {
      EXPECT_EQ(walker->walk_next(), -1) << name << " walk emitted extras";
    }
    expected.resize(want);
    ASSERT_EQ(actual, expected)
        << name << " diverged at request " << request;
  }
}

Factory<Hosts> host_policy(PlacementKind kind) {
  return [kind] { return fleet::make_placement(kind); };
}

Factory<Cells> cell_router(RoutingKind kind) {
  return [kind] { return fleet::make_routing(kind); };
}

std::string test_name(std::string name) {
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

class PlacementEquivalence : public ::testing::TestWithParam<PlacementKind> {};

TEST_P(PlacementEquivalence, HeapWalkMatchesSortedRanking) {
  run_equivalence_sweep<Hosts>(host_policy(GetParam()), 0x91ACEull);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PlacementEquivalence,
    ::testing::ValuesIn(fleet::all_placement_kinds()),
    [](const ::testing::TestParamInfo<PlacementKind>& info) {
      return test_name(fleet::placement_kind_name(info.param));
    });

class RoutingEquivalence : public ::testing::TestWithParam<RoutingKind> {};

TEST_P(RoutingEquivalence, HeapWalkMatchesSortedRanking) {
  run_equivalence_sweep<Cells>(cell_router(GetParam()), 0x91ACEull);
}

INSTANTIATE_TEST_SUITE_P(
    AllRouters, RoutingEquivalence,
    ::testing::ValuesIn(fleet::all_routing_kinds()),
    [](const ::testing::TestParamInfo<RoutingKind>& info) {
      return test_name(fleet::routing_kind_name(info.param));
    });

TEST(PlacementEquivalenceSeeds, MultipleSeedsAllPolicies) {
  for (const auto kind : fleet::all_placement_kinds()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      run_equivalence_sweep<Hosts>(host_policy(kind), 0xB10C'0000ull + seed);
    }
  }
}

TEST(RoutingEquivalenceSeeds, MultipleSeedsAllRouters) {
  for (const auto kind : fleet::all_routing_kinds()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      run_equivalence_sweep<Cells>(cell_router(kind), 0xCE11'0000ull + seed);
    }
  }
}

// --- The default walk: policies that implement only the snapshot rank ------

TEST(DefaultWalk, MatchesRankHostsOfASnapshotOnlyPolicy) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_equivalence_sweep<Hosts>(
        [] { return std::make_unique<BusyLastPlacement>(); }, seed);
  }
}

TEST(DefaultWalk, MatchesRankCellsOfASnapshotOnlyRouter) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_equivalence_sweep<Cells>(
        [] { return std::make_unique<BusyLastRouting>(); }, seed);
  }
}

TEST(DefaultWalk, SingleShotEmitsTheWrappedPolicysFirstChoiceOnly) {
  for (const auto kind : fleet::all_placement_kinds()) {
    run_equivalence_sweep<Hosts>(
        [kind] {
          return std::make_unique<fleet::SingleShotPolicy>(
              fleet::make_placement(kind));
        },
        0x5107ull);
  }
}

TEST(DefaultWalk, RejectsARankingOfATargetThatIsNotLive) {
  /// Ranks a fixed host index, live or not.
  class FixedHostPolicy final : public fleet::PlacementPolicy {
   public:
    explicit FixedHostPolicy(int host) : host_(host) {}
    std::string name() const override { return "fixed-host"; }
    void rank_hosts(const PlacementRequest&, const std::vector<HostView>&,
                    std::vector<int>& ranked) override {
      ranked.push_back(host_);
    }

   private:
    int host_;
  };
  for (const int bad : {-1, 1, 7}) {
    FixedHostPolicy policy(bad);
    policy.reset();
    for (int i = 0; i < 3; ++i) {
      HostState s;
      s.index = i;
      policy.host_updated(s);
    }
    policy.host_removed(1);
    EXPECT_THROW(policy.walk_begin(PlacementRequest{}), std::out_of_range)
        << "host " << bad;
  }
}

}  // namespace
