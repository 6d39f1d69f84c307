#include "fleet/placement.h"

#include <algorithm>
#include <stdexcept>

namespace fleet {

namespace {

// --- Host-only rules -------------------------------------------------------
// Both read HostState fields cells do not have; the shared rules live in
// placement.h.

/// Weighted pressure score: RAM dominates (it is the hard admission
/// limit), CPU demand stretches every in-flight duration, the NIC only
/// congests network phases.
constexpr double kRamWeight = 0.5;
constexpr double kCpuWeight = 0.35;
constexpr double kNicWeight = 0.15;

double pressure_score(const HostState& h) {
  const double ram_used =
      h.ram_cap_bytes == 0
          ? 1.0
          : 1.0 - static_cast<double>(free_bytes(h)) /
                      static_cast<double>(h.ram_cap_bytes);
  const HostPressure& p = h.pressure;
  const double threads = static_cast<double>(std::max(1, p.cpu_threads));
  // CPU and NIC saturate at 1.0: past saturation everything on the host is
  // already stretched, and RAM — the hard admission limit — must keep
  // dominating the comparison.
  const double cpu = std::min(1.0, p.cpu_demand / threads);
  const double nic = std::min(1.0, static_cast<double>(p.net_active) / threads);
  return kRamWeight * ram_used + kCpuWeight * cpu + kNicWeight * nic;
}

/// least-pressure: lowest pressure score first.
template <typename Rows>
struct LeastPressureFirst {
  Rows rows;
  bool operator()(int a, int b) const {
    const HostState& x = rows.row(a);
    const HostState& y = rows.row(b);
    const double sx = pressure_score(x);
    const double sy = pressure_score(y);
    if (sx != sy) {
      return sx < sy;
    }
    return rows.index(a) < rows.index(b);
  }
};

/// Fraction of a host's RAM that pack-then-spill fills before opening the
/// next host. Below 1.0 so the pile leaves headroom for admission-time
/// variance; the retry walk absorbs overshoot as a spill, not an OOM.
constexpr double kPackWatermark = 0.9;

bool above_watermark(const HostState& h) {
  return static_cast<double>(h.resident_bytes) >=
         kPackWatermark * static_cast<double>(h.ram_cap_bytes);
}

/// pack-then-spill: hosts below the watermark in index order (so the
/// lowest-index open host soaks up every arrival until it crosses the
/// line), then the full hosts in index order as spill targets of last
/// resort.
template <typename Rows>
struct OpenBeforeFull {
  Rows rows;
  bool operator()(int a, int b) const {
    const HostState& x = rows.row(a);
    const HostState& y = rows.row(b);
    const bool fx = above_watermark(x);
    const bool fy = above_watermark(y);
    if (fx != fy) {
      return !fx;
    }
    return rows.index(a) < rows.index(b);
  }
};

/// A built-in ranking served as a host placement policy.
template <typename Ranking>
class BuiltinPlacement final : public Ranking {
 public:
  explicit BuiltinPlacement(PlacementKind kind) : kind_(kind) {}
  std::string name() const override { return placement_kind_name(kind_); }
  void rank_hosts(const PlacementRequest&, const std::vector<HostView>& hosts,
                  std::vector<int>& ranked) override {
    this->rank_views(hosts, ranked);
  }

 private:
  PlacementKind kind_;
};

template <template <typename> class Rule, bool kByPlatform = false>
using HostHeapWalk =
    BuiltinPlacement<HeapWalkRanking<PlacementPolicy, Rule, kByPlatform>>;

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
      return std::make_unique<
          BuiltinPlacement<RoundRobinRanking<PlacementPolicy>>>(kind);
    case PlacementKind::kLeastLoaded:
      return std::make_unique<HostHeapWalk<MostFreeFirst>>(kind);
    case PlacementKind::kKsmAffinity:
      return std::make_unique<HostHeapWalk<MostCoTenantsFirst, true>>(kind);
    case PlacementKind::kLeastPressure:
      return std::make_unique<HostHeapWalk<LeastPressureFirst>>(kind);
    case PlacementKind::kPackThenSpill:
      return std::make_unique<HostHeapWalk<OpenBeforeFull>>(kind);
  }
  throw std::invalid_argument("make_placement: unknown PlacementKind");
}

}  // namespace fleet
