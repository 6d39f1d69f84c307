// Federation: K cluster cells behind one global router.
//
// One level above Cluster, the same policy/mechanism split recurs: a
// FederationTopology describes K cells (each a full CellSpec — hosts,
// placement, autoscaler, fault schedule; heterogeneous cells are fine),
// a single TrafficSpec describes the global tenant population, and a
// pluggable RoutingPolicy decides which cell each arrival enters. The
// router is the RankingPolicy placement.h defines for hosts, over cells:
// the built-in routers are placement's round-robin, most-free-RAM and
// co-tenant-affinity rules and heap walks, instantiated for CellState, so
// cell selection is O(log K) per arrival. A custom router implements
// rank_cells only and is walked through the default snapshot walk.
//
// Execution model: the federation routes the whole population up front on
// *projected* cell load (the router never sees inside a cell mid-run),
// then runs each cell as its own deterministic Cluster with its routed
// subset as an explicit population. Cells remain byte-reproducible event
// streams; the federation adds no global clock. When a cell's run ends
// with tenants it would not hold — rejected at admission, or stranded by
// a fault with no survivor capacity — each such tenant walks the routing
// ranking again, skipping every cell it already tried, and moves to the
// next candidate: an inter-cell *spill*, mirrored per cell as
// spill_out/spill_in exactly like host-level spills inside a cluster.
// Affected cells re-run with their updated populations until the
// assignment reaches a fixed point (each tenant visits a cell at most
// once, so the loop is bounded by K runs per tenant in the worst case).
//
// Cell outages (chaos.h kCellOutage) kill every host of a cell at one
// instant. Standalone that strands every victim; under a federation the
// stranded victims re-enter the router at their jittered re-arrival time
// and re-boot in another cell. The federation-level recovery verdict
// measures outage instant -> re-boot served in the new cell, against the
// same TrafficSpec::replace_slo_ms budget in-cell crash recovery uses.
//
// A 1-cell federation is the degenerate case: FederationReport::to_text()
// renders the lone cell's FleetReport verbatim, byte-identical to running
// the equivalent Scenario through Cluster directly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/cluster.h"
#include "fleet/placement.h"
#include "fleet/report.h"
#include "fleet/scenario.h"
#include "sim/time.h"
#include "stats/sample_set.h"

namespace fleet {

enum class RoutingKind {
  kRoundRobin,       // cycle cells in index order, ignoring load
  kLeastLoadedCell,  // most aggregate free RAM first (ties: lowest index)
  kPlatformAffinity, // co-locate a platform's tenants in few cells so each
                     // cell's KSM digests and boot image caches merge;
                     // falls back to least-loaded while no co-tenant exists
};

std::string routing_kind_name(RoutingKind k);

/// All built-in routing policies, in a stable sweep order.
std::vector<RoutingKind> all_routing_kinds();

/// One cell's load as the router tracks it: aggregate free RAM projected
/// from routed-tenant estimates, never a peek inside the cell's engine.
/// This is what cell_updated pushes; per-platform routed counts travel
/// through platform_count_changed.
struct CellState {
  int index = 0;
  /// Aggregate RAM across the cell's initial hosts (admission-effective:
  /// honors host_ram_override_bytes).
  std::uint64_t ram_cap_bytes = 0;
  /// Projected resident bytes of every tenant currently routed here.
  std::uint64_t resident_bytes = 0;
  int active_tenants = 0;
};

/// Snapshot row of rank_cells: CellState plus the arriving tenant's
/// platform count (tenants of that platform currently routed here).
using CellView = RankedView<CellState>;

/// The arriving tenant looks the same to a router as to a placement
/// policy: the request type is shared outright.
using RouteRequest = PlacementRequest;

/// Cell selection for a federation. Same contract as PlacementPolicy one
/// level down: rank_cells is the only method a custom router must
/// implement (the federation walks it through the default walk); the
/// built-ins serve O(log K) heap walks. The cell_updated/cell_removed
/// spellings alias the generic protocol names so federation call sites
/// read naturally.
class RoutingPolicy : public RankingPolicy<CellState, RouteRequest> {
 public:
  /// Rank cells from most to least preferred, appending CellView::index
  /// values to `ranked` (which arrives cleared). `cells` has one view per
  /// live cell, in index order, and is never empty. Must append a
  /// non-empty subset, each cell at most once; the federation tries the
  /// arrival against cells in ranked order and spills down the list.
  virtual void rank_cells(const RouteRequest& req,
                          const std::vector<CellView>& cells,
                          std::vector<int>& ranked) = 0;

  /// Convenience: the most-preferred cell (front of rank_cells). Advances
  /// any cursor state exactly like one rank_cells call.
  int route(const RouteRequest& req, const std::vector<CellView>& cells);

  void cell_updated(const CellState& state) { target_updated(state); }
  void cell_removed(int cell) { target_removed(cell); }

 protected:
  void rank_snapshot(const RouteRequest& req,
                     const std::vector<CellView>& cells,
                     std::vector<int>& ranked) final {
    rank_cells(req, cells, ranked);
  }
};

std::unique_ptr<RoutingPolicy> make_routing(RoutingKind kind);

/// One cell of the federation: a label, a region, and the full mechanism
/// spec of the cluster behind it.
struct CellDesc {
  /// Display name; empty defaults to "cell<index>" at run time.
  std::string name;
  std::string region = "r0";
  CellSpec spec;
};

struct FederationTopology {
  std::vector<CellDesc> cells;

  /// K identical cells stamped from one CellSpec, named cell0..cellK-1.
  static FederationTopology uniform(int cells, const CellSpec& spec);
};

/// A whole-cell failure, addressed by cell index. Lowered into that cell's
/// fault schedule as a chaos.h kCellOutage (every host dies at `time`);
/// the stranded victims re-enter the global router at their jittered
/// re-arrival instants and re-boot in another cell.
struct CellOutage {
  int cell = 0;
  sim::Nanos time = 0;
  sim::Nanos restart_delay = sim::millis(20);
  sim::Nanos restart_jitter = sim::millis(20);
};

/// The federated scenario: global policy (traffic + routing) over K
/// cell-scoped mechanism specs. The policy/mechanism split that Scenario
/// flattens into one struct for single-cluster runs is explicit here.
struct FederatedScenario {
  TrafficSpec traffic;
  RoutingKind routing = RoutingKind::kRoundRobin;
  FederationTopology topology;
  std::vector<CellOutage> outages;

  /// Lift a single-cluster Scenario into a K-cell federation: the traffic
  /// half becomes the global population, the cell half is stamped K times.
  /// With cells == 1 and kRoundRobin the run is byte-identical to
  /// Cluster::run(s).
  static FederatedScenario from_scenario(
      const Scenario& s, int cells = 1,
      RoutingKind routing = RoutingKind::kRoundRobin);

  /// Headline federation scenario: a cluster storm spread over K cells.
  static FederatedScenario federation_storm(
      int tenants, int cells, int hosts_per_cell,
      RoutingKind routing = RoutingKind::kLeastLoadedCell);
};

/// Everything a federated run observed: per-cell FleetReports rolled up
/// into global totals. Same contract as FleetReport — same scenario, seed
/// and topology render byte-identical text at every thread count.
class FederationReport {
 public:
  std::string scenario;
  std::uint64_t seed = 0;
  std::string routing;

  struct CellRollup {
    std::string name;
    std::string region;
    int hosts = 0;    // initial host count
    int routed = 0;   // tenants in the final assignment
    int admitted = 0; // distinct tenants admitted (final run)
    int rejected = 0; // admission rejections in the final run
    /// Inter-cell spills absorbed / shed by this cell. Federation-wide,
    /// sum(spill_in) == sum(spill_out) == FederationReport::spills.
    int spill_in = 0;
    int spill_out = 0;
    bool outage = false;  // a kCellOutage hit this cell
    FleetReport report;   // the cell's full final report
  };
  std::vector<CellRollup> cells;

  // Global totals over the final assignment (each tenant counted once).
  int tenants = 0;    // global population size
  int admitted = 0;   // tenants admitted in their final cell
  int rejected = 0;   // tenants no cell would hold
  int completed = 0;
  /// Inter-cell moves: a tenant leaving a cell that refused or lost it
  /// for the next cell in its routing ranking.
  int spills = 0;
  sim::Nanos makespan = 0;              // max over cells
  std::uint64_t events_processed = 0;   // summed over final cell runs

  // Cell outages resolve at the federation level: in-cell the victims are
  // lost (no survivors), globally they re-route.
  int outage_victims = 0;   // tenants stranded by a cell outage
  int outage_rerouted = 0;  // re-admitted in another cell
  int outage_lost = 0;      // no remaining cell would take them
  /// Outage instant -> victim's re-boot served in its new cell, ms.
  stats::SampleSet outage_replace_ms;

  /// Recovery budget copied from TrafficSpec::replace_slo_ms; zero means
  /// no budget, no verdict line.
  sim::Nanos replace_slo_ms = 0;

  /// Federation recovery verdict: every in-cell fault verdict passes the
  /// budget — except cell-outage verdicts, which are judged here instead
  /// (re-routed victims with the p99 within budget, nobody lost), since
  /// in-cell a whole-cell outage always loses everyone.
  bool recovery_slo_pass() const;

  /// With one cell this is the cell's FleetReport::to_text() verbatim;
  /// with K > 1, a federation header, the cell rollup table, then each
  /// cell's full report.
  std::string to_text() const;
};

/// K cells behind one router. Owns the per-cell Clusters; run() is
/// deterministic for a given FederatedScenario (cells re-built fresh per
/// run, exactly like "build a fresh Cluster per reproducible run").
class Federation {
 public:
  explicit Federation(FederationTopology topology);

  /// Route, run, spill to a fixed point, roll up. The scenario's topology
  /// must match this federation's (cell count); throws
  /// std::invalid_argument on malformed scenarios (no cells, outage
  /// targeting an unknown cell, unsorted explicit population).
  FederationReport run(const FederatedScenario& fs);

  int cell_count() const { return static_cast<int>(topology_.cells.size()); }

  /// The cell's Cluster from the most recent run (final re-run state).
  /// Null before the first run() touches that cell.
  Cluster* cell(int index) {
    return cells_[static_cast<std::size_t>(index)].get();
  }

 private:
  FederationTopology topology_;
  std::vector<std::unique_ptr<Cluster>> cells_;
};

}  // namespace fleet
