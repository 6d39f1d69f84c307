// Tests for the fault-injection subsystem (src/fleet/chaos.h): the
// crash-vs-graceful-drain differential (a crash loses the host's KSM
// sharing and page cache, a drain does not), rack-correlated crash
// determinism, partition windows stalling NIC-bound completions,
// recovery-verdict arithmetic, up-front scenario validation, the
// drain/crash same-instant race hardening, and byte-identity of every
// chaos builtin across runs and thread counts.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/host_system.h"
#include "fleet/chaos.h"
#include "fleet/cluster.h"
#include "fleet/engine.h"
#include "fleet/placement.h"
#include "fleet/report.h"
#include "fleet/scenario.h"

namespace {

using fleet::build_partition_windows;
using fleet::Cluster;
using fleet::Fault;
using fleet::FaultSpec;
using fleet::FleetEngine;
using fleet::FleetReport;
using fleet::HostEvent;
using fleet::PartitionWindow;
using fleet::PlacementKind;
using fleet::resolve_faults;
using fleet::ResolvedFault;
using fleet::Scenario;
using fleet::stalled_completion;
using fleet::validate_host_events;

FleetReport run_cluster(const Scenario& s) {
  Cluster cluster(s.cluster);
  return cluster.run(s);
}

/// A mid-size storm with phases long enough that a fault around 60 ms
/// catches plenty of tenants mid-flight.
Scenario chaos_storm(int tenants, int hosts) {
  Scenario s = Scenario::cluster_storm(tenants, hosts,
                                       PlacementKind::kLeastPressure);
  s.arrival = fleet::ArrivalPattern::kRamp;
  s.arrival_window = sim::millis(200);
  s.phases_per_tenant = 2;
  s.mean_phase_duration = sim::millis(120);
  return s;
}

Fault crash_at(sim::Nanos time, int host) {
  Fault f;
  f.kind = Fault::Kind::kCrash;
  f.time = time;
  f.host = host;
  return f;
}

// --- stalled_completion math -------------------------------------------------

TEST(ChaosTest, StalledCompletionStretchesByExactOverlap) {
  const std::vector<PartitionWindow> w = {{10, 20}};
  // Starts at 5, runs 5 of its 10 units, freezes for [10,20), finishes the
  // remaining 5 at 25.
  EXPECT_EQ(stalled_completion(w, 5, 10), 25);
  // Starting inside the window: all progress waits for the heal.
  EXPECT_EQ(stalled_completion(w, 12, 3), 23);
  // Finished before the window opens: untouched.
  EXPECT_EQ(stalled_completion(w, 0, 10), 10);
  // Starting after the window closed: untouched.
  EXPECT_EQ(stalled_completion(w, 25, 10), 35);
  // No windows at all: degenerate identity.
  EXPECT_EQ(stalled_completion({}, 7, 10), 17);
}

TEST(ChaosTest, StalledCompletionWalksMultipleWindows) {
  const std::vector<PartitionWindow> w = {{10, 20}, {30, 40}};
  // 5 units to the first window, frozen to 20, 10 more units to 30, frozen
  // to 40, the last 5 end at 45.
  EXPECT_EQ(stalled_completion(w, 5, 20), 45);
  // Ends exactly when the second window opens: not stalled by it.
  EXPECT_EQ(stalled_completion(w, 5, 15), 30);
}

TEST(ChaosTest, BuildPartitionWindowsSortsAndCoalesces) {
  ResolvedFault a;
  a.kind = Fault::Kind::kPartition;
  a.time = 30;
  a.duration = 20;
  a.hosts = {0};
  ResolvedFault b;
  b.kind = Fault::Kind::kPartition;
  b.time = 10;
  b.duration = 25;  // [10, 35) overlaps [30, 50): one window [10, 50)
  b.hosts = {0};
  const auto windows = build_partition_windows({a, b}, 2);
  ASSERT_EQ(windows.size(), 2u);
  ASSERT_EQ(windows[0].size(), 1u);
  EXPECT_EQ(windows[0][0].start, 10);
  EXPECT_EQ(windows[0][0].end, 50);
  EXPECT_TRUE(windows[1].empty());
}

TEST(ChaosTest, BuildPartitionWindowsEmptyWithoutPartitions) {
  ResolvedFault crash;
  crash.kind = Fault::Kind::kCrash;
  crash.hosts = {0};
  EXPECT_TRUE(build_partition_windows({crash}, 4).empty());
  EXPECT_TRUE(build_partition_windows({}, 4).empty());
}

// --- Up-front validation -----------------------------------------------------

TEST(ChaosTest, ResolveFaultsRejectsMalformedSpecs) {
  Scenario s = chaos_storm(8, 2);
  // Negative fault time.
  s.faults.timed = {crash_at(-1, 0)};
  EXPECT_THROW(resolve_faults(s, 2), std::invalid_argument);
  // Host outside the initial topology.
  s.faults.timed = {crash_at(sim::millis(10), 2)};
  EXPECT_THROW(resolve_faults(s, 2), std::invalid_argument);
  s.faults.timed = {crash_at(sim::millis(10), -1)};
  EXPECT_THROW(resolve_faults(s, 2), std::invalid_argument);
  // Unknown rack name.
  s.faults.timed = {crash_at(sim::millis(10), 0)};
  s.faults.timed[0].rack = "nope";
  EXPECT_THROW(resolve_faults(s, 2), std::invalid_argument);
  // Non-positive partition duration.
  s.faults.timed = {crash_at(sim::millis(10), 0)};
  s.faults.timed[0].kind = Fault::Kind::kPartition;
  s.faults.timed[0].duration = 0;
  EXPECT_THROW(resolve_faults(s, 2), std::invalid_argument);
  // Negative restart shape.
  s.faults.timed = {crash_at(sim::millis(10), 0)};
  s.faults.timed[0].restart_delay = -1;
  EXPECT_THROW(resolve_faults(s, 2), std::invalid_argument);
  // Negative random counts / missing horizon.
  s.faults.timed.clear();
  s.faults.random_crashes = -1;
  EXPECT_THROW(resolve_faults(s, 2), std::invalid_argument);
  s.faults.random_crashes = 1;
  s.faults.random_horizon = 0;
  EXPECT_THROW(resolve_faults(s, 2), std::invalid_argument);
}

TEST(ChaosTest, ResolveFaultsRejectsMalformedRacks) {
  Scenario s = chaos_storm(8, 2);
  s.faults.timed = {crash_at(sim::millis(10), 0)};
  s.cluster.racks = {{"", {0}}};
  EXPECT_THROW(resolve_faults(s, 2), std::invalid_argument);
  s.cluster.racks = {{"r0", {}}};
  EXPECT_THROW(resolve_faults(s, 2), std::invalid_argument);
  s.cluster.racks = {{"r0", {0, 5}}};  // member outside the topology
  EXPECT_THROW(resolve_faults(s, 2), std::invalid_argument);
}

TEST(ChaosTest, ResolveFaultsSortsByTimeAndAssignsIds) {
  Scenario s = chaos_storm(8, 4);
  s.faults.timed = {crash_at(sim::millis(50), 1), crash_at(sim::millis(10), 2)};
  const auto resolved = resolve_faults(s, 4);
  ASSERT_EQ(resolved.size(), 2u);
  EXPECT_EQ(resolved[0].id, 0);
  EXPECT_EQ(resolved[0].time, sim::millis(10));
  EXPECT_EQ(resolved[0].hosts, std::vector<int>{2});
  EXPECT_EQ(resolved[1].id, 1);
  EXPECT_EQ(resolved[1].time, sim::millis(50));
}

TEST(ChaosTest, ValidateHostEventsRejectsBadHooks) {
  Scenario s = chaos_storm(8, 2);
  HostEvent he;
  he.kind = HostEvent::Kind::kDrain;
  he.time = -1;
  s.host_events = {he};
  EXPECT_THROW(validate_host_events(s, 2), std::invalid_argument);
  he.time = sim::millis(10);
  he.host = -2;
  s.host_events = {he};
  EXPECT_THROW(validate_host_events(s, 2), std::invalid_argument);
  // A fixed 2-host topology can never contain host index 7.
  he.host = 7;
  s.host_events = {he};
  EXPECT_THROW(validate_host_events(s, 2), std::invalid_argument);
  // ...unless the autoscaler can grow the fleet past it.
  s.autoscale.enabled = true;
  s.autoscale.max_hosts = 16;
  EXPECT_NO_THROW(validate_host_events(s, 2));
  // An engine run surfaces the same validation up front.
  s.autoscale.enabled = false;
  EXPECT_THROW(run_cluster(s), std::invalid_argument);
}

TEST(ChaosTest, RunRejectsOutOfRangeFaultHost) {
  Scenario s = chaos_storm(8, 2);
  s.faults.timed = {crash_at(sim::millis(10), 5)};
  EXPECT_THROW(run_cluster(s), std::invalid_argument);
}

// --- Crash vs graceful drain -------------------------------------------------

TEST(ChaosTest, CrashLosesPageCacheAndKsmDrainDoesNot) {
  // Same storm, same target host, same instant: one run crashes host 0,
  // the other drains it gracefully. The drained host keeps its warm page
  // cache; the crashed host's cache and KSM stable tree die with it.
  Scenario crash = chaos_storm(160, 3);
  crash.faults.timed = {crash_at(sim::millis(60), 0)};

  Scenario drain = chaos_storm(160, 3);
  HostEvent he;
  he.kind = HostEvent::Kind::kDrain;
  he.time = sim::millis(60);
  he.host = 0;
  drain.host_events = {he};

  Cluster crashed_cluster(crash.cluster);
  const FleetReport cr = crashed_cluster.run(crash);
  Cluster drained_cluster(drain.cluster);
  const FleetReport dr = drained_cluster.run(drain);

  // Host-state differential, observed directly on the host models.
  EXPECT_EQ(crashed_cluster.host(0).page_cache().size_pages(), 0u);
  EXPECT_GT(drained_cluster.host(0).page_cache().size_pages(), 0u);

  // Report differential: markers, recovery section, migration accounting.
  ASSERT_GE(cr.hosts.size(), 1u);
  EXPECT_TRUE(cr.hosts[0].crashed);
  EXPECT_FALSE(cr.hosts[0].drained);
  EXPECT_TRUE(dr.hosts[0].drained);
  EXPECT_FALSE(dr.hosts[0].crashed);
  EXPECT_NE(cr.to_text().find("(! = host crashed mid-run)"), std::string::npos);
  EXPECT_NE(dr.to_text().find("(* = host was drained mid-run)"),
            std::string::npos);

  ASSERT_EQ(cr.recovery.size(), 1u);
  EXPECT_GT(cr.crash_victims, 0);
  EXPECT_TRUE(dr.recovery.empty());
  EXPECT_EQ(dr.to_text().find("chaos:"), std::string::npos);
  EXPECT_GT(dr.drain_migrations, 0);
  EXPECT_EQ(cr.drain_migrations, 0);

  // Victims re-arrive no earlier than the restart delay, and only count as
  // re-placed once their re-boot completes — every sample sits past it.
  ASSERT_FALSE(cr.replace_ms.empty());
  EXPECT_EQ(cr.replace_ms.fraction_below(
                sim::to_millis(crash.faults.timed[0].restart_delay)),
            0.0);
}

TEST(ChaosTest, IncrementalFleetCountersSurviveACrash) {
  // A crash drops a whole shard's resident set and KSM tree wholesale;
  // the incremental fleet counters must track that exactly (set_peak_audit
  // latches any drift from the re-summed reference).
  Scenario s = chaos_storm(200, 3);
  s.faults.timed = {crash_at(sim::millis(60), 1)};
  for (const int threads : {1, 4}) {
    Scenario run = s;
    run.threads = threads;
    Cluster cluster(run.cluster);
    const auto policy = fleet::make_placement(run.placement);
    std::vector<core::HostSystem*> hosts;
    for (int i = 0; i < cluster.host_count(); ++i) {
      hosts.push_back(&cluster.host(i));
    }
    FleetEngine engine(hosts, policy.get(), &cluster);
    engine.set_peak_audit(true);
    const FleetReport r = engine.run(run);
    EXPECT_TRUE(engine.peak_audit_ok()) << "threads=" << threads;
    EXPECT_GT(r.crash_victims, 0);
  }
}

TEST(ChaosTest, CrashingTheOnlyHostLosesUnplacedTenants) {
  // With no survivors there is nowhere to re-place: every victim (and
  // every later arrival) is rejected fleet-level, and the verdict records
  // them as permanently lost.
  Scenario s = Scenario::coldstart_storm(40);
  s.arrival = fleet::ArrivalPattern::kRamp;
  s.arrival_window = sim::millis(100);
  s.phases_per_tenant = 2;
  s.mean_phase_duration = sim::millis(200);
  s.faults.timed = {crash_at(sim::millis(50), 0)};
  const FleetReport r = run_cluster(s);
  ASSERT_EQ(r.recovery.size(), 1u);
  EXPECT_GT(r.crash_victims, 0);
  EXPECT_EQ(r.crash_readmitted, 0);
  EXPECT_EQ(r.crash_lost, r.crash_victims);
  EXPECT_EQ(r.readmission_fraction(), 0.0);
  EXPECT_TRUE(r.replace_ms.empty());
  EXPECT_GE(r.rejected, r.crash_victims);
}

// --- Rack-correlated faults --------------------------------------------------

TEST(ChaosTest, RackCrashHitsEveryMemberAtOneInstant) {
  const Scenario s = Scenario::rack_outage(240, 6);
  const FleetReport r = run_cluster(s);
  ASSERT_EQ(r.recovery.size(), 1u);
  const auto& v = r.recovery[0];
  EXPECT_EQ(v.kind, "crash");
  EXPECT_EQ(v.rack, "r0");
  EXPECT_EQ(v.hosts, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(v.time, sim::millis(100));
  for (const int h : {0, 1, 2}) {
    EXPECT_TRUE(r.hosts[static_cast<std::size_t>(h)].crashed) << h;
  }
  for (const int h : {3, 4, 5}) {
    EXPECT_FALSE(r.hosts[static_cast<std::size_t>(h)].crashed) << h;
  }
  EXPECT_GT(v.victims, 0);
  EXPECT_EQ(v.victims, v.readmitted + v.lost);
}

// --- Partitions --------------------------------------------------------------

TEST(ChaosTest, PartitionStallsNicPhases) {
  const Scenario s = Scenario::partition_storm(240, 4);
  Scenario control = s;
  control.faults = FaultSpec{};
  const FleetReport r = run_cluster(s);
  const FleetReport c = run_cluster(control);

  EXPECT_GT(r.nic_stalls, 0);
  EXPECT_EQ(c.nic_stalls, 0);
  // Stalls only ever stretch completions, so the partitioned run's
  // makespan can't beat the control's.
  EXPECT_GT(r.makespan, c.makespan);
  ASSERT_EQ(r.recovery.size(), 1u);
  EXPECT_EQ(r.recovery[0].kind, "partition");
  EXPECT_EQ(r.recovery[0].duration, sim::millis(40));
  EXPECT_EQ(r.crash_victims, 0);  // partitions kill nobody
  EXPECT_TRUE(c.recovery.empty());
  // Per-host stall attribution stays on the partitioned rack.
  int partitioned = 0;
  int untouched = 0;
  for (const auto& h : r.hosts) {
    if (h.host <= 1) {
      partitioned += h.nic_stalls;
    } else {
      untouched += h.nic_stalls;
    }
  }
  EXPECT_EQ(partitioned, r.nic_stalls);
  EXPECT_EQ(untouched, 0);
}

// --- Recovery verdict arithmetic --------------------------------------------

TEST(ChaosTest, RecoveryVerdictTotalsAreConsistent) {
  const Scenario s = Scenario::crash_recovery(600, 4, 8);
  const FleetReport r = run_cluster(s);
  ASSERT_EQ(r.recovery.size(), 1u);
  const auto& v = r.recovery[0];
  EXPECT_EQ(v.fault, 0);
  EXPECT_EQ(v.kind, "crash");
  EXPECT_EQ(v.victims, r.crash_victims);
  EXPECT_EQ(v.readmitted, r.crash_readmitted);
  EXPECT_EQ(v.lost, r.crash_lost);
  EXPECT_EQ(v.victims, v.readmitted + v.lost);
  EXPECT_EQ(r.replace_ms.size(), static_cast<std::size_t>(v.readmitted));
  EXPECT_GT(r.readmission_fraction(), 0.0);
  EXPECT_LE(r.readmission_fraction(), 1.0);
  EXPECT_GE(r.replace_ms.percentile(99), r.replace_ms.percentile(50));
  // The headline composition: the crash (not ambient load) trips the
  // watermark — the fault-free control run never scales out.
  bool scaled_out = false;
  for (const auto& a : r.autoscale_timeline) {
    scaled_out = scaled_out || a.action == "scale-out";
  }
  EXPECT_TRUE(scaled_out);
  Scenario control = s;
  control.faults = FaultSpec{};
  const FleetReport c = run_cluster(control);
  for (const auto& a : c.autoscale_timeline) {
    EXPECT_NE(a.action, "scale-out");
  }
}

TEST(ChaosTest, RestrandedVictimResolvesOnceUnderTheLaterCrash) {
  // Host 0 crashes at 40 ms and its victims re-arrive 1-2 ms later; some
  // land on host 1, which crashes at 45 ms before they finish re-booting.
  // Each such victim belongs to the later crash only, so every verdict and
  // the fleet totals balance: victims == readmitted + lost.
  Scenario s = Scenario::cluster_storm(600, 3, PlacementKind::kRoundRobin);
  Fault first = crash_at(sim::millis(40), 0);
  Fault second = crash_at(sim::millis(45), 1);
  for (Fault* f : {&first, &second}) {
    f->restart_delay = sim::millis(1);
    f->restart_jitter = sim::millis(1);
  }
  s.faults.timed = {first, second};
  const FleetReport r = run_cluster(s);

  ASSERT_EQ(r.recovery.size(), 2u);
  int victims = 0;
  int boots_lost = 0;
  for (const auto& v : r.recovery) {
    EXPECT_GT(v.victims, 0) << "fault " << v.fault;
    EXPECT_EQ(v.victims, v.readmitted + v.lost) << "fault " << v.fault;
    EXPECT_LE(v.boots_lost, v.victims) << "fault " << v.fault;
    victims += v.victims;
    boots_lost += v.boots_lost;
  }
  EXPECT_EQ(r.crash_victims, victims);
  EXPECT_EQ(r.crash_victims, r.crash_readmitted + r.crash_lost);
  EXPECT_EQ(r.boots_lost, boots_lost);
  EXPECT_EQ(r.replace_ms.size(), static_cast<std::size_t>(r.crash_readmitted));
  // Only a tenant that is really lost carries a fault stamp.
  int stamped = 0;
  for (const auto& t : r.tenants) {
    stamped += t.lost_to_fault >= 0 ? 1 : 0;
    if (t.lost_to_fault >= 0) {
      EXPECT_FALSE(t.admitted);
    }
  }
  EXPECT_EQ(stamped, r.crash_lost);
}

// --- Drain/crash same-instant hardening -------------------------------------

TEST(ChaosTest, DrainThenCrashSameInstantIsSafe) {
  // A timed drain and a crash hit host 1 at the same instant (the
  // drain pops first: host events are queued before fault events). The
  // crash must skip the already-dead host instead of double-releasing its
  // tenants.
  Scenario s = chaos_storm(160, 3);
  HostEvent he;
  he.kind = HostEvent::Kind::kDrain;
  he.time = sim::millis(60);
  he.host = 1;
  s.host_events = {he};
  s.faults.timed = {crash_at(sim::millis(60), 1)};
  const FleetReport r = run_cluster(s);
  EXPECT_TRUE(r.hosts[1].drained);
  EXPECT_FALSE(r.hosts[1].crashed);
  EXPECT_GT(r.drain_migrations, 0);
  ASSERT_EQ(r.recovery.size(), 1u);
  EXPECT_EQ(r.recovery[0].victims, 0);  // nobody left to kill
  EXPECT_TRUE(r.recovery[0].hosts.empty());
  EXPECT_EQ(run_cluster(s).to_text(), r.to_text());
}

TEST(ChaosTest, CrashThenDrainOfDeadHostIsANoOp) {
  // The reverse race: the crash lands first, then a timed drain targets
  // the corpse. drain_shard must refuse; only the crash shows up.
  Scenario s = chaos_storm(160, 3);
  s.faults.timed = {crash_at(sim::millis(60), 1)};
  HostEvent he;
  he.kind = HostEvent::Kind::kDrain;
  he.time = sim::millis(60) + 1;
  he.host = 1;
  s.host_events = {he};
  const FleetReport r = run_cluster(s);
  EXPECT_TRUE(r.hosts[1].crashed);
  EXPECT_FALSE(r.hosts[1].drained);
  EXPECT_EQ(r.drain_migrations, 0);
  for (const auto& a : r.autoscale_timeline) {
    EXPECT_NE(a.action, "drain");
  }
  EXPECT_EQ(run_cluster(s).to_text(), r.to_text());
}

// --- Determinism -------------------------------------------------------------

TEST(ChaosTest, ChaosBuiltinsAreByteIdenticalAcrossRuns) {
  const Scenario builtins[] = {
      Scenario::crash_recovery(600, 4, 8),
      Scenario::rack_outage(240, 6),
      Scenario::partition_storm(240, 4),
  };
  for (const Scenario& s : builtins) {
    const std::string first = run_cluster(s).to_text();
    EXPECT_EQ(run_cluster(s).to_text(), first) << s.name;
    EXPECT_NE(first.find("chaos:"), std::string::npos) << s.name;
  }
}

TEST(ChaosTest, RandomFaultScheduleIsSeedDeterministic) {
  Scenario s = chaos_storm(160, 4);
  s.faults.random_crashes = 1;
  s.faults.random_partitions = 1;
  s.faults.random_horizon = sim::millis(150);
  const FleetReport r = run_cluster(s);
  EXPECT_EQ(r.recovery.size(), 2u);
  EXPECT_EQ(run_cluster(s).to_text(), r.to_text());
  // A different seed draws a different schedule (times differ with
  // overwhelming probability; equality here would mean the stream ignored
  // the seed).
  Scenario other = s;
  other.seed ^= 0x5EED;
  const FleetReport ro = run_cluster(other);
  ASSERT_EQ(ro.recovery.size(), 2u);
  EXPECT_NE(ro.recovery[0].time, r.recovery[0].time);
}

TEST(ChaosTest, ChaosBuiltinsAreThreadCountInvariant) {
  const Scenario builtins[] = {
      Scenario::crash_recovery(600, 4, 8),
      Scenario::rack_outage(240, 6),
      Scenario::partition_storm(240, 4),
  };
  for (const Scenario& base : builtins) {
    Scenario s = base;
    s.threads = 1;
    const std::string sequential = run_cluster(s).to_text();
    for (const int threads : {2, 8}) {
      s.threads = threads;
      EXPECT_EQ(run_cluster(s).to_text(), sequential)
          << base.name << " threads=" << threads;
    }
  }
}

// --- Recovery SLO verdict ----------------------------------------------------

TEST(ChaosTest, RenderedRecoveryVerdictsMatchRecoverySloPass) {
  FleetReport r;
  r.replace_slo_ms = sim::millis(5);
  FleetReport::RecoveryVerdict partition;
  partition.kind = "partition";
  r.recovery.push_back(partition);
  FleetReport::RecoveryVerdict crash;
  crash.kind = "crash";
  crash.victims = 2;
  crash.readmitted = 2;
  crash.replace_ms.add(1.0);
  crash.replace_ms.add(4.0);
  r.recovery.push_back(crash);
  EXPECT_TRUE(r.recovery_slo_pass());
  std::string text = r.to_text();
  EXPECT_NE(text.find("; SLO PASS"), std::string::npos);
  EXPECT_NE(text.find("no loss -> PASS"), std::string::npos);
  // A p99 over budget fails the fault and the fleet verdict.
  r.recovery.back().replace_ms.add(9.0);
  EXPECT_FALSE(r.recovery.back().slo_pass(r.replace_slo_ms));
  EXPECT_FALSE(r.recovery_slo_pass());
  text = r.to_text();
  EXPECT_NE(text.find("; SLO FAIL"), std::string::npos);
  EXPECT_NE(text.find("no loss -> FAIL"), std::string::npos);
  // So does a lost victim, with no re-placements to select from.
  FleetReport::RecoveryVerdict lost;
  lost.kind = "crash";
  lost.victims = 1;
  lost.lost = 1;
  r.recovery = {partition, lost};
  EXPECT_FALSE(r.recovery_slo_pass());
  EXPECT_NE(r.to_text().find("no loss -> FAIL"), std::string::npos);
}

}  // namespace
