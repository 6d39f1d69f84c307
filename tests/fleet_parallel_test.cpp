// Tests for the engine's parallel execution mode (Scenario::threads > 1):
// sequential-vs-parallel byte-identity differentials over storm, churn,
// autoscale and mid-run drain scenarios at several thread counts, the
// threads-is-not-a-model-parameter guarantees, and the incremental
// fleet-counter audit behind note_peaks.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/host_system.h"
#include "fleet/cluster.h"
#include "fleet/engine.h"
#include "fleet/placement.h"
#include "fleet/report.h"
#include "fleet/scenario.h"

namespace {

using fleet::Cluster;
using fleet::FleetEngine;
using fleet::FleetReport;
using fleet::HostEvent;
using fleet::PlacementKind;
using fleet::Scenario;

FleetReport run_cluster(const Scenario& s) {
  Cluster cluster(s.cluster);
  return cluster.run(s);
}

/// Field-by-field identity, tighter than to_text(): includes everything the
/// text deliberately leaves out (events_processed, per-tenant outcomes,
/// exact doubles). The parallel engine must reproduce all of it bit for
/// bit, not just the rendered surface.
void expect_identical(const FleetReport& a, const FleetReport& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.to_text(), b.to_text());
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.spills, b.spills);
  EXPECT_EQ(a.peak_active, b.peak_active);
  EXPECT_EQ(a.peak_cpu_demand, b.peak_cpu_demand);  // exact double
  EXPECT_EQ(a.peak_resident_bytes, b.peak_resident_bytes);
  EXPECT_EQ(a.first_oom_tenant, b.first_oom_tenant);
  EXPECT_EQ(a.churn_rearrivals, b.churn_rearrivals);
  EXPECT_EQ(a.drain_migrations, b.drain_migrations);
  EXPECT_EQ(a.final_host_count, b.final_host_count);
  EXPECT_EQ(a.page_cache_hits, b.page_cache_hits);
  EXPECT_EQ(a.page_cache_misses, b.page_cache_misses);
  EXPECT_EQ(a.nvme_bytes_read, b.nvme_bytes_read);
  EXPECT_EQ(a.ksm.advised_pages, b.ksm.advised_pages);
  EXPECT_EQ(a.ksm.backing_pages, b.ksm.backing_pages);
  EXPECT_EQ(a.ksm.shared_pages, b.ksm.shared_pages);
  EXPECT_EQ(a.ksm.density_gain, b.ksm.density_gain);
  EXPECT_EQ(a.hap.distinct_functions, b.hap.distinct_functions);
  EXPECT_EQ(a.hap.total_invocations, b.hap.total_invocations);
  EXPECT_EQ(a.hap.extended_hap, b.hap.extended_hap);
  EXPECT_EQ(a.crash_victims, b.crash_victims);
  EXPECT_EQ(a.crash_readmitted, b.crash_readmitted);
  EXPECT_EQ(a.crash_lost, b.crash_lost);
  EXPECT_EQ(a.nic_stalls, b.nic_stalls);
  ASSERT_EQ(a.replace_ms.size(), b.replace_ms.size());
  if (!a.replace_ms.empty()) {
    EXPECT_EQ(a.replace_ms.percentile(50), b.replace_ms.percentile(50));
    EXPECT_EQ(a.replace_ms.percentile(99), b.replace_ms.percentile(99));
  }

  ASSERT_EQ(a.recovery.size(), b.recovery.size());
  for (std::size_t i = 0; i < a.recovery.size(); ++i) {
    const auto& ra = a.recovery[i];
    const auto& rb = b.recovery[i];
    EXPECT_EQ(ra.fault, rb.fault) << "fault " << i;
    EXPECT_EQ(ra.kind, rb.kind) << "fault " << i;
    EXPECT_EQ(ra.rack, rb.rack) << "fault " << i;
    EXPECT_EQ(ra.time, rb.time) << "fault " << i;
    EXPECT_EQ(ra.hosts, rb.hosts) << "fault " << i;
    EXPECT_EQ(ra.victims, rb.victims) << "fault " << i;
    EXPECT_EQ(ra.readmitted, rb.readmitted) << "fault " << i;
    EXPECT_EQ(ra.lost, rb.lost) << "fault " << i;
    ASSERT_EQ(ra.replace_ms.size(), rb.replace_ms.size()) << "fault " << i;
    if (!ra.replace_ms.empty()) {
      EXPECT_EQ(ra.replace_ms.percentile(99), rb.replace_ms.percentile(99))
          << "fault " << i;
    }
  }

  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    const auto& ta = a.tenants[i];
    const auto& tb = b.tenants[i];
    EXPECT_EQ(ta.id, tb.id) << "tenant " << i;
    EXPECT_EQ(ta.platform_id, tb.platform_id) << "tenant " << i;
    EXPECT_EQ(ta.arrival, tb.arrival) << "tenant " << i;
    EXPECT_EQ(ta.boot_latency, tb.boot_latency) << "tenant " << i;
    EXPECT_EQ(ta.completion, tb.completion) << "tenant " << i;
    EXPECT_EQ(ta.phases_run, tb.phases_run) << "tenant " << i;
    EXPECT_EQ(ta.rounds_completed, tb.rounds_completed) << "tenant " << i;
    EXPECT_EQ(ta.admitted, tb.admitted) << "tenant " << i;
    EXPECT_EQ(ta.completed, tb.completed) << "tenant " << i;
  }

  ASSERT_EQ(a.hosts.size(), b.hosts.size());
  for (std::size_t i = 0; i < a.hosts.size(); ++i) {
    const auto& ha = a.hosts[i];
    const auto& hb = b.hosts[i];
    EXPECT_EQ(ha.admitted, hb.admitted) << "host " << i;
    EXPECT_EQ(ha.rejected, hb.rejected) << "host " << i;
    EXPECT_EQ(ha.spill_in, hb.spill_in) << "host " << i;
    EXPECT_EQ(ha.spill_out, hb.spill_out) << "host " << i;
    EXPECT_EQ(ha.drained, hb.drained) << "host " << i;
    EXPECT_EQ(ha.crashed, hb.crashed) << "host " << i;
    EXPECT_EQ(ha.nic_stalls, hb.nic_stalls) << "host " << i;
    EXPECT_EQ(ha.peak_active, hb.peak_active) << "host " << i;
    EXPECT_EQ(ha.peak_resident_bytes, hb.peak_resident_bytes) << "host " << i;
    EXPECT_EQ(ha.ksm.backing_pages, hb.ksm.backing_pages) << "host " << i;
    EXPECT_EQ(ha.ksm.shared_pages, hb.ksm.shared_pages) << "host " << i;
    EXPECT_EQ(ha.page_cache_hits, hb.page_cache_hits) << "host " << i;
    EXPECT_EQ(ha.page_cache_misses, hb.page_cache_misses) << "host " << i;
    EXPECT_EQ(ha.nvme_bytes_read, hb.nvme_bytes_read) << "host " << i;
  }

  ASSERT_EQ(a.autoscale_timeline.size(), b.autoscale_timeline.size());
  for (std::size_t i = 0; i < a.autoscale_timeline.size(); ++i) {
    EXPECT_EQ(a.autoscale_timeline[i].time, b.autoscale_timeline[i].time);
    EXPECT_EQ(a.autoscale_timeline[i].action, b.autoscale_timeline[i].action);
    EXPECT_EQ(a.autoscale_timeline[i].host, b.autoscale_timeline[i].host);
    EXPECT_EQ(a.autoscale_timeline[i].live_hosts,
              b.autoscale_timeline[i].live_hosts);
    EXPECT_EQ(a.autoscale_timeline[i].resident_fraction,
              b.autoscale_timeline[i].resident_fraction);
  }
}

/// Run `base` at threads = 1 and at each count in `threads`, expecting the
/// parallel reports to match the sequential one exactly.
void expect_parallel_identical(Scenario base, const std::string& label) {
  base.threads = 1;
  const FleetReport sequential = run_cluster(base);
  for (const int threads : {2, 3, 8}) {
    Scenario s = base;
    s.threads = threads;
    const FleetReport parallel = run_cluster(s);
    expect_identical(sequential, parallel,
                     label + " @ threads=" + std::to_string(threads));
  }
}

// --- Differentials ---------------------------------------------------------

TEST(FleetParallelTest, StormMatchesSequentialAcrossPolicies) {
  for (const PlacementKind policy :
       {PlacementKind::kRoundRobin, PlacementKind::kLeastLoaded,
        PlacementKind::kKsmAffinity}) {
    Scenario s = Scenario::cluster_storm(1200, 8, policy);
    expect_parallel_identical(
        s, "storm/" + fleet::placement_kind_name(policy));
  }
}

TEST(FleetParallelTest, ChurnMixMatchesSequential) {
  Scenario s = Scenario::churn_mix(160, 3);
  s.cluster.host_count = 5;
  s.placement = PlacementKind::kLeastLoaded;
  expect_parallel_identical(s, "churn");
}

TEST(FleetParallelTest, AutoscaleStormMatchesSequential) {
  Scenario s = Scenario::autoscale_storm(900, 2, 6);
  expect_parallel_identical(s, "autoscale");
}

TEST(FleetParallelTest, DrainAndAddMidRunMatchSequential) {
  Scenario s = Scenario::cluster_storm(800, 4, PlacementKind::kLeastLoaded);
  HostEvent add;
  add.time = sim::millis(30);
  add.kind = HostEvent::Kind::kAdd;
  HostEvent drain;
  drain.time = sim::millis(60);
  drain.kind = HostEvent::Kind::kDrain;
  drain.host = 1;
  s.host_events = {add, drain};
  expect_parallel_identical(s, "host-events");
}

TEST(FleetParallelTest, RandomizedScenariosMatchSequential) {
  // Randomized-by-seed sweep across arrival patterns, mixes and
  // compositions; every thread count in 2..8 must agree with the sequential
  // run, which also audits the incremental fleet counters. Between them the
  // composition variants make window workers set every field of the
  // engine's per-event effect record: program ops (class, op count) with
  // retries and give-ups, crash recovery on a victim's re-boot, disk and
  // pair degrade attribution, and churn re-arrivals.
  std::vector<Scenario> variants;
  int variant = 0;
  for (const std::uint64_t seed :
       {0xA11CE5EEDull, 0xB0075EEDull, 0xC105E5EEDull}) {
    Scenario s = (variant % 2 == 0)
                     ? Scenario::cluster_storm(600, 6, PlacementKind::kKsmAffinity)
                     : Scenario::steady_state_mix(300);
    s.seed = seed;
    s.cluster.host_count = 6;
    s.placement = PlacementKind::kLeastPressure;
    if (variant == 2) {
      s.churn_rounds = 1;
      s.churn_gap = sim::millis(40);
    }
    variants.push_back(s);
    ++variant;
  }
  // Program tenants with a tight per-op budget and retries, under a seeded
  // random schedule of crashes, disk degrades and partial partitions.
  Scenario faulted = Scenario::program_storm(200, 4);
  faulted.seed = 0xD15C5EEDull;
  faulted.op_slo_ms = sim::millis(2);
  faulted.op_max_retries = 2;
  faulted.op_backoff_base_ms = sim::millis(1);
  faulted.faults.random_crashes = 1;
  faulted.faults.random_disk_degrades = 2;
  faulted.faults.random_partial_partitions = 2;
  faulted.faults.random_horizon = sim::millis(250);
  faulted.faults.random_degrade_duration = sim::millis(150);
  variants.push_back(faulted);
  // The same retrying program mix with churn (churn_gap > 0 keeps the
  // parallel loop engaged).
  Scenario churned = Scenario::program_storm(120, 4);
  churned.seed = 0xE7C4A5EEDull;
  churned.op_slo_ms = sim::millis(2);
  churned.op_max_retries = 1;
  churned.op_backoff_base_ms = sim::millis(1);
  churned.churn_rounds = 1;
  churned.churn_gap = sim::millis(30);
  variants.push_back(churned);

  // Field coverage summed over the composed variants.
  int retries = 0;
  int give_ups = 0;
  int readmitted = 0;
  int rearrivals = 0;
  bool programs = false;
  bool disk_disturbed = false;
  bool pair_disturbed = false;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    Scenario s = variants[v];
    s.threads = 1;
    Cluster cluster(s.cluster);
    const auto policy = fleet::make_placement(s.placement);
    std::vector<core::HostSystem*> hosts;
    for (int i = 0; i < cluster.host_count(); ++i) {
      hosts.push_back(&cluster.host(i));
    }
    FleetEngine engine(hosts, policy.get(), &cluster);
    engine.set_peak_audit(true);
    const FleetReport sequential = engine.run(s);
    EXPECT_TRUE(engine.peak_audit_ok()) << "variant " << v;
    if (v >= 3) {
      retries += sequential.op_retries;
      give_ups += sequential.op_give_ups;
      readmitted += sequential.crash_readmitted;
      rearrivals += sequential.churn_rearrivals;
      programs |= !sequential.by_program.empty();
      for (const auto& dv : sequential.degraded) {
        disk_disturbed |= dv.kind == "disk-degrade" && !dv.added_ms.empty();
        pair_disturbed |=
            dv.kind == "partial-partition" && !dv.added_ms.empty();
      }
    }
    for (int threads = 2; threads <= 8; ++threads) {
      Scenario p = s;
      p.threads = threads;
      const FleetReport parallel = run_cluster(p);
      const std::string label = "randomized variant=" + std::to_string(v) +
                                " seed=" + std::to_string(s.seed) +
                                " threads=" + std::to_string(threads);
      expect_identical(sequential, parallel, label);
      EXPECT_EQ(sequential.op_retries, parallel.op_retries) << label;
      EXPECT_EQ(sequential.op_give_ups, parallel.op_give_ups) << label;
    }
  }
  // The composed variants really exercise every record field.
  EXPECT_GT(retries, 0);
  EXPECT_GT(give_ups, 0);
  EXPECT_GT(readmitted, 0);
  EXPECT_GT(rearrivals, 0);
  EXPECT_TRUE(programs);
  EXPECT_TRUE(disk_disturbed);
  EXPECT_TRUE(pair_disturbed);
}

TEST(FleetParallelTest, ChaosBuiltinsMatchSequential) {
  // Faults are coordinator events: a crash or partition boundary must land
  // at the same (time, seq) point in every worker's replayed stream, so
  // victims, re-admission timing and NIC stalls agree field-for-field.
  expect_parallel_identical(Scenario::crash_recovery(600, 4, 8),
                            "crash-recovery");
  expect_parallel_identical(Scenario::rack_outage(240, 6), "rack-outage");
  expect_parallel_identical(Scenario::partition_storm(240, 4),
                            "partition-storm");
}

TEST(FleetParallelTest, RandomFaultScheduleMatchesSequential) {
  // The random schedule is drawn from the scenario seed before the run
  // starts, so the parallel engine sees the identical fault list.
  Scenario s = Scenario::cluster_storm(400, 4, PlacementKind::kLeastPressure);
  s.arrival = fleet::ArrivalPattern::kRamp;
  s.arrival_window = sim::millis(200);
  s.phases_per_tenant = 2;
  s.mean_phase_duration = sim::millis(120);
  s.faults.random_crashes = 1;
  s.faults.random_partitions = 1;
  s.faults.random_horizon = sim::millis(150);
  expect_parallel_identical(s, "random-faults");
}

// --- The knob is an execution detail ---------------------------------------

TEST(FleetParallelTest, ThreadsOneIsTheDefaultEngine) {
  Scenario base = Scenario::cluster_storm(500, 4, PlacementKind::kRoundRobin);
  const FleetReport def = run_cluster(base);
  Scenario one = base;
  one.threads = 1;
  expect_identical(def, run_cluster(one), "threads=1 vs default");
}

TEST(FleetParallelTest, SingleHostRunsIgnoreThreads) {
  // One fixed host has nothing to fan out: threads > 1 must take the
  // sequential path and reproduce the single-host report (the same flow
  // the pinned goldens cover) exactly.
  Scenario s = Scenario::coldstart_storm(96);
  const FleetReport sequential = run_cluster(s);
  s.threads = 8;
  expect_identical(sequential, run_cluster(s), "single-host threads=8");
}

TEST(FleetParallelTest, ReportTextIsThreadCountInvariant) {
  // The knob must never leak into the rendered report: the text at any
  // thread count is the byte-identical text the sequential engine prints.
  Scenario s = Scenario::cluster_storm(300, 4, PlacementKind::kRoundRobin);
  s.threads = 1;
  const std::string sequential = run_cluster(s).to_text();
  for (const int threads : {2, 8}) {
    s.threads = threads;
    EXPECT_EQ(run_cluster(s).to_text(), sequential) << "threads=" << threads;
  }
}

// --- Incremental fleet counters (note_peaks) -------------------------------

TEST(FleetParallelTest, IncrementalFleetCountersMatchSummedForm) {
  // set_peak_audit re-derives the fleet resident/KSM sums from every shard
  // at each peak check and latches a failure on any drift from the O(1)
  // incremental counters. Exercise admissions, rejections, teardowns,
  // churn and drains.
  Scenario s = Scenario::cluster_storm(700, 4, PlacementKind::kLeastLoaded);
  s.churn_rounds = 1;
  HostEvent drain;
  drain.time = sim::millis(50);
  drain.kind = HostEvent::Kind::kDrain;
  s.host_events = {drain};
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
    EXPECT_GT(r.admitted, 0);
  }
}

}  // namespace
