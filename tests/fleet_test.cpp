// Tests for the fleet scenario engine: event ordering, scenario policies,
// contention and density behavior, and the byte-identical-report guarantee.
#include <gtest/gtest.h>

#include <set>

#include "core/host_system.h"
#include "fleet/engine.h"
#include "fleet/event_queue.h"
#include "fleet/report.h"
#include "fleet/scenario.h"

namespace {

using fleet::ArrivalPattern;
using fleet::EventKind;
using fleet::EventQueue;
using fleet::FleetEngine;
using fleet::FleetReport;
using fleet::Scenario;

FleetReport run_fresh(const Scenario& s) {
  core::HostSystem host;
  FleetEngine engine(host);
  return engine.run(s);
}

// --- Event queue ----------------------------------------------------------

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  q.push(sim::millis(30), 1, EventKind::kBootDone);
  q.push(sim::millis(10), 2, EventKind::kArrival);
  q.push(sim::millis(20), 3, EventKind::kPhaseDone);
  EXPECT_EQ(q.pop().tenant, 2u);
  EXPECT_EQ(q.pop().tenant, 3u);
  EXPECT_EQ(q.pop().tenant, 1u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, TiesBreakInPushOrder) {
  EventQueue q;
  for (std::uint64_t t = 0; t < 16; ++t) {
    q.push(sim::millis(5), t, EventKind::kArrival);
  }
  for (std::uint64_t t = 0; t < 16; ++t) {
    const auto e = q.pop();
    EXPECT_EQ(e.tenant, t);
    EXPECT_EQ(e.time, sim::millis(5));
  }
}

// --- Scenario policies ----------------------------------------------------

TEST(ScenarioTest, BuiltinsAreWellFormed) {
  for (const auto& s :
       {Scenario::coldstart_storm(), Scenario::density_sweep(),
        Scenario::steady_state_mix()}) {
    EXPECT_FALSE(s.platform_mix.empty()) << s.name;
    EXPECT_FALSE(s.workload_mix.empty()) << s.name;
    EXPECT_GT(s.tenant_count, 0) << s.name;
    EXPECT_GT(s.phases_per_tenant, 0) << s.name;
  }
}

TEST(ScenarioTest, StormUsesAtLeastThreePlatformTypes) {
  const auto s = Scenario::coldstart_storm(64);
  EXPECT_GE(s.platform_mix.size(), 3u);
  EXPECT_GE(s.tenant_count, 64);
}

TEST(ScenarioTest, EmptyMixIsRejected) {
  Scenario s;
  s.platform_mix.clear();
  core::HostSystem host;
  FleetEngine engine(host);
  EXPECT_THROW(engine.run(s), std::invalid_argument);
}

TEST(ScenarioTest, GuestOfTwoToThe24KsmUnitsIsRejected) {
  // Private KSM runs sit at tenant << 24 in 2 MiB units; a guest that
  // large would reach the next tenant's run. One unit less still runs.
  constexpr std::uint64_t kUnit = 2ull << 20;
  auto s = Scenario::coldstart_storm(4);
  s.guest_ram_bytes = (1ull << 24) * kUnit;
  {
    core::HostSystem host;
    FleetEngine engine(host);
    EXPECT_THROW(engine.run(s), std::invalid_argument);
  }
  s.guest_ram_bytes = ((1ull << 24) - 1) * kUnit + (kUnit - 1);
  core::HostSystem host;
  FleetEngine engine(host);
  EXPECT_NO_THROW(engine.run(s));
}

TEST(ScenarioTest, TenantOfAPlatformOutsideTheMixIsRejected) {
  // No shard builds a platform the mix lacks; a seed naming one is an
  // out-of-range platform lookup, not a null dereference.
  auto s = Scenario::coldstart_storm(4);
  s.population = s.draw_population();
  s.population.front().platform_id = platforms::PlatformId::kLxc;
  for (const auto& share : s.platform_mix) {
    ASSERT_NE(share.id, platforms::PlatformId::kLxc);
  }
  core::HostSystem host;
  FleetEngine engine(host);
  EXPECT_THROW(engine.run(s), std::out_of_range);
}

// --- Engine lifecycle -----------------------------------------------------

TEST(FleetEngineTest, StormRunsEveryTenantToCompletion) {
  const auto s = Scenario::coldstart_storm(64);
  const auto report = run_fresh(s);
  EXPECT_EQ(report.admitted, 64);
  EXPECT_EQ(report.rejected, 0);
  EXPECT_EQ(report.completed, 64);
  EXPECT_EQ(report.tenants.size(), 64u);
  int boot_samples = 0;
  std::set<std::string> platforms_used;
  for (const auto& [name, stats] : report.by_platform) {
    boot_samples += static_cast<int>(stats.boot_ms.size());
    platforms_used.insert(name);
  }
  EXPECT_EQ(boot_samples, 64);
  EXPECT_GE(platforms_used.size(), 3u);
  for (const auto& t : report.tenants) {
    EXPECT_TRUE(t.completed);
    EXPECT_EQ(t.phases_run, s.phases_per_tenant);
    EXPECT_GT(t.boot_latency, 0);
    EXPECT_GE(t.completion, t.arrival + t.boot_latency);
  }
  EXPECT_GT(report.makespan, 0);
  EXPECT_EQ(report.peak_active, 64);  // storm: everyone in flight at once
}

TEST(FleetEngineTest, ReturnedReportSurvivesTheEnginesNextRun) {
  // run() moves its report out. A second run on the same engine must start
  // from a fresh report and write through no stats slot cached in the one
  // it handed back.
  Scenario s = Scenario::program_storm(48, 1);
  core::HostSystem host;
  FleetEngine engine(host);
  const FleetReport first = engine.run(s);
  const std::string text = first.to_text();
  s.seed += 1;
  const FleetReport second = engine.run(s);
  ASSERT_GT(second.admitted, 0);

  int platform_tenants = 0;
  std::size_t boot_samples = 0;
  for (const auto& [name, stats] : first.by_platform) {
    platform_tenants += stats.tenants;
    boot_samples += stats.boot_ms.size();
  }
  EXPECT_EQ(platform_tenants, first.admitted);
  EXPECT_EQ(boot_samples, static_cast<std::size_t>(first.admitted));
  EXPECT_EQ(first.cluster_boot_ms.size(), boot_samples);
  int program_tenants = 0;
  std::uint64_t ops = 0;
  std::size_t op_samples = 0;
  for (const auto& [name, prog] : first.by_program) {
    program_tenants += prog.tenants;
    for (const auto& cls : prog.by_class) {
      ops += cls.ops;
      op_samples += cls.op_ms.size();
    }
  }
  EXPECT_GT(program_tenants, 0);
  EXPECT_LE(program_tenants, first.admitted);
  EXPECT_GE(ops, op_samples);
  EXPECT_GT(op_samples, 0u);
  // The "programs:" line renders the same op total, and nothing moved.
  EXPECT_NE(text.find(std::to_string(program_tenants) + " tenants, " +
                      std::to_string(ops) + " ops"),
            std::string::npos);
  EXPECT_EQ(first.to_text(), text);
}

TEST(FleetEngineTest, FleetHapRollupCoversTheRun) {
  const auto report = run_fresh(Scenario::coldstart_storm(16));
  EXPECT_GT(report.hap.distinct_functions, 0u);
  EXPECT_GT(report.hap.total_invocations, 0u);
  EXPECT_GT(report.hap.extended_hap, 0.0);
  EXPECT_LE(report.hap.extended_hap,
            static_cast<double>(report.hap.distinct_functions));
}

TEST(FleetEngineTest, WarmImageCacheSpeedsLaterBoots) {
  // The first boot per platform image pulls it from NVMe through the host
  // page cache; the storm's later tenants must see hits, not misses.
  const auto report = run_fresh(Scenario::coldstart_storm(64));
  EXPECT_GT(report.page_cache_hits, report.page_cache_misses);
  EXPECT_GT(report.nvme_bytes_read, 0u);
}

TEST(FleetEngineTest, ContentionStretchesTheStorm) {
  // Same tenants arriving in a tight storm vs spread over 10 s: the storm's
  // peak CPU demand is higher and its boots slower or equal.
  auto storm = Scenario::coldstart_storm(64);
  auto spread = storm;
  spread.arrival = ArrivalPattern::kRamp;
  spread.arrival_window = sim::seconds(10);
  const auto storm_report = run_fresh(storm);
  const auto spread_report = run_fresh(spread);
  EXPECT_GT(storm_report.peak_cpu_demand, spread_report.peak_cpu_demand);
  EXPECT_GT(storm_report.peak_active, spread_report.peak_active);
}

// --- Density / KSM --------------------------------------------------------

TEST(FleetEngineTest, DensitySweepFindsTheRamWall) {
  auto sweep = Scenario::density_sweep(256);
  // Shrink the host so the wall is hit quickly in both configurations.
  sweep.host_ram_override_bytes = 32ull << 30;
  sweep.arrival_window = sim::millis(200);  // arrivals beat teardowns
  const auto with_ksm = run_fresh(sweep);
  auto no_ksm = sweep;
  no_ksm.enable_ksm = false;
  const auto without_ksm = run_fresh(no_ksm);

  EXPECT_GE(with_ksm.first_oom_tenant, 0);
  EXPECT_GE(without_ksm.first_oom_tenant, 0);
  // KSM stretches density: strictly more tenants fit before the wall.
  EXPECT_GT(with_ksm.admitted, without_ksm.admitted);
  EXPECT_GT(with_ksm.ksm.density_gain, 1.0);
  EXPECT_GT(with_ksm.ksm.shared_fraction, 0.0);
  EXPECT_GT(with_ksm.rejected, 0);
}

TEST(FleetEngineTest, PeakResidentStaysUnderTheCap) {
  auto sweep = Scenario::density_sweep(128);
  sweep.host_ram_override_bytes = 24ull << 30;
  sweep.arrival_window = sim::millis(100);
  const auto report = run_fresh(sweep);
  EXPECT_LE(report.peak_resident_bytes, 24ull << 30);
  EXPECT_GT(report.peak_resident_bytes, 0u);
}

TEST(FleetEngineTest, MixedFleetRespectsTheCapToo) {
  // Regression: namespace-backed admissions must count the KSM backing
  // pages hypervisor tenants already put on the host, not just the
  // non-KSM resident set.
  auto mix = Scenario::steady_state_mix(64);
  mix.arrival = ArrivalPattern::kStorm;  // arrivals beat teardowns
  mix.arrival_window = sim::millis(50);
  mix.host_ram_override_bytes = 8ull << 30;
  const auto report = run_fresh(mix);
  EXPECT_LE(report.peak_resident_bytes, 8ull << 30);
  EXPECT_GT(report.rejected, 0);  // the small cap must actually bind
}

TEST(FleetEngineTest, HypervisorBackedClassification) {
  using platforms::PlatformId;
  EXPECT_TRUE(fleet::is_hypervisor_backed(PlatformId::kQemuKvm));
  EXPECT_TRUE(fleet::is_hypervisor_backed(PlatformId::kFirecracker));
  EXPECT_TRUE(fleet::is_hypervisor_backed(PlatformId::kOsvFirecracker));
  EXPECT_FALSE(fleet::is_hypervisor_backed(PlatformId::kDocker));
  EXPECT_FALSE(fleet::is_hypervisor_backed(PlatformId::kGvisor));
  EXPECT_FALSE(fleet::is_hypervisor_backed(PlatformId::kNative));
}

// --- Determinism ----------------------------------------------------------

TEST(FleetDeterminismTest, SameSeedSameScenarioByteIdenticalReport) {
  for (const auto& s :
       {Scenario::coldstart_storm(32), Scenario::steady_state_mix(24)}) {
    const auto a = run_fresh(s);
    const auto b = run_fresh(s);
    EXPECT_EQ(a.to_text(), b.to_text()) << s.name;
  }
}

TEST(FleetDeterminismTest, DifferentSeedDifferentReport) {
  auto s = Scenario::coldstart_storm(32);
  const auto a = run_fresh(s);
  s.seed ^= 0xDEAD'BEEFull;
  const auto b = run_fresh(s);
  EXPECT_NE(a.to_text(), b.to_text());
}

TEST(FleetDeterminismTest, ReportExposesBootCdfs) {
  const auto report = run_fresh(Scenario::coldstart_storm(32));
  const auto cdfs = report.boot_cdfs();
  EXPECT_GE(cdfs.size(), 3u);
  for (const auto& series : cdfs) {
    EXPECT_FALSE(series.samples_ms.empty());
  }
}

// --- Density-latch arrival short-circuit ----------------------------------

/// Golden for a density sweep whose stop_at_first_oom latch trips mid-run,
/// captured from the pre-PR-5 engine (commit d1d449a), which still paid one
/// queue event per post-latch arrival. The lazily-seeded engine must
/// produce byte-identical report text (admitted/rejected counts, makespan
/// ending at the last arrival, every table row) while the bulk-rejected
/// tail no longer costs per-tenant events.
constexpr const char* kLatchedDensitySweep =
    R"GOLD(scenario: density-sweep (seed 17433000876150095873)
tenants: 197 admitted, 203 rejected, 197 completed; peak active 197
makespan: 3614.06 ms; peak CPU demand 3.08x host threads; peak resident 255.6 GiB
density wall: tenant 197 was the first to not fit in host RAM
ksm: 201728 pages advised -> 119080 backing (gain 1.69x, 41.2% cross-tenant shared)
host page cache: 6389760 hits, 65536 misses; nvme read 256.0 MiB
fleet HAP: 290 distinct host fns, 4385480 invocations, extended HAP 32.71

platform     tenants  boot p50 (ms)  boot p90 (ms)  boot p99 (ms)  phase p50 (ms)
---------------------------------------------------------------------------------
firecracker  89       544.54         970.40         1160.96        840.38        
qemu-kvm     108      409.33         737.33         838.65         781.12        
)GOLD";

Scenario latched_density_sweep() {
  auto sweep = Scenario::density_sweep(400);
  // Arrivals must outpace teardowns or the density wall is never reached.
  sweep.arrival_window = sim::millis(250);
  return sweep;
}

TEST(FleetLatchTest, LatchedSweepReportMatchesEagerEngine) {
  const auto report = run_fresh(latched_density_sweep());
  EXPECT_EQ(report.to_text(), kLatchedDensitySweep);
}

TEST(FleetLatchTest, PostLatchArrivalsStopPayingEventCost) {
  const auto report = run_fresh(latched_density_sweep());
  EXPECT_EQ(report.admitted, 197);
  EXPECT_EQ(report.rejected, 203);
  // The eager engine processed 1188 events here (one per post-latch
  // arrival); the bulk-rejected tail must not scale events with the
  // tenant count. 197 admitted * 5 lifecycle events + the walk-rejected
  // arrivals before the latch tripped.
  EXPECT_EQ(report.events_processed, 986u);
  // Scaling the tenant count only grows the bulk-rejected tail: admitted
  // and events stay flat while rejected absorbs the growth.
  auto bigger = latched_density_sweep();
  bigger.tenant_count = 800;
  const auto big = run_fresh(bigger);
  EXPECT_EQ(big.admitted, 197);
  EXPECT_EQ(big.events_processed, 986u);
  EXPECT_EQ(big.rejected, 603);
}

// --- Boot SLO verdict -----------------------------------------------------

TEST(FleetSloTest, VerdictLineGatedOnBudget) {
  const auto s = Scenario::coldstart_storm(32);
  const auto without = run_fresh(s);
  EXPECT_EQ(without.boot_slo_ms, 0);
  EXPECT_EQ(without.to_text().find("boot SLO"), std::string::npos);

  auto with_budget = s;
  with_budget.boot_slo_ms = sim::millis(400);
  const auto with = run_fresh(with_budget);
  EXPECT_NE(with.to_text().find("boot SLO"), std::string::npos);
  // The verdict line is the only difference: removing it restores the
  // budget-less rendering byte for byte.
  std::string text = with.to_text();
  const auto pos = text.find("boot SLO");
  const auto eol = text.find('\n', pos);
  text.erase(pos, eol - pos + 1);
  EXPECT_EQ(text, without.to_text());
}

TEST(FleetSloTest, FractionCountsBootsWithinBudget) {
  auto s = Scenario::coldstart_storm(32);
  s.boot_slo_ms = sim::millis(400);
  const auto report = run_fresh(s);
  const double fraction = report.boot_slo_fraction();
  EXPECT_GT(fraction, 0.0);
  EXPECT_LT(fraction, 1.0);  // firecracker's boots blow a 400 ms budget
  // Cross-check against the retained samples.
  int within = 0;
  for (const double ms : report.cluster_boot_ms.values()) {
    within += ms <= 400.0 ? 1 : 0;
  }
  EXPECT_DOUBLE_EQ(fraction, static_cast<double>(within) /
                                 static_cast<double>(
                                     report.cluster_boot_ms.size()));
  // A generous budget puts every boot inside it.
  s.boot_slo_ms = sim::seconds(3600);
  EXPECT_DOUBLE_EQ(run_fresh(s).boot_slo_fraction(), 1.0);
}

}  // namespace
