#include "fleet/engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "fleet/demand.h"

namespace fleet {

namespace {

using platforms::PlatformId;
using platforms::platform_slot;
using platforms::WorkloadClass;

using demand::kBootVcpus;
using demand::workload_vcpus;

/// KSM granularity for fleet guest RAM: 2 MiB (THP-sized) units.
constexpr std::uint64_t kFleetPageBytes = 2ull << 20;

/// Fraction of a guest's RAM that stays untouched (zero pages) and merges
/// across every tenant once KSM scans it.
constexpr double kZeroPageFraction = 0.35;

/// Host RSS of the virtualization layer itself (device model, Sentry, ...).
std::uint64_t platform_overhead_bytes(PlatformId id) {
  switch (id) {
    case PlatformId::kQemuKvm:
      return 192ull << 20;
    case PlatformId::kKataContainers:
      return 160ull << 20;
    case PlatformId::kCloudHypervisor:
      return 48ull << 20;
    case PlatformId::kFirecracker:
      return 32ull << 20;
    case PlatformId::kOsvQemu:
      return 96ull << 20;
    case PlatformId::kOsvFirecracker:
      return 24ull << 20;
    case PlatformId::kGvisor:
      return 64ull << 20;
    case PlatformId::kNative:
    case PlatformId::kDocker:
    case PlatformId::kLxc:
      return 8ull << 20;
  }
  return 0;
}

std::uint64_t image_file_id(PlatformId id) {
  return 0xF1EE'0000ull + static_cast<std::uint64_t>(id);
}

/// Page-cache file ids for program ops: one private stream per tenant and
/// one shared file per built-in program (an image or common dataset the
/// whole program population reads). Both ranges sit far above the 32-bit
/// image/IO-phase ids, so they can never collide with them.
constexpr std::uint64_t kProgramFileBase = 0x509A'0000'0000ull;
constexpr std::uint64_t kProgramSharedBase = 0xA119'0000'0000ull;

std::uint64_t program_file_id(std::uint64_t tenant, int program,
                              bool shared) {
  return shared ? kProgramSharedBase + static_cast<std::uint64_t>(program)
                : kProgramFileBase + tenant;
}

/// Guest RAM at or above this many kFleetPageBytes units is rejected up
/// front: private runs sit at `tenant << 24`, and the KSM ledger relies on
/// them never reaching the next tenant's.
constexpr std::uint64_t kMaxGuestUnits = 1ull << 24;

/// Digest runs for one hypervisor tenant's guest RAM at kFleetPageBytes
/// granularity: a merged-everywhere zero-page run, a per-image run that
/// merges across tenants of the same platform, and a tenant-private run.
/// Three PageRuns describe the whole guest — no per-page vector ever
/// materializes. Guest and image sizes are fixed per scenario, so any two
/// runs built in one engine run are identical or disjoint, which is the
/// precondition mem::KsmLedger needs. Admission builds them to advise;
/// teardown rebuilds the same runs to drop them.
std::array<mem::PageRun, 3> guest_page_runs(std::uint64_t tenant,
                                            PlatformId platform,
                                            std::uint64_t guest_ram_bytes,
                                            std::uint64_t image_bytes) {
  const std::uint64_t total = std::max<std::uint64_t>(
      1, guest_ram_bytes / kFleetPageBytes);
  const auto zero_units = static_cast<std::uint64_t>(
      static_cast<double>(total) * kZeroPageFraction);
  const std::uint64_t image_units =
      std::min(total - zero_units, image_bytes / kFleetPageBytes);
  const std::uint64_t private_units = total - zero_units - image_units;
  return {{
      {0x2E80'0000'0000'0000ull, zero_units},  // zero pages: global
      {0xBA5E'0000'0000'0000ull + (static_cast<std::uint64_t>(platform) << 32),
       image_units},
      {0x7E4A'0000'0000'0000ull + (tenant << 24) + zero_units + image_units,
       private_units},
  }};
}

}  // namespace

bool is_hypervisor_backed(PlatformId id) {
  switch (id) {
    case PlatformId::kQemuKvm:
    case PlatformId::kFirecracker:
    case PlatformId::kCloudHypervisor:
    case PlatformId::kKataContainers:
    case PlatformId::kOsvQemu:
    case PlatformId::kOsvFirecracker:
      return true;
    case PlatformId::kNative:
    case PlatformId::kDocker:
    case PlatformId::kLxc:
    case PlatformId::kGvisor:
      return false;
  }
  return false;
}

FleetEngine::FleetEngine(core::HostSystem& host) {
  shards_.emplace_back();
  shards_.back().host = &host;
}

FleetEngine::FleetEngine(const std::vector<core::HostSystem*>& hosts,
                         PlacementPolicy* policy, HostProvisioner* provisioner)
    : policy_(policy), provisioner_(provisioner) {
  if (hosts.empty()) {
    throw std::invalid_argument("FleetEngine: needs at least one host");
  }
  shards_.reserve(hosts.size());
  for (core::HostSystem* h : hosts) {
    if (h == nullptr) {
      throw std::invalid_argument("FleetEngine: null host");
    }
    shards_.emplace_back();
    shards_.back().host = h;
  }
}

std::uint64_t FleetEngine::Shard::resident_bytes() const {
  return non_ksm_resident + ksm.backing_pages() * kFleetPageBytes;
}

platforms::Platform* FleetEngine::Shard::platform(PlatformId id) const {
  platforms::Platform* p = platforms[platform_slot(id)].get();
  if (p == nullptr) {
    throw std::out_of_range("FleetEngine: no " +
                            platforms::platform_id_name(id) +
                            " instance on this host (not in the platform mix)");
  }
  return p;
}

std::optional<sim::Nanos> FleetEngine::Shard::read_through(
    std::uint64_t file, std::uint64_t bytes, sim::Rng& rng) {
  const std::uint64_t misses = host->page_cache().access_range(file, 0, bytes);
  if (misses == 0) {
    return std::nullopt;
  }
  return host->nvme().read(misses * hostk::PageCache::kPageSize, rng);
}

double FleetEngine::Shard::cpu_factor() const {
  const double threads = static_cast<double>(host->spec().cpu_threads);
  return std::max(1.0, cpu_demand / threads);
}

void FleetEngine::note_shard_peaks(Shard& sh) {
  sh.rollup.peak_active = std::max(sh.rollup.peak_active, sh.active);
  const std::uint64_t shard_resident = sh.resident_bytes();
  if (shard_resident >= sh.rollup.peak_resident_bytes) {
    sh.rollup.peak_resident_bytes = shard_resident;
    sh.rollup.ksm.advised_pages = sh.ksm.advised_pages();
    sh.rollup.ksm.backing_pages = sh.ksm.backing_pages();
    sh.rollup.ksm.shared_pages = sh.ksm.shared_pages();
    sh.rollup.ksm.density_gain = sh.ksm.density_gain();
    sh.rollup.ksm.shared_fraction = sh.ksm.shared_fraction();
  }
}

void FleetEngine::note_peaks(Shard& sh) {
  report_.peak_cpu_demand = std::max(
      report_.peak_cpu_demand,
      sh.cpu_demand / static_cast<double>(sh.host->spec().cpu_threads));
  note_shard_peaks(sh);
  note_fleet_peaks();
}

void FleetEngine::note_fleet_peaks() {
  report_.peak_active = std::max(report_.peak_active, active_);
  if (peak_audit_) {
    // Summed reference form the incremental counters replaced; any drift
    // between the two is a bookkeeping bug, latched for the test to see.
    std::uint64_t resident = 0;
    std::uint64_t advised = 0;
    std::uint64_t backing = 0;
    std::uint64_t shared = 0;
    for (const Shard& s : shards_) {
      resident += s.resident_bytes();
      advised += s.ksm.advised_pages();
      backing += s.ksm.backing_pages();
      shared += s.ksm.shared_pages();
    }
    if (resident != fleet_resident_ || advised != fleet_ksm_advised_ ||
        backing != fleet_ksm_backing_ || shared != fleet_ksm_shared_) {
      peak_audit_failed_ = true;
    }
  }
  if (fleet_resident_ >= report_.peak_resident_bytes) {
    report_.peak_resident_bytes = fleet_resident_;
    // Snapshot density at the high-water mark; teardowns later drain the
    // stable trees, so end-of-run numbers would always read empty.
    report_.ksm.advised_pages = fleet_ksm_advised_;
    report_.ksm.backing_pages = fleet_ksm_backing_;
    report_.ksm.shared_pages = fleet_ksm_shared_;
    report_.ksm.density_gain =
        fleet_ksm_backing_ == 0
            ? 1.0
            : static_cast<double>(fleet_ksm_advised_) /
                  static_cast<double>(fleet_ksm_backing_);
    report_.ksm.shared_fraction =
        fleet_ksm_advised_ == 0
            ? 0.0
            : static_cast<double>(fleet_ksm_shared_) /
                  static_cast<double>(fleet_ksm_advised_);
  }
}

FleetEngine::FleetDelta FleetEngine::fleet_before(const Shard& sh) const {
  return {sh.resident_bytes(), sh.ksm.advised_pages(), sh.ksm.backing_pages(),
          sh.ksm.shared_pages()};
}

void FleetEngine::fleet_apply(const Shard& sh, const FleetDelta& before) {
  fleet_resident_ += sh.resident_bytes() - before.resident;
  fleet_ksm_advised_ += sh.ksm.advised_pages() - before.advised;
  fleet_ksm_backing_ += sh.ksm.backing_pages() - before.backing;
  fleet_ksm_shared_ += sh.ksm.shared_pages() - before.shared;
}

bool FleetEngine::admit(Shard& sh, Tenant& t, const Scenario& s) {
  const FleetDelta before = fleet_before(sh);
  const std::uint64_t overhead = platform_overhead_bytes(t.platform_id);
  if (is_hypervisor_backed(t.platform_id) && s.enable_ksm) {
    // Fast-fail before the probe: advising only ever adds backing pages,
    // so a host that cannot even fit the overhead on top of its current
    // resident set cannot pass the probe check either.
    if (sh.resident_bytes() + overhead > sh.ram_cap) {
      return false;
    }
    // Read-only admission trial: probe the exact backing-page delta the
    // guest's digest runs would cause. Only the host that admits mutates
    // its ledger — a refusing candidate's is never touched.
    const auto runs = guest_page_runs(t.id, t.platform_id, s.guest_ram_bytes,
                                      s.image_bytes);
    const mem::KsmLedger::ProbeDelta delta = sh.ksm.probe_runs(runs);
    if (sh.resident_bytes() + delta.backing_delta * kFleetPageBytes +
            overhead > sh.ram_cap) {
      return false;
    }
    sh.ksm.advise_runs(runs);
    sh.ksm.scan();
    t.resident_bytes = overhead;
    t.ksm_registered = true;
  } else {
    // Hypervisor guests without KSM reserve full guest RAM; namespace-
    // backed tenants only pay their process RSS.
    t.resident_bytes = is_hypervisor_backed(t.platform_id)
                           ? overhead + s.guest_ram_bytes
                           : overhead + s.guest_ram_bytes / 4;
    if (sh.resident_bytes() + t.resident_bytes > sh.ram_cap) {
      return false;
    }
  }
  sh.non_ksm_resident += t.resident_bytes;
  fleet_apply(sh, before);
  return true;
}

void FleetEngine::handle_arrival(Tenant& t, const Scenario& s) {
  // A tripped density-stop latch rejects before placement: no host is
  // consulted, no policy state advances, and the rejection counts only in
  // the fleet-level total — not against any host's rollup.
  if (s.stop_at_first_oom && report_.first_oom_tenant >= 0) {
    t.outcome.admitted = false;
    ++report_.rejected;
    note_crash_loss(t);
    return;
  }
  // A crash can kill the whole fleet; with nowhere to place, the arrival
  // is rejected fleet-level (no host consulted, no first-OOM latch — this
  // is a capacity outage, not a density wall).
  if (live_hosts_ == 0) {
    t.outcome.admitted = false;
    ++report_.rejected;
    note_crash_loss(t);
    return;
  }

  // Retry-on-reject: walk the policy's candidates and admit on the first
  // host whose RAM accepts the tenant. Only a full walk with every live
  // host refusing is an OOM — attributed to the *last* host tried — and
  // only then may the density-stop latch trip. Built-in policies pop
  // candidates lazily (one heap pop per host actually tried); a policy
  // that only ranks snapshots is served by the default walk.
  int first_choice = -1;
  int admitted_host = -1;
  int last_tried = -1;
  const auto try_host = [&](int host) {
    Shard& candidate = shards_[static_cast<std::size_t>(host)];
    if (first_choice < 0) {
      first_choice = host;
    }
    last_tried = host;
    t.platform = candidate.platform(t.platform_id);
    if (admit(candidate, t, s)) {
      admitted_host = host;
    }
  };
  if (shards_.size() == 1) {
    try_host(0);
  } else {
    PlacementRequest req;
    req.tenant_id = t.id;
    req.platform_id = t.platform_id;
    req.hypervisor_backed = is_hypervisor_backed(t.platform_id);
    req.guest_ram_bytes = s.guest_ram_bytes;
    policy_->walk_begin(req);
    for (int host = policy_->walk_next(); host >= 0;
         host = policy_->walk_next()) {
      if (host >= static_cast<int>(shards_.size()) ||
          !shards_[static_cast<std::size_t>(host)].live) {
        throw std::out_of_range(
            "PlacementPolicy::walk_next returned an invalid host index");
      }
      try_host(host);
      if (admitted_host >= 0) {
        break;
      }
    }
    if (first_choice < 0) {
      throw std::logic_error("PlacementPolicy::walk_next emitted no hosts");
    }
  }
  if (admitted_host < 0) {
    if (report_.first_oom_tenant < 0) {
      report_.first_oom_tenant = static_cast<std::int64_t>(t.id);
    }
    t.outcome.admitted = false;
    t.resident_bytes = 0;
    ++report_.rejected;
    ++shards_[static_cast<std::size_t>(last_tried)].rollup.rejected;
    note_crash_loss(t);
    return;
  }

  Shard& sh = shards_[static_cast<std::size_t>(admitted_host)];
  t.host = admitted_host;
  if (admitted_host != first_choice) {
    ++report_.spills;
    ++sh.rollup.spill_in;
    ++shards_[static_cast<std::size_t>(first_choice)].rollup.spill_out;
  }
  t.outcome.admitted = true;
  ++report_.admitted;
  ++sh.rollup.admitted;
  ++active_;
  ++sh.active;
  ++sh.tenants_by_platform[platform_slot(t.platform_id)];
  notify_platform_count(sh, t.platform_id);
  sh.cpu_demand += kBootVcpus;
  t.in_flight = Tenant::InFlight::kBoot;
  t.holds_resources = true;
  note_peaks(sh);

  // Boot: the platform's sampled end-to-end sequence plus pulling the boot
  // image through the shard's host page cache, both stretched by CPU
  // contention across that host's fleet share. Runs that can shard defer
  // the physics to a kBootPhys event at the same instant: the contention
  // factor is captured here (placement-visible state), but the sampling
  // and cache/NVMe charges are shard-local, so the parallel loop can run
  // them on the shard's worker instead of the coordinator.
  if (deferred_boot_) {
    t.boot_factor = sh.cpu_factor();
    queue_.push(t.clock.now(), t.id, EventKind::kBootPhys, t.epoch);
    return;
  }
  const sim::Nanos done = boot_physics(sh, t, s, sh.cpu_factor());
  queue_.push(done, t.id, EventKind::kBootDone, t.epoch);
}

sim::Nanos FleetEngine::boot_physics(Shard& sh, Tenant& t, const Scenario& s,
                                     double factor) {
  const sim::Nanos arrival = t.clock.now();
  t.platform->boot_total(t.clock, t.rng);
  const sim::Nanos boot_ns = t.clock.now() - arrival;

  const std::optional<sim::Nanos> pulled =
      sh.read_through(image_file_id(t.platform_id), s.image_bytes, t.rng);
  // A fully cache-resident image still costs 50us.
  const sim::Nanos image_ns = pulled.value_or(sim::micros(50));

  // Floor the boot at the cache-resident image cost. It never binds (the
  // image term alone is >= 50us in both branches), but it turns "boots are
  // never instantaneous" into a provable invariant the parallel loop's
  // harvest horizon leans on: a kBootPhys issued at time T cannot produce a
  // kBootDone before T + kBootFloorNs.
  auto total = std::max<sim::Nanos>(
      kBootFloorNs, static_cast<sim::Nanos>(
                        static_cast<double>(boot_ns + image_ns) * factor));
  // Boots that actually pulled the image run the pull at degraded NVMe
  // speed inside a disk-degrade window, and wait out any partition window
  // on this host; a fully cache-resident boot touches neither the device
  // nor the wire. Stalls only ever add time, so the kBootFloorNs horizon
  // still holds.
  if (pulled) {
    if (sh.rollup.host < static_cast<int>(degrades_.size())) {
      total = degraded_completion(
                  degrades_[static_cast<std::size_t>(sh.rollup.host)],
                  arrival, total) -
              arrival;
    }
    const sim::Nanos stalled = partition_stall(sh.rollup.host, arrival, total);
    if (stalled != total) {
      ++sh.rollup.nic_stalls;
      total = stalled;
    }
  }
  t.clock.advance_to(arrival + total);
  t.outcome.boot_latency = total;
  return arrival + total;
}

// --- Shard-local events ------------------------------------------------------
//
// Run by both loops: the sequential loop on the live queue, a parallel
// window on a worker thread. A handler touches only its tenant, its shard
// and the shard's host models; everything fleet-global goes into `fx`.

void FleetEngine::handle_local(Tenant& t, const Scenario& s, Effects& fx) {
  Shard& sh = shards_[static_cast<std::size_t>(t.host)];
  switch (fx.kind) {
    case EventKind::kBootPhys:
      fx.schedule(EventKind::kBootDone, boot_physics(sh, t, s, t.boot_factor));
      break;
    case EventKind::kBootDone:
      handle_boot_done(sh, t, s, fx);
      break;
    case EventKind::kPhaseDone:
      handle_phase_done(sh, t, s, fx);
      break;
    case EventKind::kProgramStep:
      handle_program_step(sh, t, s, fx);
      break;
    case EventKind::kTeardown:
      handle_teardown(sh, t, s, fx);
      break;
    default:
      break;  // coordinator kinds never reach a shard-local handler
  }
}

void FleetEngine::handle_boot_done(Shard& sh, Tenant& t, const Scenario& s,
                                   Effects& fx) {
  sh.cpu_demand -= kBootVcpus;
  t.in_flight = Tenant::InFlight::kNone;
  // Distinct tenants, not boots: churn re-arrivals add boot/phase samples
  // but must not inflate the fleet-composition column.
  fx.count_tenant = !t.counted_in_stats;
  t.counted_in_stats = true;
  fx.sample_ms = sim::to_millis(t.outcome.boot_latency);
  if (t.crash_fault >= 0) {
    // Recovery resolved: the victim is serving again on a survivor.
    // Time-to-re-place runs from the crash instant to this boot finishing.
    // Re-admission is counted here, not at the admitting arrival, so a
    // victim drain-migrated between admission and boot counts once.
    fx.recovery_fault = t.crash_fault;
    fx.recovery_ms = sim::to_millis(
        t.clock.now() - faults_[static_cast<std::size_t>(t.crash_fault)].time);
    t.crash_fault = -1;
  }

  if (t.program >= 0) {
    // Program tenants interpret their syscall program instead of the drawn
    // statistical phases. The cursor is reset at *every* boot completion:
    // a crash or drain loses the in-flight cursor, and the re-admitted
    // tenant starts its program over from the top.
    t.prog_op = 0;
    t.prog_loops_left = std::max(1, builtin_program(t.program).loops);
    start_program_op(sh, t, s, fx);
  } else if (t.phases.empty()) {
    fx.schedule(EventKind::kTeardown, t.clock.now());
  } else {
    start_phase(sh, t, t.phases[static_cast<std::size_t>(t.next_phase)], s,
                fx);
  }
}

void FleetEngine::charge_start(Shard& sh, Tenant& t, double vcpus,
                               bool network, Tenant::InFlight what,
                               Effects& fx) {
  sh.cpu_demand += vcpus;
  if (network) {
    ++sh.net_active;
  }
  t.in_flight = what;
  note_shard_peaks(sh);
  fx.start_cpu_ratio =
      sh.cpu_demand / static_cast<double>(sh.host->spec().cpu_threads);
  t.phase_start = t.clock.now();
}

void FleetEngine::start_phase(Shard& sh, Tenant& t, WorkloadClass w,
                              const Scenario& s, Effects& fx) {
  charge_start(sh, t, workload_vcpus(w), w == WorkloadClass::kNetwork,
               Tenant::InFlight::kPhase, fx);
  t.clock.advance(phase_cost(t, w, s));
  fx.schedule(EventKind::kPhaseDone, t.clock.now());
}

void FleetEngine::handle_phase_done(Shard& sh, Tenant& t, const Scenario& s,
                                    Effects& fx) {
  const WorkloadClass w = t.phases[static_cast<std::size_t>(t.next_phase)];
  sh.cpu_demand -= workload_vcpus(w);
  if (w == WorkloadClass::kNetwork) {
    --sh.net_active;
  }
  t.in_flight = Tenant::InFlight::kNone;
  t.platform->record_workload(w, t.rng);  // this host's HAP window
  fx.sample_ms = sim::to_millis(t.clock.now() - t.phase_start);
  ++t.next_phase;
  ++t.outcome.phases_run;

  if (t.next_phase < static_cast<int>(t.phases.size())) {
    start_phase(sh, t, t.phases[static_cast<std::size_t>(t.next_phase)], s,
                fx);
    return;
  }
  schedule_exit(t, fx);
}

void FleetEngine::schedule_exit(Tenant& t, Effects& fx) {
  // Teardown costs one more trace-visible startup-class interaction.
  t.platform->record_workload(WorkloadClass::kStartup, t.rng);
  t.clock.advance(sim::millis(t.rng.uniform(2.0, 8.0)));
  fx.schedule(EventKind::kTeardown, t.clock.now());
}

void FleetEngine::start_program_op(Shard& sh, Tenant& t, const Scenario& s,
                                   Effects& fx) {
  const ProgramOp& op =
      builtin_program(t.program).ops[static_cast<std::size_t>(t.prog_op)];
  const OpClass cls = op_class(op.sc);
  t.prog_vcpus = op_vcpus(cls);
  charge_start(sh, t, t.prog_vcpus, cls == OpClass::kNetwork,
               Tenant::InFlight::kProgram, fx);
  // Service time excludes the think gap: the op-latency sample the report
  // percentiles come from is the modeled syscall (plus any retry timeouts
  // and backoffs), not the idle wait.
  fx.issue = issue_program_op(t, op, s);
  t.prog_service = fx.issue.service;
  t.clock.advance(op.think);
  fx.schedule(EventKind::kProgramStep, t.clock.now());
}

FleetEngine::OpIssue FleetEngine::issue_program_op(Tenant& t,
                                                   const ProgramOp& op,
                                                   const Scenario& s) {
  OpIssue issue;
  const sim::Nanos slo = s.op_slo_ms;
  const int max_retries = op.max_retries > 0 ? op.max_retries
                                             : s.op_max_retries;
  const sim::Nanos backoff_base =
      op.backoff_base_ms > 0 ? op.backoff_base_ms : s.op_backoff_base_ms;
  const bool can_retry = degraded_accounting_ && max_retries > 0 && slo > 0;

  OpImpact first{};
  sim::Nanos cost = program_op_cost(t, op, &first);
  issue.fault = first.fault;
  // Undisturbed first-attempt cost: the baseline the issue's added-latency
  // sample is judged against.
  const sim::Nanos base0 = cost - first.added;
  sim::Nanos elapsed = 0;
  while (can_retry && cost > slo && issue.retries < max_retries) {
    // The attempt blew its budget: abandon it at the deadline, back off
    // exponentially (jitter from the tenant's own stream so replays are
    // exact), and re-issue. The re-issue recomputes the full cost — fresh
    // cache state, fresh contention, and for network ops a fresh peer
    // draw, which is what routes around a partial partition.
    const sim::Nanos backoff =
        (backoff_base << issue.retries) +
        static_cast<sim::Nanos>(t.rng.next_double() *
                                static_cast<double>(backoff_base));
    t.clock.advance(slo + backoff);
    elapsed += slo + backoff;
    ++issue.retries;
    OpImpact again{};
    cost = program_op_cost(t, op, &again);
    if (issue.fault < 0) {
      issue.fault = again.fault;
    }
  }
  t.clock.advance(cost);
  issue.service = elapsed + cost;
  // A give-up is a *final* attempt still past the budget: the op completes
  // late instead of failing, but the SLO is gone. With retries disabled
  // (the no-retry control) every over-budget op is a give-up.
  if (degraded_accounting_ && slo > 0 && cost > slo) {
    issue.give_up = true;
  }
  if (issue.fault >= 0) {
    issue.added_ms = sim::to_millis(issue.service - base0);
  }
  return issue;
}

void FleetEngine::note_op_outcome(std::uint64_t tenant_id,
                                  const OpIssue& issue) {
  if (!degraded_accounting_) {
    return;
  }
  report_.op_retries += issue.retries;
  if (issue.give_up) {
    ++report_.op_give_ups;
  }
  if (issue.fault < 0) {
    return;
  }
  const int slot = degraded_slot_[static_cast<std::size_t>(issue.fault)];
  if (slot < 0) {
    return;
  }
  auto& v = report_.degraded[static_cast<std::size_t>(slot)];
  degrade_affected_[static_cast<std::size_t>(slot)].insert(tenant_id);
  v.retries += issue.retries;
  if (issue.give_up) {
    ++v.give_ups;
  }
  if (issue.added_ms >= 0.0) {
    v.added_ms.add(issue.added_ms);
  }
}

sim::Nanos FleetEngine::program_op_cost(Tenant& t, const ProgramOp& op,
                                        OpImpact* impact) {
  Shard& sh = shards_[static_cast<std::size_t>(t.host)];
  // The kernel charge is the first-class part: every op dispatches through
  // HostKernel::invoke, so programs light up the same ftrace/HAP machinery
  // the statistical phases do — per *syscall*, not per workload class.
  sim::Nanos cost = sh.host->kernel().invoke(op.sc, t.rng, op.repeat);
  const OpClass cls = op_class(op.sc);
  const std::uint64_t payload =
      op.bytes * static_cast<std::uint64_t>(op.repeat);
  // Ops that actually reached the NVMe this issue; only those stretch
  // through a disk-degrade window (a cache-served read never notices a
  // slow device).
  bool touched_disk = false;
  switch (cls) {
    case OpClass::kFile:
    case OpClass::kMemory:
      // File reads and mmap-backed data walk the host page cache; only
      // misses touch the NVMe. File writes are buffered: they dirty the
      // cache for free and pay the device only when an explicit fsync
      // flushes them.
      if (payload > 0 && (cls == OpClass::kMemory || !op_is_write(op.sc))) {
        if (const auto read = sh.read_through(
                program_file_id(t.id, t.program, op.shared_file), payload,
                t.rng)) {
          cost += *read;
          touched_disk = true;
        }
      }
      break;
    case OpClass::kSync:
      cost += sh.host->nvme().write(
          std::max<std::uint64_t>(payload, hostk::PageCache::kPageSize),
          t.rng);
      touched_disk = true;
      break;
    case OpClass::kNetwork:
      if (payload > 0) {
        auto& nic = sh.host->nic();
        cost += nic.transfer_time(payload, t.rng) *
                    std::max(1, sh.net_active) +
                nic.latency(t.rng);
      }
      break;
    case OpClass::kOther:
      break;
  }
  auto total =
      static_cast<sim::Nanos>(static_cast<double>(cost) * sh.cpu_factor());
  if (touched_disk &&
      sh.rollup.host < static_cast<int>(degrades_.size())) {
    // Disk work progresses at 1/multiplier inside a degrade window: the
    // completion stretches by exactly the degraded share of the overlap.
    const sim::Nanos begin = t.clock.now();
    int dfault = -1;
    const sim::Nanos done = degraded_completion(
        degrades_[static_cast<std::size_t>(sh.rollup.host)], begin, total,
        &dfault);
    if (done != begin + total) {
      if (impact) {
        if (impact->fault < 0) {
          impact->fault = dfault;
        }
        impact->added += done - (begin + total);
      }
      total = done - begin;
    }
  }
  if (cls == OpClass::kNetwork && payload > 0) {
    // Same rule as statistical network phases: a partition freezes NIC
    // progress and the op stretches by exactly the window overlap.
    const sim::Nanos stalled =
        partition_stall(sh.rollup.host, t.clock.now(), total);
    if (stalled != total) {
      ++sh.rollup.nic_stalls;
      total = stalled;
    }
    if (!pairs_.empty()) {
      // Partial partitions cut host *pairs*: draw the far end uniformly
      // over the initial topology, self included (self = host-local
      // traffic that never crosses the cut). The op stalls only when the
      // drawn peer sits across an open cut — so a later re-issue's fresh
      // draw can route around it.
      const int n = static_cast<int>(pairs_.size());
      const int peer = std::min(
          n - 1, static_cast<int>(t.rng.next_double() *
                                  static_cast<double>(n)));
      const int host = sh.rollup.host;
      if (host < n && peer != host) {
        const sim::Nanos begin = t.clock.now();
        int pfault = -1;
        const sim::Nanos done = pair_stalled_completion(
            pairs_[static_cast<std::size_t>(host)], peer, begin, total,
            &pfault);
        if (done != begin + total) {
          ++sh.rollup.nic_stalls;
          if (impact) {
            if (impact->fault < 0) {
              impact->fault = pfault;
            }
            impact->added += done - (begin + total);
          }
          total = done - begin;
        }
      }
    }
  }
  return total;
}

void FleetEngine::handle_program_step(Shard& sh, Tenant& t, const Scenario& s,
                                      Effects& fx) {
  const SyscallProgram& prog = builtin_program(t.program);
  const ProgramOp& op = prog.ops[static_cast<std::size_t>(t.prog_op)];
  const OpClass cls = op_class(op.sc);
  sh.cpu_demand -= t.prog_vcpus;
  if (cls == OpClass::kNetwork) {
    --sh.net_active;
  }
  t.in_flight = Tenant::InFlight::kNone;
  fx.prog_class = static_cast<std::uint8_t>(cls);
  fx.prog_ops = op.repeat;
  fx.sample_ms = sim::to_millis(t.prog_service);
  ++t.outcome.phases_run;

  ++t.prog_op;
  if (t.prog_op < static_cast<int>(prog.ops.size())) {
    start_program_op(sh, t, s, fx);
    return;
  }
  t.prog_op = 0;
  if (--t.prog_loops_left > 0) {
    start_program_op(sh, t, s, fx);
    return;
  }
  // Same exit as a statistical tenant's.
  schedule_exit(t, fx);
}

void FleetEngine::release_core(Shard& sh, Tenant& t, const Scenario& s) {
  switch (t.in_flight) {
    case Tenant::InFlight::kBoot:
      sh.cpu_demand -= kBootVcpus;
      break;
    case Tenant::InFlight::kPhase: {
      const WorkloadClass w = t.phases[static_cast<std::size_t>(t.next_phase)];
      sh.cpu_demand -= workload_vcpus(w);
      if (w == WorkloadClass::kNetwork) {
        --sh.net_active;
      }
      break;
    }
    case Tenant::InFlight::kProgram: {
      sh.cpu_demand -= t.prog_vcpus;
      const ProgramOp& op = builtin_program(t.program)
                                .ops[static_cast<std::size_t>(t.prog_op)];
      if (op_class(op.sc) == OpClass::kNetwork) {
        --sh.net_active;
      }
      break;
    }
    case Tenant::InFlight::kNone:
      break;
  }
  t.in_flight = Tenant::InFlight::kNone;
  if (t.ksm_registered) {
    sh.ksm.remove_runs(guest_page_runs(t.id, t.platform_id, s.guest_ram_bytes,
                                       s.image_bytes));
    sh.ksm.scan();
    t.ksm_registered = false;
  }
  sh.non_ksm_resident -= t.resident_bytes;
  t.resident_bytes = 0;
  --sh.active;
  --sh.tenants_by_platform[platform_slot(t.platform_id)];
  t.holds_resources = false;
}

void FleetEngine::release_tenant(Shard& sh, Tenant& t, const Scenario& s) {
  const FleetDelta before = fleet_before(sh);
  release_core(sh, t, s);
  --active_;
  notify_platform_count(sh, t.platform_id);
  fleet_apply(sh, before);
}

void FleetEngine::publish_host(Shard& sh) {
  if (policy_ == nullptr || !sh.live) {
    return;
  }
  HostState state;
  state.index = sh.rollup.host;
  state.ram_cap_bytes = sh.ram_cap;
  state.resident_bytes = sh.resident_bytes();
  state.active_tenants = sh.active;
  state.pressure.cpu_demand = sh.cpu_demand;
  state.pressure.cpu_threads = sh.host->spec().cpu_threads;
  state.pressure.net_active = sh.net_active;
  policy_->host_updated(state);
}

void FleetEngine::notify_platform_count(Shard& sh, platforms::PlatformId id) {
  if (policy_ == nullptr || !sh.live) {
    return;
  }
  policy_->platform_count_changed(sh.rollup.host, id,
                                  sh.tenants_by_platform[platform_slot(id)]);
}

void FleetEngine::handle_teardown(Shard& sh, Tenant& t, const Scenario& s,
                                  Effects& fx) {
  // Shard-local release now; the fleet-global half (active_, fleet
  // counters, placement notification) is applied from the record.
  const FleetDelta before = fleet_before(sh);
  release_core(sh, t, s);
  const FleetDelta after = fleet_before(sh);
  fx.delta = FleetDelta{after.resident - before.resident,
                        after.advised - before.advised,
                        after.backing - before.backing,
                        after.shared - before.shared};
  t.outcome.completed = true;
  t.outcome.completion = t.clock.now();
  ++t.outcome.rounds_completed;

  if (t.rounds_left > 0) {
    // Churn: idle out the gap, then re-enter the fleet. Placement and
    // admission run again, so the tenant may land on a different host or
    // be rejected if the fleet filled up meanwhile. The outcome's
    // per-round fields restart here so a rejected re-arrival cannot keep
    // a stale completed/boot record from the previous round.
    --t.rounds_left;
    t.next_phase = 0;
    t.clock.advance(s.churn_gap);
    t.outcome.arrival = t.clock.now();
    t.outcome.boot_latency = 0;
    t.outcome.completion = 0;
    t.outcome.completed = false;
    fx.schedule(EventKind::kArrival, t.clock.now());
  }
}

void FleetEngine::apply_effects(const Effects& fx, ShardTask* replay) {
  // The sequential loop applies a record right after its handler
  // (replay == nullptr); a parallel window replays its records later, in
  // merged (time, seq) order (replay = the record's shard task). The two
  // differ in exactly three places, marked (1)-(3):
  //  (1) Sequence numbers. Apply-now pushes the follow-up event with
  //      queue_.push; replay issues the same seq with reserve_seqs and
  //      maps it through `born` when the event stays inside the window.
  //  (2) The global half of note_peaks. Apply-now runs note_fleet_peaks
  //      (peak_active, the fleet-resident snapshot, the peak_audit_ check)
  //      at every phase and op start; replay only folds the start's CPU
  //      ratio. Inside a window peak_active cannot rise (only arrivals
  //      raise active_) and fleet residency only shrinks, so the skipped
  //      checks could not have moved the report.
  //  (3) Placement notification. Apply-now calls notify_platform_count and
  //      publish_host per event; a window coalesces them into one push per
  //      touched shard at its end (replay_window).
  Tenant& t = tenants_[fx.tenant];
  Shard& sh = shards_[static_cast<std::size_t>(t.host)];
  switch (fx.kind) {
    case EventKind::kBootDone: {
      // One string-keyed lookup per *platform id* per run, here; boots
      // reuse the id-indexed slot and phases the per-tenant pointer.
      // Creating the entry lazily (not at tenant setup) keeps platforms
      // whose tenants never booted out of the report table.
      PlatformFleetStats*& slot =
          stats_by_id_[platform_slot(t.platform_id)];
      if (slot == nullptr) {
        slot = &report_.by_platform[t.platform->name()];
        slot->platform = t.platform->name();
      }
      t.stats = slot;
      if (fx.count_tenant) {
        ++slot->tenants;
      }
      slot->boot_ms.add(fx.sample_ms);
      report_.cluster_boot_ms.add(fx.sample_ms);
      if (t.program >= 0) {
        // A tenant's kBootDone applies before its program steps (same
        // shard stream, earlier time/seq), so pstats is resolved in time.
        ProgramFleetStats*& pslot =
            pstats_by_id_[static_cast<std::size_t>(t.program)];
        if (pslot == nullptr) {
          pslot = &report_.by_program[builtin_program(t.program).name];
          pslot->program = builtin_program(t.program).name;
        }
        t.pstats = pslot;
        if (fx.count_tenant) {
          ++pslot->tenants;
        }
      }
      if (fx.recovery_fault >= 0) {
        auto& rv = report_.recovery[static_cast<std::size_t>(
            recovery_slot_[static_cast<std::size_t>(fx.recovery_fault)])];
        rv.replace_ms.add(fx.recovery_ms);
        ++rv.readmitted;
        ++report_.crash_readmitted;
        report_.replace_ms.add(fx.recovery_ms);
      }
      break;
    }
    case EventKind::kPhaseDone:
      t.stats->phase_ms.add(fx.sample_ms);
      break;
    case EventKind::kProgramStep: {
      auto& pcls = t.pstats->by_class[fx.prog_class];
      pcls.ops += fx.prog_ops;
      pcls.op_ms.add(fx.sample_ms);
      break;
    }
    case EventKind::kTeardown:
      fleet_resident_ += fx.delta.resident;
      fleet_ksm_advised_ += fx.delta.advised;
      fleet_ksm_backing_ += fx.delta.backing;
      fleet_ksm_shared_ += fx.delta.shared;
      --active_;
      ++report_.completed;
      if (fx.gen) {
        ++report_.churn_rearrivals;  // a teardown only schedules re-arrivals
      }
      if (replay == nullptr) {  // (3)
        notify_platform_count(sh, t.platform_id);
      } else {
        replay->counts_touched.push_back(t.platform_id);
      }
      break;
    default:
      break;  // kBootPhys: only its follow-up event is global
  }
  // The op this event started, if any; a default issue is a no-op.
  note_op_outcome(fx.tenant, fx.issue);
  if (fx.start_cpu_ratio >= 0.0) {
    report_.peak_cpu_demand =
        std::max(report_.peak_cpu_demand, fx.start_cpu_ratio);
    if (replay == nullptr) {  // (2)
      note_fleet_peaks();
    }
  }
  if (fx.gen) {  // (1)
    if (replay == nullptr) {
      queue_.push(fx.gen_time, fx.tenant, fx.gen_kind, t.epoch);
    } else {
      const std::uint64_t gseq = queue_.reserve_seqs(1);
      if (birth_in_window(fx)) {
        replay->born.push_back(gseq);  // stream order = provisional numbering
      } else {
        queue_.push_at_seq(fx.gen_time, gseq, fx.tenant, fx.gen_kind,
                           t.epoch);
      }
    }
  }
  if (replay == nullptr) {  // (3)
    publish_host(sh);
  } else {
    replay->dirty = true;
  }
}

// --- Mid-run topology changes ----------------------------------------------

int FleetEngine::live_host_count() const { return live_hosts_; }

double FleetEngine::resident_fraction() const {
  std::uint64_t cap = 0;
  std::uint64_t resident = 0;
  for (const Shard& sh : shards_) {
    if (!sh.live) {
      continue;
    }
    cap += sh.ram_cap;
    resident += sh.resident_bytes();
  }
  return cap == 0 ? 0.0
                  : static_cast<double>(resident) / static_cast<double>(cap);
}

int FleetEngine::pick_drain_host() const {
  int best = -1;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& sh = shards_[i];
    if (!sh.live) {
      continue;
    }
    // Fewest active tenants = cheapest migration; ties drain the highest
    // index (the newest host), mirroring scale-out order.
    if (best < 0 || sh.active <= shards_[static_cast<std::size_t>(best)].active) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

void FleetEngine::record_autoscale(sim::Nanos time, const std::string& action,
                                   int host, double fraction) {
  FleetReport::AutoscaleAction a;
  a.time = time;
  a.action = action;
  a.host = host;
  a.live_hosts = live_host_count();
  a.resident_fraction = fraction;
  report_.autoscale_timeline.push_back(std::move(a));
}

int FleetEngine::add_shard(const Scenario& s) {
  core::HostSystem* host = provisioner_->provision_host();
  const int index = static_cast<int>(shards_.size());
  shards_.emplace_back();
  Shard& sh = shards_.back();
  sh.host = host;
  init_shard(sh, index, s);
  // Mid-run hosts start observing from their birth instant, exactly like
  // run() does for the initial set before the event loop.
  sh.host->kernel().ftrace().start();
  sh.cache_hits0 = sh.host->page_cache().hits();
  sh.cache_misses0 = sh.host->page_cache().misses();
  sh.nvme_read0 = sh.host->nvme().bytes_read();
  ++live_hosts_;
  publish_host(sh);
  return index;
}

void FleetEngine::drain_shard(int index, const Scenario& s, sim::Nanos now) {
  Shard& sh = shards_[static_cast<std::size_t>(index)];
  if (!sh.live) {
    // Already drained or crashed — possibly earlier in this very timestamp
    // batch (a timed kDrain racing a same-instant crash). Draining a dead
    // host twice would re-release its tenants and corrupt every counter.
    return;
  }
  sh.live = false;
  --live_hosts_;
  sh.rollup.drained = true;
  if (policy_ != nullptr) {
    policy_->host_removed(index);
  }
  // Re-place every tenant this host still held, as churn-style
  // re-arrivals: resources released here and now, a fresh arrival event
  // queued at the drain instant, placement + admission deciding again.
  // Bumping the epoch discards the tenant's already-queued events.
  for (Tenant& t : tenants_) {
    if (t.host != index || !t.holds_resources) {
      continue;
    }
    release_tenant(sh, t, s);
    ++t.epoch;
    t.next_phase = 0;
    t.clock = sim::Clock(now);
    t.outcome.arrival = now;
    t.outcome.boot_latency = 0;
    t.outcome.completion = 0;
    t.outcome.completed = false;
    ++report_.drain_migrations;
    queue_.push(now, t.id, EventKind::kArrival, t.epoch);
  }
  if (provisioner_ != nullptr) {
    provisioner_->retire_host(index);
  }
}

void FleetEngine::handle_host_event(const Event& e, const Scenario& s) {
  const HostEvent& he = s.host_events[static_cast<std::size_t>(e.tenant)];
  if (he.kind == HostEvent::Kind::kAdd) {
    if (provisioner_ == nullptr) {
      return;  // a bare engine cannot grow; the hook is a no-op
    }
    const double fraction = resident_fraction();
    const int index = add_shard(s);
    record_autoscale(e.time, "add", index, fraction);
    return;
  }
  int target = he.host;
  if (target < 0) {
    target = pick_drain_host();
  }
  if (target < 0 || target >= static_cast<int>(shards_.size()) ||
      !shards_[static_cast<std::size_t>(target)].live ||
      live_host_count() <= 1) {
    return;  // never drain the last live host or a dead index
  }
  const double fraction = resident_fraction();
  drain_shard(target, s, e.time);
  record_autoscale(e.time, "drain", target, fraction);
}

void FleetEngine::handle_autoscale_eval(sim::Nanos now, const Scenario& s) {
  const AutoscaleSpec& a = s.autoscale;
  const double fraction = resident_fraction();
  const bool cooled = !has_scaled_ || now - last_scale_ >= a.cooldown_ms;
  if (cooled) {
    const int live = live_host_count();
    if (fraction > a.scale_out_watermark && live < a.max_hosts &&
        provisioner_ != nullptr) {
      const int index = add_shard(s);
      record_autoscale(now, "scale-out", index, fraction);
      has_scaled_ = true;
      last_scale_ = now;
    } else if (fraction < a.scale_in_watermark && live > a.min_hosts) {
      const int target = pick_drain_host();
      if (target >= 0) {
        drain_shard(target, s, now);
        record_autoscale(now, "scale-in", target, fraction);
        has_scaled_ = true;
        last_scale_ = now;
      }
    }
  }
  // Keep evaluating while any tenant activity remains; when this eval was
  // the only queued event, the loop (and the run) is over.
  if (!queue_.empty()) {
    queue_.push(now + a.eval_interval, 0, EventKind::kAutoscaleEval);
  }
}

// --- Fault injection ---------------------------------------------------------

void FleetEngine::handle_fault(const Event& e, const Scenario& s) {
  const ResolvedFault& f = faults_[e.tenant];
  if (e.kind == EventKind::kDegradeStart) {
    // KSM unmerge storm (kMemPressure is the only kind that queues these):
    // every merged page on the target hosts re-expands to its backing copy
    // at this instant, and the stable tree re-merges only at the window-end
    // scan — or early, by a hypervisor admission's scan pass. The resident
    // spike is real RAM pressure: it can trip admission and the autoscale
    // watermark, which is exactly the degraded-mode story.
    const int slot = degraded_slot_[static_cast<std::size_t>(f.id)];
    auto& dv = report_.degraded[static_cast<std::size_t>(slot)];
    for (const int h : f.hosts) {
      Shard& sh = shards_[static_cast<std::size_t>(h)];
      if (!sh.live) {
        continue;
      }
      const FleetDelta before = fleet_before(sh);
      const std::uint64_t pages = sh.ksm.unmerge();
      fleet_apply(sh, before);
      dv.resident_spike_bytes += pages * kFleetPageBytes;
      note_peaks(sh);
      publish_host(sh);
    }
    for (const Tenant& t : tenants_) {
      if (!t.holds_resources || !t.ksm_registered) {
        continue;
      }
      for (const int h : f.hosts) {
        if (t.host == h) {
          degrade_affected_[static_cast<std::size_t>(slot)].insert(t.id);
          break;
        }
      }
    }
    return;
  }
  if (e.kind == EventKind::kDegradeEnd) {
    // Window closes: one scan pass re-merges whatever survived on the
    // stable tree. Merging only shrinks resident, but the barrier (and the
    // republish) keeps placement pressure honest at every thread count.
    for (const int h : f.hosts) {
      Shard& sh = shards_[static_cast<std::size_t>(h)];
      if (!sh.live) {
        continue;
      }
      const FleetDelta before = fleet_before(sh);
      sh.ksm.scan();
      fleet_apply(sh, before);
      publish_host(sh);
    }
    return;
  }
  if (e.kind == EventKind::kPartitionEnd) {
    // Heal instant. The stall itself is precomputed from the immutable
    // window list; this event exists as a parallel-loop barrier (NIC
    // behavior changes across it) and to keep the queue's timeline honest.
    return;
  }
  // Every crash-family fault pushes exactly one verdict at its start
  // event; recovery_slot_ maps the fault id to that verdict for all later
  // bookkeeping (degrade-family faults own DegradeVerdicts instead, so
  // recovery is not indexable by fault id).
  FleetReport::RecoveryVerdict v;
  v.fault = f.id;
  v.rack = f.rack;
  v.time = f.time;
  if (e.kind == EventKind::kPartitionStart) {
    v.kind = "partition";
    v.duration = f.duration;
    for (const int h : f.hosts) {
      if (shards_[static_cast<std::size_t>(h)].live) {
        v.hosts.push_back(h);
      }
    }
    recovery_slot_[static_cast<std::size_t>(f.id)] =
        static_cast<int>(report_.recovery.size());
    report_.recovery.push_back(std::move(v));
    return;
  }
  // A cell outage resolves to every initial host (chaos.h) and otherwise
  // follows crash semantics; the verdict keeps its own kind so a federation
  // (and the report reader) can tell total loss from a single-host crash.
  v.kind = f.kind == Fault::Kind::kCellOutage ? "cell-outage" : "crash";
  // Per-fault restart-jitter stream: victims draw from it in tenant-id
  // order, never from their own RNGs, so victim workloads replay
  // identically after the crash.
  sim::Rng frng(s.seed ^ (0xC8A5'0000'0000'0000ull +
                          static_cast<std::uint64_t>(f.id)));
  for (const int h : f.hosts) {
    if (!shards_[static_cast<std::size_t>(h)].live) {
      continue;  // already drained or crashed, possibly this same instant
    }
    v.hosts.push_back(h);
    crash_shard(h, f, e.time, frng, v);
  }
  report_.crash_victims += v.victims;
  report_.boots_lost += v.boots_lost;
  recovery_slot_[static_cast<std::size_t>(f.id)] =
      static_cast<int>(report_.recovery.size());
  report_.recovery.push_back(std::move(v));
}

void FleetEngine::crash_shard(int index, const ResolvedFault& f,
                              sim::Nanos now, sim::Rng& frng,
                              FleetReport::RecoveryVerdict& v) {
  Shard& sh = shards_[static_cast<std::size_t>(index)];
  const FleetDelta before = fleet_before(sh);
  sh.live = false;
  --live_hosts_;
  sh.rollup.crashed = true;
  if (policy_ != nullptr) {
    policy_->host_removed(index);
  }
  // Victims die mid-phase: unlike a graceful drain there is no per-tenant
  // release — their in-flight CPU/NIC demand vanishes with the host, and
  // the host's KSM stable tree and page cache are lost wholesale below.
  // Each victim re-arrives on the survivors after the fault's restart
  // delay plus a per-victim jitter draw, facing placement + admission
  // again; bumping the epoch discards its already-queued events.
  for (Tenant& t : tenants_) {
    if (t.host != index || !t.holds_resources) {
      continue;
    }
    if (t.crash_fault >= 0) {
      // Re-stranded before its re-boot: this fault takes the victim over,
      // so it resolves exactly once, against the crash it must recover
      // from. The earlier verdict (already in the report) gives it up,
      // with the partial boot it counted.
      auto& earlier = report_.recovery[static_cast<std::size_t>(
          recovery_slot_[static_cast<std::size_t>(t.crash_fault)])];
      --earlier.victims;
      --report_.crash_victims;
      if (t.crash_boot_lost) {
        --earlier.boots_lost;
        --report_.boots_lost;
      }
    }
    // Crash-during-boot: the partial boot dies with the host. Nothing
    // carries over — the re-arrival faces admission again and starts a
    // fresh boot against a cold image cache.
    t.crash_boot_lost = t.in_flight == Tenant::InFlight::kBoot;
    if (t.crash_boot_lost) {
      ++v.boots_lost;
    }
    t.in_flight = Tenant::InFlight::kNone;
    t.ksm_registered = false;  // its KSM registration dies with the host
    t.resident_bytes = 0;
    t.holds_resources = false;
    --active_;
    ++t.epoch;
    t.next_phase = 0;
    const sim::Nanos rearrive =
        now + f.restart_delay +
        static_cast<sim::Nanos>(frng.next_double() *
                                static_cast<double>(f.restart_jitter));
    t.clock = sim::Clock(rearrive);
    t.outcome.arrival = rearrive;
    t.outcome.boot_latency = 0;
    t.outcome.completion = 0;
    t.outcome.completed = false;
    t.crash_fault = f.id;
    ++v.victims;
    queue_.push(rearrive, t.id, EventKind::kArrival, t.epoch);
  }
  // The host state dies wholesale: cold page cache, empty KSM ledger,
  // every activity counter zeroed. fleet_apply folds the loss into the
  // incremental fleet counters exactly (set_peak_audit checks this).
  sh.ksm = mem::KsmLedger{};
  sh.host->page_cache().drop_caches();
  sh.non_ksm_resident = 0;
  sh.active = 0;
  sh.net_active = 0;
  sh.cpu_demand = 0.0;
  sh.tenants_by_platform.fill(0);
  fleet_apply(sh, before);
  if (provisioner_ != nullptr) {
    provisioner_->retire_host(index);
  }
}

sim::Nanos FleetEngine::partition_stall(int host, sim::Nanos start,
                                        sim::Nanos duration) const {
  // Hosts added mid-run sit past the initial topology and are never
  // partition targets, so indexing can simply bounds-check.
  if (partitions_.empty() || host >= static_cast<int>(partitions_.size())) {
    return duration;
  }
  const auto& windows = partitions_[static_cast<std::size_t>(host)];
  if (windows.empty()) {
    return duration;
  }
  return stalled_completion(windows, start, duration) - start;
}

void FleetEngine::note_crash_loss(Tenant& t) {
  if (t.crash_fault < 0) {
    return;
  }
  const int slot = recovery_slot_[static_cast<std::size_t>(t.crash_fault)];
  ++report_.recovery[static_cast<std::size_t>(slot)].lost;
  ++report_.crash_lost;
  // Stamp the outcome (as the *verdict index*, what an outer reader can
  // actually look up) so a router (fleet::Federation) can identify which
  // fault stranded this tenant and re-route it to another cell.
  t.outcome.lost_to_fault = slot;
  t.crash_fault = -1;  // recovery resolved: permanently lost
}


sim::Nanos FleetEngine::phase_cost(Tenant& t, WorkloadClass w,
                                   const Scenario& s) {
  Shard& sh = shards_[static_cast<std::size_t>(t.host)];
  // Lognormal around the scenario mean (mu = -sigma^2/2 keeps E[X] = mean).
  constexpr double kSigma = 0.35;
  const double base_ms =
      sim::to_millis(s.mean_phase_duration) *
      t.rng.lognormal(-kSigma * kSigma / 2.0, kSigma);
  const sim::Nanos base = sim::millis(base_ms);

  sim::Nanos cost = 0;
  switch (w) {
    case WorkloadClass::kCpu: {
      const auto& cpu = t.platform->cpu_profile();
      const double factor = 0.7 * cpu.scalar_factor + 0.3 * cpu.simd_factor;
      cost = static_cast<sim::Nanos>(static_cast<double>(base) * factor);
      break;
    }
    case WorkloadClass::kMemory: {
      const auto& mp = t.platform->memory_profile();
      const double bw = std::max(0.05, mp.bandwidth_factor);
      cost = static_cast<sim::Nanos>(static_cast<double>(base) / bw);
      break;
    }
    case WorkloadClass::kIo: {
      cost = base / 5 + sh.read_through(0xD47A'0000ull + t.id,
                                        s.io_bytes_per_phase, t.rng)
                            .value_or(0);
      break;
    }
    case WorkloadClass::kNetwork: {
      auto& nic = sh.host->nic();
      const sim::Nanos wire =
          nic.transfer_time(s.net_bytes_per_phase, t.rng) *
          std::max(1, sh.net_active);
      cost = base / 10 + wire + nic.latency(t.rng);
      break;
    }
    case WorkloadClass::kStartup:
      cost = base / 10;
      break;
  }
  auto total =
      static_cast<sim::Nanos>(static_cast<double>(cost) * sh.cpu_factor());
  if (w == WorkloadClass::kNetwork) {
    // A partition freezes NIC progress: the phase completion stretches by
    // exactly the window overlap. Computed from the immutable per-run
    // window list at scheduling time, so it is identical at every thread
    // count. t.clock.now() is still the phase start here — start_phase
    // advances the clock by this function's return value.
    const sim::Nanos stalled =
        partition_stall(sh.rollup.host, t.clock.now(), total);
    if (stalled != total) {
      ++sh.rollup.nic_stalls;
      total = stalled;
    }
  }
  return total;
}

void FleetEngine::init_shard(Shard& sh, int index, const Scenario& s) {
  sh.live = true;
  sh.ksm = mem::KsmLedger{};
  for (auto& p : sh.platforms) {
    p.reset();
  }
  sh.active = 0;
  sh.net_active = 0;
  sh.cpu_demand = 0.0;
  sh.non_ksm_resident = 0;
  sh.ram_cap = s.host_ram_override_bytes != 0 ? s.host_ram_override_bytes
                                              : sh.host->spec().ram_bytes;
  sh.tenants_by_platform.fill(0);
  sh.rollup = HostRollup{};
  sh.rollup.host = index;
  // One shared platform instance per distinct id in the mix.
  for (const auto& share : s.platform_mix) {
    auto& p = sh.platforms[platform_slot(share.id)];
    if (p == nullptr) {
      p = platforms::PlatformFactory::create(share.id, *sh.host);
    }
  }
}

void FleetEngine::process_event(const Event& e, const Scenario& s,
                                const std::vector<sim::Nanos>& arrivals,
                                sim::Nanos& last_event) {
  ++report_.events_processed;
  global_clock_.advance_to(e.time);
  if (e.kind == EventKind::kHostEvent) {
    handle_host_event(e, s);
    return;
  }
  if (e.kind == EventKind::kAutoscaleEval) {
    handle_autoscale_eval(e.time, s);
    return;
  }
  if (e.kind != EventKind::kArrival && !is_shard_local(e.kind)) {
    handle_fault(e, s);  // every other coordinator kind is a fault boundary
    return;
  }
  Tenant& t = tenants_[e.tenant];
  if (e.epoch != t.epoch) {
    return;  // canceled by a drain migration; superseded lifecycle
  }
  last_event = e.time;  // makespan tracks tenant activity, not evals
  if (e.kind != EventKind::kArrival) {
    Effects fx(e);
    handle_local(t, s, fx);
    apply_effects(fx, nullptr);
    return;
  }
  handle_arrival(t, s);
  // One state push for the shard the arrival touched. A rejected arrival
  // changed nothing, so re-publishing the tenant's previous shard is a
  // harmless (and cheap) no-op upsert.
  publish_host(shards_[static_cast<std::size_t>(t.host)]);
  if (e.tenant == static_cast<std::uint64_t>(arrival_cursor_)) {
    // That was the cursor tenant's initial arrival (re-arrivals always
    // carry a smaller id): seed the next one — or, once the density
    // latch has tripped, reject the whole unseeded tail in bulk. Each
    // of those arrivals would have been one queue round-trip ending in
    // the pre-placement latch check; the outcome (admitted = false, one
    // fleet-level rejection, no host consulted) is identical, only the
    // per-tenant event cost disappears.
    ++arrival_cursor_;
    // Bound by the materialized population (arrivals), not s.tenant_count:
    // an explicit routed population may be any size.
    const int tenant_count = static_cast<int>(arrivals.size());
    if (arrival_cursor_ < tenant_count) {
      if (s.stop_at_first_oom && report_.first_oom_tenant >= 0) {
        for (int i = arrival_cursor_; i < tenant_count; ++i) {
          tenants_[static_cast<std::size_t>(i)].outcome.admitted = false;
          ++report_.rejected;
        }
        latched_tail_ = true;
        latched_tail_time_ = arrivals.back();
        arrival_cursor_ = tenant_count;
      } else {
        queue_.push_at_seq(
            arrivals[static_cast<std::size_t>(arrival_cursor_)],
            arrival_seq_base_ + static_cast<std::uint64_t>(arrival_cursor_),
            static_cast<std::uint64_t>(arrival_cursor_),
            EventKind::kArrival);
      }
    }
  }
}

bool FleetEngine::use_parallel(const Scenario& s) const {
  // Parallelism is across shards; a single fixed host has nothing to fan
  // out. Churn with a non-positive gap would make the conservative window
  // (bounded by churn_gap ahead of the earliest possible re-arrival)
  // empty, so such runs stay sequential.
  return s.threads > 1 && shards_.size() > 1 &&
         !(s.churn_rounds > 0 && s.churn_gap <= 0);
}

FleetReport FleetEngine::run(const Scenario& s) {
  if (s.platform_mix.empty() || s.workload_mix.empty()) {
    throw std::invalid_argument(
        "FleetEngine::run: scenario needs a platform mix and a workload mix");
  }
  if (s.phases_per_tenant <= 0) {
    // Zero phases would silently draw no workload at all and tear every
    // tenant down straight out of boot — a mis-specified scenario, not a
    // meaningful population.
    throw std::invalid_argument(
        "FleetEngine::run: phases_per_tenant must be positive");
  }
  if (s.guest_ram_bytes / kFleetPageBytes >= kMaxGuestUnits) {
    throw std::invalid_argument(
        "FleetEngine::run: guest_ram_bytes must be below 2^24 KSM units of "
        "2 MiB (32 TiB)");
  }
  if (s.op_max_retries < 0) {
    throw std::invalid_argument(
        "FleetEngine::run: op_max_retries must be non-negative");
  }
  if (s.op_max_retries > 0 && s.op_backoff_base_ms <= 0) {
    throw std::invalid_argument(
        "FleetEngine::run: op_max_retries needs a positive op_backoff_base_ms");
  }
  if (s.op_max_retries > 0 && s.op_slo_ms <= 0) {
    // Retries time out at the op SLO; without a budget there is nothing to
    // retry against and the knob would silently do nothing.
    throw std::invalid_argument(
        "FleetEngine::run: op_max_retries needs a positive op_slo_ms");
  }
  for (const ProgramShare& share : s.program_mix) {
    if (share.weight <= 0.0) {
      throw std::invalid_argument(
          "FleetEngine::run: program_mix weights must be positive");
    }
    if (share.program < -1 || share.program >= builtin_program_count()) {
      throw std::invalid_argument(
          "FleetEngine::run: program_mix references an unknown program (use "
          "-1 for the statistical share)");
    }
    if (share.program >= 0) {
      // Per-op retry knobs are validated only for reachable programs: the
      // builtin table is static, but the knobs compose with scenario-wide
      // defaults, so what is malformed depends on this scenario.
      for (const ProgramOp& op : builtin_program(share.program).ops) {
        if (op.max_retries < 0) {
          throw std::invalid_argument(
              "FleetEngine::run: program op max_retries must be "
              "non-negative");
        }
        if (op.max_retries > 0 && op.backoff_base_ms <= 0 &&
            s.op_backoff_base_ms <= 0) {
          throw std::invalid_argument(
              "FleetEngine::run: program op max_retries needs a positive "
              "backoff_base_ms (op-level or scenario-wide)");
        }
        if (op.max_retries > 0 && s.op_slo_ms <= 0) {
          throw std::invalid_argument(
              "FleetEngine::run: program op max_retries needs a positive "
              "op_slo_ms");
        }
      }
    }
  }
  if (shards_.size() > 1 && policy_ == nullptr) {
    throw std::invalid_argument(
        "FleetEngine::run: cluster runs need a placement policy");
  }
  if (s.autoscale.enabled && s.autoscale.eval_interval <= 0) {
    // A non-advancing evaluation would re-queue itself at the same instant
    // forever, ahead of every tenant event.
    throw std::invalid_argument(
        "FleetEngine::run: autoscale.eval_interval must be positive");
  }
  // Up-front validation and fault resolution (chaos.h): out-of-range host
  // indices, negative times and malformed racks throw here with a clear
  // message instead of corrupting state deep in the event loop.
  validate_host_events(s, static_cast<int>(shards_.size()));
  for (std::size_t i = 1; i < s.population.size(); ++i) {
    // The lazy arrival seeding below assumes arrival order; a router hands
    // cells populations it keeps sorted, so a violation is a caller bug.
    if (s.population[i].arrival < s.population[i - 1].arrival) {
      throw std::invalid_argument(
          "FleetEngine::run: explicit population must be sorted by arrival");
    }
  }
  faults_ = resolve_faults(s, static_cast<int>(shards_.size()));
  partitions_ =
      build_partition_windows(faults_, static_cast<int>(shards_.size()));
  degrades_ = build_degrade_windows(faults_, static_cast<int>(shards_.size()));
  pairs_ = build_pair_windows(faults_, static_cast<int>(shards_.size()));
  queue_ = EventQueue{};
  report_ = FleetReport{};
  report_.scenario = s.name;
  report_.seed = s.seed;
  // Runs that start single-host but may grow (autoscale, host events) need
  // the policy name too; plain single-host runs keep it empty so their
  // to_text() stays byte-identical to the pinned goldens.
  if (policy_ != nullptr &&
      (shards_.size() > 1 || s.autoscale.enabled || !s.host_events.empty())) {
    report_.placement = policy_->name();
  }
  report_.boot_slo_ms = s.boot_slo_ms;
  report_.replace_slo_ms = s.replace_slo_ms;
  report_.op_slo_ms = s.op_slo_ms;
  // Degraded-mode setup. Verdicts for degrade-family faults are created up
  // front in fault-id order: disk and pair degrades queue no events at all
  // (their windows are precomputed), so ops can be disturbed before any
  // event for the fault would have popped. Accounting is live only when a
  // degrade fault is scheduled or retries are enabled — otherwise no
  // counter moves and no extra RNG draw happens, keeping every pre-existing
  // scenario byte-identical.
  recovery_slot_.assign(faults_.size(), -1);
  degraded_slot_.assign(faults_.size(), -1);
  degrade_affected_.clear();
  degraded_accounting_ = s.op_max_retries > 0;
  for (const ProgramShare& share : s.program_mix) {
    if (share.program < 0) {
      continue;
    }
    for (const ProgramOp& op : builtin_program(share.program).ops) {
      if (op.max_retries > 0) {
        degraded_accounting_ = true;
      }
    }
  }
  for (const ResolvedFault& f : faults_) {
    if (!is_degrade_kind(f.kind)) {
      continue;
    }
    degraded_accounting_ = true;
    degraded_slot_[static_cast<std::size_t>(f.id)] =
        static_cast<int>(report_.degraded.size());
    FleetReport::DegradeVerdict dv;
    dv.fault = f.id;
    dv.kind = f.kind == Fault::Kind::kDiskDegrade    ? "disk-degrade"
              : f.kind == Fault::Kind::kMemPressure  ? "mem-pressure"
                                                     : "partial-partition";
    dv.rack = f.rack;
    dv.time = f.time;
    dv.duration = f.duration;
    dv.hosts = f.hosts;
    dv.peer = f.peer;
    dv.multiplier = f.kind == Fault::Kind::kDiskDegrade ? f.degrade : 0.0;
    report_.degraded.push_back(std::move(dv));
    degrade_affected_.emplace_back();
  }
  tenants_.clear();
  global_clock_.reset();
  active_ = 0;
  last_scale_ = 0;
  has_scaled_ = false;
  fleet_resident_ = 0;
  fleet_ksm_advised_ = 0;
  fleet_ksm_backing_ = 0;
  fleet_ksm_shared_ = 0;
  peak_audit_failed_ = false;
  latched_tail_ = false;
  latched_tail_time_ = 0;
  // Runs that can shard (now or mid-run) defer boot physics to kBootPhys
  // events so the parallel loop can execute them on shard workers. The
  // flag is fixed per run — both loops see the same event flow, which is
  // what keeps reports byte-identical across thread counts. Plain
  // single-host runs keep the inline flow the pinned goldens expect.
  deferred_boot_ = shards_.size() > 1 || s.autoscale.enabled ||
                   !s.host_events.empty() || s.faults.enabled();
  live_hosts_ = static_cast<int>(shards_.size());
  stats_by_id_.fill(nullptr);
  pstats_by_id_.fill(nullptr);
  if (policy_ != nullptr) {
    policy_->reset();
  }

  for (std::size_t i = 0; i < shards_.size(); ++i) {
    init_shard(shards_[i], static_cast<int>(i), s);
  }
  for (Shard& sh : shards_) {
    publish_host(sh);
  }

  // The population: either the scenario carries an explicit pre-drawn one
  // (a federation router's per-cell subset, already in arrival order) or we
  // draw tenant_count tenants from the seed. draw_population() is the
  // engine's historical inline draw hoisted onto TrafficSpec, so the drawn
  // path is byte-identical to what this loop used to produce.
  std::vector<TenantSeed> drawn;
  if (s.population.empty()) {
    drawn = s.draw_population();
  }
  const std::vector<TenantSeed>& pop = s.population.empty() ? drawn
                                                            : s.population;
  const int tenant_count = static_cast<int>(pop.size());

  std::vector<sim::Nanos> arrivals;
  arrivals.reserve(pop.size());
  for (const TenantSeed& seed : pop) {
    arrivals.push_back(seed.arrival);
  }

  for (Shard& sh : shards_) {
    sh.host->kernel().ftrace().start();
  }

  tenants_.reserve(pop.size());
  for (int i = 0; i < tenant_count; ++i) {
    const TenantSeed& seed = pop[static_cast<std::size_t>(i)];
    tenants_.emplace_back();
    Tenant& t = tenants_.back();
    t.id = static_cast<std::uint64_t>(i);
    t.platform_id = seed.platform_id;
    // Named from shard 0's instance here; re-bound to the placed shard's
    // instance at every (re-)arrival.
    t.platform = shards_.front().platform(t.platform_id);
    t.rng = seed.rng;
    t.clock = sim::Clock(seed.arrival);
    t.rounds_left = s.churn_rounds;
    t.phases = seed.phases;
    t.outcome.id = t.id;
    t.outcome.platform_id = t.platform_id;
    t.outcome.arrival = seed.arrival;
    t.program = seed.program;
  }
  // Arrivals are seeded lazily — only the next initial arrival sits in the
  // queue — so a tripped density-stop latch can reject the unseeded tail
  // in bulk instead of paying one event per post-latch tenant. Reserving
  // the whole seq block up front keeps every event's (time, seq) key, and
  // therefore all tie-breaking, identical to an eagerly seeded queue.
  arrival_seq_base_ =
      queue_.reserve_seqs(static_cast<std::uint64_t>(tenant_count));
  arrival_cursor_ = 0;
  if (tenant_count > 0) {
    queue_.push_at_seq(arrivals.front(), arrival_seq_base_, 0,
                       EventKind::kArrival);
  }

  // Topology-change events share the one global deterministic queue with
  // tenant events, so autoscaled runs stay byte-reproducible.
  for (std::size_t i = 0; i < s.host_events.size(); ++i) {
    queue_.push(s.host_events[i].time, static_cast<std::uint64_t>(i),
                EventKind::kHostEvent);
  }
  if (s.autoscale.enabled) {
    queue_.push(s.autoscale.eval_interval, 0, EventKind::kAutoscaleEval);
  }
  // Fault events ride the same global queue. Pushed in id (= time) order,
  // so fault start events pop in id order and each pushes recovery[id].
  for (const ResolvedFault& f : faults_) {
    const auto id = static_cast<std::uint64_t>(f.id);
    if (f.kind == Fault::Kind::kPartition) {
      queue_.push(f.time, id, EventKind::kPartitionStart);
      queue_.push(f.time + f.duration, id, EventKind::kPartitionEnd);
    } else if (f.kind == Fault::Kind::kMemPressure) {
      // The only degrade kind that mutates shard state (the KSM unmerge
      // storm and its re-merge), so the only one that needs events; disk
      // degrades and partial partitions act purely through the immutable
      // precomputed windows.
      queue_.push(f.time, id, EventKind::kDegradeStart);
      queue_.push(f.time + f.duration, id, EventKind::kDegradeEnd);
    } else if (f.kind == Fault::Kind::kDiskDegrade ||
               f.kind == Fault::Kind::kPartialPartition) {
      // No events: the windows are already in degrades_/pairs_.
    } else {
      // kCrash and kCellOutage both ride the crash event; the resolved
      // fault's host list (one host vs. the whole topology) is the split.
      queue_.push(f.time, id, EventKind::kHostCrash);
    }
  }

  for (Shard& sh : shards_) {
    sh.cache_hits0 = sh.host->page_cache().hits();
    sh.cache_misses0 = sh.host->page_cache().misses();
    sh.nvme_read0 = sh.host->nvme().bytes_read();
  }

  sim::Nanos first_arrival = arrivals.empty() ? 0 : arrivals.front();
  sim::Nanos last_event = first_arrival;
  if (use_parallel(s)) {
    run_loop_parallel(s, arrivals, last_event);
  } else {
    while (!queue_.empty()) {
      process_event(queue_.pop(), s, arrivals, last_event);
    }
  }
  if (latched_tail_) {
    // The bulk-rejected arrivals never became events; without this the
    // makespan would stop at the last *processed* event instead of the
    // last arrival, as the eager queue reported it.
    last_event = std::max(last_event, latched_tail_time_);
  }

  report_.hosts.reserve(shards_.size());
  for (Shard& sh : shards_) {
    sh.host->kernel().ftrace().stop();
    const auto& ftrace = sh.host->kernel().ftrace();
    sh.rollup.hap.distinct_functions = ftrace.distinct_functions();
    sh.rollup.hap.total_invocations = ftrace.total_invocations();
    const auto& registry = sh.host->kernel().registry();
    for (const auto& [fn, count] : ftrace.counts()) {
      (void)count;
      sh.rollup.hap.extended_hap += epss_.score(registry.function(fn));
    }
    sh.rollup.ksm.enabled = s.enable_ksm;
    sh.rollup.page_cache_hits = sh.host->page_cache().hits() - sh.cache_hits0;
    sh.rollup.page_cache_misses =
        sh.host->page_cache().misses() - sh.cache_misses0;
    sh.rollup.nvme_bytes_read = sh.host->nvme().bytes_read() - sh.nvme_read0;

    report_.hap.distinct_functions += sh.rollup.hap.distinct_functions;
    report_.hap.total_invocations += sh.rollup.hap.total_invocations;
    report_.hap.extended_hap += sh.rollup.hap.extended_hap;
    report_.page_cache_hits += sh.rollup.page_cache_hits;
    report_.page_cache_misses += sh.rollup.page_cache_misses;
    report_.nvme_bytes_read += sh.rollup.nvme_bytes_read;
    report_.nic_stalls += sh.rollup.nic_stalls;
    report_.hosts.push_back(sh.rollup);
  }

  report_.ksm.enabled = s.enable_ksm;
  report_.makespan = last_event - first_arrival;
  report_.final_host_count = live_host_count();

  report_.tenants.reserve(tenants_.size());
  for (const Tenant& t : tenants_) {
    report_.tenants.push_back(t.outcome);
  }
  for (std::size_t i = 0; i < report_.degraded.size(); ++i) {
    report_.degraded[i].affected =
        static_cast<int>(degrade_affected_[i].size());
  }
  // Moved, not copied: the next run resets report_ and refills every
  // cached stats slot before touching them.
  return std::move(report_);
}

}  // namespace fleet
