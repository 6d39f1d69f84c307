// FleetEngine: executes a Scenario against one or more core::HostSystem
// shards.
//
// The engine is the mechanism side of the policy/mechanism split: it merges
// N per-tenant sim::Clock timelines through a deterministic priority event
// queue (event_queue.h) into one global virtual timeline, and charges every
// tenant's activity to its *shard's* host models — page cache and NVMe for
// boot images and I/O phases, the NIC for network phases, KSM for
// hypervisor guest RAM, and the host kernel's ftrace for the per-host
// attack-surface rollup. Contention is modeled analytically per shard: CPU
// demand above a host's thread count stretches every in-flight duration on
// that host, and concurrent network phases share that host's NIC line rate.
//
// Cluster runs (fleet::Cluster, cluster.h) hand the engine M host shards
// plus a PlacementPolicy consulted once per arrival; the single global
// event queue keeps cross-host runs byte-reproducible. Single-host runs
// are the M=1 special case and produce byte-identical reports to the
// pre-cluster engine (pinned by tests/fleet_golden_test.cpp).
//
// Events are either coordinator events (arrivals, host events, autoscale
// evals, fault boundaries), handled with direct access to fleet state, or
// shard-local events (is_shard_local), each with exactly one handler. A
// shard-local handler mutates only its tenant and shard and writes its
// fleet-global effects into an Effects record; apply_effects folds the
// record in. The sequential loop applies each record right after its
// handler; the parallel loop (Scenario::threads > 1, engine_parallel.cpp)
// runs the same handlers on worker threads and replays their records in
// merged (time, seq) order, so both loops share one implementation of
// every lifecycle feature.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/host_system.h"
#include "fleet/chaos.h"
#include "fleet/event_queue.h"
#include "fleet/placement.h"
#include "fleet/program.h"
#include "fleet/report.h"
#include "fleet/scenario.h"
#include "hap/epss.h"
#include "mem/ksm.h"
#include "platforms/factory.h"
#include "sim/clock.h"
#include "sim/rng.h"

namespace fleet {

/// True for platforms whose tenants reserve full guest RAM (and can be
/// KSM-deduplicated); false for namespace-backed tenants that only pay
/// their process RSS.
bool is_hypervisor_backed(platforms::PlatformId id);

/// Supplies fresh hosts for mid-run scale-out and observes drains.
/// fleet::Cluster implements this; a bare FleetEngine without one simply
/// cannot grow (scale-out requests are ignored).
class HostProvisioner {
 public:
  virtual ~HostProvisioner() = default;
  /// Create one more host (deterministic per-host RNG seed derived from
  /// its index) and return it; the engine builds a shard around it. The
  /// host must stay alive for the rest of the run.
  virtual core::HostSystem* provision_host() = 0;
  /// The engine drained this host index (its tenants were re-placed).
  virtual void retire_host(int index) { (void)index; }
};

class FleetEngine {
 public:
  explicit FleetEngine(core::HostSystem& host);

  /// Cluster mode: shard tenants across `hosts` with `policy` (non-owning;
  /// must outlive the engine). A policy is required when hosts.size() > 1.
  /// `provisioner` (optional, non-owning) enables mid-run scale-out.
  FleetEngine(const std::vector<core::HostSystem*>& hosts,
              PlacementPolicy* policy,
              HostProvisioner* provisioner = nullptr);

  /// Run one scenario to completion and return its report. Deterministic
  /// given (scenario, fresh hosts): the engine derives every random stream
  /// from scenario.seed, and placement consults no RNG.
  FleetReport run(const Scenario& scenario);

  /// Test hook: re-derive the fleet-resident and fleet-KSM sums from every
  /// shard at each peak check and compare them against the incremental
  /// counters note_peaks actually uses. A mismatch latches peak_audit_ok()
  /// to false. Costs O(M) per admission again, so tests only.
  void set_peak_audit(bool on) { peak_audit_ = on; }
  bool peak_audit_ok() const { return !peak_audit_failed_; }

 private:
  struct Tenant {
    std::uint64_t id = 0;
    platforms::PlatformId platform_id = platforms::PlatformId::kNative;
    platforms::Platform* platform = nullptr;
    /// Cached &report_.by_platform[platform->name()], resolved once per
    /// boot completion (std::map nodes are pointer-stable) so per-phase
    /// accounting skips the string-keyed lookup.
    PlatformFleetStats* stats = nullptr;
    sim::Clock clock;
    sim::Rng rng{0};
    std::vector<platforms::WorkloadClass> phases;
    int next_phase = 0;
    int host = 0;         // shard index assigned at (re-)arrival
    int rounds_left = 0;  // churn re-admissions still owed
    sim::Nanos phase_start = 0;
    TenantOutcome outcome;
    std::uint64_t resident_bytes = 0;  // non-KSM-managed share
    bool ksm_registered = false;
    bool counted_in_stats = false;  // already in its platform's tenant count
    /// What demand the tenant currently charges its shard, so a drain can
    /// release it exactly (a boot's kBootVcpus, a phase's vcpus + NIC slot,
    /// a program op's op_vcpus + NIC slot).
    enum class InFlight {
      kNone,
      kBoot,
      kPhase,
      kProgram
    } in_flight = InFlight::kNone;
    /// Built-in syscall program this tenant interprets (fleet/program.h);
    /// -1 = statistical phases. Copied from the TenantSeed.
    int program = -1;
    /// Interpreter cursor: current op index and whole-list repetitions
    /// still owed. Both reset when a boot completes, so a crash victim's
    /// re-boot restarts its program from the top (the cursor is lost with
    /// the host).
    int prog_op = 0;
    int prog_loops_left = 0;
    /// Demand and service time of the in-flight op, stashed so the
    /// completion (and a drain/crash release) undoes and records exactly
    /// what the start charged. Service excludes the op's think gap.
    double prog_vcpus = 0.0;
    sim::Nanos prog_service = 0;
    /// Cached &report_.by_program[...] slot, resolved at boot completion
    /// like `stats` (std::map nodes are pointer-stable).
    ProgramFleetStats* pstats = nullptr;
    /// Admitted and not yet released (teardown or drain migration).
    bool holds_resources = false;
    /// The crash in crash_fault (below) caught this tenant mid-boot: that
    /// verdict's boots_lost counts it.
    bool crash_boot_lost = false;
    /// CPU contention factor captured at the admitting arrival, applied by
    /// the deferred kBootPhys event (cluster-capable runs only).
    double boot_factor = 1.0;
    /// Lifecycle generation; bumped by a drain migration to invalidate the
    /// tenant's already-queued events.
    std::uint32_t epoch = 0;
    /// Fault id whose crash killed this tenant; -1 outside recovery. Set
    /// when a crash re-injects the victim's arrival, cleared when the
    /// recovery resolves (re-boot served -> replace_ms sample, or
    /// rejection -> permanently lost). A later crash that strands the
    /// victim again before its re-boot takes it over.
    int crash_fault = -1;
  };

  /// Per-host mechanism state: one HostSystem plus everything the engine
  /// charges against it. Single-host runs have exactly one shard.
  struct Shard {
    core::HostSystem* host = nullptr;
    /// False once drained or crashed: removed from the placement policy,
    /// so admission walks skip it; its rollup stays in the report.
    bool live = true;
    /// KSM run refcounts of the guests this host holds. It keeps no
    /// per-tenant record: teardown rebuilds a guest's runs to drop them.
    mem::KsmLedger ksm;
    /// One shared platform instance per id in the scenario's mix; null
    /// for ids the mix lacks (platform() throws for those).
    std::array<std::unique_ptr<platforms::Platform>,
               platforms::kPlatformIdSlots>
        platforms;
    int active = 0;      // admitted, not yet torn down
    int net_active = 0;  // tenants currently in a network phase
    double cpu_demand = 0.0;  // vCPUs demanded by in-flight activity
    std::uint64_t non_ksm_resident = 0;
    std::uint64_t ram_cap = 0;
    /// Active tenants per platform, pushed to the placement policy.
    std::array<int, platforms::kPlatformIdSlots> tenants_by_platform{};
    HostRollup rollup;
    std::uint64_t cache_hits0 = 0;   // host-model counters at run start
    std::uint64_t cache_misses0 = 0;
    std::uint64_t nvme_read0 = 0;

    /// Resident bytes actually charged against this host's RAM right now.
    std::uint64_t resident_bytes() const;

    /// CPU contention multiplier at this host's current activity.
    double cpu_factor() const;

    /// Read `bytes` of page-cache file `file` through this host's cache;
    /// only the misses reach the NVMe, whose read draws on `rng`. Returns
    /// the device time, or nullopt when the cache served every page (no
    /// draw).
    std::optional<sim::Nanos> read_through(std::uint64_t file,
                                           std::uint64_t bytes, sim::Rng& rng);

    /// This host's instance of platform `id`; std::out_of_range if the
    /// scenario's mix never built one.
    platforms::Platform* platform(platforms::PlatformId id) const;
  };

  /// Placement and admission for one (re-)arriving tenant: a coordinator
  /// event, so it mutates fleet state directly.
  void handle_arrival(Tenant& t, const Scenario& s);

  /// The boot's shard-local physics: platform boot sampling, the image
  /// pull through the shard's page cache / NVMe, contention stretching by
  /// `factor`. Advances t.clock, sets t.outcome.boot_latency, returns the
  /// completion instant. Shared verbatim by the inline single-host path
  /// (factor = the shard's live cpu_factor) and the deferred kBootPhys
  /// path (factor captured at the arrival).
  sim::Nanos boot_physics(Shard& sh, Tenant& t, const Scenario& s,
                          double factor);

  /// Hard floor on a boot's total duration. Physically it never binds (the
  /// image term alone is >= 50us); it exists so a deferred boot's kBootDone
  /// provably lands at least this far after its kBootPhys, which is the
  /// horizon the parallel lane pipeline runs ahead on.
  static constexpr sim::Nanos kBootFloorNs = 50'000;

  /// How a degrade-family fault disturbed one op issue, reported by
  /// program_op_cost for DegradeVerdict attribution.
  struct OpImpact {
    int fault = -1;        // first disturbing fault id; -1 = undisturbed
    sim::Nanos added = 0;  // completion delay vs the undisturbed cost
  };

  /// Virtual duration of one program op: HostKernel::invoke (CPU cost +
  /// ftrace hits) plus payload physics on the shard's page cache / NVMe /
  /// NIC, stretched by CPU contention; network ops wait out partition
  /// windows by exact overlap, disk-touching ops stretch through degrade
  /// windows, and network ops draw a peer that may sit across a partial
  /// partition. Shard-local, so window workers may call it. `impact`
  /// (optional) receives the degrade attribution.
  sim::Nanos program_op_cost(Tenant& t, const ProgramOp& op,
                             OpImpact* impact = nullptr);

  /// Outcome of one op *issue* (the retry loop around program_op_cost):
  /// how many re-issues it took, whether it still blew the SLO with
  /// retries exhausted, and which fault gets the ledger entry. Computed
  /// identically on the sequential path and window workers.
  struct OpIssue {
    sim::Nanos service = 0;  // total issue latency: timeouts+backoffs+final
    int fault = -1;          // degrade fault attributed (first disturber)
    int retries = 0;
    bool give_up = false;
    double added_ms = -1.0;  // < 0: no added-latency sample
  };

  /// Run the retry/backoff loop for the op at t.prog_op: compute the cost,
  /// and while it would blow the op SLO with retries left, time out at the
  /// budget, back off exponentially (jitter from t.rng) and re-issue.
  /// Advances t.clock through the whole issue (timeouts, backoffs, and the
  /// final attempt); the caller adds only the op's think gap.
  OpIssue issue_program_op(Tenant& t, const ProgramOp& op, const Scenario& s);

  /// Fold one issue's outcome into the fleet totals and its fault's
  /// DegradeVerdict. Coordinator-only: called from apply_effects.
  void note_op_outcome(std::uint64_t tenant_id, const OpIssue& issue);

  /// Admission control against the tenant's shard: would its resident set
  /// still fit? Read-only on rejection — KSM fit is decided by
  /// mem::KsmLedger::probe_runs, and only an accepted host mutates its
  /// ledger.
  bool admit(Shard& sh, Tenant& t, const Scenario& s);

  /// Push one live shard's current state to the placement policy (no-op
  /// without one). Called after every event that changed the shard.
  void publish_host(Shard& sh);

  /// Tell the placement policy that `sh`'s tenant count for `id` moved.
  void notify_platform_count(Shard& sh, platforms::PlatformId id);

  /// Shard-local half of a release: in-flight CPU/NIC demand, KSM
  /// registration, resident bytes, the shard's active counters. Touches
  /// nothing fleet-global, so window workers may call it; the deltas it
  /// causes are recorded and replayed by the coordinator.
  void release_core(Shard& sh, Tenant& t, const Scenario& s);

  /// Release everything tenant t currently charges against shard sh, plus
  /// the fleet-global bookkeeping (active_, placement notification, fleet
  /// counters). Drain migration's release; a teardown releases through
  /// release_core and its effect record.
  void release_tenant(Shard& sh, Tenant& t, const Scenario& s);

  // Mid-run topology changes.
  int add_shard(const Scenario& s);
  void drain_shard(int index, const Scenario& s, sim::Nanos now);
  int pick_drain_host() const;  // fewest active tenants, ties: highest index
  int live_host_count() const;
  void record_autoscale(sim::Nanos time, const std::string& action, int host,
                        double resident_fraction);
  double resident_fraction() const;  // over live hosts
  void handle_host_event(const Event& e, const Scenario& s);
  void handle_autoscale_eval(sim::Nanos now, const Scenario& s);

  // Fault injection (chaos.h). Coordinator-only: every fault kind is a
  // barrier in the parallel loop, so these never race a window worker.
  void handle_fault(const Event& e, const Scenario& s);
  /// Kill every tenant on shard `index`: release their in-flight demand,
  /// drop the host's page cache and KSM stable tree wholesale, retire the
  /// host from placement, and re-inject the victims as jittered arrivals.
  void crash_shard(int index, const ResolvedFault& f, sim::Nanos now,
                   sim::Rng& frng, FleetReport::RecoveryVerdict& v);
  /// Stretch of a NIC-bound completion by the host's partition windows;
  /// `duration` unchanged when none overlap. Reads only immutable per-run
  /// state, so window workers may call it.
  sim::Nanos partition_stall(int host, sim::Nanos start,
                             sim::Nanos duration) const;
  /// Recovery bookkeeping when a crash victim's re-arrival is rejected:
  /// the tenant is permanently lost. (Re-admission is counted where the
  /// re-boot completes — handle_boot_done's record — so a victim
  /// drain-migrated mid-recovery is never double-counted.)
  void note_crash_loss(Tenant& t);

  /// Virtual duration of one workload phase, including platform profile
  /// scaling and charges to the shard's host models.
  sim::Nanos phase_cost(Tenant& t, platforms::WorkloadClass w,
                        const Scenario& s);

  /// Peak bookkeeping after sh's demand or residency grew: the CPU-demand
  /// ratio, the shard slice and the fleet slice below.
  void note_peaks(Shard& sh);

  /// Shard-local slice of note_peaks: the shard rollup's peak-active and
  /// peak-resident/KSM snapshot. Safe on window workers (one worker owns a
  /// shard at a time).
  void note_shard_peaks(Shard& sh);

  /// Fleet-global slice of note_peaks, coordinator-only: peak_active, the
  /// fleet-resident/KSM snapshot, and the peak_audit_ check.
  void note_fleet_peaks();

  /// Set up a freshly constructed or reset shard for this run: KSM tree,
  /// platform instances for the scenario mix, RAM cap, rollup identity.
  void init_shard(Shard& sh, int index, const Scenario& s);

  std::vector<Shard> shards_;
  PlacementPolicy* policy_ = nullptr;  // non-owning; required when M > 1
  HostProvisioner* provisioner_ = nullptr;  // non-owning; enables scale-out
  EventQueue queue_;
  sim::Clock global_clock_;
  /// Dense tenant table: ids are assigned 0..N-1, so the event loop indexes
  /// directly instead of hashing per event.
  std::vector<Tenant> tenants_;
  hap::EpssModel epss_;
  FleetReport report_;

  /// by_platform stats resolved once per PlatformId instead of one
  /// string-keyed map lookup per boot (ids and names are 1:1 per run).
  std::array<PlatformFleetStats*, platforms::kPlatformIdSlots> stats_by_id_{};

  /// by_program stats resolved once per built-in program id, mirroring
  /// stats_by_id_.
  static constexpr std::size_t kProgramIdSlots = 8;
  std::array<ProgramFleetStats*, kProgramIdSlots> pstats_by_id_{};

  /// Lazy arrival seeding: only the next initial arrival sits in the queue
  /// (with a pre-reserved seq so same-timestamp tie order is unchanged).
  /// When the density-stop latch trips, the unseeded tail is rejected in
  /// bulk without paying one event per tenant.
  int arrival_cursor_ = 0;          // tenant whose initial arrival is queued
  std::uint64_t arrival_seq_base_ = 0;
  bool latched_tail_ = false;       // bulk-rejected a post-latch tail
  sim::Nanos latched_tail_time_ = 0;  // last (bulk-rejected) arrival time

  int active_ = 0;  // fleet-wide admitted, not yet torn down
  sim::Nanos last_scale_ = 0;  // virtual time of the last autoscale action
  bool has_scaled_ = false;

  /// Resolved fault schedule for this run (chaos.h); empty when the
  /// scenario injects none. Written once before the loop starts, immutable
  /// after — worker threads read faults_/partitions_ freely.
  std::vector<ResolvedFault> faults_;
  /// Per-host partition windows (initial-topology indices only; hosts
  /// added mid-run are never partition targets).
  std::vector<std::vector<PartitionWindow>> partitions_;
  /// Per-host disk-degrade and partial-partition windows (chaos.h), built
  /// next to partitions_ and equally immutable — worker threads read them
  /// without synchronization. Both empty when no fault of that kind is
  /// scheduled, so fault-free runs pay (and draw) nothing.
  std::vector<std::vector<DegradeWindow>> degrades_;
  std::vector<std::vector<PairWindow>> pairs_;
  /// Fault id -> index into report_.recovery (crash kinds) or
  /// report_.degraded (degrade kinds); -1 for the other family. Neither
  /// verdict vector is indexable by fault id once the families interleave
  /// in one schedule.
  std::vector<int> recovery_slot_;
  std::vector<int> degraded_slot_;
  /// Degraded accounting is live for this run: a degrade-family fault is
  /// scheduled, or retries are enabled scenario-wide or on any reachable
  /// program op. Gates every retry/give-up counter and the extra RNG draws
  /// behind them, so pre-existing scenarios stay byte-identical.
  bool degraded_accounting_ = false;
  /// Distinct tenants disturbed per degraded verdict (coordinator-only;
  /// parallel runs insert during replay). Finalized into
  /// DegradeVerdict::affected at run end.
  std::vector<std::set<std::uint64_t>> degrade_affected_;
  /// Live shard count, maintained at add/drain/crash so the per-arrival
  /// zero-live-hosts check is O(1) instead of an O(M) scan.
  int live_hosts_ = 0;

  /// Fleet-wide resident/KSM sums, maintained incrementally at every
  /// mutation site (admission, release, a teardown's applied delta, crash
  /// and memory pressure) instead of re-summed over every shard per
  /// admission — the last O(M)-per-admission piece. Integer arithmetic, so
  /// note_peaks' peak snapshot is bit-identical to the summed form
  /// (set_peak_audit checks exactly that).
  std::uint64_t fleet_resident_ = 0;
  std::uint64_t fleet_ksm_advised_ = 0;
  std::uint64_t fleet_ksm_backing_ = 0;
  std::uint64_t fleet_ksm_shared_ = 0;

  /// Capture a shard's resident/KSM state before a mutation and fold the
  /// delta into the fleet counters after it (unsigned wraparound makes
  /// add-new-subtract-old exact for shrinking deltas too).
  struct FleetDelta {
    std::uint64_t resident, advised, backing, shared;
  };
  FleetDelta fleet_before(const Shard& sh) const;
  void fleet_apply(const Shard& sh, const FleetDelta& before);

  bool peak_audit_ = false;
  bool peak_audit_failed_ = false;

  // --- Shard-local events (is_shard_local; see the file comment) ----------

  /// The fleet-global effects of one shard-local event.
  struct Effects {
    explicit Effects(const Event& e)
        : time(e.time), seq(e.seq), tenant(e.tenant), kind(e.kind) {}

    /// Record the handler's one follow-up event.
    void schedule(EventKind k, sim::Nanos when) {
      gen = true;
      gen_kind = k;
      gen_time = when;
    }

    sim::Nanos time = 0;
    /// True global seq; inside a window, events born there carry a
    /// provisional seq (>= win_seq_base_) until replay issues the real one.
    std::uint64_t seq = 0;
    std::uint64_t tenant = 0;
    EventKind kind = EventKind::kArrival;
    bool stale = false;         // epoch mismatch: counted, otherwise inert
    bool count_tenant = false;  // first boot: ++platform/program tenants
    bool gen = false;           // a follow-up event was scheduled
    EventKind gen_kind = EventKind::kArrival;
    sim::Nanos gen_time = 0;
    double sample_ms = 0.0;     // boot_ms / phase_ms / program-op sample
    /// kProgramStep: the finished op's class and repeat-expanded
    /// invocation count; sample_ms carries its service latency.
    std::uint8_t prog_class = 0;
    std::uint32_t prog_ops = 0;
    /// >= 0: the event started a phase or program op, and this is its
    /// shard's CPU demand / threads right after the start charged it.
    double start_cpu_ratio = -1.0;
    FleetDelta delta{0, 0, 0, 0};  // teardown's fleet-counter deltas
    /// Crash-recovery resolution carried by a victim's kBootDone: the
    /// fault whose replace_ms gets `recovery_ms` (-1: none).
    int recovery_fault = -1;
    double recovery_ms = 0.0;
    /// Retry ledger of the program op the event started, folded in by
    /// note_op_outcome (a default issue folds nothing).
    OpIssue issue;
  };

  struct ShardTask;

  /// Run the handler for shard-local event fx.kind on tenant t.
  void handle_local(Tenant& t, const Scenario& s, Effects& fx);
  void handle_boot_done(Shard& sh, Tenant& t, const Scenario& s, Effects& fx);
  void handle_phase_done(Shard& sh, Tenant& t, const Scenario& s,
                         Effects& fx);
  /// One program op completed: release its demand, record the latency
  /// sample, and advance the interpreter cursor (next op, next loop, or
  /// the exit path).
  void handle_program_step(Shard& sh, Tenant& t, const Scenario& s,
                           Effects& fx);
  void handle_teardown(Shard& sh, Tenant& t, const Scenario& s, Effects& fx);

  /// Begin tenant t's next workload phase: account its demand, charge its
  /// cost, and schedule the completion event.
  void start_phase(Shard& sh, Tenant& t, platforms::WorkloadClass w,
                   const Scenario& s, Effects& fx);
  /// Begin the program op at t.prog_op: account its demand, dispatch it
  /// through the host kernel and the shard's device models (with retries),
  /// and schedule the kProgramStep completion.
  void start_program_op(Shard& sh, Tenant& t, const Scenario& s, Effects& fx);
  /// Demand accounting shared by phase and op starts, plus the shard slice
  /// of note_peaks; the fleet slice rides fx.start_cpu_ratio.
  void charge_start(Shard& sh, Tenant& t, double vcpus, bool network,
                    Tenant::InFlight what, Effects& fx);
  /// A finished tenant's exit interaction, then its kTeardown.
  void schedule_exit(Tenant& t, Effects& fx);

  /// Fold a record's effects into the fleet. `replay` is null when the
  /// sequential loop applies the record right after its handler, and the
  /// record's shard task when a window replays it (see the definition for
  /// the three places the two differ).
  void apply_effects(const Effects& fx, ShardTask* replay);

  // --- Parallel execution (scenario.threads > 1, cluster runs) ------------
  //
  // Conservative parallel discrete-event simulation: shards only interact
  // through coordinator events (arrivals, host events, autoscale evals,
  // fault boundaries), so between two of them each shard's events run on a
  // worker thread. Two mechanisms share one worker pool:
  //
  //  * Lanes: a deferred kBootPhys popped at the top level has its
  //    kBootDone seq reserved immediately (determinism) and its physics
  //    computed asynchronously on the owning shard's lane; the coordinator
  //    keeps processing arrivals and harvests completed boots before the
  //    queue reaches them (kBootFloorNs is the provable safety horizon).
  //  * Windows: runs of shard-local events are split into per-shard
  //    sub-queues and drained concurrently through the same handlers the
  //    sequential loop runs, each event's Effects kept; the coordinator then
  //    replays the records through apply_effects in merged (time, seq)
  //    order — reproducing the sequential loop byte for byte.

  /// True once this run committed to the parallel loop.
  bool use_parallel(const Scenario& s) const;

  /// One sequential-loop iteration (shared by both loops for coordinator
  /// events, and the whole loop when threads == 1).
  void process_event(const Event& e, const Scenario& s,
                     const std::vector<sim::Nanos>& arrivals,
                     sim::Nanos& last_event);

  void run_loop_parallel(const Scenario& s,
                         const std::vector<sim::Nanos>& arrivals,
                         sim::Nanos& last_event);

  /// Per-shard window state, storage reused across windows.
  struct ShardTask {
    EventQueue q;                    // this window's events for the shard
    std::vector<Effects> records;    // shard-local (time, seq) order
    std::vector<std::uint64_t> born;  // provisional -> true seq, in order
    std::uint64_t next_birth = 0;    // next provisional seq to hand out
    bool dirty = false;              // non-stale events ran: republish
    std::vector<platforms::PlatformId> counts_touched;  // teardown platforms
    std::size_t replay_pos = 0;      // merge cursor into records
  };

  /// Extract the next window out of queue_ into tasks_; returns the number
  /// of events extracted.
  std::size_t build_window(const Scenario& s);
  /// Worker body: drain one shard's window sub-queue through handle_local,
  /// keeping each event's Effects for the replay.
  void window_drain(ShardTask& task, const Scenario& s);
  /// Whether fx's follow-up event still belongs to the current window.
  /// Must evaluate identically on workers and during replay.
  bool birth_in_window(const Effects& fx) const;
  /// Merge every task's records by (time, true seq) and apply them exactly
  /// as the sequential loop would have.
  void replay_window(sim::Nanos& last_event);

  class ParallelCtx;  // worker pool + boot lanes (engine_parallel.cpp)

  std::vector<ShardTask> tasks_;
  std::vector<int> win_shards_;    // shards touched by the current window
  sim::Nanos win_bound_ = 0;       // births at >= bound leave the window
  bool win_has_stop_ = false;      // window halted by a coordinator event
  sim::Nanos win_stop_time_ = 0;
  std::uint64_t win_seq_base_ = 0;  // provisional seqs start here

  /// Cluster-capable runs route boot physics through kBootPhys events (at
  /// every thread count, so reports stay byte-identical across threads);
  /// plain single-host runs keep the inline flow the goldens pin.
  bool deferred_boot_ = false;
};

}  // namespace fleet
