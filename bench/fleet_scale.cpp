// Fleet engine scaling benchmark: the repo's recorded perf trajectory.
//
// Every case is run twice against fresh state and the bench exits 1 unless
// the two reports (to_text() plus events_processed) are byte-identical, so
// the engine's determinism guarantee is checked on every bench run, not just
// in unit tests. Each run lands as one generic record
//
//   {case, shape, variant, wall_ms, events, counters{}, invariants{}}
//
// keyed by (case, shape, variant): wall_ms is the faster of the two runs,
// counters are deterministic behaviour numbers (a change is a behaviour
// change, not noise) and invariants are the hard claims a case exists to
// demonstrate. Records are written as JSON (default BENCH_fleet_scale.json,
// see README "Performance"); CI's perf gate (tools/check_perf_trajectory.py)
// matches a fresh run's records to the committed copy by key.
//
// Cases:
//   - coldstart-storm and density-sweep on one host at every --tenants size;
//   - with --hosts M > 1, at the largest --tenants size on M hosts:
//     cluster-storm under every placement policy, the retry-vs-single-shot
//     differential, the autoscaled storm (M -> 2M hosts) against its
//     fixed-topology control, the crash-recovery storm and the program
//     storm; plus the degrade storm with its no-retry control, always at
//     the 180x3 shape its fault windows are tuned against;
//   - cluster-storm under every policy at each --clusters TENANTSxHOSTS;
//   - with --threads, the parallel sweep: the first --clusters shape (else
//     the --hosts one) under least-loaded placement once per thread count,
//     threads=1 always included, each report byte-identical to threads=1's;
//   - federation-storm under every routing policy at each --cells
//     CELLSxHOSTSxTENANTS.
//
// Usage: fleet_scale [--tenants N[,N...]] [--hosts M]
//                    [--clusters NxM[,NxM...]] [--threads N[,N...]]
//                    [--cells KxMxN[,KxMxN...]] [--out PATH] [--no-json]
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/host_system.h"
#include "fleet/cluster.h"
#include "fleet/engine.h"
#include "fleet/federation.h"
#include "fleet/placement.h"
#include "fleet/report.h"
#include "fleet/scenario.h"

namespace {

struct Counter {
  std::string name;
  double value = 0.0;
  int decimals = 0;  // JSON precision; fixed so reruns compare exactly
};

/// One bench record; see the file comment for the field semantics.
struct Record {
  Record(std::string c, std::string s, std::string v)
      : name(std::move(c)), shape(std::move(s)), variant(std::move(v)) {}

  std::string name;  // "case" in the JSON
  std::string shape;
  std::string variant;
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  std::vector<Counter> counters;
  std::vector<std::pair<std::string, bool>> invariants;

  Record& count(const std::string& counter, double value, int decimals = 0) {
    counters.push_back({counter, value, decimals});
    return *this;
  }
  Record& require(const std::string& invariant, bool holds) {
    invariants.emplace_back(invariant, holds);
    return *this;
  }
};

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// One timed run against fresh state; only the engine run itself is timed.
fleet::FleetReport run_host(const fleet::Scenario& s, double* wall_ms) {
  core::HostSystem host;  // fresh host: cold page cache, pristine ftrace
  fleet::FleetEngine engine(host);
  const auto t0 = Clock::now();
  auto report = engine.run(s);
  *wall_ms = ms_since(t0);
  return report;
}

fleet::FleetReport run_cluster(const fleet::Scenario& s, double* wall_ms) {
  fleet::Cluster cluster(s.cluster);
  const auto t0 = Clock::now();
  auto report = cluster.run(s);
  *wall_ms = ms_since(t0);
  return report;
}

fleet::FederationReport run_federation(const fleet::FederatedScenario& fs,
                                       double* wall_ms) {
  fleet::Federation fed(fs.topology);
  const auto t0 = Clock::now();
  auto report = fed.run(fs);
  *wall_ms = ms_since(t0);
  return report;
}

/// Runs `spec` twice and exits 1 unless both reports -- and `reference`,
/// the sequential report a parallel run must reproduce, when given -- are
/// byte-identical. Fills the record's wall_ms (faster run) and events.
template <typename Spec, typename Report>
Report run_twice(Record* rec, Report (*run)(const Spec&, double*),
                 const Spec& spec, const Report* reference = nullptr) {
  double wall_a = 0.0;
  double wall_b = 0.0;
  Report a = run(spec, &wall_a);
  const Report b = run(spec, &wall_b);
  const std::string text = a.to_text();
  // to_text() deliberately omits events_processed (compatibility surface),
  // so compare it explicitly too.
  for (const Report* other : {&b, reference}) {
    if (other != nullptr && (other->to_text() != text ||
                             other->events_processed != a.events_processed)) {
      std::fprintf(stderr,
                   "fleet_scale: DETERMINISM VIOLATION — %s %s %s: %s\n",
                   rec->name.c_str(), rec->shape.c_str(),
                   rec->variant.c_str(),
                   other == &b ? "two fresh runs produced different reports"
                               : "report differs from the threads=1 run");
      std::exit(1);
    }
  }
  rec->wall_ms = std::min(wall_a, wall_b);
  rec->events = a.events_processed;
  return a;
}

std::string join(const std::vector<int>& parts) {
  std::string s;
  for (const int p : parts) {
    s += (s.empty() ? "" : "x") + std::to_string(p);
  }
  return s;
}

double p(const stats::SampleSet& samples, double pct) {
  return samples.empty() ? 0.0 : samples.percentile(pct);
}

Record host_record(const fleet::Scenario& s) {
  Record rec{s.name, std::to_string(s.tenant_count), "single-host"};
  const auto r = run_twice(&rec, run_host, s);
  rec.count("admitted", r.admitted).count("completed", r.completed);
  return rec;
}

Record cluster_record(const std::vector<int>& shape,
                      fleet::PlacementKind kind) {
  const auto s = fleet::Scenario::cluster_storm(shape[0], shape[1], kind);
  Record rec{"cluster-storm", join(shape), fleet::placement_kind_name(kind)};
  const auto r = run_twice(&rec, run_cluster, s);
  rec.count("admitted", r.admitted)
      .count("completed", r.completed)
      .count("spills", r.spills)
      .count("ksm_shared_pages", r.ksm.shared_pages)
      .count("ksm_backing_pages", r.ksm.backing_pages)
      .count("boot_p50_ms", p(r.cluster_boot_ms, 50), 2)
      .count("boot_p99_ms", p(r.cluster_boot_ms, 99), 2)
      .count("makespan_ms", sim::to_millis(r.makespan), 2);
  return rec;
}

/// The sequential-vs-parallel sweep at one cluster shape.
std::vector<Record> parallel_records(
    const std::vector<int>& shape,
    const std::vector<std::vector<int>>& thread_counts) {
  std::vector<int> counts = {1};
  for (const auto& n : thread_counts) {
    if (std::find(counts.begin(), counts.end(), n[0]) == counts.end()) {
      counts.push_back(n[0]);
    }
  }
  auto s = fleet::Scenario::cluster_storm(shape[0], shape[1],
                                          fleet::PlacementKind::kLeastLoaded);
  std::vector<Record> records;
  fleet::FleetReport sequential;
  for (const int threads : counts) {
    s.threads = threads;
    Record rec{"parallel-sweep", join(shape),
               "threads=" + std::to_string(threads)};
    auto report =
        run_twice(&rec, run_cluster, s, threads == 1 ? nullptr : &sequential);
    if (threads == 1) {
      sequential = std::move(report);
    }
    records.push_back(rec);
  }
  return records;
}

/// The retry-on-reject differential: a RAM-tight two-platform storm under
/// ksm-affinity, where the policy's first choice is always the platform's
/// pile host. Single-shot placement (PR 3 semantics, emulated by ranking
/// only the first choice) keeps rejecting against the full pile while
/// other hosts sit idle; the retry walk spills the overflow there.
Record retry_record(int tenants, int hosts) {
  auto s = fleet::Scenario::cluster_storm(tenants, hosts,
                                          fleet::PlacementKind::kKsmAffinity);
  s.platform_mix = {
      {platforms::PlatformId::kFirecracker, 0.5},
      {platforms::PlatformId::kQemuKvm, 0.5},
  };
  Record rec{"retry-vs-single-shot", join({tenants, hosts}),
             fleet::placement_kind_name(s.placement)};
  const auto r = run_twice(&rec, run_cluster, s);

  fleet::Cluster cluster(s.cluster);
  std::vector<core::HostSystem*> cluster_hosts;
  for (int i = 0; i < cluster.host_count(); ++i) {
    cluster_hosts.push_back(&cluster.host(i));
  }
  fleet::SingleShotPolicy single_shot(
      fleet::make_placement(fleet::PlacementKind::kKsmAffinity));
  fleet::FleetEngine engine(cluster_hosts, &single_shot);
  const auto ss = engine.run(s);

  rec.count("retry_admitted", r.admitted)
      .count("single_shot_admitted", ss.admitted)
      .count("spills", r.spills)
      .require("retry_admits_more", r.admitted > ss.admitted);
  return rec;
}

/// The autoscaled storm (hosts -> 2x hosts) against its fixed-topology
/// control: the autoscaler must admit tenants the fixed fleet rejects.
Record autoscale_record(int tenants, int hosts) {
  const auto s = fleet::Scenario::autoscale_storm(tenants, hosts, 2 * hosts);
  Record rec{"autoscale-storm", join({tenants, hosts}),
             fleet::placement_kind_name(s.placement)};
  const auto r = run_twice(&rec, run_cluster, s);
  auto fixed = s;
  fixed.autoscale.enabled = false;
  double wall_fixed = 0.0;
  const auto f = run_cluster(fixed, &wall_fixed);

  int peak_hosts = hosts;
  int scale_outs = 0;
  int scale_ins = 0;
  for (const auto& action : r.autoscale_timeline) {
    peak_hosts = std::max(peak_hosts, action.live_hosts);
    scale_outs += action.action == "scale-out";
    scale_ins += action.action == "scale-in";
  }
  rec.count("admitted", r.admitted)  // incl. drain-migration re-admissions
      .count("tenants_admitted", r.tenants_admitted())
      .count("completed", r.completed)
      .count("spills", r.spills)
      .count("final_hosts", r.final_host_count)
      .count("peak_hosts", peak_hosts)
      .count("scale_outs", scale_outs)
      .count("scale_ins", scale_ins)
      .count("drain_migrations", r.drain_migrations)
      .count("makespan_ms", sim::to_millis(r.makespan), 2)
      .count("fixed_admitted", f.admitted)
      .count("fixed_tenants_admitted", f.tenants_admitted())
      .require("autoscale_admits_more",
               r.tenants_admitted() > f.tenants_admitted());
  return rec;
}

/// A mid-ramp host crash on a RAM-tight autoscaled fleet (hosts -> 2x),
/// recorded as recovery SLOs.
Record chaos_record(int tenants, int hosts) {
  const auto s = fleet::Scenario::crash_recovery(tenants, hosts, 2 * hosts);
  Record rec{"crash-recovery", join({tenants, hosts}),
             fleet::placement_kind_name(s.placement)};
  const auto r = run_twice(&rec, run_cluster, s);
  int scale_outs = 0;
  for (const auto& action : r.autoscale_timeline) {
    scale_outs += action.action == "scale-out";
  }
  rec.count("victims", r.crash_victims)
      .count("readmitted", r.crash_readmitted)
      .count("lost", r.crash_lost)
      .count("readmission_fraction", r.readmission_fraction(), 4)
      .count("replace_p50_ms", p(r.replace_ms, 50), 2)
      .count("replace_p99_ms", p(r.replace_ms, 99), 2)
      .count("scale_outs", scale_outs)
      .count("makespan_ms", sim::to_millis(r.makespan), 2);
  return rec;
}

/// Per-tenant interpreted syscall programs: op totals, the worst per-class
/// op p99 and the SLO verdict (1 pass, 0 fail).
Record programs_record(int tenants, int hosts) {
  const auto s = fleet::Scenario::program_storm(tenants, hosts);
  Record rec{"program-storm", join({tenants, hosts}),
             fleet::placement_kind_name(s.placement)};
  const auto r = run_twice(&rec, run_cluster, s);
  int program_tenants = 0;
  double total_ops = 0.0;
  double op_p99_worst_ms = 0.0;
  for (const auto& [name, prog] : r.by_program) {
    (void)name;
    program_tenants += prog.tenants;
    for (const auto& cls : prog.by_class) {
      total_ops += cls.ops;
      op_p99_worst_ms = std::max(op_p99_worst_ms, p(cls.op_ms, 99));
    }
  }
  rec.count("program_tenants", program_tenants)
      .count("total_ops", total_ops)
      .count("op_p99_worst_ms", op_p99_worst_ms, 3)
      .count("slo_pass", r.program_slo_pass() ? 1 : 0)
      .count("makespan_ms", sim::to_millis(r.makespan), 2);
  return rec;
}

/// The degrade storm with per-op retry/backoff against a no-retry control
/// over the same fault schedule: the retry arm must fire retries and give
/// up on fewer ops and lose fewer crash victims than the control.
Record degraded_record(int tenants, int hosts) {
  const auto s = fleet::Scenario::degrade_storm(tenants, hosts);
  Record rec{"degrade-storm", join({tenants, hosts}),
             fleet::placement_kind_name(s.placement)};
  const auto r = run_twice(&rec, run_cluster, s);
  auto control = s;
  control.op_max_retries = 0;
  control.op_backoff_base_ms = 0;
  double wall_control = 0.0;
  const auto c = run_cluster(control, &wall_control);

  int affected = 0;
  double added_p99_worst_ms = 0.0;
  for (const auto& v : r.degraded) {
    affected += v.affected;
    added_p99_worst_ms = std::max(added_p99_worst_ms, p(v.added_ms, 99));
  }
  rec.count("degrade_faults", r.degraded.size())
      .count("affected", affected)
      .count("added_p99_worst_ms", added_p99_worst_ms, 3)
      .count("op_retries", r.op_retries)
      .count("op_give_ups", r.op_give_ups)
      .count("crash_lost", r.crash_lost)
      .count("control_op_give_ups", c.op_give_ups)
      .count("control_crash_lost", c.crash_lost)
      .count("makespan_ms", sim::to_millis(r.makespan), 2)
      .require("retries_fired", r.op_retries > 0)
      .require("fewer_give_ups_than_control", r.op_give_ups < c.op_give_ups)
      .require("fewer_lost_than_control", r.crash_lost < c.crash_lost);
  return rec;
}

Record federation_record(const std::vector<int>& shape,
                         fleet::RoutingKind kind) {
  const auto fs = fleet::FederatedScenario::federation_storm(
      shape[2], shape[0], shape[1], kind);
  Record rec{"federation-storm", join(shape), fleet::routing_kind_name(kind)};
  const auto r = run_twice(&rec, run_federation, fs);
  rec.count("admitted", r.admitted)
      .count("rejected", r.rejected)
      .count("completed", r.completed)
      .count("spills", r.spills)  // inter-cell moves
      .count("makespan_ms", sim::to_millis(r.makespan), 2);
  return rec;
}

void print_record(const Record& r) {
  std::printf("%-20s %-10s %-18s %9.1f ms %8llu events %9.0f ev/s ",
              r.name.c_str(), r.shape.c_str(), r.variant.c_str(), r.wall_ms,
              static_cast<unsigned long long>(r.events),
              r.wall_ms > 0.0 ? static_cast<double>(r.events) / r.wall_ms * 1e3
                              : 0.0);
  for (const Counter& c : r.counters) {
    std::printf(" %s=%.*f", c.name.c_str(), c.decimals, c.value);
  }
  for (const auto& [name, holds] : r.invariants) {
    std::printf(" %s=%s", name.c_str(), holds ? "ok" : "FAILED");
  }
  std::printf("\n");
  std::fflush(stdout);
}

bool write_json(const std::string& path, const std::vector<Record>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"fleet_scale\",\n  \"schema_version\": 10,\n"
               "  \"unit\": {\"wall_ms\": \"milliseconds, faster of two "
               "byte-identical runs\", \"events\": \"simulator events "
               "processed\"},\n  \"records\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(f,
                 "    {\"case\": \"%s\", \"shape\": \"%s\", \"variant\": "
                 "\"%s\", \"wall_ms\": %.1f, \"events\": %llu, "
                 "\"counters\": {",
                 r.name.c_str(), r.shape.c_str(), r.variant.c_str(), r.wall_ms,
                 static_cast<unsigned long long>(r.events));
    for (std::size_t c = 0; c < r.counters.size(); ++c) {
      std::fprintf(f, "%s\"%s\": %.*f", c == 0 ? "" : ", ",
                   r.counters[c].name.c_str(), r.counters[c].decimals,
                   r.counters[c].value);
    }
    std::fprintf(f, "}, \"invariants\": {");
    for (std::size_t c = 0; c < r.invariants.size(); ++c) {
      std::fprintf(f, "%s\"%s\": %s", c == 0 ? "" : ", ",
                   r.invariants[c].first.c_str(),
                   r.invariants[c].second ? "true" : "false");
    }
    std::fprintf(f, "}}%s\n", i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  const bool wrote = std::ferror(f) == 0;
  return std::fclose(f) == 0 && wrote;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t end = s.find(sep, start);
    parts.push_back(s.substr(start, end - start));
    if (end == std::string::npos) {
      return parts;
    }
    start = end + 1;
  }
}

/// Strict: the whole token is decimal digits and the value is in [1, INT_MAX].
bool parse_positive(const std::string& token, int* out) {
  if (token.empty() || token.size() > 10 ||
      !std::all_of(token.begin(), token.end(),
                   [](unsigned char c) { return std::isdigit(c) != 0; })) {
    return false;
  }
  const long long v = std::stoll(token);
  if (v <= 0 || v > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

/// Parses "AxB[,AxB...]" with `dims` 'x'-separated positive ints per item.
bool parse_shapes(const std::string& arg, std::size_t dims,
                  std::vector<std::vector<int>>* out) {
  out->clear();
  for (const std::string& item : split(arg, ',')) {
    const auto parts = split(item, 'x');
    if (parts.size() != dims) {
      return false;
    }
    std::vector<int> shape(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      if (!parse_positive(parts[d], &shape[d])) {
        return false;
      }
    }
    out->push_back(shape);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::vector<int>> sizes = {{1000}, {4000}, {10000}};
  std::vector<std::vector<int>> hosts_arg = {{1}};
  std::vector<std::vector<int>> thread_counts;
  std::vector<std::vector<int>> clusters;
  std::vector<std::vector<int>> cells;
  std::string out = "BENCH_fleet_scale.json";
  bool json = true;
  struct ListFlag {
    const char* flag;
    std::size_t dims;
    std::vector<std::vector<int>>* values;
  };
  const ListFlag list_flags[] = {{"--tenants", 1, &sizes},
                                 {"--hosts", 1, &hosts_arg},
                                 {"--threads", 1, &thread_counts},
                                 {"--clusters", 2, &clusters},
                                 {"--cells", 3, &cells}};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    const auto list = std::find_if(
        std::begin(list_flags), std::end(list_flags),
        [&](const ListFlag& f) { return arg == f.flag; });
    bool ok = true;
    if (arg == "--no-json") {
      json = false;
    } else if (arg == "--out" && has_value) {
      out = argv[++i];
    } else if (list != std::end(list_flags) && has_value) {
      ok = parse_shapes(argv[++i], list->dims, list->values);
    } else {
      ok = false;
    }
    if (!ok || hosts_arg.size() != 1) {
      std::fprintf(stderr,
                   "usage: fleet_scale [--tenants N[,N...]] [--hosts M] "
                   "[--clusters NxM[,NxM...]] [--threads N[,N...]] "
                   "[--cells KxMxN[,KxMxN...]] [--out PATH] [--no-json]\n"
                   "  (every number a positive integer)\n");
      return 2;
    }
  }
  const int hosts = hosts_arg[0][0];
  const int tenants = (*std::max_element(sizes.begin(), sizes.end()))[0];
  if (!thread_counts.empty() && hosts == 1 && clusters.empty()) {
    std::fprintf(stderr,
                 "fleet_scale: --threads needs a cluster shape "
                 "(--hosts M or --clusters NxM)\n");
    return 2;
  }
  if (hosts > 1) {
    clusters.insert(clusters.begin(), {tenants, hosts});
  }

  benchutil::print_header(
      "fleet scale",
      "Engine scaling trajectory: every case run twice (byte-identical\n"
      "reports or exit 1), one record per (case, shape, variant).");

  std::vector<Record> records;
  const auto emit = [&records](const Record& r) {
    print_record(r);
    records.push_back(r);
  };
  for (const auto& size : sizes) {
    emit(host_record(fleet::Scenario::coldstart_storm(size[0])));
    auto sweep = fleet::Scenario::density_sweep(size[0]);
    // Arrivals must outpace teardowns or the density wall is never reached.
    sweep.arrival_window = sim::millis(250);
    emit(host_record(sweep));
  }
  for (const auto& shape : clusters) {
    for (const auto kind : fleet::all_placement_kinds()) {
      emit(cluster_record(shape, kind));
    }
  }
  if (!thread_counts.empty()) {
    // The first explicit --clusters shape (CI pins 100000x64), so a
    // regeneration can add bigger shapes without moving the gated one.
    const auto& shape = clusters[hosts > 1 && clusters.size() > 1 ? 1 : 0];
    for (const Record& r : parallel_records(shape, thread_counts)) {
      emit(r);
    }
  }
  if (hosts > 1) {
    emit(retry_record(tenants, hosts));
    emit(autoscale_record(tenants, hosts));
    emit(chaos_record(tenants, hosts));
    emit(programs_record(tenants, hosts));
    // The fault windows are tuned against this shape's boot/program phase
    // boundary, so it does not follow --tenants/--hosts.
    emit(degraded_record(180, 3));
  }
  for (const auto& shape : cells) {
    for (const auto kind : fleet::all_routing_kinds()) {
      emit(federation_record(shape, kind));
    }
  }

  if (json) {
    if (!write_json(out, records)) {
      std::fprintf(stderr, "fleet_scale: cannot write %s\n", out.c_str());
      return 1;
    }
    std::printf("(json written to %s)\n", out.c_str());
  }
  return 0;
}
