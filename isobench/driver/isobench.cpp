// isobench: the measuring process of the repository benchmark.
//
//   isobench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload repeatedly for S seconds of host time and prints one
// JSON object of raw per-iteration samples, output checks and simulated
// outputs as its last stdout line. isobench/run.py builds this binary
// against libisoplat.a, aggregates the samples into medians and prints the
// benchmark result; isobench/NOTES.md says why each workload exists and
// which layer metric should move which end-to-end metric.
//
// Everything timed here is host time (what the simulator costs). Simulated
// statistics are outputs: they are digested and compared, never timed.
#include <time.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/figures.h"
#include "core/host_system.h"
#include "fleet/cluster.h"
#include "fleet/engine.h"
#include "fleet/event_queue.h"
#include "fleet/placement.h"
#include "fleet/report.h"
#include "fleet/scenario.h"
#include "hostk/host_kernel.h"
#include "hostk/page_cache.h"
#include "mem/ksm.h"

namespace {

// --- Clocks, digests, JSON ------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process, every thread included.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Keeps a computed value alive so the call producing it is not elided.
void keep(std::uint64_t v) { asm volatile("" : : "r"(v) : "memory"); }

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// FNV-1a over bytes; chained through `h` so several parts fold into one.
std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t h = 0xCBF29CE484222325ull) {
  for (const unsigned char c : bytes) {
    h = (h ^ c) * 0x100000001B3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string json_array(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out += (i ? "," : "") + num(xs[i]);
  }
  return out + "]";
}

double median(std::vector<double> xs) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// --- Result accumulation --------------------------------------------------

/// One named output check, counted over every checked run.
struct CheckTally {
  int failures = 0;
  std::string first_failure;
};

/// Everything the driver prints: per-iteration end-to-end samples, check
/// tallies, simulated outputs, and (traced runs) per-layer span samples.
struct Result {
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> traced_wall_s;  // traced iterations, for the overhead
  double peak_rss_mb = 0.0;           // after the timed iterations
  int attempted = 0;
  int failed = 0;
  std::map<std::string, CheckTally> checks;
  std::vector<std::pair<std::string, std::string>> sim;  // name -> JSON value
  std::map<std::string, std::vector<double>> spans;       // traced samples
  std::map<std::string, double> layers;  // per-layer values (traced runs)

  /// Record one check outcome; returns it so callers can fold iteration
  /// verdicts.
  bool check(const std::string& name, bool ok, const std::string& detail) {
    CheckTally& t = checks[name];
    if (!ok && t.failures++ == 0) {
      t.first_failure = detail;
    }
    return ok;
  }

  double span_median(const std::string& name) const {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : median(it->second);
  }
};

// --- Fleet workloads --------------------------------------------------------

/// One fresh fleet run: build the hosts, draw the population, run, render.
struct FleetRun {
  double setup_s = 0.0;  // Cluster constructor + draw_population()
  double wall_s = 0.0;   // Cluster::run + FleetReport::to_text()
  double cpu_s = 0.0;    // process CPU over the wall_s interval
  // Span durations; filled only by traced runs.
  double build_s = 0.0, draw_s = 0.0, run_s = 0.0, run_cpu_s = 0.0,
         render_s = 0.0;
  fleet::FleetReport report;
  std::string text;
};

FleetRun run_fleet(const fleet::Scenario& base, bool traced) {
  FleetRun out;
  fleet::Scenario s = base;
  const double t0 = wall_now();
  fleet::Cluster cluster(s.cluster);
  const double t1 = traced ? wall_now() : 0.0;
  s.population = s.draw_population();
  const double t2 = wall_now();
  const double c2 = cpu_now();
  out.report = cluster.run(s);
  const double t3 = traced ? wall_now() : 0.0;
  const double c3 = traced ? cpu_now() : 0.0;
  out.text = out.report.to_text();
  const double t4 = wall_now();
  const double c4 = cpu_now();
  out.setup_s = t2 - t0;
  out.wall_s = t4 - t2;
  out.cpu_s = c4 - c2;
  if (traced) {
    out.build_s = t1 - t0;
    out.draw_s = t2 - t1;
    out.run_s = t3 - t2;
    out.run_cpu_s = c3 - c2;
    out.render_s = t4 - t3;
  }
  return out;
}

std::uint64_t report_digest(const FleetRun& r) {
  return fnv1a(std::to_string(r.report.events_processed), fnv1a(r.text));
}

std::uint64_t program_ops(const fleet::FleetReport& r) {
  std::uint64_t ops = 0;
  for (const auto& [name, prog] : r.by_program) {
    (void)name;
    for (const auto& cls : prog.by_class) {
      ops += cls.ops;
    }
  }
  return ops;
}

/// The output checks of one fleet run. `ref` is a fresh sequential run of
/// the same scenario made before timing started; `parallel` names the
/// identity check after the engine the run used.
bool check_fleet(Result& res, const FleetRun& run, const FleetRun& ref,
                 bool parallel) {
  const fleet::FleetReport& r = run.report;
  bool ok = true;
  ok &= res.check(parallel ? "matches_sequential_run" : "rerun_identical",
                  run.text == ref.text &&
                      r.events_processed == ref.report.events_processed,
                  "digest " + hex64(report_digest(run)) + " vs reference " +
                      hex64(report_digest(ref)));
  long admitted = 0, rejected = 0, spill_in = 0, spill_out = 0;
  for (const fleet::HostRollup& h : r.hosts) {
    admitted += h.admitted;
    rejected += h.rejected;
    spill_in += h.spill_in;
    spill_out += h.spill_out;
  }
  ok &= res.check("host_sums_match_fleet",
                  admitted == r.admitted && rejected == r.rejected,
                  "hosts admitted/rejected " + std::to_string(admitted) + "/" +
                      std::to_string(rejected) + " vs fleet " +
                      std::to_string(r.admitted) + "/" +
                      std::to_string(r.rejected));
  ok &= res.check("spills_balance",
                  spill_in == spill_out && spill_in == r.spills,
                  "spill_in " + std::to_string(spill_in) + ", spill_out " +
                      std::to_string(spill_out) + ", spills " +
                      std::to_string(r.spills));
  return ok;
}

// Per-layer micro-measurements of the four layers buried inside
// Cluster::run. Each drives the layer's public API directly, at the volume
// the traced run counted and with inputs from the same drawn population,
// and returns host nanoseconds per call.

/// Host nanoseconds per call for `calls` calls made since `t0`.
double ns_per_call(double t0, std::uint64_t calls) {
  return (wall_now() - t0) * 1e9 /
         static_cast<double>(std::max<std::uint64_t>(1, calls));
}

/// Shape of one hypervisor guest's KSM digest runs: a zero-page run merged
/// everywhere, a per-platform image run, a tenant-private run. Mirrors the
/// fleet engine's guest layout at 2 MiB granularity.
std::vector<mem::PageRun> guest_runs(std::uint64_t tenant,
                                     platforms::PlatformId platform,
                                     const fleet::Scenario& s) {
  constexpr std::uint64_t kUnit = 2ull << 20;
  const std::uint64_t total =
      std::max<std::uint64_t>(1, s.guest_ram_bytes / kUnit);
  const auto zero =
      static_cast<std::uint64_t>(static_cast<double>(total) * 0.35);
  const std::uint64_t image = std::min(total - zero, s.image_bytes / kUnit);
  return {
      {0x2E80'0000'0000'0000ull, zero},
      {0xBA5E'0000'0000'0000ull + (static_cast<std::uint64_t>(platform) << 32),
       image},
      {0x7E4A'0000'0000'0000ull + (tenant << 24) + zero + image,
       total - zero - image},
  };
}

/// Push/pop pairs through an EventQueue: every tenant's arrival, then each
/// popped event schedules its successor until `events` have been pushed.
double event_queue_ns(const std::vector<fleet::TenantSeed>& pop,
                      std::uint64_t events, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<sim::Nanos> delays(4096);
  for (sim::Nanos& d : delays) {
    d = sim::micros(1 + rng.uniform_int(0, 300000));
  }
  fleet::EventQueue q;
  std::uint64_t pushed = 0, popped = 0;
  const double t0 = wall_now();
  for (std::size_t i = 0; i < pop.size() && pushed < events; ++i, ++pushed) {
    q.push(pop[i].arrival, i, fleet::EventKind::kArrival);
  }
  while (!q.empty()) {
    const fleet::Event e = q.pop();
    ++popped;
    if (pushed < events) {
      q.push(e.time + delays[pushed % delays.size()], e.tenant,
             fleet::EventKind::kPhaseDone);
      ++pushed;
    }
  }
  return ns_per_call(t0, popped);
}

/// Candidate walks through the scenario's placement policy: each tenant
/// takes the first-ranked host, and the oldest tenant leaves once every
/// host holds an even share, so host states keep moving.
double placement_walk_ns(const std::vector<fleet::TenantSeed>& pop,
                         const fleet::Scenario& s, std::uint64_t walks) {
  const int hosts = s.cluster.host_count;
  const std::uint64_t cap = core::HostSystemSpec{}.ram_bytes;
  auto policy = fleet::make_placement(s.placement);
  policy->reset();
  std::vector<fleet::HostState> state(static_cast<std::size_t>(hosts));
  for (int h = 0; h < hosts; ++h) {
    state[static_cast<std::size_t>(h)].index = h;
    state[static_cast<std::size_t>(h)].ram_cap_bytes = cap;
    state[static_cast<std::size_t>(h)].pressure.cpu_threads =
        core::HostSystemSpec{}.cpu_threads;
    policy->host_updated(state[static_cast<std::size_t>(h)]);
  }
  const std::size_t resident_limit = pop.size() / 2;
  std::deque<std::pair<int, std::uint64_t>> resident;  // (host, bytes)
  const double t0 = wall_now();
  for (std::uint64_t w = 0; w < walks; ++w) {
    const fleet::TenantSeed& t = pop[w % pop.size()];
    fleet::PlacementRequest req;
    req.tenant_id = w;
    req.platform_id = t.platform_id;
    req.hypervisor_backed = fleet::is_hypervisor_backed(t.platform_id);
    req.guest_ram_bytes = s.guest_ram_bytes;
    policy->walk_begin(req);
    const int h = policy->walk_next();
    const std::uint64_t bytes =
        req.hypervisor_backed ? s.guest_ram_bytes : s.guest_ram_bytes / 4;
    fleet::HostState& hs = state[static_cast<std::size_t>(h)];
    hs.resident_bytes += bytes;
    ++hs.active_tenants;
    policy->host_updated(hs);
    resident.push_back({h, bytes});
    if (resident.size() > resident_limit) {
      const auto oldest = static_cast<std::size_t>(resident.front().first);
      fleet::HostState& old = state[oldest];
      old.resident_bytes -= resident.front().second;
      --old.active_tenants;
      policy->host_updated(old);
      resident.pop_front();
    }
  }
  return ns_per_call(t0, walks);
}

struct KsmNs {
  double advise = 0.0, probe = 0.0, remove = 0.0;
};

/// Every hypervisor tenant of the population advised (plus one ksmd scan,
/// as admission does) on its round-robin host's stable tree, probed once
/// more as a new guest against the populated trees, then removed.
KsmNs ksm_ns(const std::vector<fleet::TenantSeed>& pop,
             const fleet::Scenario& s) {
  std::vector<std::vector<mem::PageRun>> runs;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    if (fleet::is_hypervisor_backed(pop[i].platform_id)) {
      runs.push_back(guest_runs(i, pop[i].platform_id, s));
    }
  }
  const std::size_t hosts = static_cast<std::size_t>(s.cluster.host_count);
  std::vector<mem::Ksm> ksm(hosts);
  KsmNs out;
  double t0 = wall_now();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    ksm[i % hosts].advise_runs(i, runs[i]);
    ksm[i % hosts].scan();
  }
  out.advise = ns_per_call(t0, runs.size());
  std::uint64_t sink = 0;
  t0 = wall_now();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    sink += ksm[(i + 1) % hosts].probe_runs(runs[i]).backing_delta;
  }
  out.probe = ns_per_call(t0, runs.size());
  t0 = wall_now();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    ksm[i % hosts].remove(i);
  }
  out.remove = ns_per_call(t0, runs.size());
  keep(sink);
  return out;
}

/// Boot-image pulls (the engine's per-boot access_range) through per-host
/// page caches, tenant by tenant, until `pages` pages (the run's hits +
/// misses) were touched.
double page_cache_ns(const std::vector<fleet::TenantSeed>& pop,
                     const fleet::Scenario& s, std::uint64_t pages) {
  const std::size_t hosts = static_cast<std::size_t>(s.cluster.host_count);
  std::vector<hostk::PageCache> caches(
      hosts, hostk::PageCache(core::HostSystemSpec{}.host_page_cache_bytes));
  const std::uint64_t image_pages =
      std::max<std::uint64_t>(1, s.image_bytes / hostk::PageCache::kPageSize);
  std::uint64_t calls = 0;
  const double t0 = wall_now();
  for (std::uint64_t touched = 0; touched < pages; touched += image_pages) {
    const fleet::TenantSeed& t = pop[calls % pop.size()];
    caches[calls % hosts].access_range(
        0xF1EE'0000ull + static_cast<std::uint64_t>(t.platform_id), 0,
        s.image_bytes);
    ++calls;
  }
  return ns_per_call(t0, calls);
}

/// HostKernel::invoke over a hypervisor-VMM syscall mix with the tenants'
/// own RNG streams, until the traced kernel functions reach `invocations`.
double hostk_invoke_ns(const std::vector<fleet::TenantSeed>& pop,
                       std::uint64_t invocations) {
  using hostk::Syscall;
  const std::vector<std::pair<Syscall, std::uint64_t>> mix = {
      {Syscall::kOpenat, 6},      {Syscall::kClose, 6},
      {Syscall::kFstat, 4},       {Syscall::kMmap, 8},
      {Syscall::kMunmap, 4},      {Syscall::kMadvise, 4},
      {Syscall::kReadv, 8},       {Syscall::kWritev, 8},
      {Syscall::kPread64, 8},     {Syscall::kPwrite64, 8},
      {Syscall::kFutexWait, 2},   {Syscall::kFutexWake, 2},
      {Syscall::kEpollWait, 16},  {Syscall::kIoSubmit, 64},
      {Syscall::kSendmsg, 2},     {Syscall::kRecvmsg, 2},
      {Syscall::kClockGettime, 32}, {Syscall::kTgkill, 2},
  };
  hostk::HostKernel kernel;
  std::vector<std::uint64_t> hits;
  for (const auto& [sc, count] : mix) {
    std::uint64_t per_call = 0;
    for (const hostk::FunctionHit& f : kernel.spec(sc).functions) {
      per_call += f.count;
    }
    hits.push_back(per_call * count);
  }
  std::vector<sim::Rng> rngs;
  for (std::size_t i = 0; i < std::min<std::size_t>(pop.size(), 1024); ++i) {
    rngs.push_back(pop[i].rng);
  }
  kernel.ftrace().start();
  std::uint64_t traced = 0, calls = 0;
  sim::Nanos cost = 0;
  const double t0 = wall_now();
  for (std::size_t i = 0; traced < invocations; ++i) {
    const std::size_t k = i % mix.size();
    cost += kernel.invoke(mix[k].first, rngs[(i / mix.size()) % rngs.size()],
                          mix[k].second);
    traced += std::max<std::uint64_t>(1, hits[k]);
    ++calls;
  }
  const double ns = ns_per_call(t0, calls);
  kernel.ftrace().stop();
  keep(static_cast<std::uint64_t>(cost));
  return ns;
}

// --- Paper figures ----------------------------------------------------------

/// Every figure's output, as the findings report regenerates it.
struct Figures {
  std::vector<core::Bar> fig5, f1, fig8, fig10, fig11, fig12, fig16;
  std::vector<core::Curve> fig6, fig17;
  std::vector<core::BandwidthBar> fig7;
  std::vector<core::IoBar> fig9;
  std::vector<core::CdfSeries> fig13, fig14, fig15;
  std::vector<hap::HapScore> fig18;
};

/// Calls every figure function at the findings report's repetition counts
/// (figure 8, which that report does not use, at its own default). With
/// `spans`, records each call's host seconds under figures.<name>_s.
Figures make_figures(std::uint64_t seed,
                     std::map<std::string, std::vector<double>>* spans) {
  Figures f;
  const auto timed = [&](const char* name, const std::function<void()>& call) {
    const double t0 = spans ? wall_now() : 0.0;
    call();
    if (spans) {
      (*spans)[std::string("figures.") + name + "_s"].push_back(wall_now() -
                                                                 t0);
    }
  };
  timed("fig05", [&] { f.fig5 = core::figure5_ffmpeg(4, seed); });
  timed("finding1", [&] { f.f1 = core::finding1_sysbench_cpu(4, seed); });
  timed("fig06", [&] { f.fig6 = core::figure6_memory_latency(5, seed); });
  timed("fig07", [&] { f.fig7 = core::figure7_memory_bandwidth(5, seed); });
  timed("fig08", [&] { f.fig8 = core::figure8_stream(10, seed); });
  timed("fig09", [&] { f.fig9 = core::figure9_fio_throughput(4, seed); });
  timed("fig10", [&] { f.fig10 = core::figure10_fio_randread(4, seed); });
  timed("fig11", [&] { f.fig11 = core::figure11_iperf3(5, seed); });
  timed("fig12", [&] { f.fig12 = core::figure12_netperf(5, seed); });
  timed("fig13", [&] { f.fig13 = core::figure13_container_boot(100, seed); });
  timed("fig14", [&] { f.fig14 = core::figure14_hypervisor_boot(100, seed); });
  timed("fig15", [&] { f.fig15 = core::figure15_osv_boot(100, seed); });
  timed("fig16", [&] { f.fig16 = core::figure16_memcached(3, seed); });
  timed("fig17", [&] { f.fig17 = core::figure17_mysql_oltp(2, seed); });
  timed("fig18", [&] { f.fig18 = core::figure18_hap(seed); });
  return f;
}

/// Digest of every number the figures produced, for the rerun check.
std::uint64_t figures_digest(const Figures& f) {
  std::string s;
  const auto bars = [&](const std::vector<core::Bar>& v) {
    for (const core::Bar& b : v) {
      s += b.platform + num(b.mean) + num(b.stddev) +
           (b.excluded ? "x;" : ";");
    }
  };
  bars(f.fig5), bars(f.f1), bars(f.fig8), bars(f.fig10), bars(f.fig11);
  bars(f.fig12), bars(f.fig16);
  for (const auto* curves : {&f.fig6, &f.fig17}) {
    for (const core::Curve& c : *curves) {
      s += c.platform;
      for (const auto* v : {&c.x, &c.y, &c.yerr}) {
        for (const double x : *v) {
          s += num(x) + ",";
        }
      }
    }
  }
  for (const core::BandwidthBar& b : f.fig7) {
    s += b.platform + num(b.regular_mbps) + num(b.regular_std) +
         num(b.sse2_mbps) + num(b.sse2_std) + ";";
  }
  for (const core::IoBar& b : f.fig9) {
    s += b.platform + num(b.read.mean) + num(b.read.stddev) +
         num(b.write.mean) + num(b.write.stddev) + ";";
  }
  for (const auto* cdfs : {&f.fig13, &f.fig14, &f.fig15}) {
    for (const core::CdfSeries& c : *cdfs) {
      s += c.platform + num(c.samples_ms.percentile(50)) +
           num(c.samples_ms.percentile(99)) +
           std::to_string(c.samples_ms.size());
    }
  }
  for (const hap::HapScore& h : f.fig18) {
    s += h.platform + std::to_string(h.distinct_functions) +
         std::to_string(h.total_invocations) + num(h.extended_hap) + ";";
  }
  return fnv1a(s);
}

template <typename T>
const T& by_platform(const std::vector<T>& v, const std::string& name) {
  for (const T& x : v) {
    if (x.platform == name) {
      return x;
    }
  }
  throw std::logic_error("missing platform " + name);
}

double p50(const std::vector<core::CdfSeries>& v, const std::string& name) {
  return by_platform(v, name).samples_ms.percentile(50);
}

double peak(const core::Curve& c) {
  return c.y.empty() ? 0.0 : *std::max_element(c.y.begin(), c.y.end());
}

/// The paper's 28 findings, asserted exactly as bench/findings_report.cpp
/// asserts them. Returns the numbers of the findings that do not hold.
std::vector<int> failed_findings(const Figures& f) {
  const auto mean = [](const std::vector<core::Bar>& v, const char* n) {
    return by_platform(v, n).mean;
  };
  const auto mem_last = [&](const char* n) {
    return by_platform(f.fig6, n).y.back();
  };
  const auto bw = [&](const char* n) {
    return by_platform(f.fig7, n).regular_mbps;
  };
  const auto fio_read = [&](const char* n) {
    return by_platform(f.fig9, n).read.mean;
  };
  const auto oltp = [&](const char* n) {
    return peak(by_platform(f.fig17, n));
  };
  const auto hap = [&](const char* n) {
    return by_platform(f.fig18, n).distinct_functions;
  };
  const std::vector<std::function<bool()>> findings = {
      [&] {  // 1
        double lo = 1e18, hi = 0;
        for (const core::Bar& b : f.f1) {
          lo = std::min(lo, b.mean);
          hi = std::max(hi, b.mean);
        }
        return hi / lo < 1.05 &&
               mean(f.fig5, "osv") > mean(f.fig5, "native") * 1.3;
      },
      [&] {  // 2
        return std::abs(mean(f.fig5, "docker-oci") - mean(f.fig5, "native")) <
               mean(f.fig5, "native") * 0.06;
      },
      [&] {  // 3
        return mem_last("kata-containers") < mem_last("native") * 1.25 &&
               mem_last("osv") < mem_last("native") * 1.25;
      },
      [&] {  // 4
        return mem_last("firecracker") > mem_last("cloud-hypervisor") &&
               mem_last("cloud-hypervisor") > mem_last("native") &&
               bw("qemu-kvm") < bw("native") * 0.93 &&
               bw("cloud-hypervisor") > bw("native") * 0.90;
      },
      [&] { return mem_last("osv-fc") > mem_last("osv") * 1.1; },  // 5
      [&] {  // 6
        return fio_read("qemu-kvm") > fio_read("native") * 0.9 &&
               fio_read("kata-containers") < fio_read("native") * 0.5 &&
               fio_read("gvisor") < fio_read("native") * 0.5 &&
               fio_read("cloud-hypervisor") < fio_read("native") * 0.6;
      },
      [&] { return true; },  // 7: asserted in the Kata ablation and unit tests
      [&] { return fio_read("gvisor") < fio_read("native") * 0.5; },  // 8
      [&] {  // 9
        return mean(f.fig10, "cloud-hypervisor") < mean(f.fig10, "qemu-kvm");
      },
      [&] {  // 10
        return mean(f.fig12, "docker-oci") < mean(f.fig12, "qemu-kvm") &&
               mean(f.fig12, "kata-containers") < mean(f.fig12, "qemu-kvm");
      },
      [&] { return mean(f.fig12, "osv") < mean(f.fig12, "qemu-kvm"); },  // 11
      [&] {  // 12
        const double r = mean(f.fig12, "gvisor") / mean(f.fig12, "docker-oci");
        return r > 2.5 && r < 5.5;
      },
      [&] {  // 13
        return p50(f.fig13, "docker-oci") < 200 &&
               p50(f.fig13, "kata-oci") > 450 && p50(f.fig13, "lxc") > 600;
      },
      [&] {  // 14
        return p50(f.fig14, "cloud-hypervisor") < p50(f.fig14, "qemu-qboot") &&
               p50(f.fig14, "firecracker") > p50(f.fig14, "qemu-kvm") &&
               p50(f.fig14, "qemu-microvm") > p50(f.fig14, "firecracker");
      },
      [&] {  // 15
        return p50(f.fig15, "osv-firecracker(e2e)") < 150 &&
               p50(f.fig15, "osv-qemu(e2e)") >
                   p50(f.fig15, "osv-firecracker(e2e)") * 1.5;
      },
      [&] {  // 16
        return std::abs(1.0 - p50(f.fig15, "osv-qemu(stdout)") /
                                  p50(f.fig15, "osv-qemu(e2e)")) < 0.03;
      },
      [&] {  // 17
        return mean(f.fig16, "lxc") > mean(f.fig16, "qemu-kvm") &&
               mean(f.fig16, "qemu-kvm") > mean(f.fig16, "firecracker") &&
               mean(f.fig16, "firecracker") > mean(f.fig16, "cloud-hypervisor");
      },
      [&] {  // 18
        return mean(f.fig16, "kata-containers") <
               mean(f.fig16, "cloud-hypervisor") * 0.7;
      },
      [&] {  // 19
        return mean(f.fig16, "gvisor") < mean(f.fig16, "docker-oci") * 0.35;
      },
      [&] {  // 20
        const core::Curve& native = by_platform(f.fig17, "native");
        const auto top = std::max_element(native.y.begin(), native.y.end());
        const auto at = static_cast<std::size_t>(top - native.y.begin());
        return native.x[at] >= 80 && oltp("native") < oltp("docker-oci") * 1.6;
      },
      [&] {  // 21
        return oltp("osv") < oltp("docker-oci") * 0.45 &&
               oltp("gvisor") < oltp("docker-oci") * 0.45;
      },
      [&] {  // 22
        return oltp("firecracker") < oltp("docker-oci") * 0.75 &&
               oltp("kata-containers") < oltp("docker-oci") * 0.85;
      },
      [&] {  // 23
        const double d = oltp("docker-oci");
        return std::abs(oltp("lxc") / d - 1.0) < 0.2 &&
               std::abs(oltp("qemu-kvm") / d - 1.0) < 0.3;
      },
      [&] {  // 24
        for (const hap::HapScore& s : f.fig18) {
          if (s.platform != "firecracker" &&
              s.distinct_functions >= hap("firecracker")) {
            return false;
          }
        }
        return true;
      },
      [&] { return hap("cloud-hypervisor") < hap("qemu-kvm") / 2; },  // 25
      [&] {  // 26
        return hap("gvisor") > hap("docker-oci") &&
               hap("kata-containers") > hap("lxc");
      },
      [&] {  // 27
        for (const hap::HapScore& s : f.fig18) {
          if (s.platform != "osv" && s.platform != "osv-fc" &&
              s.distinct_functions < hap("osv")) {
            return false;
          }
        }
        return true;
      },
      [&] { return true; },  // 28: definitional
  };
  std::vector<int> failed;
  for (std::size_t i = 0; i < findings.size(); ++i) {
    bool holds = false;
    try {
      holds = findings[i]();
    } catch (const std::logic_error&) {
      holds = false;  // a platform the finding names is missing
    }
    if (!holds) {
      failed.push_back(static_cast<int>(i) + 1);
    }
  }
  return failed;
}

/// Paper-figure passes made after the timed iterations of program-storm,
/// untimed: one reference pass, then `passes` checked passes. With `traced`,
/// the checked passes record the figures.<name>_s spans. Each checked pass is
/// one run in `attempted` and `failed`.
void run_figures(Result& res, std::uint64_t seed, int passes, bool traced) {
  const std::uint64_t fig_seed = core::kFigureSeed ^ splitmix64(seed);
  const Figures ref = make_figures(fig_seed, nullptr);
  const std::uint64_t ref_digest = figures_digest(ref);
  res.sim.push_back({"figures_digest", quote(hex64(ref_digest))});
  res.sim.push_back({"findings_holding",
                     std::to_string(28 - failed_findings(ref).size())});
  std::map<std::string, std::vector<double>> spans;
  for (int pass = 0; pass < passes; ++pass) {
    const Figures figs = make_figures(fig_seed, traced ? &spans : nullptr);
    ++res.attempted;
    bool ok = res.check("figures_rerun_identical",
                        figures_digest(figs) == ref_digest,
                        "figures digest " + hex64(figures_digest(figs)) +
                            " vs reference " + hex64(ref_digest));
    const std::vector<int> failed = failed_findings(figs);
    std::string which;
    for (const int n : failed) {
      which += (which.empty() ? "" : ",") + std::to_string(n);
    }
    ok &= res.check("all_28_findings_hold", failed.empty(),
                    "findings failing: " + which);
    res.failed += ok ? 0 : 1;
  }
  for (const auto& [name, samples] : spans) {
    res.layers[name] = median(samples);
  }
}

// --- Workload runner --------------------------------------------------------

fleet::Scenario fleet_scenario(const std::string& workload,
                               std::uint64_t seed) {
  fleet::Scenario s =
      workload == "program-storm"
          ? fleet::Scenario::program_storm(40000, 16)
          : fleet::Scenario::cluster_storm(100000, 64,
                                           fleet::PlacementKind::kLeastLoaded);
  s.seed = splitmix64(seed);
  return s;
}

/// Extra set-up samples taken after each untraced fleet iteration.
constexpr int kExtraSetups = 3;

/// Worker threads of the parallel-engine runs on cluster-storm.
constexpr int kParallelThreads = 4;

/// Checked paper-figure passes of a traced program-storm run, for the
/// figures.* span medians. An untraced run makes one.
constexpr int kTracedFigurePasses = 3;

void run_fleet_workload(Result& res, const std::string& workload,
                        std::uint64_t seed, double seconds, bool trace) {
  const fleet::Scenario s = fleet_scenario(workload, seed);
  // Untimed reference: a fresh sequential run of the same scenario. Every
  // timed iteration must reproduce its report byte for byte.
  FleetRun ref = run_fleet(s, false);
  // Only the reference's text and aggregates are needed: free its
  // per-tenant records so peak_rss_mb reflects one run, not two.
  std::vector<fleet::TenantOutcome>().swap(ref.report.tenants);
  const fleet::FleetReport& r = ref.report;
  res.sim = {
      {"report_digest", quote(hex64(report_digest(ref)))},
      {"makespan_ms", num(static_cast<double>(r.makespan) / 1e6)},
      {"boot_p99_ms", num(r.cluster_boot_ms.empty()
                              ? 0.0
                              : r.cluster_boot_ms.percentile(99.0))},
      {"admitted", std::to_string(r.admitted)},
      {"events", std::to_string(r.events_processed)},
  };

  // cluster-storm also runs the parallel engine, untimed: its wall time
  // depends on how many vCPUs the host grants at that moment, far beyond
  // any usable bound. Its report must match the sequential reference.
  fleet::Scenario parallel = s;
  parallel.threads = kParallelThreads;
  const bool with_parallel = workload == "cluster-storm";
  const auto parallel_run = [&](bool traced) {
    const FleetRun run = run_fleet(parallel, traced);
    ++res.attempted;
    res.failed += check_fleet(res, run, ref, true) ? 0 : 1;
    return run;
  };

  const double deadline = wall_now() + seconds;
  do {
    // Traced runs alternate an untraced and a traced iteration (plus a
    // traced parallel one on cluster-storm, for the speedup).
    for (const bool traced : trace ? std::vector<bool>{false, true}
                                   : std::vector<bool>{false}) {
      const FleetRun run = run_fleet(s, traced);
      ++res.attempted;
      res.failed += check_fleet(res, run, ref, false) ? 0 : 1;
      if (!traced) {
        res.setup_s.push_back(run.setup_s);
        res.wall_s.push_back(run.wall_s);
        res.cpu_s.push_back(run.cpu_s);
        // Set-up is short and noisy: sample it a few more times per
        // iteration so its median settles like wall_s's.
        for (int i = 0; i < kExtraSetups; ++i) {
          const double t0 = wall_now();
          const fleet::Cluster cluster(s.cluster);
          const std::vector<fleet::TenantSeed> population =
              s.draw_population();
          res.setup_s.push_back(wall_now() - t0);
        }
        continue;
      }
      res.traced_wall_s.push_back(run.wall_s);
      res.spans["cluster.build_s"].push_back(run.build_s);
      res.spans["scenario.draw_s"].push_back(run.draw_s);
      res.spans["engine.run_s"].push_back(run.run_s);
      res.spans["report.render_s"].push_back(run.render_s);
      if (with_parallel) {
        const FleetRun par = parallel_run(true);
        res.spans["parallel.run_s"].push_back(par.run_s);
        res.spans["parallel.run_cpu_s"].push_back(par.run_cpu_s);
      }
    }
  } while (wall_now() < deadline || res.wall_s.size() < 3);
  res.peak_rss_mb = peak_rss_mb();
  if (with_parallel && !trace) {
    parallel_run(false);
  }
  if (workload == "program-storm") {
    run_figures(res, seed, trace ? kTracedFigurePasses : 1, trace);
  }
  if (!trace) {
    return;
  }

  const double run_s = res.span_median("engine.run_s");
  const auto events = static_cast<double>(r.events_processed);
  const auto ops = static_cast<double>(program_ops(r));
  const std::uint64_t pages = r.page_cache_hits + r.page_cache_misses;
  res.layers["scenario.draw_s"] = res.span_median("scenario.draw_s");
  res.layers["cluster.build_s"] = res.span_median("cluster.build_s");
  res.layers["engine.run_s"] = run_s;
  res.layers["engine.events"] = events;
  res.layers["engine.ns_per_event"] = run_s * 1e9 / std::max(1.0, events);
  res.layers["report.render_s"] = res.span_median("report.render_s");
  if (with_parallel) {
    const double par_s = res.span_median("parallel.run_s");
    res.layers["parallel.speedup"] = run_s / par_s;
    res.layers["parallel.cpu_per_wall"] =
        res.span_median("parallel.run_cpu_s") / par_s;
  }
  res.layers["placement.admitted"] = r.admitted;
  res.layers["placement.rejected"] = r.rejected;
  res.layers["placement.spills"] = r.spills;
  res.layers["ksm.advised_pages"] = static_cast<double>(r.ksm.advised_pages);
  res.layers["ksm.backing_pages"] = static_cast<double>(r.ksm.backing_pages);
  res.layers["ksm.shared_pages"] = static_cast<double>(r.ksm.shared_pages);
  res.layers["page_cache.hits"] = static_cast<double>(r.page_cache_hits);
  res.layers["page_cache.misses"] = static_cast<double>(r.page_cache_misses);
  res.layers["page_cache.hit_ratio"] =
      static_cast<double>(r.page_cache_hits) /
      static_cast<double>(std::max<std::uint64_t>(1, pages));
  res.layers["nvme.bytes_read"] = static_cast<double>(r.nvme_bytes_read);
  res.layers["hostk.invocations"] =
      static_cast<double>(r.hap.total_invocations);
  res.layers["hostk.distinct_functions"] =
      static_cast<double>(r.hap.distinct_functions);
  res.layers["program.ops"] = ops;
  res.layers["program.ops_per_s"] = ops / run_s;

  const std::vector<fleet::TenantSeed> population = s.draw_population();
  const KsmNs ksm = ksm_ns(population, s);
  res.layers["event_queue.push_pop_ns"] =
      event_queue_ns(population, r.events_processed, s.seed);
  res.layers["placement.walk_ns"] = placement_walk_ns(
      population, s, static_cast<std::uint64_t>(r.admitted + r.rejected));
  res.layers["ksm.advise_ns"] = ksm.advise;
  res.layers["ksm.probe_ns"] = ksm.probe;
  res.layers["ksm.remove_ns"] = ksm.remove;
  res.layers["page_cache.access_ns"] = page_cache_ns(population, s, pages);
  res.layers["hostk.invoke_ns"] =
      hostk_invoke_ns(population, r.hap.total_invocations);
}

// --- Traced-run layer list ---------------------------------------------------

/// Every per-layer metric, in print order, with its unit. A workload that
/// does not exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& all_layers() {
  static const std::vector<std::pair<std::string, std::string>> layers = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"scenario.draw_s", "s"}, {"cluster.build_s", "s"},
        {"engine.run_s", "s"}, {"engine.events", "count"},
        {"engine.ns_per_event", "ns"}, {"report.render_s", "s"},
        {"parallel.speedup", "x"}, {"parallel.cpu_per_wall", "ratio"},
        {"placement.admitted", "count"}, {"placement.rejected", "count"},
        {"placement.spills", "count"}, {"ksm.advised_pages", "count"},
        {"ksm.backing_pages", "count"}, {"ksm.shared_pages", "count"},
        {"page_cache.hits", "count"}, {"page_cache.misses", "count"},
        {"page_cache.hit_ratio", "ratio"}, {"nvme.bytes_read", "B"},
        {"hostk.invocations", "count"}, {"hostk.distinct_functions", "count"},
        {"program.ops", "count"}, {"program.ops_per_s", "1/s"},
    };
    for (const char* fig : {"fig05", "fig06", "fig07", "fig08", "fig09",
                            "fig10", "fig11", "fig12", "fig13", "fig14",
                            "fig15", "fig16", "fig17", "fig18", "finding1"}) {
      v.push_back({std::string("figures.") + fig + "_s", "s"});
    }
    for (const char* micro : {"event_queue.push_pop_ns", "placement.walk_ns",
                              "ksm.advise_ns", "ksm.probe_ns", "ksm.remove_ns",
                              "page_cache.access_ns", "hostk.invoke_ns"}) {
      v.push_back({micro, "ns"});
    }
    v.push_back({"trace.overhead_frac", "ratio"});
    return v;
  }();
  return layers;
}

void print_result(const Result& res, const std::string& workload,
                  std::uint64_t seed, bool trace) {
  std::string out = "{\"workload\":" + quote(workload) +
                    ",\"seed\":" + std::to_string(seed) +
                    ",\"compiler\":" + quote(ISOBENCH_COMPILER) +
                    ",\"build_type\":" + quote(ISOBENCH_BUILD_TYPE) +
                    ",\"attempted\":" + std::to_string(res.attempted) +
                    ",\"failed\":" + std::to_string(res.failed) +
                    ",\"peak_rss_mb\":" + num(res.peak_rss_mb) +
                    ",\"samples\":{\"setup_s\":" + json_array(res.setup_s) +
                    ",\"wall_s\":" + json_array(res.wall_s) +
                    ",\"cpu_s\":" + json_array(res.cpu_s) + "},\"checks\":{";
  bool first = true;
  for (const auto& [name, t] : res.checks) {
    out += (first ? "" : ",") + quote(name) + ":{\"failures\":" +
           std::to_string(t.failures) +
           ",\"first\":" + quote(t.first_failure) + "}";
    first = false;
  }
  out += "},\"sim\":{";
  first = true;
  for (const auto& [name, value] : res.sim) {
    out += (first ? "" : ",") + quote(name) + ":" + value;
    first = false;
  }
  out += "}";
  if (trace) {
    std::map<std::string, double> values = res.layers;
    values["trace.overhead_frac"] =
        median(res.traced_wall_s) / median(res.wall_s) - 1.0;
    out += ",\"layers\":{";
    first = true;
    for (const auto& [name, unit] : all_layers()) {
      const auto it = values.find(name);
      out += (first ? "" : ",") + quote(name) + ":{\"value\":" +
             num(it == values.end() ? 0.0 : it->second) +
             ",\"unit\":" + quote(unit) + "}";
      first = false;
      if (it != values.end()) {
        values.erase(it);
      }
    }
    out += "}";
    if (!values.empty()) {
      throw std::logic_error("layer metric missing from all_layers(): " +
                             values.begin()->first);
    }
  }
  std::printf("%s}\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    }
  }
  const bool known =
      workload == "cluster-storm" || workload == "program-storm";
  if (!known || !(seconds > 0.0) || (trace != 0 && trace != 1) ||
      argc % 2 != 1) {
    std::fprintf(stderr,
                 "usage: isobench --workload cluster-storm|program-storm "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  Result res;
  run_fleet_workload(res, workload, seed, seconds, trace == 1);
  print_result(res, workload, seed, trace == 1);
  return 0;
}
