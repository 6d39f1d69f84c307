// Golden digests of the paper-figure numbers that flow through the host
// kernel's syscall recording (HostKernel::invoke/record, the ftrace
// expansion and the RNG draws behind every dispatch).
//
// figures_test asserts each figure's qualitative findings, and the bench
// binaries can be diffed run against run, but neither notices a change that
// keeps the findings yet moves a number. These digests were captured before
// the trace-only dispatch (HostKernel::record, Rng::skip_normal) and the
// deferred ftrace expansion landed; any mismatch means a recording-layer
// change moved a simulated value, an RNG stream or the ftrace iteration
// order (the extended HAP is a float sum in counts() order).
//
// Every number is rendered with %a (exact hex float) and folded into a
// 64-bit FNV-1a hash. Each figure runs at the paper's protocol (its default
// repetitions and startups); the whole suite takes well under a second.
// Exact bits depend on the C library's libm (log/exp/sin/cos); the digests
// were taken with glibc on x86-64.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/figures.h"

namespace {

class Digest {
 public:
  Digest& add(const std::string& s) {
    for (const unsigned char c : s) {
      h_ = (h_ ^ c) * 0x100000001B3ull;
    }
    return add_separator();
  }
  Digest& add(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return add(std::string(buf));
  }
  Digest& add(std::uint64_t v) { return add(std::to_string(v)); }
  std::string hex() const {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
  }

 private:
  Digest& add_separator() {
    h_ = (h_ ^ 0x1Fu) * 0x100000001B3ull;
    return *this;
  }
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

void add_bar(Digest& d, const core::Bar& b) {
  d.add(b.platform).add(b.mean).add(b.stddev).add(std::uint64_t{b.excluded});
}

std::string digest_bars(const std::vector<core::Bar>& bars) {
  Digest d;
  for (const auto& b : bars) {
    add_bar(d, b);
  }
  return d.hex();
}

std::string digest_cdfs(const std::vector<core::CdfSeries>& series) {
  Digest d;
  for (const auto& s : series) {
    d.add(s.platform);
    for (const double v : s.samples_ms.values()) {
      d.add(v);
    }
  }
  return d.hex();
}

TEST(FiguresGolden, Figure18Hap) {
  Digest d;
  for (const auto& s : core::figure18_hap()) {
    d.add(s.platform)
        .add(static_cast<std::uint64_t>(s.distinct_functions))
        .add(s.total_invocations)
        .add(s.hap_breadth)
        .add(s.extended_hap);
    std::vector<std::pair<int, std::size_t>> subsystems;
    for (const auto& [sub, n] : s.by_subsystem) {
      subsystems.emplace_back(static_cast<int>(sub), n);
    }
    std::sort(subsystems.begin(), subsystems.end());
    for (const auto& [sub, n] : subsystems) {
      d.add(static_cast<std::uint64_t>(sub)).add(static_cast<std::uint64_t>(n));
    }
  }
  EXPECT_EQ(d.hex(), "bc91a6a4072ff53e");
}

TEST(FiguresGolden, Figure13ContainerBoot) {
  EXPECT_EQ(digest_cdfs(core::figure13_container_boot()), "3955e61bfa0c1494");
}

TEST(FiguresGolden, Figure14HypervisorBoot) {
  EXPECT_EQ(digest_cdfs(core::figure14_hypervisor_boot()), "4f9e31d04e738fe3");
}

TEST(FiguresGolden, Figure15OsvBoot) {
  EXPECT_EQ(digest_cdfs(core::figure15_osv_boot()), "7c7309950f11f543");
}

TEST(FiguresGolden, Figure11Iperf3) {
  EXPECT_EQ(digest_bars(core::figure11_iperf3()), "2c4a876ff7ce96b6");
}

TEST(FiguresGolden, Figure12Netperf) {
  EXPECT_EQ(digest_bars(core::figure12_netperf()), "9b1f1bf464344896");
}

TEST(FiguresGolden, Figure9FioThroughput) {
  Digest d;
  for (const auto& io : core::figure9_fio_throughput()) {
    d.add(io.platform);
    add_bar(d, io.read);
    add_bar(d, io.write);
  }
  EXPECT_EQ(d.hex(), "80dc8e26ee794b29");
}

TEST(FiguresGolden, Figure10FioRandread) {
  EXPECT_EQ(digest_bars(core::figure10_fio_randread()), "479405c1e80f3a11");
}

}  // namespace
