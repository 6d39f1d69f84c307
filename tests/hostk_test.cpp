// Tests for the host kernel model: registry, ftrace, syscalls, page cache,
// block device, NIC.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "hostk/block_device.h"
#include "hostk/ftrace.h"
#include "hostk/host_kernel.h"
#include "hostk/kernel_function.h"
#include "hostk/nic.h"
#include "hostk/page_cache.h"
#include "hostk/syscall.h"
#include "sim/clock.h"
#include "stats/summary.h"

namespace {

using hostk::BlockDevice;
using hostk::BlockDeviceSpec;
using hostk::Ftrace;
using hostk::HostKernel;
using hostk::KernelFunctionRegistry;
using hostk::Nic;
using hostk::PageCache;
using hostk::PageKey;
using hostk::Subsystem;
using hostk::Syscall;

TEST(RegistryTest, CatalogIsSubstantial) {
  KernelFunctionRegistry reg;
  EXPECT_GT(reg.size(), 300u);
}

TEST(RegistryTest, LookupRoundTrips) {
  KernelFunctionRegistry reg;
  const auto id = reg.id_of("vfs_read");
  EXPECT_EQ(reg.function(id).name, "vfs_read");
  EXPECT_EQ(reg.function(id).subsystem, Subsystem::kVfs);
}

TEST(RegistryTest, UnknownSymbolThrows) {
  KernelFunctionRegistry reg;
  EXPECT_THROW(reg.id_of("not_a_kernel_function"), std::out_of_range);
  EXPECT_FALSE(reg.contains("not_a_kernel_function"));
  EXPECT_TRUE(reg.contains("schedule"));
}

TEST(RegistryTest, EverySubsystemPopulated) {
  KernelFunctionRegistry reg;
  for (auto s : {Subsystem::kSched, Subsystem::kMm, Subsystem::kVfs,
                 Subsystem::kExt4, Subsystem::kBlock, Subsystem::kNet,
                 Subsystem::kKvm, Subsystem::kNamespace, Subsystem::kCgroup,
                 Subsystem::kSecurity, Subsystem::kIpc, Subsystem::kTime,
                 Subsystem::kIrq, Subsystem::kSignal, Subsystem::kVsock,
                 Subsystem::kMisc}) {
    EXPECT_FALSE(reg.functions_in(s).empty())
        << "empty subsystem: " << hostk::subsystem_name(s);
  }
}

TEST(RegistryTest, IdsAreDense) {
  KernelFunctionRegistry reg;
  for (std::size_t i = 0; i < reg.size(); ++i) {
    EXPECT_EQ(reg.function(static_cast<hostk::FunctionId>(i)).id, i);
  }
}

TEST(FtraceTest, RecordsOnlyWhileRecording) {
  KernelFunctionRegistry reg;
  Ftrace ft(reg);
  const auto fn = reg.id_of("schedule");
  ft.record(fn);  // not recording yet
  EXPECT_EQ(ft.distinct_functions(), 0u);
  ft.start();
  ft.record(fn, 3);
  ft.stop();
  ft.record(fn);  // after stop
  EXPECT_EQ(ft.distinct_functions(), 1u);
  EXPECT_EQ(ft.count_of(fn), 3u);
  EXPECT_EQ(ft.total_invocations(), 3u);
}

TEST(FtraceTest, StartClearsPreviousCapture) {
  KernelFunctionRegistry reg;
  Ftrace ft(reg);
  ft.start();
  ft.record(reg.id_of("schedule"));
  ft.start();
  EXPECT_EQ(ft.distinct_functions(), 0u);
}

TEST(FtraceTest, SubsystemBreakdown) {
  KernelFunctionRegistry reg;
  Ftrace ft(reg);
  ft.start();
  ft.record(reg.id_of("schedule"));
  ft.record(reg.id_of("pick_next_task_fair"));
  ft.record(reg.id_of("vfs_read"));
  const auto breakdown = ft.distinct_by_subsystem();
  EXPECT_EQ(breakdown.at(Subsystem::kSched), 2u);
  EXPECT_EQ(breakdown.at(Subsystem::kVfs), 1u);
}

TEST(HostKernelTest, SyscallChargesCost) {
  HostKernel hk;
  sim::Rng rng(1);
  sim::Clock clock;
  hk.invoke_on(clock, Syscall::kRead, rng);
  EXPECT_GT(clock.now(), 0);
}

TEST(HostKernelTest, SyscallRecordsFunctionsWhenTracing) {
  HostKernel hk;
  sim::Rng rng(1);
  hk.ftrace().start();
  hk.record(Syscall::kRead, rng);
  hk.ftrace().stop();
  const auto& reg = hk.registry();
  EXPECT_GT(hk.ftrace().count_of(reg.id_of("vfs_read")), 0u);
  EXPECT_GT(hk.ftrace().count_of(reg.id_of("entry_SYSCALL_64")), 0u);
}

TEST(HostKernelTest, NoTraceWhenNotRecording) {
  HostKernel hk;
  sim::Rng rng(1);
  hk.record(Syscall::kRead, rng);
  EXPECT_EQ(hk.ftrace().distinct_functions(), 0u);
}

TEST(HostKernelTest, BatchedInvocationScalesCostAndCounts) {
  HostKernel hk;
  sim::Rng rng(1);
  hk.ftrace().start();
  hk.record(Syscall::kSendto, rng, 100);
  const auto& reg = hk.registry();
  EXPECT_EQ(hk.ftrace().count_of(reg.id_of("tcp_sendmsg")), 100u);
}

TEST(HostKernelTest, ZeroCountIsFree) {
  HostKernel hk;
  sim::Rng rng(1);
  EXPECT_EQ(hk.invoke(Syscall::kRead, rng, 0), 0);
}

TEST(HostKernelTest, EverySyscallHasSpecAndEntryPath) {
  HostKernel hk;
  const auto entry = hk.registry().id_of("entry_SYSCALL_64");
  for (std::size_t i = 0; i < hostk::kSyscallCount; ++i) {
    const auto sc = static_cast<Syscall>(i);
    const auto& spec = hk.spec(sc);
    EXPECT_FALSE(spec.functions.empty()) << hostk::syscall_name(sc);
    EXPECT_EQ(spec.functions.front().fn, entry) << hostk::syscall_name(sc);
    EXPECT_GE(hk.mean_cost(sc), 0) << hostk::syscall_name(sc);
  }
}

TEST(HostKernelTest, KvmRunHitsKvmSubsystem) {
  HostKernel hk;
  sim::Rng rng(1);
  hk.ftrace().start();
  hk.record(Syscall::kKvmRun, rng);
  const auto breakdown = hk.ftrace().distinct_by_subsystem();
  EXPECT_GT(breakdown.at(Subsystem::kKvm), 10u);
}

TEST(HostKernelTest, SyscallNamesAreUniqueAndNonEmpty) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < hostk::kSyscallCount; ++i) {
    const auto name = hostk::syscall_name(static_cast<Syscall>(i));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown");
    EXPECT_TRUE(names.insert(name).second) << "duplicate: " << name;
  }
}

// --- record(): the trace-only dispatch ------------------------------------

using Counts = std::vector<std::pair<hostk::FunctionId, std::uint64_t>>;

Counts counts_in_order(const Ftrace& ft) {
  return Counts(ft.counts().begin(), ft.counts().end());
}

// Drives twin kernels through the same random dispatches: `inv` through
// invoke(), `rec` through record(), and `eager` (a bare Ftrace) by recording
// every function hit one at a time, as dispatch did before expansions were
// deferred.
struct Twins {
  HostKernel inv;
  HostKernel rec;
  Ftrace eager{inv.registry()};
  sim::Rng inv_rng{77};
  sim::Rng rec_rng{77};

  void dispatch(Syscall sc, std::uint64_t count) {
    (void)inv.invoke(sc, inv_rng, count);
    rec.record(sc, rec_rng, count);
    for (const auto& hit : inv.spec(sc).functions) {
      eager.record(hit.fn, std::uint64_t{hit.count} * count);
    }
  }
  void run(std::uint64_t seed, int ops) {
    sim::Rng choice(seed);
    for (int i = 0; i < ops; ++i) {
      const auto sc = static_cast<Syscall>(
          choice.uniform_int(0, static_cast<std::int64_t>(hostk::kSyscallCount) - 1));
      dispatch(sc, static_cast<std::uint64_t>(choice.uniform_int(0, 40)));
    }
  }
};

TEST(HostKernelRecordTest, MatchesInvokeWhileRecording) {
  Twins t;
  t.inv.ftrace().start();
  t.rec.ftrace().start();
  t.eager.start();
  t.run(1, 5'000);
  t.inv.ftrace().stop();
  t.rec.ftrace().stop();
  const Counts expected = counts_in_order(t.eager);
  EXPECT_EQ(counts_in_order(t.inv.ftrace()), expected);
  EXPECT_EQ(counts_in_order(t.rec.ftrace()), expected);
  EXPECT_EQ(t.inv_rng.next_u64(), t.rec_rng.next_u64());
}

TEST(HostKernelRecordTest, MatchesInvokeWhileStopped) {
  Twins t;
  t.run(2, 2'000);
  EXPECT_EQ(t.rec.ftrace().distinct_functions(), 0u);
  EXPECT_EQ(t.inv_rng.next_u64(), t.rec_rng.next_u64());
}

TEST(HostKernelRecordTest, MidWindowReadsSeeDeferredCounts) {
  HostKernel hk;
  sim::Rng rng(3);
  const auto& reg = hk.registry();
  const auto tcp_sendmsg = reg.id_of("tcp_sendmsg");
  const auto entry = reg.id_of("entry_SYSCALL_64");
  hk.ftrace().start();
  hk.record(Syscall::kSendto, rng, 5);
  hk.record(Syscall::kSendto, rng, 7);
  EXPECT_EQ(hk.ftrace().count_of(tcp_sendmsg), 12u);
  const std::uint64_t sendto_total =
      12u * hk.spec(Syscall::kSendto).functions.size();
  EXPECT_EQ(hk.ftrace().total_invocations(), sendto_total);
  hk.record(Syscall::kRead, rng, 3);  // after a read, still deferred
  EXPECT_EQ(hk.ftrace().count_of(entry), 15u);
  EXPECT_EQ(hk.ftrace().total_invocations(),
            sendto_total + 3u * hk.spec(Syscall::kRead).functions.size());
}

TEST(HostKernelRecordTest, StartDiscardsPendingCounts) {
  HostKernel hk;
  sim::Rng rng(4);
  const auto vfs_read = hk.registry().id_of("vfs_read");
  hk.ftrace().start();
  hk.record(Syscall::kRead, rng, 9);  // pending, never read
  hk.ftrace().start();
  EXPECT_EQ(hk.ftrace().distinct_functions(), 0u);
  hk.record(Syscall::kRead, rng, 2);  // the first read is after this
  EXPECT_EQ(hk.ftrace().count_of(vfs_read), 2u);
  EXPECT_EQ(hk.ftrace().total_invocations(),
            2u * hk.spec(Syscall::kRead).functions.size());
}

TEST(HostKernelRecordTest, ZeroCountRecordsAndDrawsNothing) {
  HostKernel hk;
  sim::Rng rng(5);
  sim::Rng untouched(5);
  hk.ftrace().start();
  hk.record(Syscall::kRead, rng, 0);
  hk.record_background(hostk::BackgroundPath::kBridge, 0);
  EXPECT_EQ(hk.ftrace().distinct_functions(), 0u);
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

TEST(HostKernelRecordTest, BackgroundPathCountsPerPass) {
  HostKernel hk;
  const auto& reg = hk.registry();
  hk.ftrace().start();
  hk.record_background(hostk::BackgroundPath::kTapVirtio, 4);
  hk.record_background(hostk::BackgroundPath::kTapVirtio, 6);
  EXPECT_EQ(hk.ftrace().count_of(reg.id_of("vhost_net_tx")), 10u);
  EXPECT_EQ(hk.ftrace().distinct_functions(), 8u);
  hk.ftrace().stop();
  hk.record_background(hostk::BackgroundPath::kTapVirtio, 6);  // stopped
  EXPECT_EQ(hk.ftrace().count_of(reg.id_of("vhost_net_tx")), 10u);
}

TEST(PageCacheTest, MissThenHit) {
  PageCache cache(1 << 20);
  const PageKey k{1, 0};
  EXPECT_FALSE(cache.access(k));
  cache.insert(k);
  EXPECT_TRUE(cache.access(k));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PageCacheTest, LruEviction) {
  PageCache cache(2 * PageCache::kPageSize);
  cache.insert({1, 0});
  cache.insert({1, 1});
  cache.insert({1, 2});  // evicts {1,0}
  EXPECT_FALSE(cache.access({1, 0}));
  EXPECT_TRUE(cache.access({1, 1}));
  EXPECT_TRUE(cache.access({1, 2}));
}

TEST(PageCacheTest, AccessPromotes) {
  PageCache cache(2 * PageCache::kPageSize);
  cache.insert({1, 0});
  cache.insert({1, 1});
  cache.access({1, 0});   // promote page 0
  cache.insert({1, 2});   // should evict page 1 (LRU), not page 0
  EXPECT_TRUE(cache.resident(1, 0, 1));
  EXPECT_FALSE(cache.resident(1, PageCache::kPageSize, 1));
}

TEST(PageCacheTest, RangeAccessCountsMisses) {
  PageCache cache(1 << 20);
  // 3 pages: offset 100 .. 100+9000 spans pages 0,1,2.
  EXPECT_EQ(cache.access_range(7, 100, 9000), 3u);
  EXPECT_EQ(cache.access_range(7, 100, 9000), 0u);
}

TEST(PageCacheTest, DropCachesEmptiesEverything) {
  PageCache cache(1 << 20);
  cache.access_range(1, 0, 65536);
  EXPECT_GT(cache.size_pages(), 0u);
  cache.drop_caches();
  EXPECT_EQ(cache.size_pages(), 0u);
  EXPECT_FALSE(cache.resident(1, 0, 1));
}

TEST(PageCacheTest, ZeroCapacityNeverCaches) {
  PageCache cache(0);
  cache.insert({1, 0});
  EXPECT_FALSE(cache.access({1, 0}));
}

TEST(PageCacheTest, ZeroLengthRange) {
  PageCache cache(1 << 20);
  EXPECT_EQ(cache.access_range(1, 0, 0), 0u);
  EXPECT_TRUE(cache.resident(1, 0, 0));
}

TEST(BlockDeviceTest, LargerTransfersTakeLonger) {
  BlockDevice dev;
  sim::Rng rng(1);
  double small = 0, large = 0;
  for (int i = 0; i < 200; ++i) {
    small += static_cast<double>(dev.read(4096, rng));
    large += static_cast<double>(dev.read(1 << 20, rng));
  }
  EXPECT_GT(large, small * 2);
}

TEST(BlockDeviceTest, ThroughputBoundedByBandwidth) {
  BlockDeviceSpec spec;
  BlockDevice dev(spec);
  sim::Rng rng(2);
  const std::uint64_t bytes = 64ull << 20;
  const auto t = dev.read(bytes, rng);
  const double achieved = static_cast<double>(bytes) / sim::to_seconds(t);
  EXPECT_LT(achieved, spec.read_bw_bytes_per_sec);
  EXPECT_GT(achieved, spec.read_bw_bytes_per_sec * 0.9);
}

TEST(BlockDeviceTest, WritesNoisierThanReads) {
  BlockDevice dev;
  sim::Rng rng(3);
  stats::Summary r, w;
  for (int i = 0; i < 2000; ++i) {
    r.add(static_cast<double>(dev.read(4096, rng)));
    w.add(static_cast<double>(dev.write(4096, rng)));
  }
  EXPECT_GT(w.cv(), r.cv());
}

TEST(BlockDeviceTest, AccountsBytes) {
  BlockDevice dev;
  sim::Rng rng(4);
  dev.read(1000, rng);
  dev.write(500, rng);
  EXPECT_EQ(dev.bytes_read(), 1000u);
  EXPECT_EQ(dev.bytes_written(), 500u);
}

TEST(NicTest, PacketCount) {
  Nic nic;
  EXPECT_EQ(nic.packets_for(0), 0u);
  EXPECT_EQ(nic.packets_for(1), 1u);
  EXPECT_EQ(nic.packets_for(1500), 1u);
  EXPECT_EQ(nic.packets_for(1501), 2u);
}

TEST(NicTest, LineRateIsUpperBound) {
  Nic nic;
  sim::Rng rng(5);
  const std::uint64_t bytes = 128ull << 20;
  const auto t = nic.transfer_time(bytes, rng);
  const double gbps = static_cast<double>(bytes) * 8.0 / sim::to_seconds(t) / 1e9;
  EXPECT_LT(gbps, 40.0);
  EXPECT_GT(gbps, 30.0);  // per-packet cost should not dominate at MTU 1500
}

TEST(NicTest, LatencyNearBase) {
  Nic nic;
  sim::Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    const auto l = nic.latency(rng);
    EXPECT_GE(l, nic.spec().base_latency);
    EXPECT_LE(l, nic.spec().base_latency + sim::micros(2));
  }
}

}  // namespace
