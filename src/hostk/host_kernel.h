// The modeled host Linux kernel.
//
// All isolation platforms ultimately execute on one HostKernel instance.
// Dispatching a syscall records the kernel functions its handler executes
// into the shared Ftrace — the raw material of the paper's HAP study
// (Section 4) — and draws its modeled CPU cost from the caller's RNG.
// invoke() returns that cost; record() is the trace-only dispatch for
// callers that would discard it, and skips computing the draw while
// advancing the RNG identically.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "hostk/ftrace.h"
#include "hostk/kernel_function.h"
#include "hostk/syscall.h"
#include "sim/clock.h"
#include "sim/distribution.h"
#include "sim/rng.h"

namespace hostk {

/// Cost + trace expansion of one syscall.
struct SyscallSpec {
  sim::DurationDist cost = sim::DurationDist::constant(0);
  std::vector<FunctionHit> functions;
};

/// Kernel activity a datapath triggers outside any syscall, per packet
/// (softirq receive, vhost kthreads). Each expands to a fixed function list.
enum class BackgroundPath {
  kBridge,     // veth pair + Linux bridge + netfilter, backlog softirq
  kTapVirtio,  // TAP device + vhost-net worker, NAPI receive
};

/// Host kernel model: syscall dispatcher + ftrace instrumentation.
///
/// Thread-unsafe by design: the simulator is single-threaded and models
/// concurrency analytically.
class HostKernel {
 public:
  HostKernel();

  const KernelFunctionRegistry& registry() const { return registry_; }
  Ftrace& ftrace() { return ftrace_; }
  const Ftrace& ftrace() const { return ftrace_; }

  /// Execute `count` back-to-back invocations of `sc`: records the kernel
  /// functions into the ftrace and returns the total modeled CPU cost.
  /// The caller charges the cost to whichever clock represents the caller's
  /// execution context. Callers that only want the trace use record().
  /// `count == 0` records nothing, draws nothing and returns 0.
  [[nodiscard]] sim::Nanos invoke(Syscall sc, sim::Rng& rng,
                                  std::uint64_t count = 1);

  /// Trace-only invoke(): records exactly the ftrace hits invoke() would and
  /// leaves `rng` in exactly the state invoke() would, but skips computing
  /// the cost (sim::DurationDist::skip). `count == 0` is a no-op.
  void record(Syscall sc, sim::Rng& rng, std::uint64_t count = 1);

  /// Convenience: invoke and charge `clock` in one step.
  sim::Nanos invoke_on(sim::Clock& clock, Syscall sc, sim::Rng& rng,
                       std::uint64_t count = 1);

  /// Record `repeat` passes of a background path's kernel functions.
  /// Cost-free; trace-only; draws nothing.
  void record_background(BackgroundPath path, std::uint64_t repeat = 1);

  /// The spec backing a syscall (exposed for tests and the HAP model).
  const SyscallSpec& spec(Syscall sc) const;

  /// Mean cost of a syscall without dispatching it (analytic planning).
  sim::Nanos mean_cost(Syscall sc) const;

 private:
  void define(Syscall sc, sim::DurationDist cost,
              std::initializer_list<const char*> functions);
  void append_functions(Syscall sc, std::initializer_list<const char*> functions,
                        std::uint32_t count = 1);

  KernelFunctionRegistry registry_;
  // Holds one expansion per syscall (id = the syscall's index), then one
  // per BackgroundPath (id = kSyscallCount + the path's index).
  Ftrace ftrace_;
  std::array<SyscallSpec, kSyscallCount> specs_;
};

}  // namespace hostk
