// ftrace-style recorder of host kernel function invocations.
//
// Models the paper's `trace-cmd` based methodology: while a workload runs,
// every host kernel function the platform causes to execute is counted.
// The HAP study (src/hap) aggregates these counts.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "hostk/kernel_function.h"

namespace hostk {

/// One kernel function hit by a syscall handler or a background path, with
/// its per-invocation multiplicity (e.g. a read hits fsnotify twice).
struct FunctionHit {
  FunctionId fn;
  std::uint32_t count;
};

/// Per-function invocation counts captured during a tracing window.
///
/// Functions are recorded one at a time (record()) or as registered
/// expansions (record_expansion()): a fixed list of hits, such as one
/// syscall handler's functions, recorded as a unit. Expansion counts are
/// deferred. The first record of an expansion in a window creates its
/// function counters, in list order, exactly as recording each hit would;
/// later records only add to the expansion's pending count. Every read of a
/// count (counts(), total_invocations(), count_of()) and stop() first folds
/// the pending counts into the function counters. So reads see the same
/// values, and counts() iterates in the same first-touch order, as eager
/// per-function recording would give.
class Ftrace {
 public:
  /// Handle of an expansion registered with add_expansion().
  using ExpansionId = std::uint32_t;

  explicit Ftrace(const KernelFunctionRegistry& registry) : registry_(&registry) {}

  // Expansions cache pointers to this trace's counters; a copy would keep
  // pointing at the original's.
  Ftrace(const Ftrace&) = delete;
  Ftrace& operator=(const Ftrace&) = delete;

  /// Begin recording. Clears any previous capture, pending counts included.
  void start();

  /// Stop recording; counts stay available until the next start().
  void stop();

  bool recording() const { return recording_; }

  /// Record `count` invocations of `fn`. No-op unless recording.
  void record(FunctionId fn, std::uint64_t count = 1);

  /// Register a fixed list of hits to record as a unit; ids are handed out
  /// in registration order from 0. Zero-multiplicity hits are dropped, as
  /// record() never creates zero-count entries.
  ExpansionId add_expansion(const std::vector<FunctionHit>& hits);

  /// Record `count` occurrences of expansion `id`: each of its functions
  /// `hit.count * count` times, deferred (see the class comment). No-op
  /// unless recording, or when `count` is 0.
  void record_expansion(ExpansionId id, std::uint64_t count) {
    if (!recording_ || count == 0) {
      return;
    }
    Expansion& e = expansions_[id];
    if (e.window != window_) {
      open(e);
    }
    e.pending += count;
  }

  /// Number of distinct functions hit — the original HAP breadth metric.
  std::size_t distinct_functions() const { return counts_.size(); }

  /// Total invocations across all functions.
  std::uint64_t total_invocations() const;

  /// Invocations of one function (0 when never hit).
  std::uint64_t count_of(FunctionId fn) const;

  const std::unordered_map<FunctionId, std::uint64_t>& counts() const {
    expand();
    return counts_;
  }

  /// Distinct functions per subsystem, for the HAP breakdown table.
  std::unordered_map<Subsystem, std::size_t> distinct_by_subsystem() const;

  const KernelFunctionRegistry& registry() const { return *registry_; }

 private:
  struct Expansion {
    std::vector<FunctionHit> hits;
    /// hits[i]'s counter in window `window` (map node pointers are stable).
    std::vector<std::uint64_t*> slots;
    std::uint64_t window = 0;
    /// Occurrences recorded since the last expand().
    std::uint64_t pending = 0;
  };

  /// First record of `e` in this window: create its counters in list order.
  void open(Expansion& e);

  /// Fold every pending expansion count into the function counters.
  void expand() const;

  const KernelFunctionRegistry* registry_;
  // Mutable so that const reads can expand pending counts first; what a
  // read returns is the same either way. Reads therefore write, so two
  // threads must not read one Ftrace at once.
  mutable std::unordered_map<FunctionId, std::uint64_t> counts_;
  mutable std::vector<Expansion> expansions_;
  /// Tracing-window number, bumped by start(); expansions opened in an
  /// older window have stale slots.
  std::uint64_t window_ = 0;
  bool recording_ = false;
};

}  // namespace hostk
