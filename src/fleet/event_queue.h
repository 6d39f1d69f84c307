// Deterministic priority event queue for the fleet scenario engine.
//
// The engine models N concurrent tenant lifecycles on one shared host by
// merging their per-tenant timelines into a single global ordering. Events
// are popped in (time, seq) order. Seqs are unique, so (time, seq) is a
// strict total order: ties on time break by issue order (FIFO among
// simultaneous events), and the pop order is fully determined by what was
// pushed, which the fleet report's byte-identical-output guarantee depends
// on.
//
// The queue is one flat binary min-heap of 32-byte Events. Same-timestamp
// pushes are rare in practice: on a 100k-tenant, 64-host cluster storm and
// a 40k-tenant syscall-program storm only 0.045% and 0.015% of pushes land
// on a timestamp already queued, so grouping events per timestamp would
// cost every push a hash lookup and a per-timestamp vector to save heap
// work almost no push needs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace fleet {

enum class EventKind {
  kArrival,        // tenant requests admission and starts booting
  kBootPhys,       // deferred boot physics: sampling + image pull on the
                   //   admitted shard (cluster-capable runs only; plain
                   //   single-host runs boot inline at the arrival)
  kBootDone,       // boot sequence finished; workload phases begin
  kPhaseDone,      // one workload phase finished
  kProgramStep,    // one syscall-program op finished (program-mix tenants);
                   //   shard-local and window-parallel, like kPhaseDone
  kTeardown,       // tenant released its resources
  kHostEvent,      // timed operator hook: add or drain a host (tenant field
                   //   indexes Scenario::host_events)
  kAutoscaleEval,  // periodic watermark evaluation (tenant field unused)
  kHostCrash,      // fault injection: a host (or rack) dies; tenant field
                   //   indexes the run's resolved fault schedule (chaos.h)
  kPartitionStart,  // network partition opens on the fault's hosts
  kPartitionEnd,    // ...and heals; barrier marker, stall is precomputed
  kDegradeStart,    // degrade-family fault opens (disk degrade, memory
                    //   pressure, partial partition); tenant field indexes
                    //   the resolved fault schedule like kHostCrash
  kDegradeEnd,      // ...and ends; memory pressure re-merges (KSM scan)
                    //   here — disk/pair stretch is precomputed per window
};

/// The one classification of event kinds. Shard-local kinds touch only
/// their tenant and its shard, plus global effects the engine defers into
/// an effect record (engine.h), so a parallel window may run them on a
/// worker. Every other kind is a coordinator event: arrivals and host
/// events make placement decisions; autoscale evals and fault boundaries
/// rewrite topology, foreign tenants, NIC behavior or KSM state that
/// admissions read. Coordinator events are barriers for windows.
constexpr bool is_shard_local(EventKind k) {
  switch (k) {
    case EventKind::kBootPhys:
    case EventKind::kBootDone:
    case EventKind::kPhaseDone:
    case EventKind::kProgramStep:
    case EventKind::kTeardown:
      return true;
    case EventKind::kArrival:
    case EventKind::kHostEvent:
    case EventKind::kAutoscaleEval:
    case EventKind::kHostCrash:
    case EventKind::kPartitionStart:
    case EventKind::kPartitionEnd:
    case EventKind::kDegradeStart:
    case EventKind::kDegradeEnd:
      return false;
  }
  return false;
}

struct Event {
  sim::Nanos time = 0;
  std::uint64_t seq = 0;  // global issue order, breaks time ties
  std::uint64_t tenant = 0;
  EventKind kind = EventKind::kArrival;
  /// Tenant lifecycle generation. A host drain migrates its tenants by
  /// bumping their epoch and re-injecting arrivals; already-queued events
  /// carrying the old epoch are popped and discarded, deterministically.
  std::uint32_t epoch = 0;
};

/// Pops events in (time, seq) order; push() stamps the sequence number.
class EventQueue {
 public:
  void push(sim::Nanos time, std::uint64_t tenant, EventKind kind,
            std::uint32_t epoch = 0) {
    push_at_seq(time, next_seq_++, tenant, kind, epoch);
  }

  /// Reserve `n` consecutive sequence numbers and return the first. The
  /// engine pre-assigns arrival seqs with this so arrivals seeded lazily
  /// (one step ahead of the cursor) keep the exact same-timestamp tie
  /// order an eagerly seeded queue would have had.
  std::uint64_t reserve_seqs(std::uint64_t n) {
    const std::uint64_t base = next_seq_;
    next_seq_ += n;
    return base;
  }

  /// Push with a seq obtained from reserve_seqs(). The seq must be larger
  /// than every already-popped event's seq at this timestamp (the engine's
  /// ascending arrival order guarantees this); otherwise the event would
  /// pop after events it should have preceded.
  void push_at_seq(sim::Nanos time, std::uint64_t seq, std::uint64_t tenant,
                   EventKind kind, std::uint32_t epoch = 0) {
    heap_.push_back(Event{time, seq, tenant, kind, epoch});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Next sequence number push() would stamp. The parallel loop snapshots
  /// this at each window start: shard-local events born inside the window
  /// get provisional seqs from here upward (strictly above every queued
  /// event), then the deterministic replay re-issues the real seqs in
  /// merged order so the global numbering matches the sequential engine's.
  std::uint64_t next_seq() const { return next_seq_; }

  /// Earliest event without removing it. Requires !empty().
  Event top() const { return heap_.front(); }

  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Event e = heap_.back();
    heap_.pop_back();
    return e;
  }

 private:
  /// Heap comparator that puts the smallest (time, seq) at the front.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  std::vector<Event> heap_;  // min-heap by (time, seq)
  std::uint64_t next_seq_ = 0;
};

}  // namespace fleet
