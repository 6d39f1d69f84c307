// Stress tests for the EventQueue's (time, seq) contract: events pop in
// global time order, and events sharing a timestamp pop in ascending seq
// (issue) order. 100k-event storms with heavy timestamp collisions, pushes
// interleaved with pops at the instant just popped, and reserved seqs
// pushed out of issue order must all pop exactly as a reference
// (time, seq) priority queue does.
#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <random>
#include <vector>

#include "fleet/event_queue.h"

namespace {

using fleet::Event;
using fleet::EventKind;
using fleet::EventQueue;

TEST(EventQueueStressTest, HundredThousandEventsPopInTimeThenFifoOrder) {
  // Draw times from a small set so thousands of events share each instant.
  constexpr int kEvents = 100'000;
  constexpr int kDistinctTimes = 64;
  EventQueue q;
  std::mt19937 rng(42);
  for (int i = 0; i < kEvents; ++i) {
    const auto t = sim::millis(static_cast<double>(rng() % kDistinctTimes));
    q.push(t, static_cast<std::uint64_t>(i), EventKind::kArrival);
  }
  ASSERT_EQ(q.size(), static_cast<std::size_t>(kEvents));

  sim::Nanos last_time = -1;
  std::uint64_t last_seq = 0;
  int popped = 0;
  while (!q.empty()) {
    const Event e = q.pop();
    ASSERT_GE(e.time, last_time);
    if (e.time == last_time) {
      // FIFO among simultaneous events: seq strictly increases among
      // events at one instant (seq == push order == tenant id here).
      ASSERT_GT(e.seq, last_seq);
      ASSERT_GT(e.tenant, last_seq);
    }
    last_time = e.time;
    last_seq = e.seq;
    ++popped;
  }
  EXPECT_EQ(popped, kEvents);
}

// Reference ordering for the differential tests: a plain (time, seq)
// min-priority queue.
struct Later {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) {
      return a.time > b.time;
    }
    return a.seq > b.seq;
  }
};
using ReferenceQueue = std::priority_queue<Event, std::vector<Event>, Later>;

TEST(EventQueueStressTest, InterleavedPushPopMatchesReferenceHeap) {
  // Differential check against a plain (time, seq) priority queue, with
  // pushes landing on the instant just popped while other events at that
  // instant are still queued, or after all of them have popped.
  EventQueue q;
  ReferenceQueue ref;
  std::mt19937 rng(7);
  std::uint64_t ref_seq = 0;
  const auto push_both = [&](sim::Nanos t, std::uint64_t tenant) {
    q.push(t, tenant, EventKind::kPhaseDone);
    ref.push(Event{t, ref_seq++, tenant, EventKind::kPhaseDone});
  };

  sim::Nanos now = 0;
  for (int round = 0; round < 20'000; ++round) {
    if (ref.empty() || rng() % 3 != 0) {
      // Schedule at or after "now", frequently colliding exactly on it.
      const sim::Nanos t = (rng() % 4 == 0) ? now : now + sim::nanos(rng() % 50);
      push_both(t, rng() % 1000);
    } else {
      ASSERT_EQ(q.size(), ref.size());
      const Event expected = ref.top();
      ref.pop();
      const Event got = q.top();
      ASSERT_EQ(q.pop().seq, got.seq);  // top() agrees with pop()
      ASSERT_EQ(got.time, expected.time);
      ASSERT_EQ(got.seq, expected.seq);
      ASSERT_EQ(got.tenant, expected.tenant);
      now = got.time;
    }
  }
  while (!ref.empty()) {
    const Event expected = ref.top();
    ref.pop();
    const Event got = q.pop();
    ASSERT_EQ(got.time, expected.time);
    ASSERT_EQ(got.seq, expected.seq);
    ASSERT_EQ(got.tenant, expected.tenant);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueStressTest, ReservedSeqsMatchReferenceHeap) {
  // push() mixed with push_at_seq() from reserve_seqs() blocks, the way the
  // engine seeds arrivals lazily and the parallel loop re-pushes boot
  // completions: a reserved seq often reaches the queue after larger seqs
  // at the same instant and must still pop before them.
  EventQueue q;
  ReferenceQueue ref;
  std::uint64_t issued = 0;  // seqs handed out by push() and reserve_seqs()
  const auto push_both = [&](sim::Nanos t, std::uint64_t tenant) {
    ref.push(Event{t, q.next_seq(), tenant, EventKind::kPhaseDone});
    q.push(t, tenant, EventKind::kPhaseDone);
    ++issued;
  };
  const auto push_reserved = [&](sim::Nanos t, std::uint64_t seq,
                                 std::uint64_t tenant) {
    q.push_at_seq(t, seq, tenant, EventKind::kArrival);
    ref.push(Event{t, seq, tenant, EventKind::kArrival});
  };
  const auto pop_both = [&](Event* out) {
    ASSERT_EQ(q.size(), ref.size());
    const Event expected = ref.top();
    ref.pop();
    const Event got = q.top();
    const Event popped = q.pop();
    ASSERT_EQ(popped.time, got.time);  // top() agrees with pop()
    ASSERT_EQ(popped.seq, got.seq);
    ASSERT_EQ(popped.tenant, got.tenant);
    ASSERT_EQ(popped.kind, got.kind);
    ASSERT_EQ(got.time, expected.time);
    ASSERT_EQ(got.seq, expected.seq);
    ASSERT_EQ(got.tenant, expected.tenant);
    ASSERT_EQ(got.kind, expected.kind);
    *out = got;
  };

  // Pinned case: seqs 0..2 are reserved, then two plain pushes at the same
  // instant take seqs 3 and 4; the reserved seqs pushed afterwards (and out
  // of order among themselves) still pop first.
  const sim::Nanos t0 = sim::micros(5);
  const std::uint64_t base = q.reserve_seqs(3);
  issued += 3;
  EXPECT_EQ(base, 0u);
  push_both(t0, 100);
  push_both(t0, 101);
  EXPECT_EQ(q.next_seq(), 5u);
  push_reserved(t0, base + 1, 1);
  push_reserved(t0, base + 2, 2);
  push_reserved(t0, base, 0);
  for (const std::uint64_t want : {0u, 1u, 2u, 3u, 4u}) {
    Event e;
    pop_both(&e);
    ASSERT_FALSE(HasFatalFailure());
    ASSERT_EQ(e.seq, want);
  }
  ASSERT_TRUE(q.empty());

  // Randomized phase: each reserved block is released in ascending seq
  // order, one event at a time, to instants at or after the last pop. A
  // reserved seq may land on the instant just popped only if it exceeds
  // every seq already popped there (the push_at_seq contract).
  std::mt19937 rng(11);
  sim::Nanos now = 0;
  std::uint64_t last_popped_seq = 0;
  std::vector<std::uint64_t> pending;  // reserved, not yet pushed (desc)
  for (int round = 0; round < 30'000; ++round) {
    const unsigned op = rng() % 8;
    if (op == 0 && pending.empty()) {
      const std::uint64_t n = 1 + rng() % 16;
      const std::uint64_t first = q.reserve_seqs(n);
      ASSERT_EQ(first, issued);
      issued += n;
      for (std::uint64_t i = n; i-- > 0;) {
        pending.push_back(first + i);
      }
    } else if (op <= 2 && !pending.empty()) {
      const std::uint64_t seq = pending.back();
      pending.pop_back();
      sim::Nanos t = (rng() % 2 == 0) ? now : now + sim::nanos(rng() % 20);
      if (t == now && seq < last_popped_seq) {
        t = now + 1;
      }
      push_reserved(t, seq, rng() % 1000);
    } else if (op <= 5 || ref.empty()) {
      const sim::Nanos t =
          (rng() % 3 == 0) ? now : now + sim::nanos(rng() % 20);
      push_both(t, rng() % 1000);
    } else {
      Event e;
      pop_both(&e);
      ASSERT_FALSE(HasFatalFailure());
      now = e.time;
      last_popped_seq = e.seq;
    }
    ASSERT_EQ(q.next_seq(), issued);
  }
  while (!ref.empty()) {
    Event e;
    pop_both(&e);
    ASSERT_FALSE(HasFatalFailure());
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_seq(), issued);
}

}  // namespace
