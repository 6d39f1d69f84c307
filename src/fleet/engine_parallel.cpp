// Parallel execution mode for FleetEngine (Scenario::threads > 1).
//
// Conservative parallel discrete-event simulation over the engine's shard
// structure: shards only interact at *coordinator events* (arrivals, host
// events, autoscale evaluations, fault boundaries). Everything between two
// coordinator events is shard-local, so it can run on a worker pool — as
// long as the global side effects (report accumulators, fleet counters,
// event sequence numbers) are applied in exactly the order the sequential
// loop would have produced. This file holds no event logic of its own: it
// schedules the engine's shard-local handlers onto workers and replays
// their effect records. Reports are byte-identical to `threads = 1` at
// every thread count; the differential tests in
// tests/fleet_parallel_test.cpp pin that.
//
// Two mechanisms share one worker pool:
//
//  * Boot lanes. Arrival processing is inherently serial (placement is a
//    global decision), and during a storm nearly every instant has an
//    arrival, which would starve windows. But the expensive part of a boot
//    — platform boot-sequence sampling plus the image pull through the
//    shard's page cache and NVMe — is shard-local and runs *between* the
//    kBootPhys event and its kBootDone. When the coordinator pops a
//    kBootPhys it reserves the kBootDone's sequence number immediately
//    (that is all determinism needs: only the completion *time* is still
//    unknown) and hands the physics to the owning shard's FIFO lane.
//    Workers compute completion times behind the coordinator's back while
//    it keeps placing arrivals; completed boots are harvested back into
//    the global queue before the queue could reach them. kBootFloorNs
//    makes the harvest horizon provable: a boot issued at time T cannot
//    complete before T + kBootFloorNs, so an entry is only forced (waited
//    on) once the queue is about to pop an event at or past that horizon.
//    Per-lane FIFO order equals the sequential per-shard order, so page
//    cache and RNG streams see identical access sequences.
//
//  * Windows. When the queue's head is a shard-local event
//    (is_shard_local), the coordinator extracts the maximal run of such
//    events — up to the next coordinator event, and no further than
//    churn_gap ahead when churn is on (a teardown at time t can spawn a
//    re-arrival no earlier than t + churn_gap, so nothing inside the window
//    can create a coordinator event inside the window) — into per-shard
//    sub-queues. Workers drain the sub-queues concurrently through the very
//    handlers the sequential loop runs (handle_local, engine.cpp): each
//    handler applies its shard-local state directly and writes its global
//    effects into an Effects record. The sequential loop applies that
//    record at once; here the coordinator keeps them and replays them
//    through the same apply_effects in merged (time, sequence) order,
//    reproducing the sequential loop's report updates, sequence-number
//    issue order, and event-generation order bit for bit. apply_effects
//    names the three places the two ways of applying differ.
//
// Sequence reconstruction: events born inside a window (a phase completion
// scheduled by a phase start, a teardown scheduled by the last phase) get
// per-shard provisional sequence numbers at or above win_seq_base_ (the
// queue's next_seq() snapshot — strictly greater than every real queued
// seq, so sub-queue ordering is correct). The replay issues one real
// reserve_seqs(1) per generated event in merged order — exactly where the
// sequential loop would have stamped it — and `born` maps each shard's
// k-th provisional seq to its real one. A parent record always precedes
// its child in the shard's stream, so the child's real seq is known by the
// time the merge needs it.
#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "fleet/engine.h"

namespace fleet {

namespace {

/// Windows smaller than this are drained inline by the coordinator: the
/// records/replay path is identical (so bytes are too), it just skips the
/// pool wakeup, which would cost more than it buys on tiny windows.
constexpr std::size_t kMinParallelWindow = 64;

}  // namespace

// --- Worker pool + boot lanes ------------------------------------------------

class FleetEngine::ParallelCtx {
 public:
  ParallelCtx(FleetEngine& engine, const Scenario& s, int workers)
      : engine_(engine), scenario_(&s) {
    lanes_.resize(engine_.shards_.size());
    threads_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { worker_main(); });
    }
  }

  ParallelCtx(const ParallelCtx&) = delete;
  ParallelCtx& operator=(const ParallelCtx&) = delete;

  ~ParallelCtx() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      shutdown_ = true;
      cv_.notify_all();
    }
    for (std::thread& th : threads_) {
      th.join();
    }
  }

  /// Boots still in flight. Coordinator-only state, no lock needed.
  std::size_t outstanding() const { return outstanding_; }

  /// Queue one deferred boot's physics on the owning shard's lane. `seq` is
  /// the kBootDone's pre-reserved global sequence number.
  void submit(const Event& e, std::uint64_t seq) {
    std::lock_guard<std::mutex> lk(mu_);
    const int shard = engine_.tenants_[e.tenant].host;
    Lane& lane = lanes_[static_cast<std::size_t>(shard)];
    lane.entries.push_back(Entry{e.time, 0, e.tenant, seq, e.epoch});
    fifo_.push_back(shard);
    ++outstanding_;
    cv_.notify_one();
  }

  /// Harvest completed boots back into the global queue, in submission
  /// order. With `all`, drains every outstanding entry (the full barrier
  /// before windows and topology changes); otherwise only entries whose
  /// provable earliest completion (phys + kBootFloorNs) is at or before
  /// `horizon` — later entries cannot produce events the queue could reach
  /// yet. Waits for (or computes inline) entries that are due but not done.
  /// Returns true if anything was pushed, so the caller re-examines top().
  bool harvest(sim::Nanos horizon, bool all) {
    bool pushed = false;
    std::vector<Entry*> batch;
    std::unique_lock<std::mutex> lk(mu_);
    while (!fifo_.empty()) {
      const int li = fifo_.front();
      Lane& lane = lanes_[static_cast<std::size_t>(li)];
      {
        const Entry& e = lane.entries[lane.harvested - lane.base];
        if (!all && e.phys + kBootFloorNs > horizon) {
          break;  // fifo_ is phys-nondecreasing: nothing further is due
        }
      }
      if (lane.done <= lane.harvested) {
        // Due but not computed. If the lane is idle, run its backlog on
        // this thread; otherwise a worker owns the in-flight batch — wait
        // for it. Either way, re-examine the front afterwards.
        if (!lane.busy && lane.claimed <= lane.harvested) {
          run_lane_batch(lk, li, batch);
        } else {
          done_cv_.wait(lk);
        }
        continue;
      }
      const Entry e = lane.entries[lane.harvested - lane.base];
      ++lane.harvested;
      while (lane.base < lane.harvested) {
        lane.entries.pop_front();
        ++lane.base;
      }
      fifo_.pop_front();
      --outstanding_;
      engine_.queue_.push_at_seq(e.done, e.seq, e.tenant, EventKind::kBootDone,
                                 e.epoch);
      pushed = true;
    }
    return pushed;
  }

  /// A host event may have added shards: give them lanes.
  void ensure_topology() {
    std::lock_guard<std::mutex> lk(mu_);
    while (lanes_.size() < engine_.shards_.size()) {
      lanes_.emplace_back();
    }
  }

  /// Drain the current window's per-shard sub-queues on the pool; the
  /// coordinator participates. Returns once every shard task is drained.
  void run_window() {
    std::unique_lock<std::mutex> lk(mu_);
    window_next_ = 0;
    window_count_ = engine_.win_shards_.size();
    window_remaining_ = window_count_;
    window_active_ = true;
    cv_.notify_all();
    while (true) {
      if (window_next_ < window_count_) {
        const int h = engine_.win_shards_[window_next_++];
        lk.unlock();
        engine_.window_drain(engine_.tasks_[static_cast<std::size_t>(h)],
                             *scenario_);
        lk.lock();
        if (--window_remaining_ == 0) {
          break;
        }
        continue;
      }
      if (window_remaining_ == 0) {
        break;
      }
      done_cv_.wait(lk);
    }
    window_active_ = false;
  }

 private:
  /// One deferred boot: submitted by the coordinator, computed by a worker
  /// (done = completion time), harvested back by the coordinator.
  struct Entry {
    sim::Nanos phys = 0;
    sim::Nanos done = 0;
    std::uint64_t tenant = 0;
    std::uint64_t seq = 0;
    std::uint32_t epoch = 0;
  };

  /// Per-shard FIFO of deferred boots. Indices (claimed/done/harvested) are
  /// absolute submission counts; `base` is the count already popped off the
  /// deque's front. `busy` gives one worker at a time exclusive ownership
  /// of the lane's claimed-but-unfinished batch, which preserves the
  /// per-shard page-cache and RNG order the sequential engine produces.
  struct Lane {
    std::deque<Entry> entries;
    std::size_t base = 0;
    std::size_t claimed = 0;
    std::size_t done = 0;
    std::size_t harvested = 0;
    bool busy = false;
  };

  void compute(Entry& e) {
    Tenant& t = engine_.tenants_[e.tenant];
    Shard& sh = engine_.shards_[static_cast<std::size_t>(t.host)];
    e.done = engine_.boot_physics(sh, t, *scenario_, t.boot_factor);
  }

  /// Claim lane li's whole backlog and compute it outside the lock. Entry
  /// pointers stay valid across the unlock: std::deque never moves elements
  /// on push_back, and the harvested prefix (the only part popped) is
  /// always behind `claimed`.
  void run_lane_batch(std::unique_lock<std::mutex>& lk, int li,
                      std::vector<Entry*>& batch) {
    Lane& lane = lanes_[static_cast<std::size_t>(li)];
    const std::size_t begin = lane.claimed;
    const std::size_t end = lane.base + lane.entries.size();
    lane.claimed = end;
    lane.busy = true;
    batch.clear();
    for (std::size_t i = begin; i < end; ++i) {
      batch.push_back(&lane.entries[i - lane.base]);
    }
    lk.unlock();
    for (Entry* e : batch) {
      compute(*e);
    }
    lk.lock();
    lane.done = end;
    lane.busy = false;
    done_cv_.notify_all();
  }

  /// A lane with unclaimed work, preferring the one the coordinator will
  /// harvest next. -1 if none.
  int find_lane_work() const {
    if (!fifo_.empty()) {
      const int li = fifo_.front();
      const Lane& lane = lanes_[static_cast<std::size_t>(li)];
      if (!lane.busy && lane.claimed < lane.base + lane.entries.size()) {
        return li;
      }
    }
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      const Lane& lane = lanes_[i];
      if (!lane.busy && lane.claimed < lane.base + lane.entries.size()) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  void worker_main() {
    std::vector<Entry*> batch;
    std::unique_lock<std::mutex> lk(mu_);
    while (true) {
      if (shutdown_) {
        return;
      }
      if (window_active_ && window_next_ < window_count_) {
        const int h = engine_.win_shards_[window_next_++];
        lk.unlock();
        engine_.window_drain(engine_.tasks_[static_cast<std::size_t>(h)],
                             *scenario_);
        lk.lock();
        if (--window_remaining_ == 0) {
          done_cv_.notify_all();
        }
        continue;
      }
      if (const int li = find_lane_work(); li >= 0) {
        run_lane_batch(lk, li, batch);
        continue;
      }
      cv_.wait(lk);
    }
  }

  FleetEngine& engine_;
  const Scenario* scenario_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable cv_;       // wakes workers (submit/window/shutdown)
  std::condition_variable done_cv_;  // wakes the coordinator (progress)
  bool shutdown_ = false;

  /// Lanes by shard index. A deque so mid-run scale-out can append without
  /// moving lanes other threads may reference.
  std::deque<Lane> lanes_;
  /// Shard index per submission, in submission (= phys-time) order; the
  /// front is always the entry harvest() must emit next.
  std::deque<int> fifo_;
  std::size_t outstanding_ = 0;  // coordinator-only

  // Window dispatch state, all under mu_.
  bool window_active_ = false;
  std::size_t window_next_ = 0;
  std::size_t window_count_ = 0;
  std::size_t window_remaining_ = 0;
};

// --- Coordinator loop --------------------------------------------------------

void FleetEngine::run_loop_parallel(const Scenario& s,
                                    const std::vector<sim::Nanos>& arrivals,
                                    sim::Nanos& last_event) {
  ParallelCtx ctx(*this, s, std::max(1, s.threads - 1));
  tasks_.clear();
  tasks_.resize(shards_.size());
  win_shards_.clear();

  while (true) {
    if (queue_.empty()) {
      if (ctx.outstanding() == 0) {
        break;  // no events, no boots in flight: the run is over
      }
      ctx.harvest(0, /*all=*/true);
      continue;
    }
    const Event top = queue_.top();
    if (ctx.outstanding() > 0 && ctx.harvest(top.time, /*all=*/false)) {
      continue;  // harvested boots may now precede the old top
    }
    if (top.kind == EventKind::kArrival) {
      // Placement is the serial core of the run; lanes keep computing
      // boot physics underneath it. An arrival touches placement state,
      // KSM, and demand counters — all coordinator-owned — while lane
      // workers touch only the page cache / NVMe and the booting
      // tenant's private state, so they commute.
      process_event(queue_.pop(), s, arrivals, last_event);
    } else if (!is_shard_local(top.kind)) {
      // Topology may change here: add_shard can reallocate shards_, and a
      // drain or crash rewrites foreign tenants' state, either of which
      // would race in-flight lane work. Wait out every boot first; the
      // pushes all land strictly after top.time (their horizon has not
      // been reached), so `top` is still the queue's head.
      ctx.harvest(0, /*all=*/true);
      process_event(queue_.pop(), s, arrivals, last_event);
      ctx.ensure_topology();
      if (tasks_.size() < shards_.size()) {
        tasks_.resize(shards_.size());
      }
    } else if (top.kind == EventKind::kBootPhys) {
      // Lane path. Mirror the sequential pop accounting, reserve the
      // kBootDone's seq at exactly the point the sequential loop would
      // have stamped it, and let the pool compute the completion time.
      const Event e = queue_.pop();
      ++report_.events_processed;
      global_clock_.advance_to(e.time);
      if (e.epoch != tenants_[e.tenant].epoch) {
        continue;  // superseded by a drain: inert, consumes no seq
      }
      last_event = e.time;
      ctx.submit(e, queue_.reserve_seqs(1));
    } else {
      // Window path. Full lane barrier first: window workers touch the
      // same shard state lanes do, and per-shard ordering requires all
      // earlier (smaller time/seq) boot physics to have run.
      ctx.harvest(0, /*all=*/true);
      const std::size_t n = build_window(s);
      if (n == 0) {
        continue;  // defensive: the head was shard-local, so n >= 1
      }
      if (win_shards_.size() > 1 && n >= kMinParallelWindow) {
        ctx.run_window();
      } else {
        for (const int h : win_shards_) {
          window_drain(tasks_[static_cast<std::size_t>(h)], s);
        }
      }
      replay_window(last_event);
    }
  }
}

// --- Window extraction -------------------------------------------------------

std::size_t FleetEngine::build_window(const Scenario& s) {
  const Event first = queue_.top();
  win_seq_base_ = queue_.next_seq();
  // With churn on, a teardown at time t >= first.time re-queues its arrival
  // at t + churn_gap >= this bound, so bounding the window keeps every
  // coordinator event outside it. use_parallel() rejects churn_gap <= 0.
  win_bound_ = s.churn_rounds > 0
                   ? first.time + s.churn_gap
                   : std::numeric_limits<sim::Nanos>::max();
  win_has_stop_ = false;
  win_stop_time_ = 0;
  std::size_t n = 0;
  while (!queue_.empty()) {
    const Event top = queue_.top();
    if (!is_shard_local(top.kind)) {
      win_has_stop_ = true;
      win_stop_time_ = top.time;
      break;
    }
    if (top.time >= win_bound_) {
      break;
    }
    const Event e = queue_.pop();
    const int h = tenants_[e.tenant].host;
    ShardTask& task = tasks_[static_cast<std::size_t>(h)];
    if (task.q.empty() && task.records.empty()) {
      win_shards_.push_back(h);  // first touch this window
    }
    task.q.push_at_seq(e.time, e.seq, e.tenant, e.kind, e.epoch);
    ++n;
  }
  return n;
}

bool FleetEngine::birth_in_window(const Effects& fx) const {
  // Coordinator events (churn re-arrivals) always leave. An event born at
  // the stop event's own timestamp would still pop after the stop (its seq
  // is issued later), so the strict < is exact.
  return fx.gen && is_shard_local(fx.gen_kind) && fx.gen_time < win_bound_ &&
         (!win_has_stop_ || fx.gen_time < win_stop_time_);
}

// --- Worker side -------------------------------------------------------------

void FleetEngine::window_drain(ShardTask& task, const Scenario& s) {
  while (!task.q.empty()) {
    const Event e = task.q.pop();
    Effects fx(e);
    Tenant& t = tenants_[e.tenant];
    if (e.epoch != t.epoch) {
      fx.stale = true;  // replay still counts it, exactly like the main loop
    } else {
      handle_local(t, s, fx);
      if (birth_in_window(fx)) {
        // Still ours: queue it under a provisional seq. Provisional seqs
        // start at win_seq_base_ (> every extracted seq) and rise in
        // generation order, which is exactly the relative order the
        // sequential engine would have stamped.
        task.q.push_at_seq(fx.gen_time, win_seq_base_ + task.next_birth++,
                           e.tenant, fx.gen_kind, e.epoch);
      }
    }
    task.records.push_back(fx);
  }
}

// --- Deterministic replay ----------------------------------------------------

void FleetEngine::replay_window(sim::Nanos& last_event) {
  struct Head {
    sim::Nanos time;
    std::uint64_t seq;
    int shard;
  };
  // Min-heap over stream heads by (time, true seq): O(records log M)
  // instead of scanning every shard per record.
  const auto later = [](const Head& a, const Head& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  };
  const auto head_of = [this](int h) {
    const ShardTask& task = tasks_[static_cast<std::size_t>(h)];
    const Effects& rec = task.records[task.replay_pos];
    // A provisional seq's parent is always earlier in the same stream, so
    // its real seq is already in `born` when the head reaches it.
    const std::uint64_t seq =
        rec.seq >= win_seq_base_
            ? task.born[static_cast<std::size_t>(rec.seq - win_seq_base_)]
            : rec.seq;
    return Head{rec.time, seq, h};
  };
  std::vector<Head> heap;
  heap.reserve(win_shards_.size());
  for (const int h : win_shards_) {
    if (!tasks_[static_cast<std::size_t>(h)].records.empty()) {
      heap.push_back(head_of(h));
    }
  }
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const int h = heap.back().shard;
    heap.pop_back();
    ShardTask& task = tasks_[static_cast<std::size_t>(h)];
    const Effects& fx = task.records[task.replay_pos++];
    ++report_.events_processed;
    global_clock_.advance_to(fx.time);
    if (!fx.stale) {
      last_event = fx.time;
      apply_effects(fx, &task);
    }
    if (task.replay_pos < task.records.size()) {
      heap.push_back(head_of(h));
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
  // Coalesced policy publishes: one final state push per dirty shard and
  // one count push per touched (shard, platform). Policies key off the
  // state itself, so the end-of-window policy state matches the
  // sequential loop's, which published after every event.
  for (const int h : win_shards_) {
    ShardTask& task = tasks_[static_cast<std::size_t>(h)];
    Shard& sh = shards_[static_cast<std::size_t>(h)];
    for (const platforms::PlatformId id : task.counts_touched) {
      notify_platform_count(sh, id);
    }
    if (task.dirty) {
      publish_host(sh);
    }
    task.records.clear();
    task.born.clear();
    task.next_birth = 0;
    task.dirty = false;
    task.counts_touched.clear();
    task.replay_pos = 0;
  }
  win_shards_.clear();
}

}  // namespace fleet
