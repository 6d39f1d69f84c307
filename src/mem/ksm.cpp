#include "mem/ksm.h"

#include <algorithm>
#include <stdexcept>

namespace mem {

void Ksm::add_range(PageDigest lo, PageDigest hi, bool add) {
  if (lo >= hi) {
    return;
  }
  auto it = tree_.lower_bound(lo);
  // Split a predecessor interval straddling lo so lo becomes a boundary.
  if (it != tree_.begin()) {
    const auto prev = std::prev(it);
    if (prev->second.end > lo) {
      const Interval tail{prev->second.end, prev->second.refs};
      prev->second.end = lo;
      it = tree_.insert(it, {lo, tail});
    }
  }
  PageDigest cur = lo;
  while (cur < hi) {
    const PageDigest next_start =
        (it == tree_.end() || it->first > hi) ? hi : it->first;
    if (cur < next_start) {
      // Gap [cur, next_start): digests with no backing yet. Dropping refs
      // in a gap cannot happen for well-formed clients; tolerate it.
      if (add) {
        it = tree_.insert(it, {cur, Interval{next_start, 1}});
        distinct_ += next_start - cur;
        ++it;
      }
      cur = next_start;
      continue;
    }
    // Interval starting exactly at cur. Split it if it straddles hi.
    if (it->second.end > hi) {
      const Interval tail{it->second.end, it->second.refs};
      it->second.end = hi;
      tree_.insert(std::next(it), {hi, tail});
    }
    const PageDigest len = it->second.end - cur;
    const std::uint64_t r = it->second.refs;
    cur = it->second.end;
    if (add) {
      if (r == 1) {
        shared_ += 2 * len;  // first duplicate: both copies become shared
      } else if (r >= 2) {
        shared_ += len;
      }
      it->second.refs = r + 1;
      ++it;
    } else {
      if (r == 2) {
        shared_ -= 2 * len;  // back to a single copy: no longer shared
      } else if (r >= 3) {
        shared_ -= len;
      }
      if (r <= 1) {
        distinct_ -= len;
        it = tree_.erase(it);
      } else {
        it->second.refs = r - 1;
        ++it;
      }
    }
  }
}

void Ksm::coalesce(PageDigest lo, PageDigest hi) {
  auto it = tree_.lower_bound(lo);
  if (it != tree_.begin()) {
    --it;  // the interval ending at lo may now match its new neighbor
  }
  while (it != tree_.end() && it->first <= hi) {
    const auto next = std::next(it);
    if (next == tree_.end()) {
      break;
    }
    if (it->second.end == next->first &&
        it->second.refs == next->second.refs) {
      it->second.end = next->second.end;
      tree_.erase(next);
    } else {
      it = next;
    }
  }
}

void Ksm::advise(std::uint64_t vm_id, const std::vector<PageDigest>& pages) {
  std::vector<PageRun> runs;
  for (PageDigest d : pages) {
    if (!runs.empty() &&
        d == runs.back().base_digest + runs.back().count) {
      ++runs.back().count;
    } else {
      runs.push_back({d, 1});
    }
  }
  advise_runs(vm_id, std::move(runs));
}

void Ksm::touch_max_digest(bool add) {
  if (add) {
    if (max_digest_refs_ == 0) {
      ++distinct_;
    } else if (max_digest_refs_ == 1) {
      shared_ += 2;
    } else {
      shared_ += 1;
    }
    ++max_digest_refs_;
  } else {
    if (max_digest_refs_ == 0) {
      return;  // tolerate, mirroring add_range's gap handling
    }
    --max_digest_refs_;
    if (max_digest_refs_ == 0) {
      --distinct_;
    } else if (max_digest_refs_ == 1) {
      shared_ -= 2;
    } else {
      shared_ -= 1;
    }
  }
}

void Ksm::apply_run(const PageRun& run, bool add) {
  constexpr PageDigest kMax = ~PageDigest{0};
  const PageDigest lo = run.base_digest;
  std::uint64_t count = run.count;
  if (count == 0) {
    return;
  }
  if (count - 1 >= kMax - lo) {
    // Run reaches digest 2^64-1 (and may wrap): peel off the pieces the
    // exclusive-end interval map cannot express.
    const std::uint64_t below_max = kMax - lo;  // pages in [lo, kMax)
    add_range(lo, kMax, add);
    coalesce(lo, kMax);
    touch_max_digest(add);
    const std::uint64_t rest = count - below_max - 1;  // wrapped onto [0, ...)
    if (rest > 0) {
      add_range(0, rest, add);
      coalesce(0, rest);
    }
    return;
  }
  add_range(lo, lo + count, add);
  coalesce(lo, lo + count);
}

Ksm::ProbeDelta Ksm::probe_runs(const std::vector<PageRun>& runs) const {
  constexpr PageDigest kMax = ~PageDigest{0};
  ProbeDelta delta;
  // Overlay of references this probe has "virtually" added, so
  // self-overlapping runs see each other exactly as sequential apply_run
  // calls would. Interval::refs counts probe-added references only.
  std::map<PageDigest, Interval> overlay;
  std::uint64_t probe_max_refs = 0;

  // Add one virtual reference on [a, b), splitting the overlay like
  // add_range splits the tree.
  const auto overlay_add = [&overlay](PageDigest a, PageDigest b) {
    auto it = overlay.upper_bound(a);
    if (it != overlay.begin()) {
      auto prev = std::prev(it);
      if (prev->second.end > a) {
        if (prev->first < a) {
          const Interval tail{prev->second.end, prev->second.refs};
          prev->second.end = a;
          it = overlay.insert(it, {a, tail});
        } else {
          it = prev;
        }
        // The caller only adds within one uniform piece, so [a, b) cannot
        // straddle an overlay boundary beyond a split at b.
        if (it->second.end > b) {
          const Interval tail{it->second.end, it->second.refs};
          it->second.end = b;
          overlay.insert(std::next(it), {b, tail});
        }
        ++it->second.refs;
        return;
      }
    }
    overlay.insert({a, Interval{b, 1}});
  };

  // Account one piece [cur, next) whose combined (tree + overlay) refcount
  // before this reference is r — the same 0->1 / 1->2 / n->n+1 transitions
  // add_range applies to the cached counters.
  const auto account = [&delta](std::uint64_t r, PageDigest len) {
    if (r == 0) {
      delta.backing_delta += len;
    } else if (r == 1) {
      delta.shared_delta += 2 * len;
    } else {
      delta.shared_delta += len;
    }
  };

  const auto probe_range = [&](PageDigest lo, PageDigest hi) {
    PageDigest cur = lo;
    while (cur < hi) {
      // Existing refs and the next uniformity boundary from the tree.
      std::uint64_t tree_refs = 0;
      PageDigest boundary = hi;
      auto it = tree_.upper_bound(cur);
      if (it != tree_.begin()) {
        const auto prev = std::prev(it);
        if (prev->second.end > cur) {
          tree_refs = prev->second.refs;
          boundary = std::min(boundary, prev->second.end);
        }
      }
      if (tree_refs == 0 && it != tree_.end()) {
        boundary = std::min(boundary, it->first);
      }
      // Same from the overlay.
      std::uint64_t ov_refs = 0;
      auto ov = overlay.upper_bound(cur);
      if (ov != overlay.begin()) {
        const auto prev = std::prev(ov);
        if (prev->second.end > cur) {
          ov_refs = prev->second.refs;
          boundary = std::min(boundary, prev->second.end);
        }
      }
      if (ov_refs == 0 && ov != overlay.end()) {
        boundary = std::min(boundary, ov->first);
      }
      account(tree_refs + ov_refs, boundary - cur);
      overlay_add(cur, boundary);
      cur = boundary;
    }
  };

  for (const auto& run : runs) {
    const PageDigest lo = run.base_digest;
    const std::uint64_t count = run.count;
    if (count == 0) {
      continue;
    }
    if (count - 1 >= kMax - lo) {
      // Mirror apply_run's 2^64-1 decomposition: [lo, kMax), the top
      // digest itself, then the wrapped remainder.
      const std::uint64_t below_max = kMax - lo;
      probe_range(lo, kMax);
      account(max_digest_refs_ + probe_max_refs, 1);
      ++probe_max_refs;
      const std::uint64_t rest = count - below_max - 1;
      if (rest > 0) {
        probe_range(0, rest);
      }
      continue;
    }
    probe_range(lo, lo + count);
  }
  return delta;
}

void Ksm::advise_runs(std::uint64_t vm_id, std::vector<PageRun> runs) {
  remove(vm_id);
  for (const auto& r : runs) {
    apply_run(r, /*add=*/true);
    advised_ += r.count;
  }
  clients_[vm_id] = std::move(runs);
  scanned_ = false;
}

void Ksm::remove(std::uint64_t vm_id) {
  const auto it = clients_.find(vm_id);
  if (it != clients_.end()) {
    for (const auto& r : it->second) {
      apply_run(r, /*add=*/false);
      advised_ -= r.count;
    }
    clients_.erase(it);
  }
  scanned_ = false;
}

std::uint64_t Ksm::scan() {
  const std::uint64_t before = backing_pages();
  scanned_ = true;
  const std::uint64_t after = distinct_;
  return before > after ? before - after : 0;
}

double Ksm::density_gain() const {
  const std::uint64_t backing = backing_pages();
  if (backing == 0) {
    return 1.0;
  }
  return static_cast<double>(advised_) / static_cast<double>(backing);
}

double Ksm::shared_fraction() const {
  if (!scanned_ || advised_ == 0) {
    return 0.0;
  }
  return static_cast<double>(shared_) / static_cast<double>(advised_);
}

std::size_t KsmLedger::home(PageDigest base, std::uint64_t count) const {
  // splitmix64 finalizer over both fields: private runs differ only in
  // bits 24 and up of their base, and the table indexes by low bits.
  std::uint64_t x = base ^ (count * 0x9E3779B97F4A7C15ull);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return static_cast<std::size_t>(x ^ (x >> 31)) & (slots_.size() - 1);
}

std::size_t KsmLedger::find(const PageRun& run) const {
  if (slots_.empty()) {
    return kAbsent;
  }
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(run.base_digest, run.count);; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.refs == 0) {
      return kAbsent;
    }
    if (s.base == run.base_digest && s.count == run.count) {
      return i;
    }
  }
}

KsmLedger::Slot& KsmLedger::vacant(PageDigest base, std::uint64_t count) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(base, count);
  while (slots_[i].refs != 0) {
    i = (i + 1) & mask;
  }
  return slots_[i];
}

KsmLedger::Slot& KsmLedger::find_or_claim(const PageRun& run) {
  const std::size_t found = find(run);
  if (found != kAbsent) {
    return slots_[found];
  }
  if ((keys_ + 1) * 4 > slots_.size() * 3) {
    std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.refs != 0) {
        vacant(s.base, s.count) = s;
      }
    }
  }
  ++keys_;
  Slot& s = vacant(run.base_digest, run.count);
  s = Slot{run.base_digest, run.count, 0};
  return s;
}

void KsmLedger::erase(std::size_t i) {
  // Backward-shift deletion: an entry after the hole moves into it unless
  // its home lies cyclically in (hole, entry], which keeps every probe
  // chain gap-free without tombstones.
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = i;
  for (std::size_t j = (i + 1) & mask; slots_[j].refs != 0;
       j = (j + 1) & mask) {
    const std::size_t h = home(slots_[j].base, slots_[j].count);
    if (((j - h) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --keys_;
}

KsmLedger::ProbeDelta KsmLedger::probe_runs(PageRunView runs) const {
  ProbeDelta delta;
  for (const PageRun* run = runs.begin(); run != runs.end(); ++run) {
    if (run->count == 0) {
      continue;
    }
    const std::size_t found = find(*run);
    std::uint64_t refs = found == kAbsent ? 0 : slots_[found].refs;
    // Earlier references to the same key within this call.
    for (const PageRun* prev = runs.begin(); prev != run; ++prev) {
      if (prev->base_digest == run->base_digest && prev->count == run->count) {
        ++refs;
      }
    }
    if (refs == 0) {
      delta.backing_delta += run->count;
    } else if (refs == 1) {
      delta.shared_delta += 2 * run->count;
    } else {
      delta.shared_delta += run->count;
    }
  }
  return delta;
}

void KsmLedger::advise_runs(PageRunView runs) {
  for (const PageRun& run : runs) {
    if (run.count == 0) {
      continue;
    }
    const std::uint64_t refs = find_or_claim(run).refs++;
    if (refs == 0) {
      distinct_ += run.count;
    } else if (refs == 1) {
      shared_ += 2 * run.count;  // first duplicate: both copies become shared
    } else {
      shared_ += run.count;
    }
    advised_ += run.count;
  }
  scanned_ = false;
}

void KsmLedger::remove_runs(PageRunView runs) {
  for (const PageRun& run : runs) {
    if (run.count == 0) {
      continue;
    }
    const std::size_t i = find(run);
    if (i == kAbsent) {
      throw std::logic_error("KsmLedger::remove_runs: run was never advised");
    }
    const std::uint64_t refs = slots_[i].refs;
    if (refs == 1) {
      distinct_ -= run.count;
      erase(i);
    } else {
      shared_ -= refs == 2 ? 2 * run.count : run.count;
      slots_[i].refs = refs - 1;
    }
    advised_ -= run.count;
  }
  scanned_ = false;
}

double KsmLedger::density_gain() const {
  const std::uint64_t backing = backing_pages();
  if (backing == 0) {
    return 1.0;
  }
  return static_cast<double>(advised_) / static_cast<double>(backing);
}

double KsmLedger::shared_fraction() const {
  if (!scanned_ || advised_ == 0) {
    return 0.0;
  }
  return static_cast<double>(shared_) / static_cast<double>(advised_);
}

}  // namespace mem
