// Indexed d-ary min-heap over small integer ids.
//
// The built-in rankings (placement.h HeapWalkRanking) keep every live host
// in one of these, ordered by the policy's comparator over engine-pushed
// host state. An admission walk pops candidates lazily — O(log M) per
// candidate actually tried instead of a full O(M log M) sort per arrival —
// and pushes the popped ones back before the next walk. update() repositions
// one id after its key changed (the engine notifies per state delta).
//
// d = 4: shallower than binary for the sift-down-heavy pop/update mix, and
// the four children share a cache line of ids.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fleet {

/// Less(a, b) must be a strict weak ordering that totally orders ids
/// (tie-break on the id itself), so the pop sequence is deterministic and
/// identical to a stable sort by the same comparator.
template <typename Less>
class IndexedHeap {
 public:
  explicit IndexedHeap(Less less) : less_(less) {}

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  bool contains(int id) const {
    return id >= 0 && static_cast<std::size_t>(id) < pos_.size() &&
           pos_[static_cast<std::size_t>(id)] >= 0;
  }

  void clear() {
    heap_.clear();
    pos_.assign(pos_.size(), -1);
  }

  /// Insert an id not currently in the heap.
  void push(int id) {
    if (static_cast<std::size_t>(id) >= pos_.size()) {
      pos_.resize(static_cast<std::size_t>(id) + 1, -1);
    }
    pos_[static_cast<std::size_t>(id)] =
        static_cast<std::int32_t>(heap_.size());
    heap_.push_back(id);
    sift_up(heap_.size() - 1);
  }

  /// Reposition an id whose key changed.
  void update(int id) {
    const std::size_t i =
        static_cast<std::size_t>(pos_[static_cast<std::size_t>(id)]);
    if (!sift_up(i)) {
      sift_down(i);
    }
  }

  void erase(int id) {
    const std::size_t i =
        static_cast<std::size_t>(pos_[static_cast<std::size_t>(id)]);
    remove_at(i);
  }

  int top() const { return heap_.front(); }

  int pop() {
    const int id = heap_.front();
    remove_at(0);
    return id;
  }

 private:
  static constexpr std::size_t kArity = 4;

  void remove_at(std::size_t i) {
    pos_[static_cast<std::size_t>(heap_[i])] = -1;
    const int last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size()) {
      heap_[i] = last;
      pos_[static_cast<std::size_t>(last)] = static_cast<std::int32_t>(i);
      if (!sift_up(i)) {
        sift_down(i);
      }
    }
  }

  bool sift_up(std::size_t i) {
    bool moved = false;
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!less_(heap_[i], heap_[parent])) {
        break;
      }
      swap_at(i, parent);
      i = parent;
      moved = true;
    }
    return moved;
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t first_child = i * kArity + 1;
      if (first_child >= n) {
        break;
      }
      std::size_t best = i;
      const std::size_t end = std::min(first_child + kArity, n);
      for (std::size_t c = first_child; c < end; ++c) {
        if (less_(heap_[c], heap_[best])) {
          best = c;
        }
      }
      if (best == i) {
        break;
      }
      swap_at(i, best);
      i = best;
    }
  }

  void swap_at(std::size_t a, std::size_t b) {
    const int ida = heap_[a];
    const int idb = heap_[b];
    heap_[a] = idb;
    heap_[b] = ida;
    pos_[static_cast<std::size_t>(ida)] = static_cast<std::int32_t>(b);
    pos_[static_cast<std::size_t>(idb)] = static_cast<std::int32_t>(a);
  }

  std::vector<int> heap_;
  std::vector<std::int32_t> pos_;  // id -> heap index, -1 when absent
  Less less_;
};

}  // namespace fleet
