// Kernel Samepage Merging (KSM) models.
//
// Section 3.2 of the paper discusses KSM as a density/performance technique
// for hypervisor guests that simultaneously weakens the isolation boundary
// (cross-VM side channels, Irazoqui et al.). Both models here deduplicate
// identical pages across guests and report density gains; neither stores
// page bytes, only digests.
//
// Ksm is the general per-page model. Its stable tree is an interval map
// over digest ranges with refcounts, updated *incrementally* by
// advise()/remove() in O(runs touched) — not rebuilt per scan — and it
// keeps each registered VM's runs so remove(vm) can drop them. Runs may
// overlap arbitrarily. The multitenant_density example and isobench's
// ksm.* timings use it, and it is the oracle KsmLedger is tested against.
//
// KsmLedger is the fleet engine's model. It keeps one refcount per
// (base_digest, count) run key in a flat hash table, and no per-VM state:
// the caller hands the same runs back to remove_runs at teardown. That is
// exact only under one precondition: any two runs ever advised to one
// ledger are either identical or disjoint as digest ranges. The fleet's
// guest runs (a global zero run, one image run per platform, one private
// run per tenant) meet it because every guest in a run has the same size.
// Each call costs one hash operation per run.
//
// In both models scan() is O(1): it only flips between the "advised but
// not yet merged" and "merged" accounting views.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace mem {

/// Content hash of a guest page (the model never stores page bytes).
using PageDigest = std::uint64_t;

/// A run of `count` consecutive digests starting at `base_digest` — the
/// run-length representation of one contiguous guest memory region (zero
/// pages, image pages, private pages) that never materializes per-page.
struct PageRun {
  PageRun() = default;
  PageRun(PageDigest base, std::uint64_t n) : base_digest(base), count(n) {}

  PageDigest base_digest = 0;
  std::uint64_t count = 0;
};

class Ksm {
 public:
  /// What advising a run set would change, computed without mutating the
  /// tree (see probe_runs).
  struct ProbeDelta {
    /// Additional backing (distinct) pages the runs would create.
    std::uint64_t backing_delta = 0;
    /// Additional cross-VM shared pages the runs would create.
    std::uint64_t shared_delta = 0;
  };

  /// Register (MADV_MERGEABLE) a VM's pages, one digest per page.
  /// Consecutive digests are coalesced into runs internally.
  void advise(std::uint64_t vm_id, const std::vector<PageDigest>& pages);

  /// Read-only admission trial: the exact backing/shared-page delta that
  /// advise_runs(new_vm, runs) followed by scan() would cause, without
  /// touching the stable tree. Handles self-overlapping runs and the
  /// digest 2^64-1 decomposition exactly like advise_runs (differential
  /// test in tests/mem_test.cpp). The VM must not already be registered
  /// (advise_runs on a registered VM first drops its old runs, which a
  /// const probe cannot model).
  ProbeDelta probe_runs(const std::vector<PageRun>& runs) const;

  /// Register a VM's pages as digest runs (the fleet-scale fast path).
  void advise_runs(std::uint64_t vm_id, std::vector<PageRun> runs);

  /// Remove a VM (teardown); its contribution to the stable tree is dropped.
  void remove(std::uint64_t vm_id);

  /// One pass of ksmd: merges the advised duplicates. The stable tree is
  /// maintained incrementally, so this only switches the accounting view.
  /// Returns the number of pages newly merged in this pass.
  std::uint64_t scan();

  /// Unmerge storm (memory-pressure fault): every merged page re-expands
  /// to its own backing copy, as if the kernel broke COW on the whole
  /// stable tree at once. The tree itself is kept — the next scan()
  /// re-merges in one pass. Returns the number of pages re-expanded
  /// (backing_pages jumps by exactly this much).
  std::uint64_t unmerge() {
    if (!scanned_) {
      return 0;
    }
    scanned_ = false;
    return advised_ - distinct_;
  }

  /// Total pages advised across VMs.
  std::uint64_t advised_pages() const { return advised_; }

  /// Pages physically backing the advised set after merging.
  std::uint64_t backing_pages() const {
    return scanned_ ? distinct_ : advised_;
  }

  /// advised / backing; 1.0 = no sharing.
  double density_gain() const;

  /// Fraction of advised pages that share backing with at least one other
  /// VM — pages observable through a KSM timing side channel.
  double shared_fraction() const;

  /// Absolute count behind shared_fraction(): advised pages whose backing
  /// is shared with at least one other VM after the last scan.
  std::uint64_t shared_pages() const { return scanned_ ? shared_ : 0; }

  /// Interval count of the stable tree — an implementation health metric:
  /// bounded by the number of distinct run boundaries alive, not by churn.
  std::size_t stable_tree_intervals() const {
    return tree_.size() + (max_digest_refs_ > 0 ? 1 : 0);
  }

 private:
  /// One stable-tree interval [start, end) of digests with a uniform
  /// refcount; keyed by start in tree_. Intervals are disjoint.
  struct Interval {
    PageDigest end = 0;
    std::uint64_t refs = 0;
  };

  /// Add (+1) or drop (-1) one reference for every digest in [lo, hi),
  /// splitting intervals at the boundaries and updating the cached
  /// advised/backing/shared counters as refcounts cross 0<->1 and 1<->2.
  void add_range(PageDigest lo, PageDigest hi, bool add);

  /// Re-merge adjacent intervals around [lo, hi] whose refcounts ended up
  /// equal, so churning clients with heterogeneous run boundaries cannot
  /// fragment the tree without bound.
  void coalesce(PageDigest lo, PageDigest hi);

  /// Apply one run's references. Intervals use exclusive ends, which cannot
  /// express 2^64 — so a run reaching the top digest is decomposed into
  /// [base, MAX), the MAX digest itself (dedicated refcount), and any
  /// wrapped remainder, keeping advised/backing/shared exactly in sync.
  void apply_run(const PageRun& run, bool add);
  void touch_max_digest(bool add);

  std::map<PageDigest, Interval> tree_;  // digest interval -> refs
  std::uint64_t max_digest_refs_ = 0;    // refs on digest 2^64-1 (see above)
  std::unordered_map<std::uint64_t, std::vector<PageRun>> clients_;
  std::uint64_t advised_ = 0;   // total refs = sum of run lengths
  std::uint64_t distinct_ = 0;  // total interval length (backing pages)
  std::uint64_t shared_ = 0;    // sum of len*refs over intervals with refs>1
  bool scanned_ = false;
};

/// Non-owning view of a contiguous run set (C++17 stands in for
/// std::span<const PageRun>). Converts implicitly from a vector or an
/// array of runs, so callers pass either as is.
class PageRunView {
 public:
  PageRunView(const std::vector<PageRun>& runs)
      : data_(runs.data()), size_(runs.size()) {}
  template <std::size_t N>
  PageRunView(const std::array<PageRun, N>& runs)
      : data_(runs.data()), size_(N) {}

  const PageRun* begin() const { return data_; }
  const PageRun* end() const { return data_ + size_; }

 private:
  const PageRun* data_;
  std::size_t size_;
};

/// Refcount-per-run KSM accounting for run sets that are pairwise
/// identical or disjoint (see the header comment). Counters, scan() and
/// unmerge() behave exactly like Ksm's for such inputs; the differential
/// test in tests/mem_test.cpp holds the two models to that.
class KsmLedger {
 public:
  using ProbeDelta = Ksm::ProbeDelta;

  /// The backing/shared-page delta advise_runs(runs) followed by scan()
  /// would cause, without mutating the ledger. A key repeated within
  /// `runs` counts as a second reference, as advise_runs applies it.
  ProbeDelta probe_runs(PageRunView runs) const;

  /// Add one reference per run. Zero-count runs change nothing.
  void advise_runs(PageRunView runs);

  /// Drop one reference per run; every run must have been advised before
  /// (std::logic_error otherwise — the ledger keeps no per-VM record to
  /// tolerate a mismatch against).
  void remove_runs(PageRunView runs);

  /// One pass of ksmd; see Ksm::scan().
  std::uint64_t scan() {
    const std::uint64_t before = backing_pages();
    scanned_ = true;
    return before - distinct_;
  }

  /// Unmerge storm; see Ksm::unmerge().
  std::uint64_t unmerge() {
    if (!scanned_) {
      return 0;
    }
    scanned_ = false;
    return advised_ - distinct_;
  }

  std::uint64_t advised_pages() const { return advised_; }
  std::uint64_t backing_pages() const {
    return scanned_ ? distinct_ : advised_;
  }
  std::uint64_t shared_pages() const { return scanned_ ? shared_ : 0; }
  double density_gain() const;
  double shared_fraction() const;

  /// Distinct run keys alive (an implementation health metric).
  std::size_t run_keys() const { return keys_; }

 private:
  /// One run key and its refcount. refs == 0 marks an empty slot: a key
  /// is stored only while referenced, and zero-count runs never are.
  struct Slot {
    PageDigest base = 0;
    std::uint64_t count = 0;
    std::uint64_t refs = 0;
  };

  static constexpr std::size_t kAbsent = ~std::size_t{0};

  std::size_t home(PageDigest base, std::uint64_t count) const;
  /// Index of the slot holding run's key, or kAbsent.
  std::size_t find(const PageRun& run) const;
  /// The first empty slot on a key's probe chain (the key is absent).
  Slot& vacant(PageDigest base, std::uint64_t count);
  /// The slot holding run's key, claimed with refs 0 if it was absent.
  Slot& find_or_claim(const PageRun& run);
  /// Empty slot i, shifting later entries of its probe chain back.
  void erase(std::size_t i);

  /// Open addressing, linear probing, power-of-two size (or empty), at
  /// most 3/4 full. The keys of one fleet host are a few shared runs plus
  /// one private run per guest, so lookups are one probe or two.
  std::vector<Slot> slots_;
  std::size_t keys_ = 0;
  std::uint64_t advised_ = 0;   // total refs weighted by run length
  std::uint64_t distinct_ = 0;  // pages of keys with refs >= 1
  std::uint64_t shared_ = 0;    // pages of all refs on keys with refs >= 2
  bool scanned_ = false;
};

}  // namespace mem
