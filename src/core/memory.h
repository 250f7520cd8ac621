#ifndef MODULARIS_CORE_MEMORY_H_
#define MODULARIS_CORE_MEMORY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

/// \file memory.h
/// Query-wide memory governance (docs/DESIGN-memory.md). One MemoryBudget
/// per rank (and one for the driver tail), shared by that rank's worker
/// threads: charge/release are relaxed atomics, fired only when a tracked
/// container *grows capacity* (geometric growth makes that O(log n) events
/// per container), so the tracker is effectively free on the row hot path.
///
/// Two distinct roles, deliberately separated:
///  * Accounting (Charge/Release/peak): every large allocation site
///    reports growth so `mem.peak_bytes` reflects the rank's real
///    footprint. Accounting never fails an allocation.
///  * Admission (WouldExceed + the operators' spill thresholds): blocking
///    operators compare *deterministic size estimates* — drained input
///    bytes, histogram partition counts — against the configured limit.
///    Decisions are a pure function of (limit, histogram); they never read
///    the racy `used()` value, so spill behaviour (and therefore output
///    bytes) is identical at any thread count and interleaving.

namespace modularis {

class MemoryBudget {
 public:
  /// `limit_bytes` = 0 means unlimited: accounting still runs (peak is
  /// still reported) but WouldExceed() never fires.
  explicit MemoryBudget(size_t limit_bytes = 0) : limit_(limit_bytes) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  size_t limit() const { return limit_; }
  bool unlimited() const { return limit_ == 0; }

  /// Records `bytes` of new capacity. Never fails — enforcement is the
  /// operators' admission checks, not the accounting path.
  void Charge(size_t bytes) {
    if (bytes == 0) return;
    size_t now = used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    size_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now,
                                        std::memory_order_relaxed)) {
    }
  }

  void Release(size_t bytes) {
    if (bytes == 0) return;
    used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// Deterministic admission check: would a working set of `bytes` alone
  /// exceed the configured limit? Pure function of (limit, bytes) — never
  /// consults the live counter (see file comment).
  bool WouldExceed(size_t bytes) const { return limit_ != 0 && bytes > limit_; }

  /// Records a denied/degraded reservation ("mem.denials").
  void NoteDenial() { denials_.fetch_add(1, std::memory_order_relaxed); }

  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t peak() const { return peak_.load(std::memory_order_relaxed); }
  int64_t denials() const { return denials_.load(std::memory_order_relaxed); }

 private:
  size_t limit_;
  std::atomic<size_t> used_{0};
  std::atomic<size_t> peak_{0};
  std::atomic<int64_t> denials_{0};
};

/// RAII bundle of charges, the one way operators charge a budget:
/// hash-table bucket and entry arrays, state-table slabs, overflow arenas,
/// exchange staging. Add() as the structure grows; destruction (or
/// Reset()) releases everything charged.
class ScopedCharge {
 public:
  ScopedCharge() = default;
  explicit ScopedCharge(MemoryBudget* budget) : budget_(budget) {}
  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;
  ~ScopedCharge() { Reset(); }

  void Bind(MemoryBudget* budget) {
    Reset();
    budget_ = budget;
  }

  void Add(size_t bytes) {
    if (budget_ == nullptr || bytes == 0) return;
    budget_->Charge(bytes);
    charged_ += bytes;
  }

  void Reset() {
    if (budget_ != nullptr && charged_ > 0) budget_->Release(charged_);
    charged_ = 0;
  }

  size_t charged() const { return charged_; }

 private:
  MemoryBudget* budget_ = nullptr;
  size_t charged_ = 0;
};

/// The shared spill-admission rule (docs/DESIGN-memory.md): a blocking
/// operator degrades to its spill path when its drained input alone claims
/// more than half the budget — the other half is reserved for state tables,
/// scratch and staging. Pure function of (limit, bytes).
inline bool ShouldSpill(size_t input_bytes, size_t limit_bytes) {
  return limit_bytes != 0 && input_bytes > limit_bytes / 2;
}

/// The group-state admission rule of the hybrid aggregation: resident
/// group states plus their hash table may use the half of the budget that
/// ShouldSpill reserves for them. A group whose admission would break it
/// spills instead. Pure function of (limit, bytes).
inline bool StateFits(size_t state_bytes, size_t limit_bytes) {
  return limit_bytes == 0 || state_bytes <= limit_bytes / 2;
}

/// Per-partition in-memory quota under a budget: what one spill partition
/// (or sort run) may occupy while being processed. A quarter of the budget
/// (half of the non-input half), floored so tiny-budget tests degrade to
/// many small partitions instead of zero-capacity ones only when a single
/// row genuinely cannot fit.
inline size_t SpillQuotaBytes(size_t limit_bytes) { return limit_bytes / 4; }

}  // namespace modularis

#endif  // MODULARIS_CORE_MEMORY_H_
