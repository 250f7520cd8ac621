#ifndef MODULARIS_CORE_STATS_H_
#define MODULARIS_CORE_STATS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

/// \file stats.h
/// Per-execution metrics registry. Sub-operators record phase timings
/// (local histogram, network partitioning, build-probe, ...) and byte
/// counters here; the Fig. 9 breakdown and Fig. 11c network-time series
/// are read straight out of this registry.
///
/// Under the morsel-driven worker pool (docs/DESIGN-parallel.md) each
/// worker gets a PRIVATE registry (core/parallel.h WorkerSet): PhaseTimer
/// binds to worker-local slots, so hot loops never contend on the shared
/// mutex, and the set merges into the rank registry at the end of the
/// parallel region — times via MergeMax (a phase costs what its slowest
/// worker took, the paper's per-rank reporting convention), counters
/// summed.

namespace modularis {

/// Thread-safe map of named timers (seconds) and counters.
class StatsRegistry {
 public:
  void AddTime(const std::string& key, double seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    times_[key] += seconds;
  }
  void AddCounter(const std::string& key, int64_t delta) {
    std::lock_guard<std::mutex> lock(mu_);
    counters_[key] += delta;
  }
  double GetTime(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = times_.find(key);
    return it == times_.end() ? 0.0 : it->second;
  }
  int64_t GetCounter(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counters_.find(key);
    return it == counters_.end() ? 0 : it->second;
  }
  /// Accumulates all entries of `other` into this registry.
  void Merge(const StatsRegistry& other) {
    std::scoped_lock lock(mu_, other.mu_);
    for (const auto& [k, v] : other.times_) times_[k] += v;
    for (const auto& [k, v] : other.counters_) counters_[k] += v;
  }
  /// Takes the per-key maximum (used to aggregate per-rank phase times the
  /// way the paper reports them: the slowest rank defines the phase time).
  void MergeMax(const StatsRegistry& other) {
    std::scoped_lock lock(mu_, other.mu_);
    for (const auto& [k, v] : other.times_) {
      double& mine = times_[k];
      if (v > mine) mine = v;
    }
    for (const auto& [k, v] : other.counters_) counters_[k] += v;
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    times_.clear();
    counters_.clear();
    epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Resolves the accumulation slot for `key` once. std::map values are
  /// address-stable, so the returned pointer survives later inserts;
  /// it is invalidated only by Clear(), which bumps epoch() so cached
  /// bindings (PhaseTimer) re-resolve. A rank owns its registry during
  /// execution, so unsynchronized accumulation through the slot races
  /// with nothing.
  double* TimeSlot(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    return &times_[key];
  }
  /// Incremented by Clear(); slot pointers from an older epoch are dead.
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }
  std::map<std::string, double> times() const {
    std::lock_guard<std::mutex> lock(mu_);
    return times_;
  }
  std::map<std::string, int64_t> counters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, double> times_;
  std::map<std::string, int64_t> counters_;
  std::atomic<uint64_t> epoch_{0};
};

/// The one phase timer: accumulates wall time into a pre-resolved
/// registry slot. Resolving a key costs a string copy, a mutex and a map
/// lookup — noise that would distort phases which nested plans re-enter
/// thousands of times (one BuildProbe per local-partition pair) — so
/// PhaseTimer resolves the slot once per (registry, key) binding; Start/
/// Stop is then two clock reads and an add. Bind before each timed phase,
/// time whole batch drains — never individual rows. The slot is written
/// without the registry's mutex, so only the thread that owns the
/// registry (the rank, Lambda worker or pool worker it belongs to) may
/// time into it.
class PhaseTimer {
 public:
  void Bind(StatsRegistry* registry, const std::string& key) {
    if (registry == nullptr) {
      // ExecContext::stats is nullable; keep Start/Stop branch-free by
      // accumulating into a private discard slot.
      registry_ = nullptr;
      slot_ = &discard_;
      return;
    }
    uint64_t epoch = registry->epoch();
    if (registry == registry_ && epoch == epoch_ && key == key_) {
      return;  // cached
    }
    registry_ = registry;
    epoch_ = epoch;
    key_ = key;
    slot_ = registry->TimeSlot(key);
  }

  void Start() { start_ = std::chrono::steady_clock::now(); }
  void Stop() {
    auto end = std::chrono::steady_clock::now();
    *slot_ += std::chrono::duration<double>(end - start_).count();
  }

 private:
  StatsRegistry* registry_ = nullptr;
  uint64_t epoch_ = 0;
  std::string key_;
  double* slot_ = nullptr;
  double discard_ = 0;
  std::chrono::steady_clock::time_point start_;
};

/// RAII wrapper over a bound PhaseTimer.
class ScopedPhase {
 public:
  explicit ScopedPhase(PhaseTimer* timer) : timer_(timer) { timer_->Start(); }
  ~ScopedPhase() { Stop(); }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  /// Stops early (idempotent).
  void Stop() {
    if (timer_ == nullptr) return;
    timer_->Stop();
    timer_ = nullptr;
  }

 private:
  PhaseTimer* timer_;
};

}  // namespace modularis

#endif  // MODULARIS_CORE_STATS_H_
