#ifndef MODULARIS_CORE_PARALLEL_H_
#define MODULARIS_CORE_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/exec_context.h"
#include "core/status.h"

/// \file parallel.h
/// Morsel-driven intra-node parallelism (docs/DESIGN-parallel.md). A
/// blocking sub-operator that has materialized its record-stream input as
/// packed rows splits the span into morsels and fans the work out over a
/// per-rank worker pool; thread-local results (histograms, partitions,
/// aggregate tables, probe outputs) merge deterministically at the end so
/// `num_threads = N` is byte-identical to `num_threads = 1`.
///
/// Two scheduling modes:
///  * MorselCursor — dynamic claiming, for phases whose merge is
///    order-insensitive (histogram counting). Classic morsel-driven
///    load balancing.
///  * SplitRows — static contiguous ranges in input order, for phases
///    whose merge must replay the serial order exactly (partition
///    scatter offsets, aggregate first-occurrence order, probe output
///    concatenation).

namespace modularis {

/// Runs `body(worker)` for workers 0..num_workers-1 concurrently; worker 0
/// executes on the calling thread. Returns the first non-OK status (all
/// workers always run to completion so partial state stays consistent).
/// Thread spawn cost is ~100us total — callers gate on PlanWorkers() so a
/// parallel region always amortizes it over a large morsel run.
Status ParallelFor(int num_workers, const std::function<Status(int)>& body);

/// Cancellation-aware variant: refuses to dispatch when `ctx->cancel` has
/// already stopped the query, and reports the cancellation cause if it
/// fired while the region ran (workers end their morsel loops early via a
/// cancellable MorselCursor, which would otherwise look like a clean — but
/// partial — completion). `ctx` (or its token) may be null.
Status ParallelFor(const ExecContext* ctx, int num_workers,
                   const std::function<Status(int)>& body);

/// Picks the worker count for a phase over `rows` input rows: enough rows
/// per worker (options.parallel_min_rows) to amortize thread startup and
/// merge cost, capped at the resolved thread budget. Returns 1 when the
/// input is too small to be worth splitting (callers then run their
/// one-worker kernel on the same input; that is a sizing decision, not a
/// `parallel.serial_fallback.*` safety fallback).
int PlanWorkers(size_t rows, const ExecOptions& options);

/// Records that an operator requested parallel execution but had to fall
/// back to the serial path for a structural reason (an unclonable chain).
/// Keyed "parallel.serial_fallback.<op>"; the parity suite asserts these
/// stay zero for the operators with native parallel paths.
void NoteSerialFallback(ExecContext* ctx, const char* op_name);

/// Static contiguous split of [0, total) into `workers` ranges in input
/// order: range w is [out[w], out[w+1]). Ranges differ in size by at most
/// one row, so out has workers + 1 entries.
std::vector<size_t> SplitRows(size_t total, int workers);

/// One sorted run of row indices inside a shared order array: [pos, end)
/// ascending under the caller's comparator. Produced by the
/// morsel-parallel run-formation phase of SortOp/TopK, consumed by
/// MergeIndexRuns.
struct IndexRun {
  const uint32_t* pos;
  const uint32_t* end;
  bool exhausted() const { return pos == end; }
};

/// Builds the merge descriptors for per-worker runs laid out by
/// SplitRows: run w covers order[bounds[w], bounds[w+1]), clipped to its
/// first min(cap, run size) entries. A bounded (top-k) sort only orders
/// that prefix per run, and the merge provably never reads past it:
/// popping `cap` elements in total takes at most `cap` from any single
/// run.
std::vector<IndexRun> BuildIndexRuns(const uint32_t* order,
                                     const std::vector<size_t>& bounds,
                                     size_t cap);

/// K-way merge of sorted index runs through a tournament (loser) tree.
/// `less` must be a strict TOTAL order over the indices themselves (sort
/// callers tie-break equal keys by the index), which makes the merged
/// order independent of how the input was cut into runs — the heart of
/// the N-threads-byte-equal-to-1 guarantee. One comparison per tree
/// level per pop: the replay walks only the advanced run's leaf-to-root
/// path, re-seating losers — cheaper than a binary heap, which pays two
/// comparisons per level sifting down.
template <typename Less>
class LoserTree {
 public:
  LoserTree(std::vector<IndexRun> runs, Less less)
      : runs_(std::move(runs)), less_(std::move(less)), k_(runs_.size()) {
    if (k_ > 1) {
      tree_.assign(k_, 0);
      winner_ = Init(1);
    }
  }

  /// Pops the globally smallest remaining index; false once every run is
  /// exhausted (an exhausted run loses every comparison, so an exhausted
  /// winner implies all runs are dry).
  bool Pop(uint32_t* out) {
    if (k_ == 0 || runs_[winner_].exhausted()) return false;
    *out = *runs_[winner_].pos++;
    if (k_ > 1) Replay();
    return true;
  }

 private:
  /// True when run `a`'s front comes before run `b`'s. Exhausted runs
  /// lose to live ones and order among themselves by run id (which the
  /// merge output never observes).
  bool Beats(size_t a, size_t b) const {
    if (runs_[a].exhausted() || runs_[b].exhausted()) {
      return runs_[b].exhausted() && (!runs_[a].exhausted() || a < b);
    }
    return less_(*runs_[a].pos, *runs_[b].pos);
  }

  /// Builds the complete tournament tree (internal nodes 1..k-1; leaf
  /// node k + i is run i): stores the loser at each internal node,
  /// returns the subtree winner.
  size_t Init(size_t node) {
    if (node >= k_) return node - k_;
    size_t l = Init(2 * node);
    size_t r = Init(2 * node + 1);
    if (Beats(l, r)) {
      tree_[node] = r;
      return l;
    }
    tree_[node] = l;
    return r;
  }

  /// Re-seats the winner after its run advanced: replay losers along the
  /// winner's fixed leaf-to-root path only.
  void Replay() {
    size_t cur = winner_;
    for (size_t node = (winner_ + k_) / 2; node >= 1; node /= 2) {
      if (Beats(tree_[node], cur)) std::swap(cur, tree_[node]);
    }
    winner_ = cur;
  }

  std::vector<IndexRun> runs_;
  Less less_;  // by value: a reference would dangle for temporary lambdas
  size_t k_;
  std::vector<size_t> tree_;  // loser at each internal node
  size_t winner_ = 0;
};

/// Merges `runs` into `out`, popping at most `out_count` indices (fewer
/// when the runs hold fewer). Returns the number written.
template <typename Less>
size_t MergeIndexRuns(std::vector<IndexRun> runs, size_t out_count,
                      const Less& less, uint32_t* out) {
  LoserTree<Less> tree(std::move(runs), less);
  size_t i = 0;
  while (i < out_count && tree.Pop(&out[i])) ++i;
  return i;
}

/// Folds items[0..n) down to items[0] with a fixed-shape pairwise tree:
/// level by level, combine(&items[2i], &items[2i+1]) folds the right item
/// into the left, which moves to slot i, and an odd tail moves up a level
/// unchanged. The tree shape depends only on n — never on thread count or
/// scheduling — so float accumulators folded through it are byte-stable
/// at any parallelism (the few-group aggregation rule,
/// docs/DESIGN-parallel.md). Stops at the first non-OK combine.
template <typename T, typename Combine>
Status PairwiseCombine(std::vector<T>* items, Combine&& combine) {
  std::vector<T>& v = *items;
  size_t count = v.size();
  while (count > 1) {
    const size_t pairs = count / 2;
    for (size_t i = 0; i < pairs; ++i) {
      MODULARIS_RETURN_NOT_OK(combine(&v[2 * i], &v[2 * i + 1]));
      if (i != 0) v[i] = std::move(v[2 * i]);
    }
    if (count % 2 != 0) v[pairs] = std::move(v[count - 1]);
    count = pairs + count % 2;
  }
  return Status::OK();
}

/// Dynamic morsel dispenser over [0, total): workers claim fixed-size
/// morsels with one atomic add. Use only for order-insensitive merges.
/// With a CancellationToken attached, Claim stops dispensing once the
/// query is cancelled — workers drain out at the next morsel boundary and
/// the enclosing ParallelFor(ctx, ...) reports the cancellation cause.
class MorselCursor {
 public:
  MorselCursor(size_t total, size_t morsel_rows,
               const CancellationToken* cancel = nullptr)
      : total_(total),
        morsel_rows_(morsel_rows == 0 ? 1 : morsel_rows),
        cancel_(cancel) {}

  /// Claims the next morsel; false when the input is exhausted or the
  /// query was cancelled.
  bool Claim(size_t* begin, size_t* count) {
    if (cancel_ != nullptr && cancel_->ShouldStop()) return false;
    size_t b = next_.fetch_add(morsel_rows_, std::memory_order_relaxed);
    if (b >= total_) return false;
    *begin = b;
    *count = total_ - b < morsel_rows_ ? total_ - b : morsel_rows_;
    return true;
  }

 private:
  const size_t total_;
  const size_t morsel_rows_;
  const CancellationToken* cancel_;
  std::atomic<size_t> next_{0};
};

/// Per-worker ExecContext views plus stats merging. Each worker gets a
/// private StatsRegistry (so PhaseTimer slots never contend on the shared
/// Stats mutex in hot loops) and a context copy with num_threads pinned to
/// 1 (a worker never re-parallelizes — nested operators inside a worker
/// run serially, which also keeps the pool from oversubscribing).
/// MergeStats() folds the worker registries into the base context at the
/// end of the parallel region: times via MergeMax (a phase costs what its
/// slowest worker took, the paper's per-rank reporting convention),
/// counters summed.
class WorkerSet {
 public:
  WorkerSet(ExecContext* base, int num_workers);

  int size() const { return static_cast<int>(contexts_.size()); }
  ExecContext* ctx(int w) { return contexts_[w].get(); }
  StatsRegistry* stats(int w) { return registries_[w].get(); }

  void MergeStats();

 private:
  ExecContext* base_;
  std::vector<std::unique_ptr<StatsRegistry>> registries_;
  std::vector<std::unique_ptr<ExecContext>> contexts_;
};

}  // namespace modularis

#endif  // MODULARIS_CORE_PARALLEL_H_
