#ifndef MODULARIS_CORE_RANK_EXECUTOR_H_
#define MODULARIS_CORE_RANK_EXECUTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/sub_operator.h"

/// \file rank_executor.h
/// The rank skeleton MpiExecutor and LambdaExecutor share. Both run one
/// plan per rank (or worker) as concurrent threads of this process and
/// forward every rank's result tuples, rank-ordered, to the driver-side
/// plan; only the runtime that spawns the ranks and the platform fields
/// of the rank context differ.

namespace modularis {

/// Builds rank `rank`'s operator tree. Called concurrently for distinct
/// ranks; a rank whose plan cannot be built fails with that Status.
using RankPlanFactory = std::function<Result<SubOpPtr>(int rank)>;

class RankExecutor : public SubOperator {
 public:
  bool Next(Tuple* out) override;

 protected:
  explicit RankExecutor(std::string name) : SubOperator(std::move(name)) {}

  /// Starts a run of `world` ranks under `ctx`: drops the previous run's
  /// results and arms a fresh cancellation token with the query deadline.
  void BeginRun(ExecContext* ctx, int world);

  /// One rank's run. The caller fills the platform fields of `rctx`
  /// (communicator, blob client, spill store, ...); this fills the rest —
  /// rank identity, the run's cancellation token, a per-rank
  /// MemoryBudget, the rank's share of the worker budget, its stats
  /// slot and `params` — then builds the plan, drains it into the rank's
  /// results with a cancellation check per tuple, and records the
  /// `total_key` timer and the mem.* counters. A failing rank cancels the
  /// run so its peers stop promptly. On return only `rctx->stats` is
  /// still valid (the budget and `params` die with the call).
  Status RunRank(int rank, const RankPlanFactory& factory, Tuple params,
                 const char* total_key, ExecContext* rctx);

  /// Ends the run with the runtime's status `st`: merges the runtime's
  /// fault counters (even on failure, so the fault that aborted the query
  /// shows), then, on success, folds the rank stats in with MergeMax
  /// (phase times read as the slowest rank) and queues the results.
  Status EndRun(Status st, const StatsRegistry& runtime_stats);

 private:
  /// Cache-line aligned: every worker polls `cancel` per morsel, so no
  /// data the ranks write may share its lines.
  struct alignas(64) Run {
    explicit Run(int world) : stats(world), results(world) {}
    CancellationToken cancel;
    std::vector<StatsRegistry> stats;
    std::vector<std::vector<Tuple>> results;
  };
  std::unique_ptr<Run> run_;
  std::vector<std::vector<RowVectorPtr>> arenas_;
  std::vector<Tuple> results_;
  size_t emit_pos_ = 0;
};

}  // namespace modularis

#endif  // MODULARIS_CORE_RANK_EXECUTOR_H_
