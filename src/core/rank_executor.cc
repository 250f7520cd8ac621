#include "core/rank_executor.h"

#include <algorithm>

namespace modularis {

void RankExecutor::BeginRun(ExecContext* ctx, int world) {
  ctx_ = ctx;
  status_ = Status::OK();
  results_.clear();
  arenas_.assign(world, {});
  emit_pos_ = 0;
  // One query-wide token: a failing rank cancels it (on top of the
  // runtime poisoning its peers' collectives and waits), so morsel loops
  // and blob retries stop promptly; the optional deadline bounds even a
  // wedged blocking wait.
  run_ = std::make_unique<Run>(world);
  run_->cancel.SetDeadlineAfter(ctx->options.deadline_seconds);
}

Status RankExecutor::RunRank(int rank, const RankPlanFactory& factory,
                             Tuple params, const char* total_key,
                             ExecContext* rctx) {
  const ExecOptions& options = ctx_->options;
  const int world = static_cast<int>(run_->stats.size());
  // Declared before the plan: operator ScopedCharges release into the
  // budget on plan destruction, so it must outlive the plan.
  MemoryBudget budget(options.memory_limit_bytes);
  rctx->rank = rank;
  rctx->world = world;
  rctx->cancel = &run_->cancel;
  rctx->budget = &budget;
  rctx->options = options;
  // Ranks already run as concurrent threads on this machine: divide the
  // intra-node worker budget between them so a multi-rank run does not
  // oversubscribe the cores (world * per-rank workers <= the budget).
  rctx->options.num_threads =
      std::max(1, options.ResolvedNumThreads() / world);
  rctx->stats = &run_->stats[rank];
  rctx->PushParams(&params);

  PhaseTimer total_timer;
  total_timer.Bind(rctx->stats, total_key);
  ScopedPhase total(&total_timer);
  Status st = [&]() -> Status {
    // Cancellation points: query start and every result tuple — the
    // morsel loops and blocking waits inside Open() check too, but a
    // serial plan on a tiny input must still honour the deadline.
    MODULARIS_RETURN_NOT_OK(run_->cancel.Check());
    MODULARIS_ASSIGN_OR_RETURN(SubOpPtr plan, factory(rank));
    MODULARIS_RETURN_NOT_OK(plan->Open(rctx));
    Tuple t;
    while (plan->Next(&t)) {
      MODULARIS_RETURN_NOT_OK(run_->cancel.Check());
      run_->results[rank].push_back(OwnTuple(t, &arenas_[rank]));
    }
    MODULARIS_RETURN_NOT_OK(plan->status());
    return plan->Close();
  }();
  if (!st.ok()) {
    run_->cancel.Cancel(st);
    return st;
  }
  total.Stop();
  // MergeMax sums counters across ranks, so mem.peak_bytes reads as the
  // sum of per-rank peaks (docs/DESIGN-memory.md).
  if (budget.peak() > 0) {
    rctx->stats->AddCounter("mem.peak_bytes",
                            static_cast<int64_t>(budget.peak()));
  }
  if (budget.denials() > 0) {
    rctx->stats->AddCounter("mem.denials",
                            static_cast<int64_t>(budget.denials()));
  }
  return Status::OK();
}

Status RankExecutor::EndRun(Status st, const StatsRegistry& runtime_stats) {
  // ExecContext::stats is nullable: drivers that collect none still run.
  if (ctx_->stats != nullptr) ctx_->stats->Merge(runtime_stats);
  MODULARIS_RETURN_NOT_OK(st);
  if (ctx_->stats != nullptr) {
    for (const StatsRegistry& rs : run_->stats) ctx_->stats->MergeMax(rs);
  }
  for (auto& tuples : run_->results) {
    for (Tuple& t : tuples) results_.push_back(std::move(t));
  }
  return Status::OK();
}

bool RankExecutor::Next(Tuple* out) {
  if (emit_pos_ >= results_.size()) return false;
  *out = results_[emit_pos_++];
  return true;
}

}  // namespace modularis
