#include "core/parallel.h"

#include <cstdlib>
#include <thread>

namespace modularis {

namespace {

/// MODULARIS_NUM_THREADS overrides the hardware default (0 in ExecOptions)
/// without touching call sites — the knob the parity/TSan runs use to force
/// the parallel paths on machines where hardware_concurrency() is 1.
int EnvThreadOverride() {
  static const int value = [] {
    const char* s = std::getenv("MODULARIS_NUM_THREADS");
    if (s == nullptr) return 0;
    int v = std::atoi(s);
    return v > 0 ? v : 0;
  }();
  return value;
}

}  // namespace

int ExecOptions::ResolvedNumThreads() const {
  if (num_threads > 0) return num_threads;
  int env = EnvThreadOverride();
  if (env > 0) return env;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

Status ParallelFor(int num_workers, const std::function<Status(int)>& body) {
  if (num_workers <= 1) return body(0);
  std::vector<Status> statuses(num_workers, Status::OK());
  std::vector<std::thread> threads;
  threads.reserve(num_workers - 1);
  for (int w = 1; w < num_workers; ++w) {
    threads.emplace_back([&statuses, &body, w] { statuses[w] = body(w); });
  }
  statuses[0] = body(0);
  for (std::thread& t : threads) t.join();
  for (Status& st : statuses) {
    if (!st.ok()) return std::move(st);
  }
  return Status::OK();
}

Status ParallelFor(const ExecContext* ctx, int num_workers,
                   const std::function<Status(int)>& body) {
  const CancellationToken* cancel = ctx != nullptr ? ctx->cancel : nullptr;
  // Don't dispatch work into a dead query.
  if (cancel != nullptr && cancel->ShouldStop()) return cancel->status();
  MODULARIS_RETURN_NOT_OK(ParallelFor(num_workers, body));
  // Workers whose MorselCursor went dry because of cancellation return OK
  // with partial state; surface the real cause instead.
  if (cancel != nullptr && cancel->ShouldStop()) return cancel->status();
  return Status::OK();
}

int PlanWorkers(size_t rows, const ExecOptions& options) {
  int budget = options.ResolvedNumThreads();
  if (budget <= 1) return 1;
  size_t min_rows = options.parallel_min_rows == 0
                        ? 1
                        : options.parallel_min_rows;
  size_t by_size = rows / min_rows;
  if (by_size <= 1) return 1;
  return by_size < static_cast<size_t>(budget) ? static_cast<int>(by_size)
                                               : budget;
}

void NoteSerialFallback(ExecContext* ctx, const char* op_name) {
  if (ctx->stats == nullptr) return;
  ctx->stats->AddCounter(std::string("parallel.serial_fallback.") + op_name,
                         1);
}

std::vector<size_t> SplitRows(size_t total, int workers) {
  std::vector<size_t> bounds(workers + 1);
  size_t base = total / workers;
  size_t extra = total % workers;
  size_t pos = 0;
  for (int w = 0; w < workers; ++w) {
    bounds[w] = pos;
    pos += base + (static_cast<size_t>(w) < extra ? 1 : 0);
  }
  bounds[workers] = total;
  return bounds;
}

std::vector<IndexRun> BuildIndexRuns(const uint32_t* order,
                                     const std::vector<size_t>& bounds,
                                     size_t cap) {
  std::vector<IndexRun> runs;
  runs.reserve(bounds.size() - 1);
  for (size_t w = 0; w + 1 < bounds.size(); ++w) {
    const size_t run_n = bounds[w + 1] - bounds[w];
    const size_t run_cap = run_n < cap ? run_n : cap;
    runs.push_back(IndexRun{order + bounds[w], order + bounds[w] + run_cap});
  }
  return runs;
}

WorkerSet::WorkerSet(ExecContext* base, int num_workers) : base_(base) {
  registries_.reserve(num_workers);
  contexts_.reserve(num_workers);
  for (int w = 0; w < num_workers; ++w) {
    registries_.push_back(std::make_unique<StatsRegistry>());
    auto ctx = std::make_unique<ExecContext>();
    ctx->InitWorker(*base, registries_.back().get());
    contexts_.push_back(std::move(ctx));
  }
}

void WorkerSet::MergeStats() {
  // Two-level merge: within this parallel region a phase costs what its
  // slowest worker took (MergeMax across workers), but successive regions
  // on the same set (NestedMap task groups) are sequential wall time and
  // must SUM into the base registry — otherwise a plan split into G
  // groups would report ~1/G of its true phase times.
  StatsRegistry region;
  for (auto& reg : registries_) {
    region.MergeMax(*reg);
    reg->Clear();
  }
  // The base context's stats sink is nullable (ExecContext convention).
  if (base_->stats != nullptr) {
    base_->stats->Merge(region);
  }
}

}  // namespace modularis
