#ifndef MODULARIS_CORE_EXEC_CONTEXT_H_
#define MODULARIS_CORE_EXEC_CONTEXT_H_

#include <cstddef>
#include <vector>

#include "core/fault.h"
#include "core/memory.h"
#include "core/stats.h"
#include "core/tuple.h"

/// \file exec_context.h
/// Per-rank execution state handed to every sub-operator at Open() time:
/// rank identity, platform services, tunables, parameter frames for
/// ParameterLookup / NestedMap, and the metrics registry.

namespace modularis {

namespace mpi {
class Communicator;
}
namespace storage {
class BlobClient;
class BlobStore;
}
namespace serverless {
class S3SelectEngine;
struct LambdaWorkerContext;
}

/// Engine tunables (RocksDB-style options struct). The plan specializer
/// and the benchmarks override these; defaults match the paper's setup
/// scaled to a single machine.
struct ExecOptions {
  /// Plan-time operator fusion (the JIT analog). When false, every plan
  /// runs pure tuple-at-a-time through virtual Next() calls.
  bool enable_fusion = true;

  /// How consumers pull their inputs, and nothing else: read only by
  /// SubOperator::PullBatch(). When true, inputs arrive through
  /// NextBatch() and operators run loop-over-packed-bytes inner loops;
  /// when false, every record crosses one virtual Next() call (so
  /// filters and maps evaluate the row interpreter) — the row-at-a-time
  /// oracle and ablation baseline (mirrors enable_fusion). Parallel,
  /// spill and admission decisions never depend on it: the serial
  /// reference is num_threads = 1 in either mode.
  bool enable_vectorized = true;

  /// log2 of the network partitioning fan-out (radix bits). The number of
  /// network partitions is 1 << network_radix_bits; partitions are assigned
  /// to ranks round-robin.
  int network_radix_bits = 6;

  /// log2 of the local (cache-conscious) partitioning fan-out.
  int local_radix_bits = 6;

  /// Software write-combining buffer size per target partition in the
  /// network exchange, in bytes.
  size_t exchange_buffer_bytes = 1 << 16;

  /// Bits needed to represent keys/values of the workload (P in §4.1.2).
  int key_domain_bits = 29;

  /// Serverless: combine all partitions for one receiver into a single S3
  /// object row-group ("write combining" of Lambada, §4.4).
  bool s3_write_combining = true;

  /// Replicate small build sides via broadcast instead of the histogram
  /// exchange (the strategy commercial engines use for small joins; the
  /// SingleStore-profile baseline enables it — §5.1.1's Q19 discussion).
  bool broadcast_small_build = false;

  /// Use the two-sided TCP exchange backend instead of the RDMA one
  /// (the additional backend §4.4 sketches; the Presto-profile baseline
  /// runs with it).
  bool tcp_exchange = false;

  /// The one transient-failure retry policy (core/fault.h): exponential
  /// backoff + deterministic jitter, retryability classified by
  /// StatusCode. Shared by blob reads/writes, the S3 exchange and the
  /// fabric transports (replaces the old per-site max_retries knobs).
  RetryPolicy retry;

  /// Whole-query deadline in seconds (0 = none). The executors arm the
  /// run's CancellationToken with it so even a hung blocking wait returns
  /// non-OK within the deadline.
  double deadline_seconds = 0;

  // -- Memory governance (docs/DESIGN-memory.md) ----------------------------

  /// Per-rank (and per-driver) memory budget in bytes; 0 = unlimited.
  /// Every large allocation site charges the rank's MemoryBudget; blocking
  /// operators (BuildProbe, ReduceByKey, Sort/TopK) degrade to their
  /// Grace-partition / external-merge spill paths when their drained input
  /// exceeds half of this, and fail fast with kResourceExhausted when even
  /// the spilled working set cannot fit. Spill decisions depend only on
  /// (this limit, input/histogram sizes), so results stay byte-equal to
  /// the unlimited run at any thread count.
  size_t memory_limit_bytes = 0;

  /// Fault injection for the spill clients the blocking operators open
  /// against ExecContext::spill_store (mirrors BlobClientOptions::fault
  /// for base-table storage). Spill writes/reads go through the shared
  /// RetryPolicy, so an injected transient Put is retried like any other
  /// blob IO.
  FaultOptions spill_fault;

  // -- Intra-node parallelism (docs/DESIGN-parallel.md) ---------------------

  /// Worker threads per rank for morsel-driven pipeline phases. 0 resolves
  /// to hardware_concurrency (or the MODULARIS_NUM_THREADS env override);
  /// 1 preserves the single-threaded behaviour exactly. N-thread and
  /// 1-thread runs are byte-identical by construction (deterministic
  /// merges); see ResolvedNumThreads().
  int num_threads = 0;

  /// Rows per dynamically claimed morsel (order-insensitive phases).
  size_t morsel_rows = 1 << 14;

  /// Minimum input rows per worker before a phase goes parallel: below
  /// workers * parallel_min_rows the serial path wins on thread startup
  /// and merge overhead alone (nested per-partition plans stay serial
  /// inside parallel NestedMap workers this way too).
  size_t parallel_min_rows = 1 << 15;

  /// Resolves num_threads: explicit value, else MODULARIS_NUM_THREADS,
  /// else hardware_concurrency (min 1). Defined in parallel.cc.
  int ResolvedNumThreads() const;
};

/// Per-rank execution context. Not thread-safe; each rank owns one.
/// Under the morsel-driven worker pool each worker owns a private view
/// built by InitWorker() — same rank identity and services, its own stats
/// registry and parameter-frame stack — so no operator ever shares one
/// ExecContext across threads.
class ExecContext {
 public:
  ExecContext() = default;

  int rank = 0;
  int world = 1;

  /// Platform services; null when the plan runs on a platform that does
  /// not provide them. `blob` is the rank's storage connection — an S3
  /// client on serverless, an NFS/disk client on the RDMA cluster.
  mpi::Communicator* comm = nullptr;
  storage::BlobClient* blob = nullptr;
  serverless::S3SelectEngine* s3select = nullptr;
  serverless::LambdaWorkerContext* lambda = nullptr;

  /// Query-wide cancellation token (core/fault.h), owned by the executor;
  /// null when the plan runs without one. Checked in morsel loops,
  /// exchange drains and fabric blocking waits; a failing rank cancels it
  /// so its peers stop claiming work instead of computing into a dead
  /// query.
  const CancellationToken* cancel = nullptr;

  /// The rank's memory budget (core/memory.h), owned by the executor;
  /// null = untracked (zero accounting overhead). Workers share the
  /// rank's budget — charges are rare (capacity growth only), so the
  /// shared relaxed atomics beat per-worker slabs that could not observe
  /// a cross-worker peak.
  MemoryBudget* budget = nullptr;

  /// Spill target for the blocking operators' graceful-degradation paths
  /// (docs/DESIGN-memory.md): the blob store backing `spill/…` partition
  /// chunks and sort runs. Null = spilling unavailable (operators then
  /// fail fast with kResourceExhausted when the budget forces a spill).
  /// Each spilling operator opens its own BlobClient against this store
  /// (clients are not thread-safe; the store is), so cloned operators in
  /// parallel NestedMap workers never share a client.
  storage::BlobStore* spill_store = nullptr;

  ExecOptions options;

  /// Metrics sink; never null during execution.
  StatsRegistry* stats = &default_stats_;

  // -- Parameter frames (paper §3.4) ---------------------------------------
  // ParameterLookup yields the tuple on top of this stack. Executors push
  // the plan-input tuple; each NestedMap invocation pushes the tuple it is
  // currently mapping over.

  /// Initializes this context as a worker view of `base`: same rank
  /// identity, services and tunables (num_threads pinned to 1 so workers
  /// never nest another pool), `worker_stats` as the private metrics sink,
  /// and a copy of the parameter-frame stack (frames point at tuples owned
  /// by the driver, which outlive the parallel region).
  void InitWorker(const ExecContext& base, StatsRegistry* worker_stats) {
    rank = base.rank;
    world = base.world;
    comm = base.comm;
    blob = base.blob;
    s3select = base.s3select;
    lambda = base.lambda;
    cancel = base.cancel;
    budget = base.budget;
    spill_store = base.spill_store;
    options = base.options;
    options.num_threads = 1;
    stats = worker_stats;
    frames_ = base.frames_;
  }

  void PushParams(const Tuple* params) { frames_.push_back(params); }
  void PopParams() { frames_.pop_back(); }
  const Tuple* CurrentParams() const {
    return frames_.empty() ? nullptr : frames_.back();
  }
  size_t ParamDepth() const { return frames_.size(); }

 private:
  std::vector<const Tuple*> frames_;
  StatsRegistry default_stats_;
};

}  // namespace modularis

#endif  // MODULARIS_CORE_EXEC_CONTEXT_H_
