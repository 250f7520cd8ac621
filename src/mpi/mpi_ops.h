#ifndef MODULARIS_MPI_MPI_OPS_H_
#define MODULARIS_MPI_MPI_OPS_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/rank_executor.h"
#include "core/sub_operator.h"
#include "mpi/communicator.h"
#include "suboperators/radix.h"

/// \file mpi_ops.h
/// The MPI-specific sub-operators (paper Table 1): the only operators that
/// are aware of the RDMA platform. Everything else in a plan is platform
/// agnostic — this is the modularity claim of the paper, and the reason
/// the Table 2 "platform-specific SLOC" count covers exactly these three
/// operators.

namespace modularis {

/// Schema of compressed exchange partitions: one 64-bit word per record
/// (paper §4.1.2: key and value packed into 8 bytes for dense domains).
Schema CompressedSchema();

/// MpiExecutor runs a nested plan on every rank of a simulated cluster in
/// a data-parallel fashion (the stacked frame of Fig. 3). The nested plan
/// is produced per rank by a factory; each rank's plan-input tuple comes
/// from `rank_params`. The executor collects every tuple the rank plans
/// emit and yields them (rank-ordered) to the driver-side remainder of
/// the plan. The rank skeleton is RankExecutor's; this adds the
/// communicator and the fabric counters.
class MpiExecutor : public RankExecutor {
 public:
  struct Config {
    int world_size = 4;
    net::FabricOptions fabric;
    /// Builds rank `r`'s operator tree (see RankPlanFactory).
    RankPlanFactory plan_factory;
    /// Plan inputs for rank `r` (bound to its ParameterLookups). May be
    /// null when the nested plan has no inputs.
    std::function<Tuple(int rank)> rank_params;
    /// Destination for the blocking operators' spill files when
    /// ExecOptions::memory_limit_bytes forces graceful degradation
    /// (docs/DESIGN-memory.md). Null = spills fail fast with
    /// kResourceExhausted. Must be thread-safe (shared by all ranks).
    storage::BlobStore* spill_store = nullptr;
  };

  explicit MpiExecutor(Config config)
      : RankExecutor("MpiExecutor"), config_(std::move(config)) {}

  Status Open(ExecContext* ctx) override;

 private:
  Config config_;
};

/// MpiHistogram turns a local radix histogram into the global one via
/// MPI_Allreduce (paper Fig. 3, operator "MH").
class MpiHistogram : public SubOperator {
 public:
  explicit MpiHistogram(SubOpPtr local_hist,
                        std::string timer_key = "phase.global_histogram")
      : SubOperator("MpiHistogram"), timer_key_(std::move(timer_key)) {
    AddChild(std::move(local_hist));
  }

  Status Open(ExecContext* ctx) override {
    done_ = false;
    return SubOperator::Open(ctx);
  }

  bool Next(Tuple* out) override;

 private:
  std::string timer_key_;
  PhaseTimer timer_;
  bool done_ = false;
};

/// MpiExchange is the RDMA-aware network partitioning operator modelled on
/// Barthels et al. [14] (§4.1.2):
///  1. allgathers local histograms to derive exclusive write offsets,
///  2. collectively allocates RMA windows sized from the global histogram,
///  3. radix-partitions its input into software write-combining buffers
///     flushed by asynchronous one-sided writes (optionally compressing
///     16-byte ⟨key,value⟩ records into 8-byte words),
///  4. flushes + barriers, then materializes each owned partition and
///     emits ⟨networkPartitionID, partitionData⟩ in ascending pid order.
/// Partition ownership is round-robin: owner(p) = p mod world.
///
/// Step 3 is the engine's one ranged scatter (RangedScatter,
/// docs/DESIGN-exchange.md) with the local histogram as its totals: at
/// any worker count each (worker, partition) pair gets an exclusive
/// window region whose offset replays the input order, every flush is
/// bounds-checked against it (a histogram that disagrees with the data is
/// InvalidArgument), and every worker flushes its write-combining buffers
/// straight into async one-sided Puts while the others are still
/// partitioning — compute/network overlap with a single Flush/Barrier at
/// drain end. N threads × R ranks is byte-equal to 1 × R per owned
/// partition.
class MpiExchange : public SubOperator {
 public:
  struct Options {
    RadixSpec spec;             // network radix pass (shift 0)
    int key_col = 0;
    bool compress = false;      // §4.1.2 compression pass output
    int domain_bits = 29;       // P
    size_t buffer_bytes = 1 << 16;
    /// Ablation baseline for the overlap measurement (bench/tests only):
    /// stage the whole scatter locally and ship every partition after
    /// partitioning completes — partition-then-send-then-wait, the very
    /// schedule the pipelined default exists to beat on stall time.
    bool serial_wire = false;
    std::string timer_key = "phase.network_partition";
  };

  /// Children: data, local histogram, global histogram (paper Fig. 3).
  /// `schema` is the row schema of the data stream, fixed at plan time
  /// so every rank agrees on the wire stride even when its own input is
  /// empty; input rows of another layout fail with InvalidArgument.
  MpiExchange(SubOpPtr data, SubOpPtr local_hist, SubOpPtr global_hist,
              Schema schema, Options options)
      : SubOperator("MpiExchange"),
        schema_(std::move(schema)),
        opts_(std::move(options)) {
    AddChild(std::move(data));
    AddChild(std::move(local_hist));
    AddChild(std::move(global_hist));
  }

  Status Open(ExecContext* ctx) override {
    exchanged_ = false;
    emit_pos_ = 0;
    out_parts_.clear();
    return SubOperator::Open(ctx);
  }

  bool Next(Tuple* out) override;

  /// Record projection of the stream (docs/DESIGN-vectorized.md): each
  /// owned partition as one durable borrowed batch in ascending pid order
  /// (the pid atom is only observable through Next()). Next() and
  /// NextBatch() share the emit cursor, so each partition is delivered
  /// exactly once per Open, whichever protocol pulls it.
  bool NextBatch(RowBatch* out) override;

 private:
  Status DoExchange();

  Schema schema_;
  Options opts_;
  PhaseTimer timer_;
  bool exchanged_ = false;
  size_t emit_pos_ = 0;
  /// ⟨pid, partitionData⟩ for every partition this rank owns.
  std::vector<std::pair<int64_t, RowVectorPtr>> out_parts_;
};

/// MpiBroadcast replicates its (small) input on every rank via allgather —
/// the broadcast-join building block the histogram-based exchange loses to
/// on small joins (the paper's Q19 discussion, §5.1.1). Emits one tuple
/// holding the union collection of all ranks' inputs.
class MpiBroadcast : public SubOperator {
 public:
  MpiBroadcast(SubOpPtr data, Schema schema,
               std::string timer_key = "phase.broadcast")
      : SubOperator("MpiBroadcast"),
        schema_(std::move(schema)),
        timer_key_(std::move(timer_key)) {
    AddChild(std::move(data));
  }

  Status Open(ExecContext* ctx) override {
    done_ = false;
    merged_.reset();
    return SubOperator::Open(ctx);
  }

  bool Next(Tuple* out) override;

  /// Record projection: the replicated union as one durable borrowed
  /// batch (Next() wraps the same collection in a tuple). The allgather
  /// payload is the packed RowVector bytes either way; the input side
  /// drains record streams through the batch protocol.
  bool NextBatch(RowBatch* out) override;

 private:
  /// Drains the input, allgathers the packed bytes and fills merged_.
  Status DoBroadcast();

  Schema schema_;
  std::string timer_key_;
  PhaseTimer timer_;
  bool done_ = false;
  RowVectorPtr merged_;
};

}  // namespace modularis

#endif  // MODULARIS_MPI_MPI_OPS_H_
