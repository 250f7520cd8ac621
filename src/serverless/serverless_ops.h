#ifndef MODULARIS_SERVERLESS_SERVERLESS_OPS_H_
#define MODULARIS_SERVERLESS_SERVERLESS_OPS_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/rank_executor.h"
#include "core/sub_operator.h"
#include "serverless/lambda.h"
#include "serverless/s3select.h"
#include "storage/column_file.h"

/// \file serverless_ops.h
/// The Lambda- and smart-storage-specific sub-operators (paper Table 1):
/// together with the executor these are the *only* operators that change
/// when a TPC-H plan moves from the RDMA cluster to serverless (Fig. 6 vs
/// Fig. 7) — the paper's headline modularity result.

namespace modularis {

/// LambdaExecutor runs a nested plan on every serverless worker (spawned
/// in a tree-plan fashion) and forwards the workers' result tuples —
/// typically S3 paths of materialized results — to the driver plan. The
/// rank skeleton is RankExecutor's; this adds the worker's blob client,
/// S3 Select engine and s3.* counters.
class LambdaExecutor : public RankExecutor {
 public:
  struct Config {
    serverless::LambdaOptions lambda;
    storage::BlobStore* store = nullptr;
    serverless::S3SelectEngine* s3select = nullptr;
    RankPlanFactory plan_factory;
    std::function<Tuple(int worker)> worker_params;
  };

  explicit LambdaExecutor(Config config)
      : RankExecutor("LambdaExecutor"), config_(std::move(config)) {}

  Status Open(ExecContext* ctx) override;

 private:
  Config config_;
};

/// S3Exchange implements the Lambada exchange (paper §4.4): each worker
/// writes ONE S3 object containing one row group per receiver ("write
/// combining", turning W² PUTs into W), synchronizes, and emits
/// ⟨path, firstRowGroup, lastRowGroup⟩ triples for the row groups this
/// worker must read — which a downstream ColumnFileScan fetches with
/// ranged GETs. Consumes ⟨pid, collection⟩ tuples (from Partition/GroupBy).
class S3Exchange : public SubOperator {
 public:
  struct Options {
    /// Key prefix; objects land at "<prefix>/part-<sender>.mcf".
    std::string prefix = "exchange";
    /// When false (§4.4 ablation): one object per (sender, receiver) pair.
    bool write_combining = true;
    /// Transient-failure retry policy for the S3 PUTs/GETs (core/fault.h).
    RetryPolicy retry;
    std::string timer_key = "phase.s3_exchange";
  };

  S3Exchange(SubOpPtr partitions, Options options)
      : SubOperator("S3Exchange"), opts_(std::move(options)) {
    AddChild(std::move(partitions));
  }

  Status Open(ExecContext* ctx) override {
    exchanged_ = false;
    emit_pos_ = 0;
    out_.clear();
    batch_reader_.reset();
    batch_source_.reset();
    return SubOperator::Open(ctx);
  }

  bool Next(Tuple* out) override;

  /// Record projection of the stream (docs/DESIGN-vectorized.md): reads
  /// this worker's row groups back from the blob store — the job the
  /// ⟨path, firstRowGroup, lastRowGroup⟩ triples of Next() delegate to a
  /// downstream ColumnFileScan — and emits one released batch per
  /// non-empty row group. Next() and NextBatch() share the triple cursor:
  /// each triple is delivered exactly once per Open, either as a path
  /// tuple or as its row-group batches, whichever protocol pulls it —
  /// a triple NextBatch() only partially expanded is handed back to
  /// Next() as a remainder triple covering the unread row groups.
  bool NextBatch(RowBatch* out) override;

 private:
  Status DoExchange();

  Options opts_;
  PhaseTimer timer_;
  bool exchanged_ = false;
  /// Triple cursor, shared by Next() and NextBatch().
  size_t emit_pos_ = 0;
  /// ⟨path, first_rg, last_rg⟩ triples for this worker.
  std::vector<Tuple> out_;
  // Read-back state for the triple NextBatch() is currently expanding.
  std::unique_ptr<storage::ColumnFileReader> batch_reader_;
  std::shared_ptr<storage::RandomReader> batch_source_;
  std::string batch_path_;
  size_t batch_rg_ = 0;
  size_t batch_last_rg_ = 0;
};

/// ColumnFileScan (the ParquetScan analog): reads row groups of ColumnFile
/// objects, pushing down projections (only selected chunks are fetched)
/// and min-max range predicates (pruned row groups are never read).
/// Consumes ⟨path⟩ or ⟨path, first_rg, last_rg⟩ tuples; produces one
/// ⟨ColumnTable⟩ tuple per surviving row group.
class ColumnFileScan : public SubOperator {
 public:
  /// Chunk-pruning predicate: keep row groups whose [min,max] of `col`
  /// intersects [lo, hi].
  struct Range {
    int col;
    int64_t lo;
    int64_t hi;
  };

  struct Options {
    std::vector<int> projection;  // empty = all columns
    std::vector<Range> ranges;    // min-max pruning
    /// Transient-failure retry policy for the ranged GETs (core/fault.h).
    RetryPolicy retry;
    std::string timer_key = "phase.scan";
  };

  ColumnFileScan(SubOpPtr paths, Options options)
      : SubOperator("ColumnFileScan"), opts_(std::move(options)) {
    AddChild(std::move(paths));
  }

  Status Open(ExecContext* ctx) override {
    reader_.reset();
    current_rg_ = 0;
    last_rg_ = 0;
    return SubOperator::Open(ctx);
  }

  bool Next(Tuple* out) override;

 private:
  Options opts_;
  PhaseTimer timer_;
  std::unique_ptr<storage::ColumnFileReader> reader_;
  std::shared_ptr<storage::RandomReader> source_;
  size_t current_rg_ = 0;
  size_t last_rg_ = 0;
};

/// MaterializeColumnFile (the MaterializeParquet analog): collects its
/// record stream into a ColumnFile object, PUTs it, and yields the path.
class MaterializeColumnFile : public SubOperator {
 public:
  MaterializeColumnFile(SubOpPtr rows, Schema schema, std::string key,
                        RetryPolicy retry = {})
      : SubOperator("MaterializeColumnFile"),
        schema_(std::move(schema)),
        key_(std::move(key)),
        retry_(retry) {
    AddChild(std::move(rows));
  }

  Status Open(ExecContext* ctx) override {
    done_ = false;
    return SubOperator::Open(ctx);
  }

  bool Next(Tuple* out) override;

 private:
  Schema schema_;
  std::string key_;
  RetryPolicy retry_;
  bool done_ = false;
};

/// First stage of the decomposed S3SelectScan (paper §4.5): performs the
/// API call per input path, parses the returned CSV into a columnar table
/// (the Arrow-table step) and forwards it; TableToCollection/ColumnScan
/// complete the decomposition.
class S3SelectRequest : public SubOperator {
 public:
  struct Options {
    Schema object_schema;         // schema of the stored CSV object
    std::vector<int> projection;  // pushed-down projection (empty = all)
    ExprPtr predicate;            // pushed-down selection (may be null)
    std::string timer_key = "phase.s3select";
  };

  S3SelectRequest(SubOpPtr paths, Options options)
      : SubOperator("S3SelectRequest"), opts_(std::move(options)) {
    AddChild(std::move(paths));
  }

  bool Next(Tuple* out) override;

  /// Schema of the produced tables.
  Schema result_schema() const {
    if (opts_.projection.empty()) return opts_.object_schema;
    return opts_.object_schema.Select(opts_.projection);
  }

 private:
  Options opts_;
  PhaseTimer timer_;
};

}  // namespace modularis

#endif  // MODULARIS_SERVERLESS_SERVERLESS_OPS_H_
