#ifndef MODULARIS_SUBOPERATORS_PARTITION_OPS_H_
#define MODULARIS_SUBOPERATORS_PARTITION_OPS_H_

#include <string>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "core/sub_operator.h"
#include "suboperators/radix.h"

/// \file partition_ops.h
/// Histogram and partitioning sub-operators. Factoring the partitioning
/// logic out of the join lets the same code improve cache locality in
/// grouping too (design principle (1), §3.2).

namespace modularis {

/// Schema of histogram collections: one i64 count per partition, indexed
/// by partition id.
Schema HistogramSchema();

/// LocalHistogram counts, per radix partition, the records of its input.
/// It accepts either record streams (from RowScan) or whole collections
/// (the fused form installed by the fusion pass) and produces a single
/// tuple holding the histogram collection.
class LocalHistogram : public SubOperator {
 public:
  LocalHistogram(SubOpPtr child, RadixSpec spec, int key_col,
                 std::string timer_key = "phase.local_histogram")
      : SubOperator("LocalHistogram"),
        spec_(spec),
        key_col_(key_col),
        timer_key_(std::move(timer_key)) {
    AddChild(std::move(child));
  }

  Status Open(ExecContext* ctx) override {
    done_ = false;
    return SubOperator::Open(ctx);
  }

  bool Next(Tuple* out) override;

  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override {
    SubOpPtr child_clone = child(0)->CloneForWorker(cc);
    if (child_clone == nullptr) return nullptr;
    return std::make_unique<LocalHistogram>(std::move(child_clone), spec_,
                                            key_col_, timer_key_);
  }

  const RadixSpec& spec() const { return spec_; }

 private:
  /// Drains the input and counts it in morsels on PlanWorkers() workers;
  /// per-worker histograms sum-merge (order-insensitive, so morsels are
  /// claimed dynamically).
  Status CountAll(std::vector<int64_t>* counts);

  RadixSpec spec_;
  int key_col_;
  std::string timer_key_;
  PhaseTimer timer_;
  bool done_ = false;
};

/// LocalPartition scatters its data upstream into per-partition
/// collections, sized exactly from the histogram upstream, and emits
/// ⟨partitionID, partitionData⟩ pairs for every partition in dense,
/// ordered sequence (so that Zip can align the two join sides).
class LocalPartition : public SubOperator {
 public:
  /// Children: data (records or collections), histogram (single tuple).
  LocalPartition(SubOpPtr data, SubOpPtr histogram, RadixSpec spec,
                 int key_col,
                 std::string timer_key = "phase.local_partition")
      : SubOperator("LocalPartition"),
        spec_(spec),
        key_col_(key_col),
        timer_key_(std::move(timer_key)) {
    AddChild(std::move(data));
    AddChild(std::move(histogram));
  }

  Status Open(ExecContext* ctx) override {
    partitioned_ = false;
    emit_pos_ = 0;
    parts_.clear();
    return SubOperator::Open(ctx);
  }

  bool Next(Tuple* out) override;

  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override {
    SubOpPtr data_clone = child(0)->CloneForWorker(cc);
    SubOpPtr hist_clone =
        data_clone == nullptr ? nullptr : child(1)->CloneForWorker(cc);
    if (hist_clone == nullptr) return nullptr;
    return std::make_unique<LocalPartition>(std::move(data_clone),
                                            std::move(hist_clone), spec_,
                                            key_col_, timer_key_);
  }

 private:
  /// Reads the histogram, drains the input and sizes every partition
  /// exactly from the histogram. One worker scatters the drained span at
  /// histogram prefix offsets; more (docs/DESIGN-parallel.md) count
  /// static contiguous ranges, derive per-(worker, partition) write
  /// offsets from the prefix sums and scatter their ranges through
  /// software write-combining buffers — byte-identical to one worker
  /// because the offsets replay the input order.
  Status PartitionAll();

  RadixSpec spec_;
  int key_col_;
  std::string timer_key_;
  PhaseTimer timer_;
  bool partitioned_ = false;
  size_t emit_pos_ = 0;
  std::vector<RowVectorPtr> parts_;
};

/// Partition is the single-pass variant that computes its own histogram
/// (Table 1's generic Partition; used by the serverless exchange where
/// partitioning is only a pre-processing step for the S3 exchange, §4.4).
class PartitionOp : public SubOperator {
 public:
  PartitionOp(SubOpPtr data, RadixSpec spec, int key_col,
              std::string timer_key = "phase.partition")
      : SubOperator("Partition"),
        spec_(spec),
        key_col_(key_col),
        timer_key_(std::move(timer_key)) {
    AddChild(std::move(data));
  }

  Status Open(ExecContext* ctx) override {
    partitioned_ = false;
    emit_pos_ = 0;
    parts_.clear();
    return SubOperator::Open(ctx);
  }

  bool Next(Tuple* out) override;

  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override {
    SubOpPtr child_clone = child(0)->CloneForWorker(cc);
    if (child_clone == nullptr) return nullptr;
    return std::make_unique<PartitionOp>(std::move(child_clone), spec_,
                                         key_col_, timer_key_);
  }

 private:
  /// Drains the input and scatters it: appended by one worker, or through
  /// PartitionAllParallel when the input splits.
  Status PartitionAll();
  /// Single-pass parallel form: parallel count over static ranges sizes
  /// the partitions exactly, then the same write-combining scatter as
  /// LocalPartition. No histogram child, so no count/histogram mismatch
  /// is possible.
  Status PartitionAllParallel(const RowVectorPtr& input, int workers);

  RadixSpec spec_;
  int key_col_;
  std::string timer_key_;
  PhaseTimer timer_;
  bool partitioned_ = false;
  size_t emit_pos_ = 0;
  std::vector<RowVectorPtr> parts_;
};

/// Shared scatter routine: appends every record of `rows` to
/// `parts[PartitionOf(key)]`. Key must be an i64/i32/date column.
void ScatterRows(const RowVector& rows, const RadixSpec& spec, int key_col,
                 std::vector<RowVectorPtr>* parts);
/// Span form of ScatterRows (batch inputs).
void ScatterSpan(const uint8_t* rows, size_t n, const Schema& schema,
                 const RadixSpec& spec, int key_col,
                 std::vector<RowVectorPtr>* parts);

/// Pre-sized scatter: writes each record of the span at
/// `parts[pid]->mutable_row(cursors[pid]++)`. Partitions must already be
/// ResizeRows'd to their exact histogram counts; returns
/// InvalidArgument if a partition overflows (histogram/data mismatch).
Status ScatterSpanPresized(const uint8_t* rows, size_t n,
                           const Schema& schema, const RadixSpec& spec,
                           int key_col, std::vector<RowVectorPtr>* parts,
                           std::vector<size_t>* cursors);

/// Write-combining pre-sized scatter (the per-worker form): rows are
/// staged in a small per-partition buffer and flushed with one memcpy per
/// full buffer, so a high-fanout scatter touches each partition's cache
/// lines in bursts instead of per row. `cursors` holds this worker's
/// absolute start row per partition and must have been reserved so that
/// every row of the span fits (counts verified by the caller); advanced
/// past the written rows on return.
void ScatterSpanPresizedWc(const uint8_t* rows, size_t n,
                           const Schema& schema, const RadixSpec& spec,
                           int key_col, std::vector<RowVectorPtr>* parts,
                           std::vector<size_t>* cursors);

/// Precomputed-pid variant of the two-phase count→write-combining
/// scatter (partition-owned aggregation, docs/DESIGN-parallel.md): the
/// caller derives one partition id per row from an arbitrary key hash
/// (multi-column / string / float group keys) and counts during that
/// pass, then reuses the same prefix-offset scatter machinery the radix
/// partitioners run.
///
/// Write-combining scatter of `n` packed rows into one flat pre-sized
/// destination, keyed by a precomputed per-row partition id: row i lands
/// at `dst_rows + cursors[pids[i]] * stride`, and its original row index
/// `base_index + i` lands in `dst_idx` at the same cursor. Rows and
/// indices are staged in small per-partition buffers and flushed with one
/// memcpy per full buffer, exactly like ScatterSpanPresizedWc. `cursors`
/// holds this worker's absolute start row per partition (prefix sums
/// across partitions and earlier workers) and is advanced past the
/// written rows on return — so every partition ends up holding its rows
/// in ascending original-row order with the global index recoverable.
/// `dst_idx` may be null when the caller needs only the reordered rows
/// (the exchange wire scatter, which never maps rows back).
void ScatterSpanByPidWc(const uint8_t* rows, size_t n, uint32_t stride,
                        const uint8_t* pids, int fanout, size_t base_index,
                        uint8_t* dst_rows, uint32_t* dst_idx,
                        std::vector<size_t>* cursors);

/// Shared count routine: adds per-partition record counts of `rows` into
/// `counts` (size must be spec.fanout()).
void CountRows(const RowVector& rows, const RadixSpec& spec, int key_col,
               int64_t* counts);
/// Span form of CountRows (batch inputs).
void CountSpan(const uint8_t* rows, size_t n, const Schema& schema,
               const RadixSpec& spec, int key_col, int64_t* counts);

/// Extracts the i64 key (i32/date widened) at `key_col` of a packed row.
inline int64_t KeyAt(const RowRef& row, int key_col) {
  const Field& f = row.schema().field(key_col);
  if (f.type == AtomType::kInt64) return row.GetInt64(key_col);
  return row.GetInt32(key_col);
}

}  // namespace modularis

#endif  // MODULARIS_SUBOPERATORS_PARTITION_OPS_H_
