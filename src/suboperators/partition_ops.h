#ifndef MODULARIS_SUBOPERATORS_PARTITION_OPS_H_
#define MODULARIS_SUBOPERATORS_PARTITION_OPS_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "core/sub_operator.h"
#include "suboperators/radix.h"

/// \file partition_ops.h
/// Histogram and partitioning sub-operators, and the one ranged scatter
/// (RangedScatter) that every partitioning site runs: the local
/// partitioners here, the MPI and TCP exchanges and ReduceByKey's
/// partition-owned aggregation differ only in how rows are routed and
/// where a flushed buffer goes. Factoring the partitioning logic out of
/// the join lets the same code improve cache locality in grouping too
/// (design principle (1), §3.2).

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

/// The emit side LocalPartition and PartitionOp share: on the first
/// Next() the data child is drained and run through the ranged scatter
/// into exactly sized partitions, which are then emitted as
/// ⟨partitionID, partitionData⟩ pairs in dense, ordered sequence (so that
/// Zip can align the two join sides).
class RadixPartitioner : public SubOperator {
 public:
  Status Open(ExecContext* ctx) override {
    partitioned_ = false;
    emit_pos_ = 0;
    parts_.clear();
    return SubOperator::Open(ctx);
  }

  bool Next(Tuple* out) override;

 protected:
  RadixPartitioner(std::string name, RadixSpec spec, int key_col,
                   std::string timer_key)
      : SubOperator(std::move(name)),
        spec_(spec),
        key_col_(key_col),
        timer_key_(std::move(timer_key)) {}

  /// Builds parts_ (called once per Open).
  virtual Status PartitionAll() = 0;

  /// Drains child 0 and scatters it into parts_. `known` (the histogram)
  /// is the ranged scatter's totals: one worker runs no count pass, more
  /// check their counts against it; without it the count sizes the
  /// partitions.
  Status DrainAndScatter(const std::vector<int64_t>* known);

  RadixSpec spec_;
  int key_col_;
  std::string timer_key_;
  PhaseTimer timer_;
  bool partitioned_ = false;
  size_t emit_pos_ = 0;
  std::vector<RowVectorPtr> parts_;
};

/// LocalPartition scatters its data upstream into per-partition
/// collections, sized exactly from the histogram upstream.
class LocalPartition : public RadixPartitioner {
 public:
  /// Children: data (records or collections), histogram (single tuple).
  LocalPartition(SubOpPtr data, SubOpPtr histogram, RadixSpec spec,
                 int key_col,
                 std::string timer_key = "phase.local_partition")
      : RadixPartitioner("LocalPartition", spec, key_col,
                         std::move(timer_key)) {
    AddChild(std::move(data));
    AddChild(std::move(histogram));
  }

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
  /// Reads and validates the histogram, then scatters with it as totals.
  Status PartitionAll() override;
};

/// Partition is the single-pass variant that computes its own histogram
/// (Table 1's generic Partition; used by the serverless exchange where
/// partitioning is only a pre-processing step for the S3 exchange, §4.4).
/// Its counts size the partitions, so no mismatch is possible.
class PartitionOp : public RadixPartitioner {
 public:
  PartitionOp(SubOpPtr data, RadixSpec spec, int key_col,
              std::string timer_key = "phase.partition")
      : RadixPartitioner("Partition", spec, key_col, std::move(timer_key)) {
    AddChild(std::move(data));
  }

  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override {
    SubOpPtr child_clone = child(0)->CloneForWorker(cc);
    if (child_clone == nullptr) return nullptr;
    return std::make_unique<PartitionOp>(std::move(child_clone), spec_,
                                         key_col_, timer_key_);
  }

 private:
  Status PartitionAll() override { return DrainAndScatter(nullptr); }
};

/// Where each row of a ranged scatter goes: a destination in
/// [0, fanout). The three routing rules of the partitioning sites:
///  * Radix: `spec.PartitionOf(key)` (LocalPartition, PartitionOp,
///    MpiExchange);
///  * HashMod: `MixHash64(key) % fanout` (TcpExchange, one destination per
///    rank, any world size);
///  * Pids: a caller-computed id per row, `pids[i]` for input row i
///    (ReduceByKey's high hash bits over arbitrary group keys).
/// Keys are i64/i32/date columns.
struct ScatterRoute {
  enum class Kind { kRadix, kHashMod, kPids };

  static ScatterRoute Radix(const RadixSpec& spec, const Schema& schema,
                            int key_col);
  static ScatterRoute HashMod(int fanout, const Schema& schema, int key_col);
  static ScatterRoute Pids(const uint8_t* pids, int fanout);

  Kind kind = Kind::kRadix;
  int fanout = 1;
  RadixSpec spec;
  uint32_t key_offset = 0;
  bool wide_key = false;
  const uint8_t* pids = nullptr;
};

/// Optional staging format of a ranged scatter: each ⟨i64 key, i64 value⟩
/// row is packed into one 8-byte CompressKV word as it is staged (the MPI
/// exchange's §4.1.2 compression), so the sink receives wire rows.
struct ScatterPacking {
  int radix_bits = 0;
  int domain_bits = 0;
  uint32_t value_offset = 0;
};

/// One flushed write-combining buffer: `count` rows for `dest` (packed
/// words under a ScatterPacking), in input order, to be written at
/// destination row `at`. `idx` holds their input row indices when the
/// scatter tracks them, else null. Each range flushes from one thread.
struct ScatterFlush {
  int range;
  int dest;
  size_t at;
  const uint8_t* rows;
  const uint32_t* idx;
  size_t count;
};
using ScatterSink = std::function<Status(const ScatterFlush&)>;

/// The one ranged scatter every partitioning site runs, at every worker
/// count (docs/DESIGN-parallel.md, docs/DESIGN-exchange.md):
///  1. Split the packed span into SplitRows(n, workers) ranges.
///  2. Count rows per (range, destination). With one range, totals the
///     caller already holds (a histogram) stand in for the count.
///  3. Offsets: (range, destination) starts at the caller's base for the
///     destination plus the counts of earlier ranges, so each
///     destination receives its rows in input order at any worker count.
///  4. Scatter: each range stages rows in per-destination write-combining
///     buffers and hands every full buffer to the sink. A flush that
///     would leave its (range, destination) region, or a region left
///     short, is InvalidArgument — before any byte lands outside it.
/// Sites differ only in the route and the sink.
class RangedScatter {
 public:
  /// `site` (which must outlive the scatter) prefixes error messages.
  RangedScatter(const ExecContext* ctx, const char* site, const uint8_t* rows,
                size_t n, uint32_t stride, const ScatterRoute& route,
                int workers);

  /// Steps 1–2. `known` (size fanout), when given, is the caller's
  /// per-destination total: used as the count with one range, checked
  /// against the count with more.
  Status Count(const std::vector<int64_t>* known = nullptr);

  /// Per-destination totals (valid after Count).
  const std::vector<int64_t>& totals() const { return totals_; }
  int ranges() const { return static_cast<int>(bounds_.size()) - 1; }

  /// Steps 3–4. `base` (size fanout, or empty for all zero) is each
  /// destination's first row; `stage_rows` (≥ 1) the rows staged per
  /// destination and range; `track_index` adds input row indices to
  /// every flush; `pack`, when given, stages packed words.
  Status Scatter(const std::vector<size_t>& base, size_t stage_rows,
                 bool track_index, const ScatterSink& sink,
                 const ScatterPacking* pack = nullptr) const;

 private:
  const ExecContext* ctx_;
  const char* site_;
  const uint8_t* rows_;
  uint32_t stride_;
  ScatterRoute route_;
  std::vector<size_t> bounds_;
  std::vector<std::vector<int64_t>> counts_;  // [range][destination]
  std::vector<int64_t> totals_;
};

/// Write-combining rows per destination for in-memory sinks: ~512 B,
/// enough to amortize the random destination access, small enough that
/// fanout × buffer stays cache-resident per worker.
size_t InMemoryStageRows(uint32_t stride);

/// Sink into presized partitions: rows land at `parts[dest]` row `at`.
ScatterSink PartitionsSink(std::vector<RowVectorPtr>* parts);

/// Sink into one flat presized buffer of `stride`-byte rows; the input
/// row indices land in `idx` at the same positions when it is non-null.
ScatterSink FlatSink(uint8_t* rows, uint32_t stride, uint32_t* idx);

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
