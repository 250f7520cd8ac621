#include "suboperators/partition_ops.h"

#include <limits>

namespace modularis {

Schema HistogramSchema() {
  return Schema({Field::I64("count")});
}

namespace {

/// Reads the i64 key at a fixed byte offset of a packed row (covers i64
/// and, via the i32 variant, date/int32 keys).
inline int64_t LoadKey(const uint8_t* row, uint32_t offset, bool wide) {
  if (wide) {
    int64_t k;
    std::memcpy(&k, row + offset, sizeof(k));
    return k;
  }
  int32_t k;
  std::memcpy(&k, row + offset, sizeof(k));
  return k;
}

struct KeyLayout {
  uint32_t offset;
  bool wide;
};

KeyLayout KeyLayoutOf(const Schema& schema, int key_col) {
  return KeyLayout{schema.offset(key_col),
                   schema.field(key_col).type == AtomType::kInt64};
}

}  // namespace

void CountSpan(const uint8_t* rows, size_t n, const Schema& schema,
               const RadixSpec& spec, int key_col, int64_t* counts) {
  const KeyLayout kl = KeyLayoutOf(schema, key_col);
  const uint32_t stride = schema.row_size();
  const uint8_t* p = rows;
  for (size_t i = 0; i < n; ++i, p += stride) {
    ++counts[spec.PartitionOf(LoadKey(p, kl.offset, kl.wide))];
  }
}

void CountRows(const RowVector& rows, const RadixSpec& spec, int key_col,
               int64_t* counts) {
  CountSpan(rows.data(), rows.size(), rows.schema(), spec, key_col, counts);
}

void ScatterSpan(const uint8_t* rows, size_t n, const Schema& schema,
                 const RadixSpec& spec, int key_col,
                 std::vector<RowVectorPtr>* parts) {
  const KeyLayout kl = KeyLayoutOf(schema, key_col);
  const uint32_t stride = schema.row_size();
  const uint8_t* p = rows;
  for (size_t i = 0; i < n; ++i, p += stride) {
    uint32_t pid = spec.PartitionOf(LoadKey(p, kl.offset, kl.wide));
    (*parts)[pid]->AppendRaw(p);
  }
}

void ScatterRows(const RowVector& rows, const RadixSpec& spec, int key_col,
                 std::vector<RowVectorPtr>* parts) {
  ScatterSpan(rows.data(), rows.size(), rows.schema(), spec, key_col, parts);
}

void ScatterSpanPresizedWc(const uint8_t* rows, size_t n,
                           const Schema& schema, const RadixSpec& spec,
                           int key_col, std::vector<RowVectorPtr>* parts,
                           std::vector<size_t>* cursors) {
  const KeyLayout kl = KeyLayoutOf(schema, key_col);
  const uint32_t stride = schema.row_size();
  const int fanout = spec.fanout();
  // ~512B of staging per partition: large enough that flushes amortize
  // the random partition access, small enough that fanout * buffer stays
  // cache-resident per worker.
  size_t wc_rows = 512 / stride;
  if (wc_rows < 4) wc_rows = 4;
  std::vector<uint8_t> stage(static_cast<size_t>(fanout) * wc_rows * stride);
  std::vector<uint32_t> fill(fanout, 0);
  const size_t buf_bytes = wc_rows * stride;
  const uint8_t* p = rows;
  for (size_t i = 0; i < n; ++i, p += stride) {
    uint32_t pid = spec.PartitionOf(LoadKey(p, kl.offset, kl.wide));
    uint8_t* buf = stage.data() + pid * buf_bytes;
    std::memcpy(buf + fill[pid] * stride, p, stride);
    if (++fill[pid] == wc_rows) {
      std::memcpy((*parts)[pid]->mutable_row((*cursors)[pid]), buf,
                  buf_bytes);
      (*cursors)[pid] += wc_rows;
      fill[pid] = 0;
    }
  }
  for (int pid = 0; pid < fanout; ++pid) {
    if (fill[pid] == 0) continue;
    std::memcpy((*parts)[pid]->mutable_row((*cursors)[pid]),
                stage.data() + pid * buf_bytes, fill[pid] * stride);
    (*cursors)[pid] += fill[pid];
  }
}

void ScatterSpanByPidWc(const uint8_t* rows, size_t n, uint32_t stride,
                        const uint8_t* pids, int fanout, size_t base_index,
                        uint8_t* dst_rows, uint32_t* dst_idx,
                        std::vector<size_t>* cursors) {
  // Same ~512B-per-partition staging discipline as ScatterSpanPresizedWc;
  // the original-row indices ride along in a parallel staging array so
  // both flush as bursts.
  size_t wc_rows = 512 / stride;
  if (wc_rows < 4) wc_rows = 4;
  std::vector<uint8_t> stage(static_cast<size_t>(fanout) * wc_rows * stride);
  std::vector<uint32_t> istage(static_cast<size_t>(fanout) * wc_rows);
  std::vector<uint32_t> fill(fanout, 0);
  const size_t buf_bytes = wc_rows * stride;
  const uint8_t* p = rows;
  for (size_t i = 0; i < n; ++i, p += stride) {
    const uint32_t pid = pids[i];
    uint8_t* buf = stage.data() + pid * buf_bytes;
    std::memcpy(buf + fill[pid] * stride, p, stride);
    istage[pid * wc_rows + fill[pid]] = static_cast<uint32_t>(base_index + i);
    if (++fill[pid] == wc_rows) {
      size_t& cur = (*cursors)[pid];
      std::memcpy(dst_rows + cur * stride, buf, buf_bytes);
      if (dst_idx != nullptr) {
        std::memcpy(dst_idx + cur, istage.data() + pid * wc_rows,
                    wc_rows * sizeof(uint32_t));
      }
      cur += wc_rows;
      fill[pid] = 0;
    }
  }
  for (int pid = 0; pid < fanout; ++pid) {
    if (fill[pid] == 0) continue;
    size_t& cur = (*cursors)[pid];
    std::memcpy(dst_rows + cur * stride, stage.data() + pid * buf_bytes,
                fill[pid] * stride);
    if (dst_idx != nullptr) {
      std::memcpy(dst_idx + cur, istage.data() + pid * wc_rows,
                  fill[pid] * sizeof(uint32_t));
    }
    cur += fill[pid];
  }
}

Status ScatterSpanPresized(const uint8_t* rows, size_t n,
                           const Schema& schema, const RadixSpec& spec,
                           int key_col, std::vector<RowVectorPtr>* parts,
                           std::vector<size_t>* cursors) {
  const KeyLayout kl = KeyLayoutOf(schema, key_col);
  const uint32_t stride = schema.row_size();
  const uint8_t* p = rows;
  for (size_t i = 0; i < n; ++i, p += stride) {
    uint32_t pid = spec.PartitionOf(LoadKey(p, kl.offset, kl.wide));
    size_t& cursor = (*cursors)[pid];
    RowVector& part = *(*parts)[pid];
    if (cursor >= part.size()) {
      return Status::InvalidArgument(
          "presized scatter: partition " + std::to_string(pid) +
          " overflows its histogram count " + std::to_string(part.size()));
    }
    std::memcpy(part.mutable_row(cursor), p, stride);
    ++cursor;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// LocalHistogram
// ---------------------------------------------------------------------------

Status LocalHistogram::CountAll(std::vector<int64_t>* counts) {
  // Materialize the record stream as one packed span (zero-copy when the
  // upstream hands a single durable collection, the hot case) and count
  // dynamically claimed morsels into per-worker histograms; the sum-merge
  // is order-insensitive, so the dynamic schedule costs no determinism.
  // One worker runs inline.
  RowVectorPtr input;
  MODULARIS_RETURN_NOT_OK(DrainRecordStream(child(0), &input));
  if (input == nullptr) return Status::OK();
  const size_t n = input->size();
  const int workers = PlanWorkers(n, ctx_->options);
  const uint32_t stride = input->row_size();
  std::vector<std::vector<int64_t>> worker_counts(
      workers, std::vector<int64_t>(spec_.fanout(), 0));
  MorselCursor cursor(n, ctx_->options.morsel_rows, ctx_->cancel);
  MODULARIS_RETURN_NOT_OK(ParallelFor(ctx_, workers, [&](int w) -> Status {
    size_t begin = 0, count = 0;
    while (cursor.Claim(&begin, &count)) {
      CountSpan(input->data() + begin * stride, count, input->schema(),
                spec_, key_col_, worker_counts[w].data());
    }
    return Status::OK();
  }));
  for (const std::vector<int64_t>& wc : worker_counts) {
    for (int p = 0; p < spec_.fanout(); ++p) (*counts)[p] += wc[p];
  }
  return Status::OK();
}

bool LocalHistogram::Next(Tuple* out) {
  if (done_) return false;
  std::vector<int64_t> counts(spec_.fanout(), 0);
  timer_.Bind(ctx_->stats, timer_key_);
  ScopedPhase phase(&timer_);
  Status st = CountAll(&counts);
  if (!st.ok()) return Fail(std::move(st));
  phase.Stop();
  RowVectorPtr hist = RowVector::Make(HistogramSchema());
  hist->Reserve(counts.size());
  for (int64_t c : counts) {
    hist->AppendRow().SetInt64(0, c);
  }
  done_ = true;
  out->clear();
  out->push_back(Item(std::move(hist)));
  return true;
}

namespace {

/// Validates one histogram partition count before it is cast to size_t
/// and turned into an allocation. The histogram arrives over the
/// exchange, so it is untrusted input: a corrupted negative value would
/// wrap to a multi-exabyte size_t, and even a positive count beyond the
/// uint32 row-index space the operators use cannot be a real partition.
/// Either one is a protocol violation (kInternal), not a planner error.
Status CheckedHistCount(int64_t count, int pid, size_t* out) {
  if (count < 0 ||
      count > static_cast<int64_t>(std::numeric_limits<uint32_t>::max())) {
    return Status::Internal("LocalPartition: histogram count " +
                            std::to_string(count) + " for partition " +
                            std::to_string(pid) +
                            " is outside the valid row range");
  }
  *out = static_cast<size_t>(count);
  return Status::OK();
}

/// The shared two-phase parallel scatter skeleton: per-worker counts over
/// static contiguous ranges (which replay the input order), then
/// per-(worker, partition) write offsets as the prefix sums across
/// workers, then every worker scatters its range through write-combining
/// buffers into its private, contiguous region of each partition.
struct RangedScatterPlan {
  std::vector<size_t> bounds;                      // worker row ranges
  std::vector<std::vector<int64_t>> worker_counts;  // [worker][partition]
  std::vector<int64_t> totals;                      // per-partition rows
};

Status CountRanges(const RowVector& input, const RadixSpec& spec, int key_col,
                   int workers, RangedScatterPlan* plan) {
  const uint32_t stride = input.row_size();
  plan->bounds = SplitRows(input.size(), workers);
  plan->worker_counts.assign(workers,
                             std::vector<int64_t>(spec.fanout(), 0));
  MODULARIS_RETURN_NOT_OK(ParallelFor(workers, [&](int w) -> Status {
    CountSpan(input.data() + plan->bounds[w] * stride,
              plan->bounds[w + 1] - plan->bounds[w], input.schema(), spec,
              key_col, plan->worker_counts[w].data());
    return Status::OK();
  }));
  plan->totals.assign(spec.fanout(), 0);
  for (int p = 0; p < spec.fanout(); ++p) {
    for (int w = 0; w < workers; ++w) {
      plan->totals[p] += plan->worker_counts[w][p];
    }
  }
  return Status::OK();
}

Status ScatterRanges(const RowVector& input, const RadixSpec& spec,
                     int key_col, const RangedScatterPlan& plan,
                     std::vector<RowVectorPtr>* parts) {
  const int workers = static_cast<int>(plan.worker_counts.size());
  const int fanout = spec.fanout();
  const uint32_t stride = input.row_size();
  std::vector<std::vector<size_t>> offsets(workers,
                                           std::vector<size_t>(fanout, 0));
  for (int p = 0; p < fanout; ++p) {
    size_t off = 0;
    for (int w = 0; w < workers; ++w) {
      offsets[w][p] = off;
      off += static_cast<size_t>(plan.worker_counts[w][p]);
    }
  }
  return ParallelFor(workers, [&](int w) -> Status {
    ScatterSpanPresizedWc(input.data() + plan.bounds[w] * stride,
                          plan.bounds[w + 1] - plan.bounds[w], input.schema(),
                          spec, key_col, parts, &offsets[w]);
    return Status::OK();
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// LocalPartition
// ---------------------------------------------------------------------------

Status LocalPartition::PartitionAll() {
  // Read the histogram to pre-size the output partitions exactly (the
  // radix-partitioning discipline of [58, 63] that makes the scatter a
  // single streaming pass).
  Tuple hist_tuple;
  if (!child(1)->Next(&hist_tuple)) {
    if (!child(1)->status().ok()) return child(1)->status();
    return Status::InvalidArgument("LocalPartition: missing histogram");
  }
  const RowVector& hist = *hist_tuple[0].collection();
  const int fanout = spec_.fanout();
  if (static_cast<int>(hist.size()) != fanout) {
    return Status::InvalidArgument(
        "LocalPartition: histogram size " + std::to_string(hist.size()) +
        " != fanout " + std::to_string(fanout));
  }

  timer_.Bind(ctx_->stats, timer_key_);
  ScopedPhase phase(&timer_);
  parts_.reserve(fanout);
  RowVectorPtr input;
  MODULARIS_RETURN_NOT_OK(DrainRecordStream(child(0), &input));
  if (input == nullptr) {
    for (int p = 0; p < fanout; ++p) {
      parts_.push_back(RowVector::Make(KeyValueSchema()));
    }
    return Status::OK();
  }
  const size_t n = input->size();
  const Schema& schema = input->schema();

  // Exact allocation per partition from the histogram; every row is
  // overwritten by a full-stride copy below (count totals are verified
  // against the histogram first), so no zero-fill.
  for (int p = 0; p < fanout; ++p) {
    size_t rows_p = 0;
    MODULARIS_RETURN_NOT_OK(CheckedHistCount(hist.row(p).GetInt64(0), p,
                                             &rows_p));
    RowVectorPtr part = RowVector::Make(schema);
    part->ResizeRowsUninitialized(rows_p);
    parts_.push_back(std::move(part));
  }
  auto check_count = [&](int p, size_t scattered) -> Status {
    if (scattered == parts_[p]->size()) return Status::OK();
    return Status::InvalidArgument(
        "LocalPartition: histogram count " +
        std::to_string(parts_[p]->size()) + " != scattered rows " +
        std::to_string(scattered) + " for partition " + std::to_string(p));
  };

  const int workers = PlanWorkers(n, ctx_->options);
  if (workers <= 1) {
    // The one-worker kernel: rows land at histogram prefix offsets with
    // no counting pass of its own.
    std::vector<size_t> cursors(fanout, 0);
    MODULARIS_RETURN_NOT_OK(ScatterSpanPresized(
        input->data(), n, schema, spec_, key_col_, &parts_, &cursors));
    for (int p = 0; p < fanout; ++p) {
      MODULARIS_RETURN_NOT_OK(check_count(p, cursors[p]));
    }
    return Status::OK();
  }
  RangedScatterPlan plan;
  MODULARIS_RETURN_NOT_OK(CountRanges(*input, spec_, key_col_, workers,
                                      &plan));
  for (int p = 0; p < fanout; ++p) {
    MODULARIS_RETURN_NOT_OK(
        check_count(p, static_cast<size_t>(plan.totals[p])));
  }
  return ScatterRanges(*input, spec_, key_col_, plan, &parts_);
}

bool LocalPartition::Next(Tuple* out) {
  if (!partitioned_) {
    Status st = PartitionAll();
    if (!st.ok()) return Fail(st);
    partitioned_ = true;
  }
  if (emit_pos_ >= parts_.size()) return false;
  out->clear();
  out->push_back(Item(static_cast<int64_t>(emit_pos_)));
  out->push_back(Item(parts_[emit_pos_]));
  ++emit_pos_;
  return true;
}

// ---------------------------------------------------------------------------
// PartitionOp
// ---------------------------------------------------------------------------

Status PartitionOp::PartitionAllParallel(const RowVectorPtr& input,
                                         int workers) {
  RangedScatterPlan plan;
  MODULARIS_RETURN_NOT_OK(CountRanges(*input, spec_, key_col_, workers,
                                      &plan));
  // Counts come from the data itself, so the pre-sizing is exact by
  // construction and every uninitialized row gets overwritten.
  for (int p = 0; p < spec_.fanout(); ++p) {
    RowVectorPtr part = RowVector::Make(input->schema());
    part->ResizeRowsUninitialized(static_cast<size_t>(plan.totals[p]));
    parts_.push_back(std::move(part));
  }
  return ScatterRanges(*input, spec_, key_col_, plan, &parts_);
}

Status PartitionOp::PartitionAll() {
  timer_.Bind(ctx_->stats, timer_key_);
  ScopedPhase phase(&timer_);
  RowVectorPtr input;
  MODULARIS_RETURN_NOT_OK(DrainRecordStream(child(0), &input));
  if (input == nullptr) {
    for (int p = 0; p < spec_.fanout(); ++p) {
      parts_.push_back(RowVector::Make(KeyValueSchema()));
    }
    return Status::OK();
  }
  const int workers = PlanWorkers(input->size(), ctx_->options);
  if (workers > 1) return PartitionAllParallel(input, workers);
  for (int p = 0; p < spec_.fanout(); ++p) {
    parts_.push_back(RowVector::Make(input->schema()));
  }
  ScatterSpan(input->data(), input->size(), input->schema(), spec_, key_col_,
              &parts_);
  return Status::OK();
}

bool PartitionOp::Next(Tuple* out) {
  if (!partitioned_) {
    Status st = PartitionAll();
    if (!st.ok()) return Fail(std::move(st));
    partitioned_ = true;
  }
  if (emit_pos_ >= parts_.size()) return false;
  out->clear();
  out->push_back(Item(static_cast<int64_t>(emit_pos_)));
  out->push_back(Item(parts_[emit_pos_]));
  ++emit_pos_;
  return true;
}

}  // namespace modularis
