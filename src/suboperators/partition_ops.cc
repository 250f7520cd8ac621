#include "suboperators/partition_ops.h"

#include <algorithm>
#include <limits>
#include <memory>

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

}  // namespace

ScatterRoute ScatterRoute::Radix(const RadixSpec& spec, const Schema& schema,
                                 int key_col) {
  ScatterRoute r = HashMod(spec.fanout(), schema, key_col);
  r.kind = Kind::kRadix;
  r.spec = spec;
  return r;
}

ScatterRoute ScatterRoute::HashMod(int fanout, const Schema& schema,
                                   int key_col) {
  return ScatterRoute{Kind::kHashMod, fanout, RadixSpec{},
                      schema.offset(key_col),
                      schema.field(key_col).type == AtomType::kInt64,
                      nullptr};
}

ScatterRoute ScatterRoute::Pids(const uint8_t* pids, int fanout) {
  return ScatterRoute{Kind::kPids, fanout, RadixSpec{}, 0, false, pids};
}

void CountSpan(const uint8_t* rows, size_t n, const Schema& schema,
               const RadixSpec& spec, int key_col, int64_t* counts) {
  const ScatterRoute r = ScatterRoute::Radix(spec, schema, key_col);
  const uint32_t stride = schema.row_size();
  const uint8_t* p = rows;
  for (size_t i = 0; i < n; ++i, p += stride) {
    ++counts[spec.PartitionOf(LoadKey(p, r.key_offset, r.wide_key))];
  }
}

void CountRows(const RowVector& rows, const RadixSpec& spec, int key_col,
               int64_t* counts) {
  CountSpan(rows.data(), rows.size(), rows.schema(), spec, key_col, counts);
}

namespace {

/// Calls `fn` with the route as an inlinable `dest(row, i)` callable, so
/// each routing rule instantiates the count and scatter loops once.
template <typename Fn>
Status WithRoute(const ScatterRoute& r, Fn&& fn) {
  if (r.kind == ScatterRoute::Kind::kRadix) {
    return fn([r](const uint8_t* p, size_t) {
      return r.spec.PartitionOf(LoadKey(p, r.key_offset, r.wide_key));
    });
  }
  if (r.kind == ScatterRoute::Kind::kHashMod) {
    return fn([r, fanout = static_cast<uint64_t>(r.fanout)](const uint8_t* p,
                                                           size_t) {
      return static_cast<uint32_t>(
          MixHash64(static_cast<uint64_t>(
              LoadKey(p, r.key_offset, r.wide_key))) % fanout);
    });
  }
  return fn([pids = r.pids](const uint8_t*, size_t i) {
    return static_cast<uint32_t>(pids[i]);
  });
}

}  // namespace

RangedScatter::RangedScatter(const ExecContext* ctx, const char* site,
                             const uint8_t* rows, size_t n, uint32_t stride,
                             const ScatterRoute& route, int workers)
    : ctx_(ctx),
      site_(site),
      rows_(rows),
      stride_(stride),
      route_(route),
      bounds_(SplitRows(n, std::max(1, workers))) {}

Status RangedScatter::Count(const std::vector<int64_t>* known) {
  const int fanout = route_.fanout;
  if (ranges() == 1 && known != nullptr) {
    for (int64_t c : *known) {
      if (c < 0) {
        return Status::InvalidArgument(std::string(site_) +
                                       ": negative histogram count " +
                                       std::to_string(c));
      }
    }
    counts_.assign(1, *known);
    totals_ = *known;
    return Status::OK();
  }
  counts_.assign(ranges(), std::vector<int64_t>(fanout, 0));
  MODULARIS_RETURN_NOT_OK(ParallelFor(ctx_, ranges(), [&](int w) -> Status {
    return WithRoute(route_, [&](auto dest) {
      int64_t* counts = counts_[w].data();
      const uint8_t* p = rows_ + bounds_[w] * stride_;
      for (size_t i = bounds_[w]; i < bounds_[w + 1]; ++i, p += stride_) {
        ++counts[dest(p, i)];
      }
      return Status::OK();
    });
  }));
  totals_.assign(fanout, 0);
  for (const std::vector<int64_t>& c : counts_) {
    for (int d = 0; d < fanout; ++d) totals_[d] += c[d];
  }
  if (known == nullptr) return Status::OK();
  for (int d = 0; d < fanout; ++d) {
    if (totals_[d] != (*known)[d]) {
      return Status::InvalidArgument(
          std::string(site_) + ": histogram count " +
          std::to_string((*known)[d]) + " != counted rows " +
          std::to_string(totals_[d]) + " for partition " + std::to_string(d));
    }
  }
  return Status::OK();
}

Status RangedScatter::Scatter(const std::vector<size_t>& base,
                              size_t stage_rows, bool track_index,
                              const ScatterSink& sink,
                              const ScatterPacking* pack) const {
  const int fanout = route_.fanout;
  const int workers = ranges();
  // Range w's region for destination d starts after the rows earlier
  // ranges send to d, so every destination replays the input order.
  std::vector<std::vector<size_t>> start(workers,
                                         std::vector<size_t>(fanout, 0));
  for (int d = 0; d < fanout; ++d) {
    size_t off = base.empty() ? 0 : base[d];
    for (int w = 0; w < workers; ++w) {
      start[w][d] = off;
      off += static_cast<size_t>(counts_[w][d]);
    }
  }
  const uint32_t out_stride = pack != nullptr ? sizeof(int64_t) : stride_;
  const size_t buf_bytes = stage_rows * out_stride;
  return ParallelFor(ctx_, workers, [&](int w) -> Status {
    // One uninitialized block per destination: an exchange's 64 KiB
    // buffers then come from memory the allocator reuses, not from one
    // fresh multi-MiB mapping paged in on every call.
    std::vector<std::unique_ptr<uint8_t[]>> stage(fanout);
    for (auto& buf : stage) buf.reset(new uint8_t[buf_bytes]);
    std::unique_ptr<uint32_t[]> istage(
        track_index ? new uint32_t[static_cast<size_t>(fanout) * stage_rows]
                    : nullptr);
    std::vector<uint32_t> fill(fanout, 0);
    std::vector<size_t> written(fanout, 0);
    const std::vector<int64_t>& region = counts_[w];
    auto flush = [&](int d) -> Status {
      const size_t m = fill[d];
      if (m == 0) return Status::OK();
      if (written[d] + m > static_cast<size_t>(region[d])) {
        return Status::InvalidArgument(
            std::string(site_) + ": partition " + std::to_string(d) +
            " receives more rows than its count " +
            std::to_string(region[d]));
      }
      MODULARIS_RETURN_NOT_OK(sink(ScatterFlush{
          w, d, start[w][d] + written[d],
          stage[d].get(),
          track_index ? istage.get() + static_cast<size_t>(d) * stage_rows
                      : nullptr,
          m}));
      written[d] += m;
      fill[d] = 0;
      return Status::OK();
    };
    auto scatter = [&](auto dest, auto put) -> Status {
      const uint8_t* p = rows_ + bounds_[w] * stride_;
      for (size_t i = bounds_[w]; i < bounds_[w + 1]; ++i, p += stride_) {
        const uint32_t d = dest(p, i);
        put(stage[d].get() + fill[d] * out_stride, p);
        if (track_index) {
          istage[d * stage_rows + fill[d]] = static_cast<uint32_t>(i);
        }
        if (++fill[d] == stage_rows) {
          MODULARIS_RETURN_NOT_OK(flush(static_cast<int>(d)));
        }
      }
      return Status::OK();
    };
    MODULARIS_RETURN_NOT_OK(WithRoute(route_, [&](auto dest) -> Status {
      if (pack == nullptr) {
        return scatter(dest, [this](uint8_t* dst, const uint8_t* p) {
          std::memcpy(dst, p, stride_);
        });
      }
      return scatter(dest, [this, pack](uint8_t* dst, const uint8_t* p) {
        int64_t key, value;
        std::memcpy(&key, p + route_.key_offset, sizeof(key));
        std::memcpy(&value, p + pack->value_offset, sizeof(value));
        const int64_t word =
            CompressKV(key, value, pack->radix_bits, pack->domain_bits);
        std::memcpy(dst, &word, sizeof(word));
      });
    }));
    for (int d = 0; d < fanout; ++d) {
      MODULARIS_RETURN_NOT_OK(flush(d));
      if (written[d] != static_cast<size_t>(region[d])) {
        return Status::InvalidArgument(
            std::string(site_) + ": histogram count " +
            std::to_string(region[d]) + " != scattered rows " +
            std::to_string(written[d]) + " for partition " +
            std::to_string(d));
      }
    }
    return Status::OK();
  });
}

size_t InMemoryStageRows(uint32_t stride) {
  return std::max<size_t>(4, 512 / stride);
}

ScatterSink PartitionsSink(std::vector<RowVectorPtr>* parts) {
  return [parts](const ScatterFlush& f) {
    RowVector& part = *(*parts)[f.dest];
    std::memcpy(part.mutable_row(f.at), f.rows, f.count * part.row_size());
    return Status::OK();
  };
}

ScatterSink FlatSink(uint8_t* rows, uint32_t stride, uint32_t* idx) {
  return [rows, stride, idx](const ScatterFlush& f) {
    std::memcpy(rows + f.at * stride, f.rows, f.count * stride);
    if (idx != nullptr) {
      std::memcpy(idx + f.at, f.idx, f.count * sizeof(uint32_t));
    }
    return Status::OK();
  };
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
Status CheckHistCount(int64_t count, int pid) {
  if (count < 0 ||
      count > static_cast<int64_t>(std::numeric_limits<uint32_t>::max())) {
    return Status::Internal("LocalPartition: histogram count " +
                            std::to_string(count) + " for partition " +
                            std::to_string(pid) +
                            " is outside the valid row range");
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// RadixPartitioner: LocalPartition, PartitionOp
// ---------------------------------------------------------------------------

Status RadixPartitioner::DrainAndScatter(const std::vector<int64_t>* known) {
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
  RangedScatter scatter(ctx_, name().c_str(), input->data(), input->size(),
                        input->row_size(),
                        ScatterRoute::Radix(spec_, input->schema(), key_col_),
                        PlanWorkers(input->size(), ctx_->options));
  MODULARIS_RETURN_NOT_OK(scatter.Count(known));
  // Exact sizes; the scatter writes every row (a histogram that disagrees
  // with the data fails it), so no zero-fill.
  for (int64_t rows_p : scatter.totals()) {
    RowVectorPtr part = RowVector::Make(input->schema());
    part->ResizeRowsUninitialized(static_cast<size_t>(rows_p));
    parts_.push_back(std::move(part));
  }
  return scatter.Scatter({}, InMemoryStageRows(input->row_size()),
                         /*track_index=*/false, PartitionsSink(&parts_));
}

bool RadixPartitioner::Next(Tuple* out) {
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

Status LocalPartition::PartitionAll() {
  // The histogram sizes the output partitions exactly (the
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
  std::vector<int64_t> counts(fanout);
  for (int p = 0; p < fanout; ++p) {
    counts[p] = hist.row(p).GetInt64(0);
    MODULARIS_RETURN_NOT_OK(CheckHistCount(counts[p], p));
  }
  return DrainAndScatter(&counts);
}

}  // namespace modularis
