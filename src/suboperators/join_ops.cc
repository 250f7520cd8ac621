#include "suboperators/join_ops.h"

#include <algorithm>
#include <cstring>

#include "storage/spill.h"

namespace modularis {

// ---------------------------------------------------------------------------
// JoinHashTable
// ---------------------------------------------------------------------------

namespace {
/// Prefetch distance for the batched bucket walks: far enough to cover
/// a memory round trip, near enough to stay in the L1 prefetch window.
constexpr size_t kProbeAhead = 16;
}  // namespace

void JoinHashTable::Build(const int64_t* keys, size_t n, int num_slices) {
  size_t buckets = 16;
  while (buckets < n * 2) buckets <<= 1;
  while (num_slices > 1 && static_cast<size_t>(num_slices) * 16 > buckets) {
    num_slices /= 2;
  }
  entries_.assign(n, Entry{0, 0, kNone});
  buckets_.assign(buckets, Bucket{});
  mask_ = buckets - 1;
  slice_rows_ = buckets / num_slices;  // both powers of two
  // Hash every key exactly once (range-parallel) into a home-slot array;
  // the slice workers then only compare precomputed 4-byte slots against
  // their range instead of re-hashing all n keys per slice. Entry row
  // indices are uint32, so buckets <= 2^32 and the slot fits.
  std::vector<uint32_t> home(n);
  const std::vector<size_t> bounds = SplitRows(n, num_slices);
  Status st = ParallelFor(num_slices, [&](int w) -> Status {
    for (size_t i = bounds[w]; i < bounds[w + 1]; ++i) {
      home[i] = static_cast<uint32_t>(
          MixHash64(static_cast<uint64_t>(keys[i])) & mask_);
    }
    return Status::OK();
  });
  if (st.ok()) {
    st = ParallelFor(num_slices, [&](int slice) -> Status {
      return BuildSlice(keys, home.data(), n, static_cast<size_t>(slice))
                 ? Status::OK()
                 : Status::Internal("JoinHashTable: bucket slice overflow");
    });
  }
  // Pathological hash skew filled one slice completely: one slice holds
  // every key (at most half the buckets), so the rebuild cannot overflow.
  if (!st.ok()) Build(keys, n, 1);
}

bool JoinHashTable::BuildSlice(const int64_t* keys, const uint32_t* home,
                               size_t n, size_t slice) {
  const size_t lo = slice_rows_ * slice;
  const size_t hi = lo + slice_rows_;
  size_t used = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i + kProbeAhead < n) {
      const size_t ahead = home[i + kProbeAhead];
      if (ahead >= lo && ahead < hi) __builtin_prefetch(&buckets_[ahead], 1);
    }
    size_t slot = home[i];
    if (slot < lo || slot >= hi) continue;  // another slice's key
    while (buckets_[slot].head != kNone && buckets_[slot].key != keys[i]) {
      slot = NextSlot(slot);
    }
    if (buckets_[slot].head == kNone && ++used >= slice_rows_) return false;
    entries_[i] = Entry{keys[i], static_cast<uint32_t>(i), buckets_[slot].head};
    buckets_[slot].key = keys[i];
    buckets_[slot].head = static_cast<uint32_t>(i);
  }
  return true;
}

uint32_t JoinHashTable::Find(int64_t key) const {
  if (buckets_.empty()) return kNone;
  size_t slot = MixHash64(static_cast<uint64_t>(key)) & mask_;
  while (buckets_[slot].head != kNone) {
    if (buckets_[slot].key == key) return buckets_[slot].head;
    slot = NextSlot(slot);
  }
  return kNone;
}

void JoinHashTable::FindBatch(const int64_t* keys, size_t n,
                              uint32_t* out) const {
  if (buckets_.empty()) {
    for (size_t i = 0; i < n; ++i) out[i] = kNone;
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    if (i + kProbeAhead < n) {
      size_t s =
          MixHash64(static_cast<uint64_t>(keys[i + kProbeAhead])) & mask_;
      __builtin_prefetch(&buckets_[s], 0);
    }
    out[i] = Find(keys[i]);
  }
}

// ---------------------------------------------------------------------------
// BuildProbe
// ---------------------------------------------------------------------------

namespace {

uint32_t FieldBytes(const Field& f) {
  switch (f.type) {
    case AtomType::kInt32:
    case AtomType::kDate:
      return 4;
    case AtomType::kInt64:
    case AtomType::kFloat64:
      return 8;
    case AtomType::kString:
      return 2 + f.width;
  }
  return 8;
}

void MakeCopyPlan(const Schema& src, const Schema& dst, size_t dst_start,
                  std::vector<FieldCopy>* plan) {
  for (size_t i = 0; i < src.num_fields(); ++i) {
    FieldCopy next{src.offset(i), dst.offset(dst_start + i),
                   FieldBytes(src.field(i))};
    // Coalesce byte-adjacent copies (packed layouts without alignment
    // gaps collapse into one memcpy per side).
    if (!plan->empty()) {
      FieldCopy& prev = plan->back();
      if (prev.src_offset + prev.bytes == next.src_offset &&
          prev.dst_offset + prev.bytes == next.dst_offset) {
        prev.bytes += next.bytes;
        continue;
      }
    }
    plan->push_back(next);
  }
}

/// Extracts the (arithmetically right-shifted) i64 join keys of `n`
/// packed rows into `out`, with the key layout hoisted out of the loop.
void ExtractShiftedKeys(const uint8_t* rows, size_t n, const Schema& schema,
                        int key_col, int shift, int64_t* out) {
  const uint32_t key_off = schema.offset(key_col);
  const bool wide = schema.field(key_col).type == AtomType::kInt64;
  const uint32_t stride = schema.row_size();
  for (size_t i = 0; i < n; ++i, rows += stride) {
    int64_t key;
    if (wide) {
      std::memcpy(&key, rows + key_off, sizeof(key));
    } else {
      int32_t k32;
      std::memcpy(&k32, rows + key_off, sizeof(k32));
      key = k32;
    }
    out[i] = key >> shift;
  }
}

/// memcpy with a fixed-size fast path: the copy plans are dominated by
/// 8/16/24/32-byte runs, and a constant-size memcpy inlines to plain
/// register moves instead of a libc memmove call.
inline void CopyRun(uint8_t* dst, const uint8_t* src, uint32_t bytes) {
  switch (bytes) {
    case 8: std::memcpy(dst, src, 8); break;
    case 16: std::memcpy(dst, src, 16); break;
    case 24: std::memcpy(dst, src, 24); break;
    case 32: std::memcpy(dst, src, 32); break;
    default: std::memcpy(dst, src, bytes); break;
  }
}

}  // namespace

Status BuildProbe::Open(ExecContext* ctx) {
  MODULARIS_RETURN_NOT_OK(SubOperator::Open(ctx));
  mem_charge_.Bind(ctx->budget);
  built_ = false;
  probe_done_ = false;
  sinks_.clear();
  sink_ = 0;
  row_ = 0;
  build_rows_ = RowVector::Make(build_schema_);
  build_copies_.clear();
  probe_copies_.clear();
  if (type_ == JoinType::kInner) {
    MakeCopyPlan(build_schema_, out_schema_, 0, &build_copies_);
    MakeCopyPlan(probe_schema_, out_schema_, build_schema_.num_fields(),
                 &probe_copies_);
    // The direct emit path overwrites whole rows; it is only valid when
    // the copy plans cover every output byte (no alignment gaps that the
    // zeroed staging row would have kept at zero).
    size_t covered = 0;
    for (const FieldCopy& c : build_copies_) covered += c.bytes;
    for (const FieldCopy& c : probe_copies_) covered += c.bytes;
    gapless_out_ = covered == out_schema_.row_size();
  } else {
    gapless_out_ = false;
  }
  return Status::OK();
}

Status BuildProbe::BuildTable() {
  timer_.Bind(ctx_->stats, timer_key_);
  ScopedPhase phase(&timer_);
  // Bulk build: adopt a single durable whole-collection batch without
  // copying (the common case: the build side is one partition); otherwise
  // one memcpy per batch into the build buffer.
  MODULARIS_RETURN_NOT_OK(DrainRecordStream(child(0), &build_rows_));
  mem_charge_.Add(build_rows_->byte_size());
  const size_t mem_limit = ctx_->options.memory_limit_bytes;
  if (mem_limit > 0 && ShouldSpill(build_rows_->byte_size(), mem_limit)) {
    return GraceSpillJoin();
  }
  const int workers = PlanWorkers(build_rows_->size(), ctx_->options);
  int slices = 1;
  while (slices * 2 <= workers) slices *= 2;
  HashBuildRows(slices);
  mem_charge_.Add(table_.byte_size());
  return Status::OK();
}

void BuildProbe::HashBuildRows(int slices) {
  const size_t n = build_rows_->size();
  key_scratch_.resize(n);
  ExtractShiftedKeys(build_rows_->data(), n, build_schema_, build_key_col_,
                     key_shift_, key_scratch_.data());
  table_.Build(key_scratch_.data(), n, slices);
}

Status BuildProbe::FillSinks() {
  if (!built_) {
    built_ = true;
    MODULARIS_RETURN_NOT_OK(BuildTable());
  }
  while (true) {
    for (; sink_ < sinks_.size(); ++sink_, row_ = 0) {
      if (sinks_[sink_] != nullptr && row_ < sinks_[sink_]->size()) {
        return Status::OK();
      }
    }
    if (probe_done_) return Status::OK();
    if (!child(1)->PullBatch(&probe_in_)) {
      probe_done_ = true;
      MODULARIS_RETURN_NOT_OK(child(1)->status());
      continue;
    }
    if (probe_in_.empty()) continue;
    if (!probe_in_.schema().SameLayout(probe_schema_)) {
      return Status::InvalidArgument(
          "BuildProbe: probe rows " + probe_in_.schema().ToString() +
          " do not match the probe schema " + probe_schema_.ToString());
    }
    MODULARIS_RETURN_NOT_OK(ProbeBatch(probe_in_));
  }
}

Status BuildProbe::ProbeBatch(const RowBatch& batch) {
  const int workers = PlanWorkers(batch.size(), ctx_->options);
  const std::vector<size_t> bounds = SplitRows(batch.size(), workers);
  const uint32_t stride = batch.row_size();
  sinks_.assign(workers, nullptr);
  sink_ = 0;
  row_ = 0;
  if (probe_scratch_.size() < static_cast<size_t>(workers)) {
    probe_scratch_.resize(workers);
  }
  return ParallelFor(ctx_, workers, [&](int w) -> Status {
    const size_t n = bounds[w + 1] - bounds[w];
    sinks_[w] = RowVector::Make(out_schema_);
    sinks_[w]->Reserve(n);
    ProbeSpanInto(batch.data() + bounds[w] * stride, n, &probe_scratch_[w],
                  sinks_[w].get());
    return Status::OK();
  });
}

void BuildProbe::EmitInnerInto(uint32_t entry, const uint8_t* probe_row,
                               RowVector* staging, RowVector* sink) const {
  // Assemble in the zero-initialized staging row (alignment gaps stay
  // zero, so the output bytes are deterministic), then append with one
  // packed copy — no per-row zero-fill in the sink.
  uint8_t* dst = staging->mutable_row(0);
  const uint8_t* bsrc = build_rows_->row(table_.RowOf(entry)).data();
  for (const FieldCopy& c : build_copies_) {
    std::memcpy(dst + c.dst_offset, bsrc + c.src_offset, c.bytes);
  }
  for (const FieldCopy& c : probe_copies_) {
    std::memcpy(dst + c.dst_offset, probe_row + c.src_offset, c.bytes);
  }
  sink->AppendRaw(dst);
}

void BuildProbe::ProbeSpanInto(const uint8_t* base, size_t n,
                               ProbeScratch* scratch, RowVector* sink,
                               const uint32_t* global_idx,
                               std::vector<uint32_t>* out_idx) const {
  const uint32_t stride = probe_schema_.row_size();
  // Pass 1: extract shifted keys; pass 2: prefetched bulk lookup;
  // pass 3: emit matches (prefetching the matched build rows ahead).
  scratch->keys.resize(n);
  scratch->matches.resize(n);
  std::vector<uint32_t>& match_scratch_ = scratch->matches;
  ExtractShiftedKeys(base, n, probe_schema_, probe_key_col_, key_shift_,
                     scratch->keys.data());
  table_.FindBatch(scratch->keys.data(), n, match_scratch_.data());
  if (type_ == JoinType::kInner && gapless_out_ && out_idx == nullptr) {
    // Direct emission: assemble rows with raw pointer arithmetic into
    // uninitialized chunks of the sink — no per-row append bookkeeping,
    // no staging copy (valid because the copy plans cover every output
    // byte).
    const uint32_t out_row = out_schema_.row_size();
    constexpr size_t kChunkRows = 512;
    uint8_t* dst = sink->AppendUninitialized(kChunkRows);
    size_t chunk_used = 0;
    for (size_t i = 0; i < n; ++i, base += stride) {
      uint32_t e = match_scratch_[i];
      if (e == JoinHashTable::kNone) continue;
      if (i + 4 < n && match_scratch_[i + 4] != JoinHashTable::kNone) {
        __builtin_prefetch(
            build_rows_->row(table_.RowOf(match_scratch_[i + 4])).data(), 0);
      }
      for (; e != JoinHashTable::kNone; e = table_.NextMatch(e)) {
        const uint8_t* bsrc = build_rows_->row(table_.RowOf(e)).data();
        for (const FieldCopy& c : build_copies_) {
          CopyRun(dst + c.dst_offset, bsrc + c.src_offset, c.bytes);
        }
        for (const FieldCopy& c : probe_copies_) {
          CopyRun(dst + c.dst_offset, base + c.src_offset, c.bytes);
        }
        dst += out_row;
        if (++chunk_used == kChunkRows) {
          dst = sink->AppendUninitialized(kChunkRows);
          chunk_used = 0;
        }
      }
    }
    sink->TruncateRows(kChunkRows - chunk_used);
    return;
  }
  if (scratch->staging == nullptr) {
    scratch->staging = RowVector::Make(out_schema_);
    scratch->staging->AppendRow();
  }
  for (size_t i = 0; i < n; ++i, base += stride) {
    uint32_t e = match_scratch_[i];
    if (type_ == JoinType::kInner) {
      if (i + 4 < n && match_scratch_[i + 4] != JoinHashTable::kNone) {
        __builtin_prefetch(
            build_rows_->row(table_.RowOf(match_scratch_[i + 4])).data(), 0);
      }
      for (; e != JoinHashTable::kNone; e = table_.NextMatch(e)) {
        EmitInnerInto(e, base, scratch->staging.get(), sink);
        if (out_idx != nullptr) {
          out_idx->push_back(global_idx != nullptr
                                 ? global_idx[i]
                                 : static_cast<uint32_t>(i));
        }
      }
    } else {
      bool matched = e != JoinHashTable::kNone;
      if ((type_ == JoinType::kSemi) == matched) {
        sink->AppendRaw(base);
        if (out_idx != nullptr) {
          out_idx->push_back(global_idx != nullptr
                                 ? global_idx[i]
                                 : static_cast<uint32_t>(i));
        }
      }
    }
  }
}

// -- Grace-style spill path (docs/DESIGN-memory.md) -------------------------

Status BuildProbe::GraceSpillJoin() {
  // The result is emitted like a probed batch: sinks_ ends up holding the
  // one merged output vector, and there is no probe stream left to pull.
  probe_done_ = true;
  const size_t mem_limit = ctx_->options.memory_limit_bytes;
  const size_t quota = SpillQuotaBytes(mem_limit);
  const uint32_t stride_b = build_schema_.row_size();
  const uint32_t stride_p = probe_schema_.row_size();
  MODULARIS_ASSIGN_OR_RETURN(
      auto spill,
      storage::AdmitSpill(ctx_, "BuildProbe", "join",
                          std::max(stride_b, stride_p),
                          "build side of " +
                              std::to_string(build_rows_->byte_size()) +
                              " bytes exceeds"));
  constexpr int kFanout = 256;
  constexpr int kPidShift = 56;

  // Grace co-partitions both inputs, so drain the probe side up front.
  RowVectorPtr probe = RowVector::Make(probe_schema_);
  MODULARIS_RETURN_NOT_OK(DrainRecordStream(child(1), &probe));
  const size_t n_p = probe->size();
  mem_charge_.Add(probe->byte_size());
  const size_t n_b = build_rows_->size();

  // Both sides' partition ids come from the same hash of the same
  // (shifted) key, so a key's build and probe rows meet in one pid. The
  // split below is a pure function of (limit, histogram): byte-equal at
  // any thread count.
  key_scratch_.resize(n_b);
  ExtractShiftedKeys(build_rows_->data(), n_b, build_schema_, build_key_col_,
                     key_shift_, key_scratch_.data());
  std::vector<uint8_t> pid_b(n_b);
  std::vector<size_t> rows_b(kFanout, 0);
  for (size_t i = 0; i < n_b; ++i) {
    pid_b[i] = static_cast<uint8_t>(
        MixHash64(static_cast<uint64_t>(key_scratch_[i])) >> kPidShift);
    ++rows_b[pid_b[i]];
  }
  std::vector<int64_t> probe_keys(n_p);
  std::vector<uint8_t> pid_p(n_p);
  std::vector<size_t> rows_p(kFanout, 0);
  if (n_p > 0) {
    ExtractShiftedKeys(probe->data(), n_p, probe_schema_, probe_key_col_,
                       key_shift_, probe_keys.data());
    for (size_t i = 0; i < n_p; ++i) {
      pid_p[i] = static_cast<uint8_t>(
          MixHash64(static_cast<uint64_t>(probe_keys[i])) >> kPidShift);
      ++rows_p[pid_p[i]];
    }
  }
  std::vector<int64_t>().swap(probe_keys);

  // Hybrid build side: the greedy ascending-pid prefix stays resident
  // while it fits half the budget; the rest spills.
  std::vector<uint8_t> in_mem(kFanout, 0);
  size_t kept_bytes = 0;
  int64_t spilled_parts = 0;
  for (int p = 0; p < kFanout; ++p) {
    if (rows_b[p] == 0 && rows_p[p] == 0) continue;
    const size_t bytes_p = rows_b[p] * stride_b;
    if (kept_bytes + bytes_p <= mem_limit / 2) {
      in_mem[p] = 1;
      kept_bytes += bytes_p;
    } else {
      ++spilled_parts;
    }
  }

  // Scatter both sides in input order — every partition holds its rows
  // in ascending global order. Chunks are sized so that the resident
  // staging of all partitions stays near the quota.
  const int pass_b = spill->NewPass();
  const int pass_p = spill->NewPass();
  std::vector<RowVectorPtr> mem_b(kFanout);
  {
    storage::SpillWriter writer(
        spill.get(), pass_b, build_schema_,
        std::max<size_t>(1, quota / (static_cast<size_t>(stride_b) * kFanout)));
    for (size_t i = 0; i < n_b; ++i) {
      const int p = pid_b[i];
      const uint8_t* row = build_rows_->data() + i * stride_b;
      if (!in_mem[p]) {
        MODULARIS_RETURN_NOT_OK(writer.Add(p, row, static_cast<uint32_t>(i)));
        continue;
      }
      if (mem_b[p] == nullptr) {
        mem_b[p] = RowVector::Make(build_schema_);
        mem_b[p]->Reserve(rows_b[p]);
      }
      mem_b[p]->AppendRaw(row);
    }
    MODULARIS_RETURN_NOT_OK(writer.Flush());
  }
  build_rows_ = RowVector::Make(build_schema_);  // release the build side
  std::vector<uint8_t>().swap(pid_b);
  {
    storage::SpillWriter writer(
        spill.get(), pass_p, probe_schema_,
        std::max<size_t>(1, quota / (static_cast<size_t>(stride_p) * kFanout)));
    for (size_t i = 0; i < n_p; ++i) {
      MODULARIS_RETURN_NOT_OK(writer.Add(pid_p[i], probe->data() + i * stride_p,
                                         static_cast<uint32_t>(i)));
    }
    MODULARIS_RETURN_NOT_OK(writer.Flush());
  }
  probe.reset();
  std::vector<uint8_t>().swap(pid_p);
  AddStatCounter("spill.partitions", spilled_parts);
  AddStatCounter("spill.passes", 1);

  // Join one partition at a time. A build partition over the quota is
  // processed in quota-sized chunked groups, DESCENDING: a probe row's
  // duplicate matches must emit in descending global build-row order
  // (the in-memory table's chain order), and every row of group k
  // globally follows every row of group k-1. A partition without build
  // rows is one empty group (anti joins emit every probe row).
  const size_t group_rows = std::max<size_t>(1, quota / stride_b);
  ProbeScratch scratch;
  std::vector<RowRun> part_runs;
  RowVectorPtr pchunk = RowVector::Make(probe_schema_);
  std::vector<uint32_t> pidx;
  for (int p = 0; p < kFanout; ++p) {
    if (ctx_->cancel != nullptr) {
      MODULARIS_RETURN_NOT_OK(ctx_->cancel->Check());
    }
    if (rows_p[p] == 0) {
      spill->DeletePartition(pass_b, p);
      continue;
    }
    const size_t nb = rows_b[p];
    const size_t ngroups =
        in_mem[p] ? 1 : std::max<size_t>(1, (nb + group_rows - 1) / group_rows);
    const int pchunks = spill->NumChunks(pass_p, p);
    // Loads group g (partition build rows [g·group_rows, …)) into
    // build_rows_ and builds the group's table over it.
    auto load_group = [&](size_t g) -> Status {
      if (mem_b[p] != nullptr) {
        build_rows_ = mem_b[p];
      } else {
        const size_t lo = g * group_rows;
        const size_t hi = std::min(nb, lo + group_rows);
        build_rows_ = RowVector::Make(build_schema_);
        build_rows_->Reserve(hi - lo);
        const int bchunks = spill->NumChunks(pass_b, p);
        RowVectorPtr bchunk = RowVector::Make(build_schema_);
        size_t off = 0;
        for (int c = 0; c < bchunks && off < hi; ++c) {
          bchunk->Clear();
          MODULARIS_RETURN_NOT_OK(
              spill->ReadChunk(pass_b, p, c, bchunk.get(), nullptr));
          const size_t m = bchunk->size();
          const size_t s = std::max(lo, off);
          const size_t e = std::min(hi, off + m);
          if (s < e) {
            build_rows_->AppendRawBatch(bchunk->data() + (s - off) * stride_b,
                                        e - s);
          }
          off += m;
        }
      }
      HashBuildRows(1);
      return Status::OK();
    };
    if (type_ != JoinType::kInner && ngroups > 1) {
      // Semi/anti across chunked groups: a probe row's verdict needs
      // every group, so mark matches into a partition-local bitmap
      // first, then emit in a second pass over the probe chunks.
      std::vector<uint8_t> matched(rows_p[p], 0);
      for (size_t g = 0; g < ngroups; ++g) {
        MODULARIS_RETURN_NOT_OK(load_group(g));
        size_t local = 0;
        for (int c = 0; c < pchunks; ++c) {
          pchunk->Clear();
          MODULARIS_RETURN_NOT_OK(
              spill->ReadChunk(pass_p, p, c, pchunk.get(), nullptr));
          const size_t m = pchunk->size();
          scratch.keys.resize(m);
          scratch.matches.resize(m);
          ExtractShiftedKeys(pchunk->data(), m, probe_schema_, probe_key_col_,
                             key_shift_, scratch.keys.data());
          table_.FindBatch(scratch.keys.data(), m, scratch.matches.data());
          for (size_t i = 0; i < m; ++i) {
            if (scratch.matches[i] != JoinHashTable::kNone) {
              matched[local + i] = 1;
            }
          }
          local += m;
        }
      }
      RowRun run{RowVector::Make(out_schema_), {}};
      size_t local = 0;
      for (int c = 0; c < pchunks; ++c) {
        pchunk->Clear();
        pidx.clear();
        MODULARIS_RETURN_NOT_OK(
            spill->ReadChunk(pass_p, p, c, pchunk.get(), &pidx));
        for (size_t i = 0; i < pchunk->size(); ++i) {
          const bool m = matched[local + i] != 0;
          if ((type_ == JoinType::kSemi) == m) {
            run.rows->AppendRaw(pchunk->data() + i * stride_p);
            run.idx.push_back(pidx[i]);
          }
        }
        local += pchunk->size();
      }
      spill->DeletePartition(pass_b, p);
      spill->DeletePartition(pass_p, p);
      if (!run.idx.empty()) part_runs.push_back(std::move(run));
      continue;
    }
    std::vector<RowRun> group_runs;
    for (size_t g = ngroups; g-- > 0;) {
      MODULARIS_RETURN_NOT_OK(load_group(g));
      group_runs.push_back(RowRun{RowVector::Make(out_schema_), {}});
      for (int c = 0; c < pchunks; ++c) {
        pchunk->Clear();
        pidx.clear();
        MODULARIS_RETURN_NOT_OK(
            spill->ReadChunk(pass_p, p, c, pchunk.get(), &pidx));
        ProbeSpanInto(pchunk->data(), pchunk->size(), &scratch,
                      group_runs.back().rows.get(), pidx.data(),
                      &group_runs.back().idx);
      }
    }
    spill->DeletePartition(pass_b, p);
    spill->DeletePartition(pass_p, p);
    mem_b[p].reset();
    if (group_runs.size() == 1) {
      if (!group_runs[0].idx.empty()) {
        part_runs.push_back(std::move(group_runs[0]));
      }
      continue;
    }
    RowRun merged{RowVector::Make(out_schema_), {}};
    MergeRowRuns(group_runs, merged.rows.get(), &merged.idx);
    if (!merged.idx.empty()) part_runs.push_back(std::move(merged));
  }

  // Partition probe-index ranges interleave but never collide (a probe
  // row lives in exactly one partition), so the K-way merge restores
  // the global probe order — the in-memory emission order.
  RowVectorPtr merged = RowVector::Make(out_schema_);
  MergeRowRuns(part_runs, merged.get(), nullptr);
  mem_charge_.Add(merged->byte_size());
  sinks_.push_back(std::move(merged));
  build_rows_ = RowVector::Make(build_schema_);
  table_ = JoinHashTable();
  return Status::OK();
}

bool BuildProbe::NextBatch(RowBatch* out) {
  out->Clear();
  Status st = FillSinks();
  if (!st.ok()) return Fail(st);
  if (sink_ == sinks_.size()) return false;
  const size_t rows = sinks_[sink_]->size() - row_;
  out->BorrowRange(std::move(sinks_[sink_]), row_, rows);
  out->MarkReleased();  // every probe range fills a fresh sink
  ++sink_;
  row_ = 0;
  return true;
}

bool BuildProbe::Next(Tuple* out) {
  Status st = FillSinks();
  if (!st.ok()) return Fail(st);
  if (sink_ == sinks_.size()) return false;
  out->clear();
  out->push_back(Item(sinks_[sink_]->row(row_++)));
  return true;
}

}  // namespace modularis
