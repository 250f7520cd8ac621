#include "suboperators/agg_ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <queue>

#include "storage/spill.h"
#include "suboperators/partition_ops.h"
#include "suboperators/radix.h"

namespace modularis {

// ---------------------------------------------------------------------------
// I64StateMap
// ---------------------------------------------------------------------------

void I64StateMap::Clear() {
  keys_.clear();
  vals_.clear();
  used_.clear();
  mask_ = 0;
  size_ = 0;
  rehashes_ = 0;
}

void I64StateMap::Rehash(size_t cap) {
  if (size_ > 0) ++rehashes_;  // live entries move: a real mid-use rehash
  std::vector<int64_t> old_keys = std::move(keys_);
  std::vector<uint32_t> old_vals = std::move(vals_);
  std::vector<uint8_t> old_used = std::move(used_);
  keys_.assign(cap, 0);
  vals_.assign(cap, 0);
  used_.assign(cap, 0);
  mask_ = cap - 1;
  for (size_t i = 0; i < old_keys.size(); ++i) {
    if (!old_used[i]) continue;
    size_t slot = MixHash64(static_cast<uint64_t>(old_keys[i])) & mask_;
    while (used_[slot]) slot = (slot + 1) & mask_;
    keys_[slot] = old_keys[i];
    vals_[slot] = old_vals[i];
    used_[slot] = 1;
  }
}

void I64StateMap::Grow() {
  Rehash(keys_.empty() ? 1024 : keys_.size() * 2);
}

void I64StateMap::Reserve(size_t keys) {
  size_t cap = 1024;
  while (keys * 10 >= cap * 7) cap *= 2;
  if (cap > keys_.size()) Rehash(cap);
}

uint32_t I64StateMap::FindOrInsert(int64_t key, bool* inserted) {
  if (keys_.empty() || size_ * 10 >= keys_.size() * 7) Grow();
  size_t slot = MixHash64(static_cast<uint64_t>(key)) & mask_;
  while (used_[slot]) {
    if (keys_[slot] == key) {
      *inserted = false;
      return vals_[slot];
    }
    slot = (slot + 1) & mask_;
  }
  keys_[slot] = key;
  vals_[slot] = static_cast<uint32_t>(size_);
  used_[slot] = 1;
  *inserted = true;
  return static_cast<uint32_t>(size_++);
}

// ---------------------------------------------------------------------------
// ByteStateTable
// ---------------------------------------------------------------------------

void ByteStateTable::Clear() {
  slots_.clear();
  arena_.clear();
  mask_ = 0;
  size_ = 0;
  rehashes_ = 0;
}

const uint8_t* ByteStateTable::SlotKey(const Slot& s) const {
  if (s.len_plus1 - 1 <= kInlineBytes) return s.key;
  uint64_t off;
  std::memcpy(&off, s.key, sizeof(off));
  return arena_.data() + off;
}

void ByteStateTable::Rehash(size_t cap) {
  if (size_ > 0) ++rehashes_;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(cap, Slot{});
  mask_ = cap - 1;
  for (const Slot& s : old) {
    if (s.len_plus1 == 0) continue;
    // Arena offsets are stable, so growth never touches key bytes —
    // slots relocate by their stored hash alone.
    size_t slot = s.hash & mask_;
    while (slots_[slot].len_plus1 != 0) slot = (slot + 1) & mask_;
    slots_[slot] = s;
  }
}

void ByteStateTable::Reserve(size_t keys) {
  size_t cap = 1024;
  while (keys * 10 >= cap * 7) cap *= 2;
  if (cap > slots_.size()) Rehash(cap);
}

uint32_t ByteStateTable::FindOrInsert(const uint8_t* key, uint32_t len,
                                      uint64_t hash, bool* inserted) {
  if (slots_.empty() || size_ * 10 >= slots_.size() * 7) {
    Rehash(slots_.empty() ? 1024 : slots_.size() * 2);
  }
  size_t slot = hash & mask_;
  while (slots_[slot].len_plus1 != 0) {
    const Slot& s = slots_[slot];
    if (s.hash == hash && s.len_plus1 == len + 1 &&
        std::memcmp(SlotKey(s), key, len) == 0) {
      *inserted = false;
      return s.val;
    }
    slot = (slot + 1) & mask_;
  }
  Slot& s = slots_[slot];
  s.hash = hash;
  s.val = static_cast<uint32_t>(size_);
  s.len_plus1 = len + 1;
  if (len <= kInlineBytes) {
    std::memcpy(s.key, key, len);
  } else {
    const uint64_t off = arena_.size();
    arena_.insert(arena_.end(), key, key + len);
    std::memcpy(s.key, &off, sizeof(off));
  }
  *inserted = true;
  return static_cast<uint32_t>(size_++);
}

size_t ByteStateTable::byte_size() const {
  return slots_.capacity() * sizeof(Slot) + arena_.capacity();
}

// ---------------------------------------------------------------------------
// ReduceByKey
// ---------------------------------------------------------------------------

Schema ReduceByKey::MakeOutputSchema(const Schema& in,
                                     const std::vector<int>& key_cols,
                                     const std::vector<AggSpec>& aggs) {
  std::vector<Field> fields;
  fields.reserve(key_cols.size() + aggs.size());
  for (int c : key_cols) fields.push_back(in.field(c));
  for (const AggSpec& a : aggs) {
    fields.push_back(Field{a.name, a.out_type, 0});
  }
  return Schema(std::move(fields));
}

Status ReduceByKey::Open(ExecContext* ctx) {
  MODULARIS_RETURN_NOT_OK(SubOperator::Open(ctx));
  states_ = RowVector::Make(out_schema_);
  i64_map_.Clear();
  byte_table_.Clear();
  keyless_partials_.reset();
  keyless_fill_ = 0;
  consumed_ = false;
  emit_pos_ = 0;
  mem_charge_.Bind(ctx->budget);

  single_i64_key_ =
      key_cols_.size() == 1 &&
      (in_schema_.field(key_cols_[0]).type == AtomType::kInt64 ||
       in_schema_.field(key_cols_[0]).type == AtomType::kInt32 ||
       in_schema_.field(key_cols_[0]).type == AtomType::kDate);
  if (!single_i64_key_ && !key_cols_.empty()) {
    codec_ = KeyCodec(in_schema_, key_cols_);
    // Fused serialize+hash program for the chunked byte-key kernels.
    // Byte-identical to SerializeKeys + HashKeysSpan by construction.
    key_prog_ = KeyProgram(in_schema_, key_cols_);
    assert(key_prog_.valid());
  }

  // Compile the update plan: direct offsets when every aggregate input is
  // a bare column (the fused/JIT-analog path).
  slots_.clear();
  compiled_ = ctx->options.enable_fusion;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& a = aggs_[i];
    AggSlot slot;
    slot.kind = a.kind;
    slot.expr = a.input.get();
    slot.dst_offset = out_schema_.offset(key_cols_.size() + i);
    slot.dst_float = a.out_type == AtomType::kFloat64;
    slot.src_col = a.input == nullptr ? -1 : a.input->AsColumnIndex();
    if (slot.src_col >= 0) {
      const Field& f = in_schema_.field(slot.src_col);
      slot.src_offset = in_schema_.offset(slot.src_col);
      slot.src_wide =
          f.type == AtomType::kInt64 || f.type == AtomType::kFloat64;
      slot.src_float = f.type == AtomType::kFloat64;
    } else {
      slot.src_offset = 0;
      slot.src_wide = false;
      slot.src_float = false;
      if (a.input != nullptr) compiled_ = false;
    }
    slots_.push_back(slot);
  }
  return Status::OK();
}

namespace {

inline double LoadNumeric(const uint8_t* row, const void* /*unused*/,
                          uint32_t offset, bool wide, bool is_float) {
  if (is_float) {
    double v;
    std::memcpy(&v, row + offset, sizeof(v));
    return v;
  }
  if (wide) {
    int64_t v;
    std::memcpy(&v, row + offset, sizeof(v));
    return static_cast<double>(v);
  }
  int32_t v;
  std::memcpy(&v, row + offset, sizeof(v));
  return v;
}

inline void StoreNumeric(uint8_t* row, uint32_t offset, bool is_float,
                         double v) {
  if (is_float) {
    std::memcpy(row + offset, &v, sizeof(v));
  } else {
    int64_t i = static_cast<int64_t>(v);
    std::memcpy(row + offset, &i, sizeof(i));
  }
}

inline double LoadState(const uint8_t* row, uint32_t offset, bool is_float) {
  if (is_float) {
    double v;
    std::memcpy(&v, row + offset, sizeof(v));
    return v;
  }
  int64_t i;
  std::memcpy(&i, row + offset, sizeof(i));
  return static_cast<double>(i);
}

}  // namespace

uint32_t ReduceByKey::StateFor(const RowRef& row) {
  bool inserted = false;
  uint32_t state;
  if (single_i64_key_) {
    state = i64_map_.FindOrInsert(KeyAt(row, key_cols_[0]), &inserted);
  } else {
    const uint32_t ks = codec_.key_size();
    key_scratch_.resize(ks);
    codec_.SerializeKey(row, key_scratch_.data());
    state = byte_table_.FindOrInsert(key_scratch_.data(), ks,
                                     HashKeyBytes(key_scratch_.data(), ks),
                                     &inserted);
  }
  if (inserted) InitState(states_.get(), row);
  return state;
}

void ReduceByKey::InitState(RowVector* states, const RowRef& row) const {
  // States are appended densely; the new state index == new row index.
  RowWriter w = states->AppendRow();
  for (size_t i = 0; i < key_cols_.size(); ++i) {
    int c = key_cols_[i];
    int oc = static_cast<int>(i);
    switch (in_schema_.field(c).type) {
      case AtomType::kInt32:
      case AtomType::kDate:
        w.SetInt32(oc, row.GetInt32(c));
        break;
      case AtomType::kInt64:
        w.SetInt64(oc, row.GetInt64(c));
        break;
      case AtomType::kFloat64:
        w.SetFloat64(oc, row.GetFloat64(c));
        break;
      case AtomType::kString:
        w.SetString(oc, row.GetString(c));
        break;
    }
  }
  InitStateAggs(states->mutable_row(states->size() - 1));
}

void ReduceByKey::InitStateAggs(uint8_t* dst) const {
  // Initialize aggregates to their identity; min/max to +/- infinity
  // equivalents so the first update takes effect.
  for (const AggSlot& s : slots_) {
    double init = 0;
    if (s.kind == AggKind::kMin) {
      init = std::numeric_limits<double>::infinity();
    } else if (s.kind == AggKind::kMax) {
      init = -std::numeric_limits<double>::infinity();
    }
    if (s.dst_float) {
      StoreNumeric(dst, s.dst_offset, true, init);
    } else {
      int64_t iv = 0;
      if (s.kind == AggKind::kMin) iv = std::numeric_limits<int64_t>::max();
      if (s.kind == AggKind::kMax) iv = std::numeric_limits<int64_t>::min();
      std::memcpy(dst + s.dst_offset, &iv, sizeof(iv));
    }
  }
}

void ReduceByKey::UpdateState(RowVector* states, uint32_t state,
                              const RowRef& row) {
  UpdateStateRow(states->mutable_row(state), row);
}

void ReduceByKey::UpdateStateRow(uint8_t* dst, const RowRef& row) const {
  for (const AggSlot& s : slots_) {
    double v = 0;
    if (s.kind != AggKind::kCount) {
      if (compiled_ && s.src_col >= 0) {
        v = LoadNumeric(row.data(), nullptr, s.src_offset, s.src_wide,
                        s.src_float);
      } else {
        v = s.expr->Eval(row).AsDouble();
      }
    }
    if (s.dst_float) {
      double cur = LoadState(dst, s.dst_offset, true);
      switch (s.kind) {
        case AggKind::kSum: cur += v; break;
        case AggKind::kCount: cur += 1; break;
        case AggKind::kMin: cur = std::min(cur, v); break;
        case AggKind::kMax: cur = std::max(cur, v); break;
      }
      std::memcpy(dst + s.dst_offset, &cur, sizeof(cur));
    } else {
      int64_t cur;
      std::memcpy(&cur, dst + s.dst_offset, sizeof(cur));
      int64_t iv = static_cast<int64_t>(v);
      switch (s.kind) {
        case AggKind::kSum: cur += iv; break;
        case AggKind::kCount: cur += 1; break;
        case AggKind::kMin: cur = std::min(cur, iv); break;
        case AggKind::kMax: cur = std::max(cur, iv); break;
      }
      std::memcpy(dst + s.dst_offset, &cur, sizeof(cur));
    }
  }
}

void ReduceByKey::Accumulate(const RowRef& row) {
  if (key_cols_.empty()) {
    AccumulateKeylessRow(row);
    return;
  }
  UpdateState(states_.get(), StateFor(row), row);
}

void ReduceByKey::MergeStateRow(uint8_t* dst, const uint8_t* src) const {
  for (const AggSlot& s : slots_) {
    if (s.dst_float) {
      double a = LoadState(dst, s.dst_offset, true);
      double b = LoadState(src, s.dst_offset, true);
      switch (s.kind) {
        case AggKind::kSum:
        case AggKind::kCount: a += b; break;
        case AggKind::kMin: a = std::min(a, b); break;
        case AggKind::kMax: a = std::max(a, b); break;
      }
      std::memcpy(dst + s.dst_offset, &a, sizeof(a));
    } else {
      int64_t a, b;
      std::memcpy(&a, dst + s.dst_offset, sizeof(a));
      std::memcpy(&b, src + s.dst_offset, sizeof(b));
      switch (s.kind) {
        case AggKind::kSum:
        case AggKind::kCount: a += b; break;
        case AggKind::kMin: a = std::min(a, b); break;
        case AggKind::kMax: a = std::max(a, b); break;
      }
      std::memcpy(dst + s.dst_offset, &a, sizeof(a));
    }
  }
}

void ReduceByKey::AggregatePartition(
    const uint8_t* rows, size_t n, const Schema& schema, const uint32_t* idx,
    RowVector* states, std::vector<uint32_t>* first, I64StateMap* map,
    ByteStateTable* table, std::vector<uint8_t>* key_scratch,
    std::vector<uint64_t>* hash_scratch, bool reset_tables) const {
  // The partition's row count is a hard upper bound on its distinct keys,
  // so reserving it guarantees zero mid-aggregation rehashes — but on a
  // duplicate-heavy skewed partition (all rows of a hot key in one
  // place) it would also allocate O(rows) slots for a handful of groups.
  // Cap the up-front reservation; a partition with more rows than the
  // cap falls back to (deterministic — table internals never affect the
  // output) geometric growth only if it really holds that many groups.
  constexpr size_t kMaxReserveKeys = size_t{1} << 20;
  const size_t reserve = std::min(n, kMaxReserveKeys);
  const uint32_t stride = schema.row_size();
  if (single_i64_key_) {
    if (reset_tables) {
      map->Clear();
      map->Reserve(reserve);
    }
    const uint8_t* p = rows;
    for (size_t j = 0; j < n; ++j, p += stride) {
      RowRef row(p, &schema);
      bool inserted = false;
      uint32_t state = map->FindOrInsert(KeyAt(row, key_cols_[0]), &inserted);
      if (inserted) {
        InitState(states, row);
        first->push_back(idx[j]);
      }
      UpdateStateRow(states->mutable_row(state), row);
    }
    return;
  }
  if (reset_tables) {
    table->Clear();
    table->Reserve(reserve);
  }
  const uint32_t ks = codec_.key_size();
  key_scratch->resize(kKeyChunkRows * ks);
  hash_scratch->resize(kKeyChunkRows);
  RowSpan span{rows, stride, &schema};
  for (size_t base = 0; base < n; base += kKeyChunkRows) {
    const size_t m = std::min(n - base, kKeyChunkRows);
    key_prog_.SerializeAndHash(span, base, m, key_scratch->data(),
                               hash_scratch->data());
    for (size_t i = 0; i < m; ++i) {
      bool inserted = false;
      uint32_t state = table->FindOrInsert(key_scratch->data() + i * ks, ks,
                                           (*hash_scratch)[i], &inserted);
      RowRef row(rows + (base + i) * stride, &schema);
      if (inserted) {
        InitState(states, row);
        first->push_back(idx[base + i]);
      }
      UpdateStateRow(states->mutable_row(state), row);
    }
  }
}

Status ReduceByKey::ConsumeAllParallel(const RowVectorPtr& input,
                                       int workers) {
  const size_t n = input->size();
  const Schema& schema = input->schema();
  const uint32_t stride = input->row_size();
  constexpr int kFanout = 1 << kPartitionBits;
  constexpr int kPidShift = 64 - kPartitionBits;

  // Phase 1: per-row partition ids over static contiguous ranges. The id
  // is a pure function of the group key (hash HIGH bits; the state
  // tables use the low bits), so the assignment never depends on the
  // worker count.
  std::vector<uint8_t> pids(n);
  std::vector<size_t> bounds = SplitRows(n, workers);
  std::vector<std::vector<int64_t>> wcounts(
      workers, std::vector<int64_t>(kFanout, 0));
  MODULARIS_RETURN_NOT_OK(ParallelFor(ctx_, workers, [&](int w) -> Status {
    int64_t* counts = wcounts[w].data();
    if (single_i64_key_) {
      const uint8_t* p = input->data() + bounds[w] * stride;
      for (size_t i = bounds[w]; i < bounds[w + 1]; ++i, p += stride) {
        const uint64_t key =
            static_cast<uint64_t>(KeyAt(RowRef(p, &schema), key_cols_[0]));
        const uint8_t pid = static_cast<uint8_t>(MixHash64(key) >> kPidShift);
        pids[i] = pid;
        ++counts[pid];
      }
    } else {
      const uint32_t ks = codec_.key_size();
      std::vector<uint8_t> keys(kKeyChunkRows * ks);
      std::vector<uint64_t> hashes(kKeyChunkRows);
      RowSpan span{input->data(), stride, &schema};
      for (size_t base = bounds[w]; base < bounds[w + 1];
           base += kKeyChunkRows) {
        const size_t m = std::min(bounds[w + 1] - base, kKeyChunkRows);
        key_prog_.SerializeAndHash(span, base, m, keys.data(), hashes.data());
        for (size_t i = 0; i < m; ++i) {
          const uint8_t pid = static_cast<uint8_t>(hashes[i] >> kPidShift);
          pids[base + i] = pid;
          ++counts[pid];
        }
      }
    }
    return Status::OK();
  }));

  // Phase 2: prefix offsets + write-combining scatter into one flat
  // pre-sized buffer (rows and their original indices side by side).
  // Static ranges at prefix offsets replay the input order, so every
  // partition holds its rows in ascending original order — the property
  // that makes per-group float SUM accumulate exactly like one thread.
  std::vector<size_t> prefix(kFanout + 1, 0);
  for (int p = 0; p < kFanout; ++p) {
    int64_t total = 0;
    for (int w = 0; w < workers; ++w) total += wcounts[w][p];
    prefix[p + 1] = prefix[p] + static_cast<size_t>(total);
  }
  std::vector<std::vector<size_t>> offsets(workers,
                                           std::vector<size_t>(kFanout, 0));
  for (int p = 0; p < kFanout; ++p) {
    size_t off = prefix[p];
    for (int w = 0; w < workers; ++w) {
      offsets[w][p] = off;
      off += static_cast<size_t>(wcounts[w][p]);
    }
  }
  RowVectorPtr scat = RowVector::Make(schema);
  scat->ResizeRowsUninitialized(n);
  std::vector<uint32_t> idx(n);
  MODULARIS_RETURN_NOT_OK(ParallelFor(ctx_, workers, [&](int w) -> Status {
    ScatterSpanByPidWc(input->data() + bounds[w] * stride,
                       bounds[w + 1] - bounds[w], stride,
                       pids.data() + bounds[w], kFanout, bounds[w],
                       scat->mutable_data(), idx.data(), &offsets[w]);
    return Status::OK();
  }));

  // Phase 3: partition-owned aggregation. Each partition is claimed by
  // exactly one worker (dynamic claiming — ownership is exclusive, so
  // the schedule costs no determinism) and aggregated in its original
  // row order with zero cross-thread merging. Tables are reserved from
  // the partition's row count, so aggregation never rehashes.
  std::vector<RowVectorPtr> part_states(kFanout);
  std::vector<std::vector<uint32_t>> part_first(kFanout);
  std::vector<int64_t> wrehash(workers, 0);
  MorselCursor cursor(kFanout, 1, ctx_->cancel);
  MODULARIS_RETURN_NOT_OK(ParallelFor(ctx_, workers, [&](int w) -> Status {
    I64StateMap map;
    ByteStateTable table;
    std::vector<uint8_t> keys;
    std::vector<uint64_t> hashes;
    size_t begin = 0, count = 0;
    while (cursor.Claim(&begin, &count)) {
      for (size_t p = begin; p < begin + count; ++p) {
        const size_t rows_p = prefix[p + 1] - prefix[p];
        if (rows_p == 0) continue;
        RowVectorPtr states = RowVector::Make(out_schema_);
        AggregatePartition(scat->data() + prefix[p] * stride, rows_p, schema,
                           idx.data() + prefix[p], states.get(),
                           &part_first[p], &map, &table, &keys, &hashes);
        wrehash[w] += single_i64_key_ ? map.rehashes() : table.rehashes();
        part_states[p] = std::move(states);
      }
    }
    return Status::OK();
  }));

  // Phase 4: emit groups in global first-occurrence order. Each
  // partition discovers its groups in ascending first-occurrence index
  // (its rows are in original order), so a K-way merge over the
  // per-partition runs replays the serial emission order exactly.
  size_t total_groups = 0;
  for (int p = 0; p < kFanout; ++p) total_groups += part_first[p].size();
  states_->Reserve(total_groups);
  using Head = std::pair<uint32_t, uint32_t>;  // (first index, partition)
  std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heap;
  std::vector<uint32_t> pos(kFanout, 0);
  int used_partitions = 0;
  for (int p = 0; p < kFanout; ++p) {
    if (!part_first[p].empty()) {
      heap.emplace(part_first[p][0], static_cast<uint32_t>(p));
      ++used_partitions;
    }
  }
  while (!heap.empty()) {
    const uint32_t p = heap.top().second;
    heap.pop();
    states_->AppendRaw(part_states[p]->row(pos[p]).data());
    if (++pos[p] < part_first[p].size()) {
      heap.emplace(part_first[p][pos[p]], p);
    }
  }
  int64_t rehashes = 0;
  for (int w = 0; w < workers; ++w) rehashes += wrehash[w];
  AddStatCounter("reduce.rehash", rehashes);
  AddStatCounter("parallel.reduce.partitions", used_partitions);
  return Status::OK();
}

// -- Grace-style spill path (docs/DESIGN-memory.md) -------------------------

void ReduceByKey::ComputeKeyHashes(const uint8_t* rows, size_t n,
                                   const Schema& schema,
                                   std::vector<uint64_t>* hashes) const {
  hashes->resize(n);
  const uint32_t stride = schema.row_size();
  if (single_i64_key_) {
    const uint8_t* p = rows;
    for (size_t i = 0; i < n; ++i, p += stride) {
      (*hashes)[i] = MixHash64(
          static_cast<uint64_t>(KeyAt(RowRef(p, &schema), key_cols_[0])));
    }
    return;
  }
  const uint32_t ks = codec_.key_size();
  std::vector<uint8_t> keys(kKeyChunkRows * ks);
  RowSpan span{rows, stride, &schema};
  for (size_t base = 0; base < n; base += kKeyChunkRows) {
    const size_t m = std::min(n - base, kKeyChunkRows);
    key_prog_.SerializeAndHash(span, base, m, keys.data(),
                               hashes->data() + base);
  }
}

void ReduceByKey::MergeAggRuns(std::vector<AggRun>* runs, RowVector* states,
                               std::vector<uint32_t>* first_out) const {
  using Head = std::pair<uint32_t, uint32_t>;  // (first index, run)
  std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heap;
  std::vector<uint32_t> pos(runs->size(), 0);
  size_t total = 0;
  for (size_t r = 0; r < runs->size(); ++r) {
    total += (*runs)[r].first.size();
    if (!(*runs)[r].first.empty()) {
      heap.emplace((*runs)[r].first[0], static_cast<uint32_t>(r));
    }
  }
  states->Reserve(states->size() + total);
  if (first_out != nullptr) first_out->reserve(first_out->size() + total);
  while (!heap.empty()) {
    const auto [fi, r] = heap.top();
    heap.pop();
    states->AppendRaw((*runs)[r].states->row(pos[r]).data());
    if (first_out != nullptr) first_out->push_back(fi);
    if (++pos[r] < (*runs)[r].first.size()) {
      heap.emplace((*runs)[r].first[pos[r]], r);
    }
  }
}

Status ReduceByKey::ConsumeAllSpill(RowVectorPtr input) {
  const size_t mem_limit = ctx_->options.memory_limit_bytes;
  const size_t quota = SpillQuotaBytes(mem_limit);
  const Schema& schema = input->schema();
  const uint32_t stride = input->row_size();
  const size_t n = input->size();
  // Denied the in-memory path — counted whether the spill fallback is
  // viable (graceful degradation) or not (fail fast below).
  if (ctx_->budget != nullptr) ctx_->budget->NoteDenial();
  if (quota < stride) {
    return Status::ResourceExhausted(
        "ReduceByKey: memory_limit_bytes=" + std::to_string(mem_limit) +
        " cannot hold one " + std::to_string(stride) +
        "-byte row in the spill quota (" + std::to_string(quota) + " bytes)");
  }
  if (ctx_->spill_store == nullptr) {
    return Status::ResourceExhausted(
        "ReduceByKey: drained input of " + std::to_string(input->byte_size()) +
        " bytes exceeds memory_limit_bytes=" + std::to_string(mem_limit) +
        " and no spill store is configured");
  }
  AddStatCounter("spill.ops.ReduceByKey", 1);
  storage::SpillSet spill(ctx_, "reduce");
  constexpr int kFanout = 1 << kPartitionBits;
  constexpr int kPidShift = 64 - kPartitionBits;

  // Histogram over the first hash window. The keep/spill split below is
  // a pure function of (limit, histogram) — never of the thread count or
  // the live memory counter — so the output stays byte-equal to the
  // in-memory paths.
  std::vector<uint64_t> hashes;
  ComputeKeyHashes(input->data(), n, schema, &hashes);
  std::vector<size_t> part_rows(kFanout, 0);
  for (size_t i = 0; i < n; ++i) ++part_rows[hashes[i] >> kPidShift];

  // Hybrid rule: the greedy ascending-pid prefix stays in memory while it
  // fits half the budget; everything else streams to the store.
  std::vector<uint8_t> in_mem(kFanout, 0);
  size_t kept_bytes = 0;
  int64_t spilled_parts = 0;
  for (int p = 0; p < kFanout; ++p) {
    const size_t bytes_p = part_rows[p] * stride;
    if (bytes_p == 0) continue;
    if (kept_bytes + bytes_p <= mem_limit / 2) {
      in_mem[p] = 1;
      kept_bytes += bytes_p;
    } else {
      ++spilled_parts;
    }
  }

  // Serial scatter in input order: every partition holds its rows in
  // ascending global order whether it stays resident or streams out in
  // chunks, so per-group float SUM accumulates exactly like one thread.
  const int pass0 = spill.NewPass();
  const size_t chunk_rows =
      std::max<size_t>(1, quota / (static_cast<size_t>(stride) * kFanout));
  std::vector<RowVectorPtr> mem_parts(kFanout);
  std::vector<std::vector<uint32_t>> mem_idx(kFanout);
  std::vector<RowVectorPtr> stage(kFanout);
  std::vector<std::vector<uint32_t>> stage_idx(kFanout);
  for (size_t i = 0; i < n; ++i) {
    const int p = static_cast<int>(hashes[i] >> kPidShift);
    if (in_mem[p]) {
      if (mem_parts[p] == nullptr) {
        mem_parts[p] = RowVector::Make(schema);
        mem_parts[p]->Reserve(part_rows[p]);
        mem_idx[p].reserve(part_rows[p]);
      }
      mem_parts[p]->AppendRaw(input->data() + i * stride);
      mem_idx[p].push_back(static_cast<uint32_t>(i));
      continue;
    }
    if (stage[p] == nullptr) stage[p] = RowVector::Make(schema);
    stage[p]->AppendRaw(input->data() + i * stride);
    stage_idx[p].push_back(static_cast<uint32_t>(i));
    if (stage[p]->size() >= chunk_rows) {
      MODULARIS_RETURN_NOT_OK(spill.WriteChunk(pass0, p, stage[p]->data(),
                                               stage[p]->size(), stride,
                                               stage_idx[p].data()));
      stage[p]->Clear();
      stage_idx[p].clear();
    }
  }
  for (int p = 0; p < kFanout; ++p) {
    if (stage[p] != nullptr && !stage[p]->empty()) {
      MODULARIS_RETURN_NOT_OK(spill.WriteChunk(pass0, p, stage[p]->data(),
                                               stage[p]->size(), stride,
                                               stage_idx[p].data()));
    }
  }
  stage.clear();
  stage_idx.clear();
  AddStatCounter("spill.partitions", spilled_parts);
  AddStatCounter("spill.passes", 1);
  std::vector<uint64_t>().swap(hashes);
  input.reset();  // drop our reference to the drained input

  // Aggregate partitions in ascending pid order; each yields one group
  // run ascending by global first-occurrence index.
  SpillScratch scratch;
  std::vector<AggRun> runs;
  for (int p = 0; p < kFanout; ++p) {
    if (part_rows[p] == 0) continue;
    AggRun run;
    run.states = RowVector::Make(out_schema_);
    if (in_mem[p]) {
      AggregatePartition(mem_parts[p]->data(), mem_parts[p]->size(), schema,
                         mem_idx[p].data(), run.states.get(), &run.first,
                         &scratch.map, &scratch.table, &scratch.keys,
                         &scratch.hashes);
      mem_parts[p].reset();
      std::vector<uint32_t>().swap(mem_idx[p]);
    } else {
      MODULARIS_RETURN_NOT_OK(AggregateSpilledPartition(
          &spill, pass0, p, kPidShift, part_rows[p], schema, &run, &scratch));
    }
    runs.push_back(std::move(run));
  }

  // The phase-4 merge over the partition runs: groups emit in global
  // first-occurrence order, exactly like the in-memory paths.
  MergeAggRuns(&runs, states_.get(), nullptr);
  return Status::OK();
}

Status ReduceByKey::AggregateSpilledPartition(storage::SpillSet* spill,
                                              int pass, int pid, int shift,
                                              size_t part_rows,
                                              const Schema& schema,
                                              AggRun* out,
                                              SpillScratch* scratch) {
  if (ctx_->cancel != nullptr) MODULARIS_RETURN_NOT_OK(ctx_->cancel->Check());
  const size_t quota = SpillQuotaBytes(ctx_->options.memory_limit_bytes);
  const uint32_t stride = schema.row_size();
  constexpr int kFanout = 1 << kPartitionBits;

  if (part_rows * stride <= quota) {
    // Fits the quota: read the partition back whole (chunks concatenate
    // in global input order) and aggregate it in one shot.
    RowVectorPtr part = RowVector::Make(schema);
    part->Reserve(part_rows);
    std::vector<uint32_t> idx;
    idx.reserve(part_rows);
    MODULARIS_RETURN_NOT_OK(spill->ReadPartition(pass, pid, part.get(), &idx));
    AggregatePartition(part->data(), part->size(), schema, idx.data(),
                       out->states.get(), &out->first, &scratch->map,
                       &scratch->table, &scratch->keys, &scratch->hashes);
    spill->DeletePartition(pass, pid);
    return Status::OK();
  }

  if (shift < kPartitionBits) {
    // Hash exhausted: a partition every window maps to one id (a single
    // hot key, practically). Stream the chunks through one accumulating
    // table — its states are bounded by the partition's distinct keys,
    // which is the operator's own irreducible output.
    const int chunks = spill->NumChunks(pass, pid);
    RowVectorPtr chunk = RowVector::Make(schema);
    std::vector<uint32_t> idx;
    bool reset = true;
    for (int c = 0; c < chunks; ++c) {
      chunk->Clear();
      idx.clear();
      MODULARIS_RETURN_NOT_OK(
          spill->ReadChunk(pass, pid, c, chunk.get(), &idx));
      AggregatePartition(chunk->data(), chunk->size(), schema, idx.data(),
                         out->states.get(), &out->first, &scratch->map,
                         &scratch->table, &scratch->keys, &scratch->hashes,
                         /*reset_tables=*/reset);
      reset = false;
    }
    spill->DeletePartition(pass, pid);
    return Status::OK();
  }

  // Recursive pass: re-scatter by the next 8-bit hash window into a
  // fresh pass namespace, aggregate the sub-partitions ascending, and
  // merge their runs (each ascending by first index) into this
  // partition's run.
  const int sub_shift = shift - kPartitionBits;
  const int sub_pass = spill->NewPass();
  AddStatCounter("spill.passes", 1);
  const size_t chunk_rows =
      std::max<size_t>(1, quota / (static_cast<size_t>(stride) * kFanout));
  std::vector<size_t> sub_rows(kFanout, 0);
  {
    const int chunks = spill->NumChunks(pass, pid);
    RowVectorPtr chunk = RowVector::Make(schema);
    std::vector<uint32_t> idx;
    std::vector<uint64_t> hashes;
    std::vector<RowVectorPtr> stage(kFanout);
    std::vector<std::vector<uint32_t>> stage_idx(kFanout);
    for (int c = 0; c < chunks; ++c) {
      chunk->Clear();
      idx.clear();
      MODULARIS_RETURN_NOT_OK(
          spill->ReadChunk(pass, pid, c, chunk.get(), &idx));
      ComputeKeyHashes(chunk->data(), chunk->size(), schema, &hashes);
      for (size_t i = 0; i < chunk->size(); ++i) {
        const int sp =
            static_cast<int>((hashes[i] >> sub_shift) & (kFanout - 1));
        ++sub_rows[sp];
        if (stage[sp] == nullptr) stage[sp] = RowVector::Make(schema);
        stage[sp]->AppendRaw(chunk->data() + i * stride);
        stage_idx[sp].push_back(idx[i]);
        if (stage[sp]->size() >= chunk_rows) {
          MODULARIS_RETURN_NOT_OK(spill->WriteChunk(
              sub_pass, sp, stage[sp]->data(), stage[sp]->size(), stride,
              stage_idx[sp].data()));
          stage[sp]->Clear();
          stage_idx[sp].clear();
        }
      }
    }
    for (int sp = 0; sp < kFanout; ++sp) {
      if (stage[sp] != nullptr && !stage[sp]->empty()) {
        MODULARIS_RETURN_NOT_OK(spill->WriteChunk(
            sub_pass, sp, stage[sp]->data(), stage[sp]->size(), stride,
            stage_idx[sp].data()));
      }
    }
  }
  spill->DeletePartition(pass, pid);
  int64_t sub_parts = 0;
  for (int sp = 0; sp < kFanout; ++sp) {
    if (sub_rows[sp] > 0) ++sub_parts;
  }
  AddStatCounter("spill.partitions", sub_parts);

  std::vector<AggRun> sub_runs;
  for (int sp = 0; sp < kFanout; ++sp) {
    if (sub_rows[sp] == 0) continue;
    AggRun run;
    run.states = RowVector::Make(out_schema_);
    MODULARIS_RETURN_NOT_OK(AggregateSpilledPartition(
        spill, sub_pass, sp, sub_shift, sub_rows[sp], schema, &run, scratch));
    sub_runs.push_back(std::move(run));
  }
  MergeAggRuns(&sub_runs, out->states.get(), &out->first);
  return Status::OK();
}

Status ReduceByKey::ConsumeKeylessParallel(const RowVectorPtr& input,
                                           int workers) {
  const size_t n = input->size();
  const Schema& schema = input->schema();
  const uint32_t stride = input->row_size();
  const size_t chunks = (n + kKeylessChunkRows - 1) / kKeylessChunkRows;
  keyless_partials_ = RowVector::Make(out_schema_);
  // Zero-filled like the streaming path's AppendRow, so padding bytes
  // match byte-for-byte.
  keyless_partials_->ResizeRows(chunks);
  MorselCursor cursor(chunks, 1, ctx_->cancel);
  MODULARIS_RETURN_NOT_OK(ParallelFor(ctx_, workers, [&](int) -> Status {
    size_t begin = 0, count = 0;
    while (cursor.Claim(&begin, &count)) {
      for (size_t c = begin; c < begin + count; ++c) {
        uint8_t* dst = keyless_partials_->mutable_row(c);
        InitStateAggs(dst);
        const size_t lo = c * kKeylessChunkRows;
        const size_t hi = std::min(n, lo + kKeylessChunkRows);
        const uint8_t* p = input->data() + lo * stride;
        for (size_t i = lo; i < hi; ++i, p += stride) {
          UpdateStateRow(dst, RowRef(p, &schema));
        }
      }
    }
    return Status::OK();
  }));
  return Status::OK();
}

void ReduceByKey::AccumulateKeylessRow(const RowRef& row) {
  if (keyless_fill_ == 0) {
    if (keyless_partials_ == nullptr) {
      keyless_partials_ = RowVector::Make(out_schema_);
    }
    keyless_partials_->AppendRow();
    InitStateAggs(
        keyless_partials_->mutable_row(keyless_partials_->size() - 1));
  }
  UpdateStateRow(keyless_partials_->mutable_row(keyless_partials_->size() - 1),
                 row);
  if (++keyless_fill_ == kKeylessChunkRows) keyless_fill_ = 0;
}

void ReduceByKey::FinalizeKeyless() {
  if (keyless_partials_ == nullptr || keyless_partials_->empty()) return;
  PairwiseCombineRows(
      keyless_partials_->mutable_data(), keyless_partials_->size(),
      keyless_partials_->row_size(),
      [this](uint8_t* dst, const uint8_t* src) { MergeStateRow(dst, src); });
  states_->AppendRaw(keyless_partials_->data());
}

void ReduceByKey::AccumulateSpan(const uint8_t* rows, size_t n,
                                 const Schema& schema) {
  const uint32_t stride = schema.row_size();
  if (key_cols_.empty()) {
    const uint8_t* p = rows;
    for (size_t i = 0; i < n; ++i, p += stride) {
      AccumulateKeylessRow(RowRef(p, &schema));
    }
    return;
  }
  if (single_i64_key_) {
    const uint8_t* p = rows;
    for (size_t i = 0; i < n; ++i, p += stride) {
      Accumulate(RowRef(p, &schema));
    }
    return;
  }
  // Byte keys: the same chunked serialize→hash→probe kernel the parallel
  // partitions run, against the operator-owned table.
  const uint32_t ks = codec_.key_size();
  key_scratch_.resize(kKeyChunkRows * ks);
  hash_scratch_.resize(kKeyChunkRows);
  RowSpan span{rows, stride, &schema};
  for (size_t base = 0; base < n; base += kKeyChunkRows) {
    const size_t m = std::min(n - base, kKeyChunkRows);
    key_prog_.SerializeAndHash(span, base, m, key_scratch_.data(),
                               hash_scratch_.data());
    for (size_t i = 0; i < m; ++i) {
      bool inserted = false;
      uint32_t state = byte_table_.FindOrInsert(
          key_scratch_.data() + i * ks, ks, hash_scratch_[i], &inserted);
      RowRef row(rows + (base + i) * stride, &schema);
      if (inserted) InitState(states_.get(), row);
      UpdateStateRow(states_->mutable_row(state), row);
    }
  }
}

void ReduceByKey::AccumulateBulk(const RowVector& rows) {
  AccumulateSpan(rows.data(), rows.size(), rows.schema());
}

Status ReduceByKey::ConsumeAll() {
  timer_.Bind(ctx_->stats, timer_key_);
  ScopedPhase phase(&timer_);
  Status st = ConsumeAllInner();
  // The keyless chunk partials combine through the fixed pairwise tree
  // exactly once, whichever path accumulated them.
  if (st.ok() && key_cols_.empty()) FinalizeKeyless();
  if (st.ok()) {
    mem_charge_.Add(states_->byte_size() + i64_map_.byte_size() +
                    byte_table_.byte_size());
  }
  return st;
}

Status ReduceByKey::ConsumeAllInner() {
  if (ctx_->options.enable_vectorized) {
    // Under a memory budget the keyed path always drains (even at one
    // thread), so the spill decision is a pure function of (limit, input
    // bytes) — never of the thread count (docs/DESIGN-memory.md).
    const size_t mem_limit = ctx_->options.memory_limit_bytes;
    const bool budgeted = mem_limit > 0 && !key_cols_.empty();
    if (ctx_->options.ResolvedNumThreads() > 1 || budgeted) {
      // Partition-owned (keyed) / fixed-chunk-tree (keyless) parallel
      // aggregation covers every key and aggregate shape — float SUM,
      // string and multi-column keys included — so there is no
      // structural serial fallback left on the vectorized path.
      RowVectorPtr input;
      MODULARIS_RETURN_NOT_OK(DrainRecordStream(child(0), &input));
      if (input == nullptr) return Status::OK();
      mem_charge_.Add(input->byte_size());
      if (budgeted && ShouldSpill(input->byte_size(), mem_limit)) {
        return ConsumeAllSpill(std::move(input));
      }
      const int workers = PlanWorkers(input->size(), ctx_->options);
      if (workers <= 1) {
        // Sizing decision (input too small to split), not a fallback.
        AccumulateSpan(input->data(), input->size(), input->schema());
        return Status::OK();
      }
      if (key_cols_.empty()) return ConsumeKeylessParallel(input, workers);
      return ConsumeAllParallel(input, workers);
    }
    // Selective pull: an upstream Filter hands its input batch plus a
    // selection vector, so rejected rows are never compacted just to be
    // aggregated here.
    RowBatch batch;
    while (child(0)->NextBatchSelective(&batch)) {
      if (batch.has_selection()) {
        const size_t n = batch.size();
        for (size_t i = 0; i < n; ++i) Accumulate(batch.row(i));
      } else {
        AccumulateSpan(batch.data(), batch.size(), batch.schema());
      }
    }
    return child(0)->status();
  }
  if (ctx_->options.ResolvedNumThreads() > 1) {
    // Row-at-a-time streams have no packed span to partition.
    NoteSerialFallback(ctx_, "ReduceByKey");
  }
  Tuple t;
  while (child(0)->Next(&t)) {
    const Item& item = t[0];
    if (item.is_collection()) {
      AccumulateBulk(*item.collection());
    } else if (item.is_row()) {
      Accumulate(item.row());
    } else {
      return Status::InvalidArgument(
          "ReduceByKey expects rows or collections, got " + item.ToString());
    }
  }
  return child(0)->status();
}

bool ReduceByKey::Next(Tuple* out) {
  if (!consumed_) {
    Status st = ConsumeAll();
    if (!st.ok()) return Fail(st);
    consumed_ = true;
  }
  if (emit_pos_ >= states_->size()) return false;
  out->clear();
  out->push_back(Item(states_->row(emit_pos_++)));
  return true;
}

// ---------------------------------------------------------------------------
// Reduce
// ---------------------------------------------------------------------------

Status Reduce::Open(ExecContext* ctx) {
  emitted_ = false;
  return inner_.Open(ctx);
}

bool Reduce::Next(Tuple* out) {
  if (emitted_) return false;
  if (inner_.Next(out)) {
    emitted_ = true;
    return true;
  }
  if (!inner_.status().ok()) return Fail(inner_.status());
  // Empty input: emit the identity row (count = 0, sums = 0).
  empty_state_ = RowVector::Make(inner_.out_schema());
  empty_state_->AppendRow();
  out->clear();
  out->push_back(Item(empty_state_->row(0)));
  emitted_ = true;
  return true;
}

// ---------------------------------------------------------------------------
// Sort / TopK
// ---------------------------------------------------------------------------

int CompareRows(const RowRef& a, const RowRef& b,
                const std::vector<SortKey>& keys) {
  for (const SortKey& k : keys) {
    int c = 0;
    switch (a.schema().field(k.col).type) {
      case AtomType::kInt32:
      case AtomType::kDate: {
        int32_t x = a.GetInt32(k.col), y = b.GetInt32(k.col);
        c = x < y ? -1 : (x == y ? 0 : 1);
        break;
      }
      case AtomType::kInt64: {
        int64_t x = a.GetInt64(k.col), y = b.GetInt64(k.col);
        c = x < y ? -1 : (x == y ? 0 : 1);
        break;
      }
      case AtomType::kFloat64: {
        // Total order: NaN == NaN, NaN after every non-NaN (last
        // ascending). The naive three-way idiom is UB fuel here — see
        // CompareF64TotalOrder.
        c = CompareF64TotalOrder(a.GetFloat64(k.col), b.GetFloat64(k.col));
        break;
      }
      case AtomType::kString: {
        int r = a.GetString(k.col).compare(b.GetString(k.col));
        c = r < 0 ? -1 : (r == 0 ? 0 : 1);
        break;
      }
    }
    if (c != 0) return k.desc ? -c : c;
  }
  return 0;
}

SortOp::SortOp(SubOpPtr child, std::vector<SortKey> keys, Schema schema,
               std::string timer_key)
    : SubOperator("Sort"),
      keys_(std::move(keys)),
      schema_(std::move(schema)),
      timer_key_(std::move(timer_key)) {
  AddChild(std::move(child));
}

SortOp::~SortOp() = default;

Status SortOp::Open(ExecContext* ctx) {
  sorted_ = false;
  emit_pos_ = 0;
  external_ = false;
  spill_.reset();
  runs_.clear();
  heap_.clear();
  emit_row_.reset();
  MODULARIS_RETURN_NOT_OK(SubOperator::Open(ctx));
  mem_charge_.Bind(ctx->budget);
  return Status::OK();
}

Status SortOp::ConsumeAndSort(size_t limit) {
  timer_.Bind(ctx_->stats, timer_key_);
  ScopedPhase phase(&timer_);
  rows_ = RowVector::Make(schema_);
  if (ctx_->options.enable_vectorized) {
    // Sort only permutes an index array, so a single durable
    // whole-collection input can be adopted without copying.
    MODULARIS_RETURN_NOT_OK(DrainRecordStreamInto(child(0), &rows_));
  } else {
    Tuple t;
    while (child(0)->Next(&t)) {
      const Item& item = t[0];
      if (item.is_collection()) {
        rows_->AppendAll(*item.collection());
      } else if (item.is_row()) {
        rows_->AppendRaw(item.row().data());
      } else {
        return Status::InvalidArgument(
            "Sort expects rows or collections, got " + item.ToString());
      }
    }
  }
  MODULARIS_RETURN_NOT_OK(child(0)->status());
  mem_charge_.Add(rows_->byte_size());
  const size_t mem_limit = ctx_->options.memory_limit_bytes;
  if (ctx_->options.enable_vectorized && mem_limit > 0 &&
      ShouldSpill(rows_->byte_size(), mem_limit)) {
    return ConsumeExternal(limit);
  }
  const size_t n = rows_->size();
  order_.resize(n);
  for (uint32_t i = 0; i < order_.size(); ++i) order_[i] = i;
  const size_t cap = limit < n ? limit : n;
  emit_limit_ = cap;
  if (n < 2 || cap == 0) return Status::OK();

  // Strict TOTAL order: the NaN-safe key comparator, tie-broken by the
  // original row index. At one thread this reproduces stable_sort's
  // order exactly; across threads it makes the merged order independent
  // of the run partitioning — N workers byte-equal to 1 by construction.
  auto less = [this](uint32_t x, uint32_t y) {
    int c = CompareRows(rows_->row(x), rows_->row(y), keys_);
    return c != 0 ? c < 0 : x < y;
  };

  int workers = 1;
  if (ctx_->options.enable_vectorized) {
    workers = PlanWorkers(n, ctx_->options);
  } else if (ctx_->options.ResolvedNumThreads() > 1) {
    // Row-at-a-time mode is the serial correctness oracle; it has no
    // parallel path (structural, like the other parallel operators).
    NoteSerialFallback(ctx_, "Sort");
  }
  if (workers <= 1) {
    if (cap < n) {
      // Bounded selection: heap-select the top `cap` (O(n log cap))
      // instead of fully sorting the input just to emit `cap` rows.
      std::partial_sort(order_.begin(), order_.begin() + cap, order_.end(),
                        less);
    } else {
      std::sort(order_.begin(), order_.end(), less);
    }
    return Status::OK();
  }

  // Morsel-parallel run formation: each worker orders its static
  // contiguous range (its top-`cap` prefix under a limit) by the total
  // order.
  std::vector<size_t> bounds = SplitRows(n, workers);
  MODULARIS_RETURN_NOT_OK(ParallelFor(ctx_, workers, [&](int w) -> Status {
    auto first = order_.begin() + bounds[w];
    auto last = order_.begin() + bounds[w + 1];
    const size_t run_n = bounds[w + 1] - bounds[w];
    if (cap < run_n) {
      std::partial_sort(first, first + cap, last, less);
    } else {
      std::sort(first, last, less);
    }
    return Status::OK();
  }));
  // K-way loser-tree merge of the per-worker runs. Under a limit each
  // run descriptor is clipped to its top-`cap` prefix; popping `cap`
  // elements total can take at most `cap` from any one run, so the
  // unsorted tails are never read.
  std::vector<uint32_t> merged(cap);
  MergeIndexRuns(BuildIndexRuns(order_.data(), bounds, cap), cap, less,
                 merged.data());
  order_ = std::move(merged);
  AddStatCounter("parallel.sort.runs", workers);
  return Status::OK();
}

// -- External merge sort (docs/DESIGN-memory.md) ----------------------------

Status SortOp::ConsumeExternal(size_t limit) {
  const size_t mem_limit = ctx_->options.memory_limit_bytes;
  const size_t quota = SpillQuotaBytes(mem_limit);
  const uint32_t stride = schema_.row_size();
  const size_t n = rows_->size();
  emit_limit_ = limit < n ? limit : n;
  order_.clear();
  if (emit_limit_ == 0) {
    rows_ = RowVector::Make(schema_);  // LIMIT 0: nothing to sort or emit
    return Status::OK();
  }
  // Denied the in-memory path — counted whether the spill fallback is
  // viable (graceful degradation) or not (fail fast below).
  if (ctx_->budget != nullptr) ctx_->budget->NoteDenial();
  if (quota < stride) {
    return Status::ResourceExhausted(
        "Sort: memory_limit_bytes=" + std::to_string(mem_limit) +
        " cannot hold one " + std::to_string(stride) +
        "-byte row in the spill quota (" + std::to_string(quota) + " bytes)");
  }
  if (ctx_->spill_store == nullptr) {
    return Status::ResourceExhausted(
        "Sort: materialized input of " + std::to_string(rows_->byte_size()) +
        " bytes exceeds memory_limit_bytes=" + std::to_string(mem_limit) +
        " and no spill store is configured");
  }
  AddStatCounter("spill.ops.Sort", 1);
  external_ = true;
  spill_ = std::make_unique<storage::SpillSet>(ctx_, "sort");

  // Run formation: quota-sized slices of the input, each ordered by
  // (keys, global index) — the same total order as the in-memory paths —
  // and written out sorted. Under a limit each run keeps only its
  // top-`emit_limit_` prefix: a row outside it can never be emitted.
  const size_t run_rows = std::max<size_t>(1, quota / stride);
  const size_t chunk_rows = std::max<size_t>(1, run_rows / 8);
  const int pass0 = spill_->NewPass();
  int num_runs = 0;
  {
    std::vector<uint32_t> perm;
    RowVectorPtr out_rows = RowVector::Make(schema_);
    std::vector<uint32_t> out_idx;
    auto less = [this](uint32_t x, uint32_t y) {
      const int c = CompareRows(rows_->row(x), rows_->row(y), keys_);
      return c != 0 ? c < 0 : x < y;
    };
    for (size_t base = 0; base < n; base += run_rows, ++num_runs) {
      const size_t m = std::min(n - base, run_rows);
      perm.resize(m);
      for (size_t i = 0; i < m; ++i) perm[i] = static_cast<uint32_t>(base + i);
      const size_t keep = std::min(emit_limit_, m);
      if (keep < m) {
        std::partial_sort(perm.begin(), perm.begin() + keep, perm.end(), less);
      } else {
        std::sort(perm.begin(), perm.end(), less);
      }
      for (size_t lo = 0; lo < keep; lo += chunk_rows) {
        const size_t cm = std::min(keep - lo, chunk_rows);
        out_rows->Clear();
        out_idx.clear();
        for (size_t i = 0; i < cm; ++i) {
          out_rows->AppendRaw(rows_->data() +
                              static_cast<size_t>(perm[lo + i]) * stride);
          out_idx.push_back(perm[lo + i]);
        }
        MODULARIS_RETURN_NOT_OK(spill_->WriteChunk(
            pass0, num_runs, out_rows->data(), cm, stride, out_idx.data()));
      }
    }
  }
  AddStatCounter("spill.partitions", num_runs);
  AddStatCounter("spill.passes", 1);
  rows_ = RowVector::Make(schema_);  // release the materialized input

  // Cascade merge: a merge of F runs keeps F chunks resident
  // (F · chunk_rows · stride bytes). Cap the fan-in so that resident set
  // fits the quota; while more runs remain, merge groups of F into
  // longer runs (each clipped at emit_limit_ rows) until one final merge
  // can stream the emission through Next()/NextBatch().
  const int fanin = static_cast<int>(
      std::max<size_t>(2, quota / (chunk_rows * stride)));
  auto merge_group = [&](int src_pass, const std::vector<int>& group,
                         int dst_pass, int dst_run) -> Status {
    if (ctx_->cancel != nullptr) {
      MODULARIS_RETURN_NOT_OK(ctx_->cancel->Check());
    }
    std::vector<RunCursor> cs(group.size());
    for (size_t i = 0; i < group.size(); ++i) {
      cs[i].pass = src_pass;
      cs[i].pid = group[i];
      cs[i].num_chunks = spill_->NumChunks(src_pass, group[i]);
    }
    std::vector<int> hp;
    auto cmp = [&](int a, int b) { return CursorBefore(cs[b], cs[a]); };
    for (size_t i = 0; i < cs.size(); ++i) {
      bool has = false;
      MODULARIS_RETURN_NOT_OK(EnsureCursorRow(&cs[i], &has));
      if (has) hp.push_back(static_cast<int>(i));
    }
    std::make_heap(hp.begin(), hp.end(), cmp);
    RowVectorPtr out_rows = RowVector::Make(schema_);
    std::vector<uint32_t> out_idx;
    size_t emitted = 0;
    while (!hp.empty() && emitted < emit_limit_) {
      std::pop_heap(hp.begin(), hp.end(), cmp);
      const int ci = hp.back();
      hp.pop_back();
      RunCursor& c = cs[ci];
      out_rows->AppendRaw(c.rows->data() + c.pos * stride);
      out_idx.push_back(c.idx[c.pos]);
      ++emitted;
      ++c.pos;
      bool has = false;
      MODULARIS_RETURN_NOT_OK(EnsureCursorRow(&c, &has));
      if (has) {
        hp.push_back(ci);
        std::push_heap(hp.begin(), hp.end(), cmp);
      }
      if (out_rows->size() >= chunk_rows) {
        MODULARIS_RETURN_NOT_OK(spill_->WriteChunk(dst_pass, dst_run,
                                                   out_rows->data(),
                                                   out_rows->size(), stride,
                                                   out_idx.data()));
        out_rows->Clear();
        out_idx.clear();
      }
    }
    if (!out_rows->empty()) {
      MODULARIS_RETURN_NOT_OK(spill_->WriteChunk(dst_pass, dst_run,
                                                 out_rows->data(),
                                                 out_rows->size(), stride,
                                                 out_idx.data()));
    }
    for (int r : group) spill_->DeletePartition(src_pass, r);
    return Status::OK();
  };
  int cur_pass = pass0;
  std::vector<int> cur_runs(num_runs);
  for (int r = 0; r < num_runs; ++r) cur_runs[r] = r;
  while (static_cast<int>(cur_runs.size()) > fanin) {
    const int next_pass = spill_->NewPass();
    AddStatCounter("spill.passes", 1);
    std::vector<int> next_runs;
    for (size_t g = 0; g < cur_runs.size(); g += fanin) {
      const size_t ge = std::min(cur_runs.size(), g + fanin);
      std::vector<int> group(cur_runs.begin() + g, cur_runs.begin() + ge);
      const int dst = static_cast<int>(next_runs.size());
      MODULARIS_RETURN_NOT_OK(merge_group(cur_pass, group, next_pass, dst));
      next_runs.push_back(dst);
    }
    cur_runs = std::move(next_runs);
    cur_pass = next_pass;
  }

  // Arm the final streaming merge.
  runs_.clear();
  heap_.clear();
  for (int r : cur_runs) {
    RunCursor c;
    c.pass = cur_pass;
    c.pid = r;
    c.num_chunks = spill_->NumChunks(cur_pass, r);
    runs_.push_back(std::move(c));
  }
  auto cmp = [this](int a, int b) { return CursorBefore(runs_[b], runs_[a]); };
  for (size_t i = 0; i < runs_.size(); ++i) {
    bool has = false;
    MODULARIS_RETURN_NOT_OK(EnsureCursorRow(&runs_[i], &has));
    if (has) heap_.push_back(static_cast<int>(i));
  }
  std::make_heap(heap_.begin(), heap_.end(), cmp);
  return Status::OK();
}

Status SortOp::EnsureCursorRow(RunCursor* c, bool* has_row) {
  while (c->rows == nullptr || c->pos >= c->rows->size()) {
    if (c->chunk >= c->num_chunks) {
      *has_row = false;
      return Status::OK();
    }
    if (c->rows == nullptr) c->rows = RowVector::Make(schema_);
    c->rows->Clear();
    c->idx.clear();
    c->pos = 0;
    MODULARIS_RETURN_NOT_OK(
        spill_->ReadChunk(c->pass, c->pid, c->chunk, c->rows.get(), &c->idx));
    ++c->chunk;
  }
  *has_row = true;
  return Status::OK();
}

bool SortOp::CursorBefore(const RunCursor& a, const RunCursor& b) const {
  const uint32_t stride = schema_.row_size();
  const RowRef ra(a.rows->data() + a.pos * stride, &schema_);
  const RowRef rb(b.rows->data() + b.pos * stride, &schema_);
  const int c = CompareRows(ra, rb, keys_);
  return c != 0 ? c < 0 : a.idx[a.pos] < b.idx[b.pos];
}

Status SortOp::NextExternalRow(const uint8_t** row, bool* done) {
  if (emit_pos_ >= emit_limit_ || heap_.empty()) {
    *done = true;
    return Status::OK();
  }
  const uint32_t stride = schema_.row_size();
  auto cmp = [this](int a, int b) { return CursorBefore(runs_[b], runs_[a]); };
  std::pop_heap(heap_.begin(), heap_.end(), cmp);
  const int ci = heap_.back();
  heap_.pop_back();
  RunCursor& c = runs_[ci];
  // Copy out before advancing: refilling the cursor's chunk buffer would
  // invalidate a pointer into it.
  if (emit_row_ == nullptr) {
    emit_row_ = RowVector::Make(schema_);
    emit_row_->AppendUninitialized(1);
  }
  std::memcpy(emit_row_->mutable_row(0), c.rows->data() + c.pos * stride,
              stride);
  ++c.pos;
  ++emit_pos_;
  bool has = false;
  MODULARIS_RETURN_NOT_OK(EnsureCursorRow(&c, &has));
  if (has) {
    heap_.push_back(ci);
    std::push_heap(heap_.begin(), heap_.end(), cmp);
  }
  *row = emit_row_->row(0).data();
  *done = false;
  return Status::OK();
}

bool SortOp::EnsureSorted() {
  if (sorted_) return true;
  Status st = ConsumeAndSort(SortLimit());
  if (!st.ok()) return Fail(std::move(st));
  sorted_ = true;
  return true;
}

bool SortOp::Next(Tuple* out) {
  if (!EnsureSorted()) return false;
  if (external_) {
    const uint8_t* row = nullptr;
    bool done = false;
    Status st = NextExternalRow(&row, &done);
    if (!st.ok()) return Fail(std::move(st));
    if (done) return false;
    out->clear();
    out->push_back(Item(RowRef(row, &schema_)));
    return true;
  }
  if (emit_pos_ >= emit_limit_) return false;
  out->clear();
  out->push_back(Item(rows_->row(order_[emit_pos_++])));
  return true;
}

bool SortOp::NextBatch(RowBatch* out) {
  if (!EnsureSorted()) return false;
  out->Clear();
  if (emit_pos_ >= emit_limit_) return false;
  if (external_) {
    RowVector* sink = out->Scratch(schema_);
    for (size_t i = 0; i < RowBatch::kDefaultRows; ++i) {
      const uint8_t* row = nullptr;
      bool done = false;
      Status st = NextExternalRow(&row, &done);
      if (!st.ok()) return Fail(std::move(st));
      if (done) break;
      sink->AppendRaw(row);
    }
    if (sink->empty()) return false;
    out->SealScratch();
    return true;
  }
  const size_t n = std::min(RowBatch::kDefaultRows, emit_limit_ - emit_pos_);
  RowVector* sink = out->Scratch(schema_);
  const uint32_t stride = rows_->row_size();
  const uint8_t* src = rows_->data();
  uint8_t* dst = sink->AppendUninitialized(n);
  for (size_t i = 0; i < n; ++i, dst += stride) {
    std::memcpy(dst,
                src + static_cast<size_t>(order_[emit_pos_ + i]) * stride,
                stride);
  }
  emit_pos_ += n;
  out->SealScratch();
  return true;
}

// ---------------------------------------------------------------------------
// GroupByPid
// ---------------------------------------------------------------------------

Status GroupByPid::GroupAll() {
  Tuple t;
  while (child(0)->Next(&t)) {
    if (t.size() < 2 || !t[0].is_i64() || !t[1].is_collection()) {
      return Status::InvalidArgument(
          "GroupBy expects ⟨pid, collection⟩ tuples, got " + t.ToString());
    }
    int64_t pid = t[0].i64();
    const RowVectorPtr& data = t[1].collection();
    auto it = groups_.find(pid);
    if (it == groups_.end()) {
      // First chunk of this pid: share it without copying.
      groups_[pid] = data;
    } else {
      if (it->second.use_count() > 1) {
        // Copy-on-write before merging into a shared collection.
        RowVectorPtr merged = RowVector::Make(it->second->schema());
        merged->AppendAll(*it->second);
        it->second = std::move(merged);
      }
      it->second->AppendAll(*data);
    }
  }
  MODULARIS_RETURN_NOT_OK(child(0)->status());
  grouped_ = true;
  emit_it_ = groups_.begin();
  return Status::OK();
}

bool GroupByPid::Next(Tuple* out) {
  if (!grouped_) {
    Status st = GroupAll();
    if (!st.ok()) return Fail(std::move(st));
  }
  if (emit_it_ == groups_.end()) return false;
  out->clear();
  out->push_back(Item(emit_it_->first));
  out->push_back(Item(emit_it_->second));
  ++emit_it_;
  return true;
}

bool GroupByPid::NextBatch(RowBatch* out) {
  if (!grouped_) {
    Status st = GroupAll();
    if (!st.ok()) return Fail(std::move(st));
  }
  out->Clear();
  while (emit_it_ != groups_.end()) {
    RowVectorPtr data = emit_it_->second;
    ++emit_it_;
    if (data->empty()) continue;
    out->Borrow(std::move(data));
    out->MarkDurable();  // merged groups are not mutated after grouping
    return true;
  }
  return false;
}

}  // namespace modularis
