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

void I64StateMap::Clear(size_t first_slots) {
  keys_.clear();
  vals_.clear();
  used_.clear();
  mask_ = 0;
  size_ = 0;
  first_slots_ = first_slots;
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

size_t I64StateMap::Probe(int64_t key, uint64_t hash) const {
  size_t slot = hash & mask_;
  while (used_[slot] && keys_[slot] != key) slot = (slot + 1) & mask_;
  return slot;
}

// ---------------------------------------------------------------------------
// ByteStateTable
// ---------------------------------------------------------------------------

void ByteStateTable::Clear(size_t first_slots) {
  slots_.clear();
  arena_.clear();
  mask_ = 0;
  size_ = 0;
  first_slots_ = first_slots;
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

size_t ByteStateTable::Probe(const uint8_t* key, uint32_t len,
                             uint64_t hash) const {
  size_t slot = hash & mask_;
  while (slots_[slot].len_plus1 != 0) {
    const Slot& s = slots_[slot];
    if (s.hash == hash && s.len_plus1 == len + 1 &&
        std::memcmp(SlotKey(s), key, len) == 0) {
      break;
    }
    slot = (slot + 1) & mask_;
  }
  return slot;
}

void ByteStateTable::Insert(Slot* s, const uint8_t* key, uint32_t len,
                            uint64_t hash) {
  s->hash = hash;
  s->val = static_cast<uint32_t>(size_);
  s->len_plus1 = len + 1;
  if (len <= kInlineBytes) {
    std::memcpy(s->key, key, len);
  } else {
    const uint64_t off = arena_.size();
    arena_.insert(arena_.end(), key, key + len);
    std::memcpy(s->key, &off, sizeof(off));
  }
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
  tables_.Clear();
  keyless_partials_.reset();
  consumed_ = false;
  emit_pos_ = 0;
  mem_charge_.Bind(ctx->budget);

  single_i64_key_ =
      key_cols_.size() == 1 &&
      (in_schema_.field(key_cols_[0]).type == AtomType::kInt64 ||
       in_schema_.field(key_cols_[0]).type == AtomType::kInt32 ||
       in_schema_.field(key_cols_[0]).type == AtomType::kDate);
  if (!single_i64_key_ && !key_cols_.empty()) {
    // Fused serialize+hash program for the (key, hash) walk.
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

namespace {

// The slot count a state table needs for up to `keys` distinct keys under
// the 0.7 load factor (at least 1024).
size_t StateSlotsFor(size_t keys) {
  size_t cap = 1024;
  while (keys * 10 >= cap * 7) cap *= 2;
  return cap;
}

// A chunk of the (key, hash) walk over a single integer key: each row's
// key is read, and hashed, as it is probed.
struct I64Keys {
  const uint8_t* rows;  // the chunk's first row
  uint32_t stride;
  const Schema* schema;
  int col;

  int64_t Key(size_t i) const {
    return KeyAt(RowRef(rows + i * stride, schema), col);
  }
  uint64_t Hash(size_t i) const {
    return MixHash64(static_cast<uint64_t>(Key(i)));
  }
  template <typename Admit>
  uint32_t FindOrAdmit(StateTables* tables, size_t i, Admit& admit,
                       bool* inserted) const {
    const int64_t key = Key(i);
    return tables->i64.FindOrAdmit(key, MixHash64(static_cast<uint64_t>(key)),
                                   admit, inserted);
  }
};

// A chunk of the walk over serialized keys, serialized and hashed up front.
struct ByteKeys {
  const uint8_t* keys;
  uint32_t key_size;
  const uint64_t* hashes;

  uint64_t Hash(size_t i) const { return hashes[i]; }
  template <typename Admit>
  uint32_t FindOrAdmit(StateTables* tables, size_t i, Admit& admit,
                       bool* inserted) const {
    return tables->bytes.FindOrAdmit(keys + i * key_size, key_size, hashes[i],
                                     admit, inserted);
  }
};

}  // namespace

template <typename Fn>
Status ReduceByKey::WalkKeys(const RowSpan& span, size_t lo, size_t hi,
                             KeyChunk* kc, Fn&& fn) const {
  if (single_i64_key_) {
    for (size_t base = lo; base < hi; base += kKeyChunkRows) {
      MODULARIS_RETURN_NOT_OK(
          fn(base, std::min(hi - base, kKeyChunkRows),
             I64Keys{span.data + base * span.stride, span.stride, span.schema,
                     key_cols_[0]}));
    }
    return Status::OK();
  }
  const uint32_t ks = key_prog_.key_size();
  const size_t chunk = std::min(hi - lo, kKeyChunkRows);
  kc->bytes.resize(chunk * ks);
  kc->hash.resize(chunk);
  for (size_t base = lo; base < hi; base += kKeyChunkRows) {
    const size_t m = std::min(hi - base, kKeyChunkRows);
    key_prog_.SerializeAndHash(span, base, m, kc->bytes.data(),
                               kc->hash.data());
    MODULARIS_RETURN_NOT_OK(
        fn(base, m, ByteKeys{kc->bytes.data(), ks, kc->hash.data()}));
  }
  return Status::OK();
}

Status ReduceByKey::AggregateSpan(const uint8_t* rows, size_t n,
                                  const Schema& schema, const uint32_t* idx,
                                  AggLevel* level, KeyChunk* kc,
                                  SpillScratch* scratch) {
  const size_t mem_limit = ctx_->options.memory_limit_bytes;
  const size_t state_row = out_schema_.row_size();
  // Asked on a miss only, with the table's bytes once the group is in.
  // Under a budget a level admits while the state with the new group
  // fits, and none from its first refusal on, so every resident group's
  // first occurrence precedes every staged group's.
  auto admit = [&](size_t table_bytes) {
    return level->admit_all ||
           (level->pass < 0 &&
            StateFits(level->states->byte_size() + state_row + table_bytes,
                      mem_limit));
  };
  const uint32_t stride = schema.row_size();
  RowVector* const states = level->states;
  StateTables* const tables = level->tables;
  auto global = [idx](size_t j) {
    return idx != nullptr ? idx[j] : static_cast<uint32_t>(j);
  };
  return WalkKeys(
      RowSpan{rows, stride, &schema}, 0, n, kc,
      [&](size_t base, size_t m, const auto& keys) -> Status {
        const uint8_t* p = rows + base * stride;
        for (size_t i = 0; i < m; ++i, p += stride) {
          bool inserted = false;
          const uint32_t state =
              keys.FindOrAdmit(tables, i, admit, &inserted);
          if (state == kNoState) {
            MODULARIS_RETURN_NOT_OK(StageRow(p, global(base + i),
                                             keys.Hash(i), schema, level,
                                             scratch));
            continue;
          }
          const RowRef row(p, &schema);
          if (inserted) {
            InitState(states, row);
            if (level->first != nullptr) {
              level->first->push_back(global(base + i));
            }
          }
          UpdateStateRow(states->mutable_row(state), row);
        }
        return Status::OK();
      });
}

Status ReduceByKey::ConsumeAllParallel(const RowVectorPtr& input,
                                       int workers) {
  const size_t n = input->size();
  const Schema& schema = input->schema();
  const uint32_t stride = input->row_size();
  const RowSpan span{input->data(), stride, &schema};
  constexpr int kFanout = 1 << kPartitionBits;
  constexpr int kPidShift = 64 - kPartitionBits;

  // Phase 1: per-row partition ids over static contiguous ranges. The id
  // is a pure function of the group key (hash HIGH bits; the state
  // tables use the low bits), so the assignment never depends on the
  // worker count.
  std::vector<uint8_t> pids(n);
  const std::vector<size_t> bounds = SplitRows(n, workers);
  MODULARIS_RETURN_NOT_OK(ParallelFor(ctx_, workers, [&](int w) -> Status {
    KeyChunk kc;
    return WalkKeys(span, bounds[w], bounds[w + 1], &kc,
                    [&](size_t base, size_t m, const auto& keys) -> Status {
                      for (size_t i = 0; i < m; ++i) {
                        pids[base + i] =
                            static_cast<uint8_t>(keys.Hash(i) >> kPidShift);
                      }
                      return Status::OK();
                    });
  }));

  // Phase 2: the ranged scatter into one flat pre-sized buffer, rows and
  // their original indices side by side. Ranges at prefix offsets replay
  // the input order, so every partition holds its rows in ascending
  // original order — the property that makes per-group float SUM
  // accumulate exactly like one thread.
  RangedScatter scatter(ctx_, "ReduceByKey", input->data(), n, stride,
                        ScatterRoute::Pids(pids.data(), kFanout), workers);
  MODULARIS_RETURN_NOT_OK(scatter.Count());
  std::vector<size_t> prefix(kFanout + 1, 0);
  for (int p = 0; p < kFanout; ++p) {
    prefix[p + 1] = prefix[p] + static_cast<size_t>(scatter.totals()[p]);
  }
  RowVectorPtr scat = RowVector::Make(schema);
  scat->ResizeRowsUninitialized(n);
  std::vector<uint32_t> idx(n);
  MODULARIS_RETURN_NOT_OK(scatter.Scatter(
      prefix, InMemoryStageRows(stride), /*track_index=*/true,
      FlatSink(scat->mutable_data(), stride, idx.data())));

  // Phase 3: partition-owned aggregation. Each partition is claimed by
  // exactly one worker (dynamic claiming — ownership is exclusive, so
  // the schedule costs no determinism) and aggregated in its original
  // row order with zero cross-thread merging, recording each group's
  // global first-occurrence index.
  //
  // The partition's row count bounds its distinct keys, so a table sized
  // from it never rehashes — but on a duplicate-heavy skewed partition
  // (all rows of a hot key in one place) it would also allocate O(rows)
  // slots for a handful of groups. The size is capped; a partition past
  // the cap grows geometrically only if it really holds that many groups
  // (deterministic — table internals never affect the output).
  constexpr size_t kMaxReserveKeys = size_t{1} << 20;
  std::vector<AggRun> runs(kFanout);
  std::vector<int64_t> wrehash(workers, 0);
  MorselCursor cursor(kFanout, 1, ctx_->cancel);
  MODULARIS_RETURN_NOT_OK(ParallelFor(ctx_, workers, [&](int w) -> Status {
    StateTables tables;
    KeyChunk kc;
    size_t begin = 0, count = 0;
    while (cursor.Claim(&begin, &count)) {
      for (size_t p = begin; p < begin + count; ++p) {
        const size_t rows_p = prefix[p + 1] - prefix[p];
        if (rows_p == 0) continue;
        tables.Clear(StateSlotsFor(std::min(rows_p, kMaxReserveKeys)));
        AggRun& run = runs[p];
        run.states = RowVector::Make(out_schema_);
        AggLevel level{.states = run.states.get(), .first = &run.first,
                       .tables = &tables};
        MODULARIS_RETURN_NOT_OK(AggregateSpan(
            scat->data() + prefix[p] * stride, rows_p, schema,
            idx.data() + prefix[p], &level, &kc, nullptr));
        wrehash[w] += tables.rehashes();
      }
    }
    return Status::OK();
  }));

  // Phase 4: emit groups in global first-occurrence order. Each
  // partition discovers its groups in ascending first-occurrence index
  // (its rows are in original order), so merging the per-partition runs
  // replays the serial emission order exactly.
  int used_partitions = 0;
  for (const AggRun& run : runs) used_partitions += !run.first.empty();
  MergeAggRuns(&runs, states_.get(), nullptr);
  int64_t rehashes = 0;
  for (int w = 0; w < workers; ++w) rehashes += wrehash[w];
  AddStatCounter("reduce.rehash", rehashes);
  AddStatCounter("parallel.reduce.partitions", used_partitions);
  return Status::OK();
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

// -- Hybrid hash aggregation under a budget (docs/DESIGN-memory.md) ---------
//
// Every level streams its rows in global input order through the one
// aggregation kernel, with StateFits as its admission rule. From the first
// refused group on the level admits none, so every resident group's first
// occurrence precedes every spilled group's. Each group's rows accumulate
// on exactly one side, in input order (float SUMs keep their bits), and
// the level's output is its resident states in insertion order followed by
// the first-occurrence merge of its overflow partitions' runs.

Status ReduceByKey::ConsumeAllSpill(RowVectorPtr input) {
  SpillScratch scratch;
  tables_.Clear(kHybridFirstSlots);
  AggLevel top{.states = states_.get(), .tables = &tables_,
               .admit_all = false, .shift = 64 - kPartitionBits};
  // The drained input has in_schema_'s layout (checked by the caller);
  // its own schema dies with it when this is the last reference.
  MODULARIS_RETURN_NOT_OK(AggregateSpan(input->data(), input->size(),
                                        in_schema_, nullptr, &top,
                                        &key_chunk_, &scratch));
  if (top.pass < 0) return Status::OK();  // every group stayed resident
  input.reset();  // drop our reference to the drained input
  return AggregateOverflow(&top, in_schema_, &scratch);
}

Status ReduceByKey::StageRow(const uint8_t* p, uint32_t gidx, uint64_t hash,
                             const Schema& schema, AggLevel* level,
                             SpillScratch* scratch) {
  constexpr int kFanout = 1 << kPartitionBits;
  if (level->pass < 0) MODULARIS_RETURN_NOT_OK(OpenOverflow(level, scratch));
  const int pid = static_cast<int>((hash >> level->shift) & (kFanout - 1));
  RowVectorPtr& stage = level->stage[pid];
  std::vector<uint32_t>& stage_idx = level->stage_idx[pid];
  if (stage == nullptr) stage = RowVector::Make(schema);
  stage->AppendRaw(p);
  stage_idx.push_back(gidx);
  const uint32_t stride = schema.row_size();
  const size_t chunk_rows = std::max<size_t>(
      1, SpillQuotaBytes(ctx_->options.memory_limit_bytes) /
             (static_cast<size_t>(stride) * kFanout));
  if (stage->size() < chunk_rows) return Status::OK();
  MODULARIS_RETURN_NOT_OK(scratch->spill->WriteChunk(
      level->pass, pid, stage->data(), stage->size(), stride,
      stage_idx.data()));
  stage->Clear();
  stage_idx.clear();
  return Status::OK();
}

Status ReduceByKey::OpenOverflow(AggLevel* level, SpillScratch* scratch) {
  // The operator's first refused group decides whether spilling is
  // possible at all — before anything is written.
  if (scratch->spill == nullptr) {
    if (ctx_->budget != nullptr) ctx_->budget->NoteDenial();
    const size_t mem_limit = ctx_->options.memory_limit_bytes;
    const size_t quota = SpillQuotaBytes(mem_limit);
    const uint32_t stride = in_schema_.row_size();
    if (quota < stride) {
      return Status::ResourceExhausted(
          "ReduceByKey: memory_limit_bytes=" + std::to_string(mem_limit) +
          " cannot hold one " + std::to_string(stride) +
          "-byte row in the spill quota (" + std::to_string(quota) +
          " bytes)");
    }
    if (ctx_->spill_store == nullptr) {
      return Status::ResourceExhausted(
          "ReduceByKey: group state exceeds half of memory_limit_bytes=" +
          std::to_string(mem_limit) + " and no spill store is configured");
    }
    AddStatCounter("spill.ops.ReduceByKey", 1);
    scratch->spill = std::make_unique<storage::SpillSet>(ctx_, "reduce");
  }
  level->pass = scratch->spill->NewPass();
  level->stage.resize(1 << kPartitionBits);
  level->stage_idx.resize(1 << kPartitionBits);
  AddStatCounter("spill.passes", 1);
  return Status::OK();
}

Status ReduceByKey::AggregateOverflow(AggLevel* level, const Schema& schema,
                                      SpillScratch* scratch) {
  constexpr int kFanout = 1 << kPartitionBits;
  storage::SpillSet* spill = scratch->spill.get();
  for (int pid = 0; pid < kFanout; ++pid) {
    const RowVectorPtr& stage = level->stage[pid];
    if (stage != nullptr && !stage->empty()) {
      MODULARIS_RETURN_NOT_OK(spill->WriteChunk(
          level->pass, pid, stage->data(), stage->size(), schema.row_size(),
          level->stage_idx[pid].data()));
    }
  }
  level->stage.clear();
  level->stage_idx.clear();

  // Partitions aggregate ascending by id; each yields one run ascending by
  // global first-occurrence index, and the merge restores global order.
  std::vector<AggRun> runs;
  for (int pid = 0; pid < kFanout; ++pid) {
    if (spill->NumChunks(level->pass, pid) == 0) continue;
    AggRun run;
    run.states = RowVector::Make(out_schema_);
    MODULARIS_RETURN_NOT_OK(AggregateSpilledPartition(
        level->pass, pid, level->shift, schema, &run, scratch));
    runs.push_back(std::move(run));
  }
  AddStatCounter("spill.partitions", static_cast<int64_t>(runs.size()));
  MergeAggRuns(&runs, level->states, level->first);
  return Status::OK();
}

Status ReduceByKey::AggregateSpilledPartition(int pass, int pid, int shift,
                                              const Schema& schema,
                                              AggRun* out,
                                              SpillScratch* scratch) {
  if (ctx_->cancel != nullptr) MODULARIS_RETURN_NOT_OK(ctx_->cancel->Check());
  // The tables are free again by the time the overflow recurses: this
  // level's groups only update while its chunks stream.
  scratch->tables.Clear(kHybridFirstSlots);
  // A partition cut by the last hash window cannot be split further (a
  // single hot key, practically): it keeps every group, which is the
  // operator's own irreducible output.
  AggLevel level{.states = out->states.get(), .first = &out->first,
                 .tables = &scratch->tables,
                 .admit_all = shift < kPartitionBits,
                 .shift = shift - kPartitionBits};
  storage::SpillSet* spill = scratch->spill.get();
  const int chunks = spill->NumChunks(pass, pid);
  RowVectorPtr chunk = RowVector::Make(schema);
  std::vector<uint32_t> idx;
  for (int c = 0; c < chunks; ++c) {
    chunk->Clear();
    idx.clear();
    MODULARIS_RETURN_NOT_OK(spill->ReadChunk(pass, pid, c, chunk.get(), &idx));
    MODULARIS_RETURN_NOT_OK(AggregateSpan(chunk->data(), chunk->size(),
                                          schema, idx.data(), &level,
                                          &key_chunk_, scratch));
  }
  spill->DeletePartition(pass, pid);
  if (level.pass < 0) return Status::OK();
  return AggregateOverflow(&level, schema, scratch);
}

Status ReduceByKey::ConsumeKeyless(const RowVectorPtr& input, int workers) {
  const size_t n = input->size();
  const Schema& schema = input->schema();
  const uint32_t stride = input->row_size();
  const size_t chunks = (n + kKeylessChunkRows - 1) / kKeylessChunkRows;
  keyless_partials_ = RowVector::Make(out_schema_);
  // Zero-filled, so padding bytes are deterministic.
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

void ReduceByKey::FinalizeKeyless() {
  if (keyless_partials_ == nullptr || keyless_partials_->empty()) return;
  PairwiseCombineRows(
      keyless_partials_->mutable_data(), keyless_partials_->size(),
      keyless_partials_->row_size(),
      [this](uint8_t* dst, const uint8_t* src) { MergeStateRow(dst, src); });
  states_->AppendRaw(keyless_partials_->data());
}

Status ReduceByKey::ConsumeAll() {
  timer_.Bind(ctx_->stats, timer_key_);
  ScopedPhase phase(&timer_);
  Status st = ConsumeAllInner();
  // The keyless chunk partials combine through the fixed pairwise tree.
  if (st.ok() && key_cols_.empty()) FinalizeKeyless();
  if (st.ok()) {
    mem_charge_.Add(states_->byte_size() + tables_.byte_size());
  }
  return st;
}

Status ReduceByKey::ConsumeAllInner() {
  // Drain → size → run at every thread count: the drain adopts a single
  // durable collection (every production input) zero-copy, so the spill
  // decision and the worker count are pure functions of the limit and the
  // drained input, and one worker is a sizing decision that runs the
  // aggregation kernel on the drained span into the operator's own tables
  // (docs/DESIGN-parallel.md).
  RowVectorPtr input;
  MODULARIS_RETURN_NOT_OK(DrainRecordStream(child(0), &input));
  if (input == nullptr) return Status::OK();
  if (!input->schema().SameLayout(in_schema_)) {
    return Status::InvalidArgument(
        "ReduceByKey: rows " + input->schema().ToString() +
        " do not match the input schema " + in_schema_.ToString());
  }
  mem_charge_.Add(input->byte_size());
  const size_t mem_limit = ctx_->options.memory_limit_bytes;
  if (mem_limit > 0 && !key_cols_.empty() &&
      ShouldSpill(input->byte_size(), mem_limit)) {
    return ConsumeAllSpill(std::move(input));
  }
  const int workers = PlanWorkers(input->size(), ctx_->options);
  // The keyless fixed-chunk tree is the same at any worker count
  // (ParallelFor runs one worker inline).
  if (key_cols_.empty()) return ConsumeKeyless(input, workers);
  if (workers > 1) return ConsumeAllParallel(input, workers);
  AggLevel level{.states = states_.get(), .tables = &tables_};
  return AggregateSpan(input->data(), input->size(), input->schema(), nullptr,
                       &level, &key_chunk_, nullptr);
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
  ctx_ = ctx;
  status_ = Status::OK();
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

namespace {

// Orders the first `keep` entries of [first, last) by `less` — a bounded
// heap-select (O(n log keep)) when only that prefix can be emitted, a full
// sort when `keep` covers the range.
template <typename It, typename Less>
void SortPrefix(It first, It last, size_t keep, const Less& less) {
  if (keep < static_cast<size_t>(last - first)) {
    std::partial_sort(first, first + keep, last, less);
  } else {
    std::sort(first, last, less);
  }
}

}  // namespace

bool SortOp::RowBefore(uint32_t x, uint32_t y) const {
  const int c = CompareRows(rows_->row(x), rows_->row(y), keys_);
  return c != 0 ? c < 0 : x < y;
}

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
  // Sort only permutes an index array, so a single durable
  // whole-collection input can be adopted without copying.
  MODULARIS_RETURN_NOT_OK(DrainRecordStream(child(0), &rows_));
  mem_charge_.Add(rows_->byte_size());
  const size_t mem_limit = ctx_->options.memory_limit_bytes;
  if (mem_limit > 0 && ShouldSpill(rows_->byte_size(), mem_limit)) {
    return ConsumeExternal(limit);
  }
  const size_t n = rows_->size();
  order_.resize(n);
  for (uint32_t i = 0; i < order_.size(); ++i) order_[i] = i;
  const size_t cap = limit < n ? limit : n;
  emit_limit_ = cap;
  if (n < 2 || cap == 0) return Status::OK();

  // Morsel-parallel run formation: each worker orders its static
  // contiguous range (its top-`cap` prefix under a limit) by the total
  // order; one worker orders the whole input as one run.
  auto less = [this](uint32_t x, uint32_t y) { return RowBefore(x, y); };
  const int workers = PlanWorkers(n, ctx_->options);
  std::vector<size_t> bounds = SplitRows(n, workers);
  MODULARIS_RETURN_NOT_OK(ParallelFor(ctx_, workers, [&](int w) -> Status {
    SortPrefix(order_.begin() + bounds[w], order_.begin() + bounds[w + 1], cap,
               less);
    return Status::OK();
  }));
  // K-way loser-tree merge of the runs. Under a limit each run descriptor
  // is clipped to its top-`cap` prefix; popping `cap` elements total can
  // take at most `cap` from any one run, so the unsorted tails are never
  // read.
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
    auto less = [this](uint32_t x, uint32_t y) { return RowBefore(x, y); };
    for (size_t base = 0; base < n; base += run_rows, ++num_runs) {
      const size_t m = std::min(n - base, run_rows);
      perm.resize(m);
      for (size_t i = 0; i < m; ++i) perm[i] = static_cast<uint32_t>(base + i);
      const size_t keep = std::min(emit_limit_, m);
      SortPrefix(perm.begin(), perm.end(), keep, less);
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
