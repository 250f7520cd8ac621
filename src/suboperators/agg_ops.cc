#include "suboperators/agg_ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <type_traits>

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

ReduceByKey::KeyLayout ReduceByKey::MakeKeyLayout(
    const Schema& schema, const std::vector<int>& cols) {
  KeyLayout layout;
  if (cols.size() == 1) {
    const AtomType t = schema.field(cols[0]).type;
    if (t == AtomType::kInt64 || t == AtomType::kInt32 ||
        t == AtomType::kDate) {
      layout.i64_col = cols[0];
      return layout;
    }
  }
  // Fused serialize+hash program: byte-identical to SerializeKeys +
  // HashKeysSpan by construction. No columns leave it invalid: keyless.
  if (!cols.empty()) layout.prog = KeyProgram(schema, cols);
  return layout;
}

Status ReduceByKey::Open(ExecContext* ctx) {
  MODULARIS_RETURN_NOT_OK(SubOperator::Open(ctx));
  states_ = RowVector::Make(out_schema_);
  tables_.Clear();
  consumed_ = false;
  emit_pos_ = 0;
  mem_charge_.Bind(ctx->budget);

  std::vector<int> state_key_cols(key_cols_.size());
  std::iota(state_key_cols.begin(), state_key_cols.end(), 0);
  in_keys_ = MakeKeyLayout(in_schema_, key_cols_);
  state_keys_ = MakeKeyLayout(out_schema_, state_key_cols);

  // Compile the update plan. With fusion on, a bare column is read by
  // direct offset and a computed input runs as a bytecode program a key
  // chunk at a time; with fusion off every input runs the row
  // interpreter. Inputs must be numeric on every path.
  slots_.clear();
  const bool fused = ctx->options.enable_fusion;
  int64_t fallbacks = 0;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& a = aggs_[i];
    AggSlot slot{};
    slot.kind = a.kind;
    slot.source = AggSource::kNone;
    slot.dst_offset = out_schema_.offset(key_cols_.size() + i);
    slot.dst_float = a.out_type == AtomType::kFloat64;
    slot.expr = a.input.get();
    if (a.kind != AggKind::kCount) {
      auto non_numeric = [&a] {
        return Status::InvalidArgument(
            "ReduceByKey: aggregate " + a.name + " has no numeric input " +
            (a.input != nullptr ? a.input->ToString() : ""));
      };
      if (a.input == nullptr ||
          a.input->BatchType(in_schema_) == BatchTag::kStr) {
        return non_numeric();
      }
      const int col = a.input->AsColumnIndex();
      if (!fused) {
        slot.source = AggSource::kInterpreted;
      } else if (col >= 0) {
        slot.source = AggSource::kColumn;
        slot.src_type = in_schema_.field(col).type;
        slot.src_offset = in_schema_.offset(col);
      } else {
        slot.source = AggSource::kProgram;
        slot.prog = BcProgram::CompileValue(a.input, in_schema_);
        if (slot.prog.value_tag() == BatchTag::kStr) return non_numeric();
        fallbacks += static_cast<int64_t>(slot.prog.fallback_count());
      }
    }
    slots_.push_back(std::move(slot));
  }
  if (fallbacks > 0) AddStatCounter("expr.bc_fallback.value", fallbacks);
  return Status::OK();
}

namespace {

// An integer column input (i32, date or i64) as int64_t: exact, where a
// double would round above 2^53.
inline int64_t LoadInteger(const uint8_t* row, uint32_t offset,
                           AtomType type) {
  if (type == AtomType::kInt64) {
    int64_t v;
    std::memcpy(&v, row + offset, sizeof(v));
    return v;
  }
  int32_t v;  // i32 and date; Open rejects string inputs
  std::memcpy(&v, row + offset, sizeof(v));
  return v;
}

inline double LoadNumeric(const uint8_t* row, uint32_t offset, AtomType type) {
  if (type != AtomType::kFloat64) {
    return static_cast<double>(LoadInteger(row, offset, type));
  }
  double v;
  std::memcpy(&v, row + offset, sizeof(v));
  return v;
}

// An aggregate state of type T (double or int64_t) at `dst`: its
// identity, and one step folding `v` into it (COUNT steps by v = 1 on
// update and by the other state's count on merge).
template <typename T>
inline void InitAgg(AggKind kind, uint8_t* dst) {
  using L = std::numeric_limits<T>;
  T v = 0;
  if (kind == AggKind::kMin) v = L::has_infinity ? L::infinity() : L::max();
  if (kind == AggKind::kMax) v = L::has_infinity ? -L::infinity() : L::min();
  std::memcpy(dst, &v, sizeof(v));
}

template <typename T>
inline void FoldAgg(AggKind kind, uint8_t* dst, T v) {
  T cur;
  std::memcpy(&cur, dst, sizeof(cur));
  switch (kind) {
    case AggKind::kSum:
    case AggKind::kCount: cur += v; break;
    case AggKind::kMin: cur = std::min(cur, v); break;
    case AggKind::kMax: cur = std::max(cur, v); break;
  }
  std::memcpy(dst, &cur, sizeof(cur));
}

template <typename T>
inline T LoadState(const uint8_t* row, uint32_t offset) {
  T v;
  std::memcpy(&v, row + offset, sizeof(v));
  return v;
}

// The selection 0..kRows-1: a key chunk's rows, in order.
template <size_t kRows>
const uint32_t* IdentitySelection() {
  static const std::vector<uint32_t> sel = [] {
    std::vector<uint32_t> v(kRows);
    for (size_t i = 0; i < kRows; ++i) v[i] = static_cast<uint32_t>(i);
    return v;
  }();
  return sel.data();
}

// Lanes 0..m-1 of one computed aggregate input in the state's own type T
// (double for a float state, int64_t for an integer one, so an integer
// never passes through a double): run by `prog` over selection `sel`, or
// per row by the interpreter when `prog` is null. The program's own column
// is used in place when its type is T; anything else is converted into
// `vals`. A non-numeric value is an InvalidArgument error.
template <typename T>
Status InputLanes(const Expr& expr, const BcProgram* prog, const RowSpan& rows,
                  const uint32_t* sel, size_t m, BatchColumn* col, BcState* bc,
                  std::vector<T>* vals, const T** lanes) {
  if (prog != nullptr) {
    MODULARIS_RETURN_NOT_OK(prog->RunValue(rows, sel, m, col, bc));
  } else {
    col->Reset(BatchTag::kItem, m);
    for (size_t i = 0; i < m; ++i) {
      MODULARIS_RETURN_NOT_OK(expr.EvalChecked(
          rows.row(static_cast<uint32_t>(i)), &col->items[i]));
    }
  }
  const BatchTag own = std::is_same_v<T, double> ? BatchTag::kF64
                                                  : BatchTag::kI64;
  if (col->tag == own) {
    if constexpr (std::is_same_v<T, double>) *lanes = col->f64.data();
    if constexpr (std::is_same_v<T, int64_t>) *lanes = col->i64.data();
    return Status::OK();
  }
  if (col->tag == BatchTag::kStr) {  // Open rejects these; defend it
    return Status::InvalidArgument("ReduceByKey: aggregate input " +
                                   expr.ToString() + " evaluated to a string");
  }
  vals->resize(m);
  for (size_t i = 0; i < m; ++i) {
    if (col->tag != BatchTag::kItem) {
      (*vals)[i] = col->tag == BatchTag::kF64 ? static_cast<T>(col->f64[i])
                                              : static_cast<T>(col->i64[i]);
      continue;
    }
    const Item& v = col->items[i];
    if (!v.is_i64() && !v.is_f64()) {
      return Status::InvalidArgument("ReduceByKey: aggregate input " +
                                     expr.ToString() +
                                     " evaluated to a non-numeric value");
    }
    (*vals)[i] = v.is_i64() ? static_cast<T>(v.i64())
                            : static_cast<T>(v.AsDouble());
  }
  *lanes = vals->data();
  return Status::OK();
}

}  // namespace

Status ReduceByKey::EvalInputs(const RowSpan& rows, size_t m,
                               ChunkScratch* sc) const {
  const size_t k = slots_.size();
  if (sc->lanes.size() != k) {
    sc->bc.resize(k);
    sc->cols.resize(k);
    sc->vals.resize(k);
    sc->ivals.resize(k);
    sc->lanes.assign(k, nullptr);
    sc->ilanes.assign(k, nullptr);
  }
  const uint32_t* sel = IdentitySelection<kKeyChunkRows>();
  for (size_t j = 0; j < k; ++j) {
    const AggSlot& s = slots_[j];
    if (s.source != AggSource::kInterpreted &&
        s.source != AggSource::kProgram) {
      continue;
    }
    const BcProgram* prog =
        s.source == AggSource::kProgram ? &s.prog : nullptr;
    MODULARIS_RETURN_NOT_OK(
        s.dst_float ? InputLanes(*s.expr, prog, rows, sel, m, &sc->cols[j],
                                 &sc->bc[j], &sc->vals[j], &sc->lanes[j])
                    : InputLanes(*s.expr, prog, rows, sel, m, &sc->cols[j],
                                 &sc->bc[j], &sc->ivals[j], &sc->ilanes[j]));
  }
  return Status::OK();
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
  // Every aggregate starts at its identity; min/max at +/- infinity (the
  // integer extremes for integer states) so the first update takes effect.
  for (const AggSlot& s : slots_) {
    if (s.dst_float) {
      InitAgg<double>(s.kind, dst + s.dst_offset);
    } else {
      InitAgg<int64_t>(s.kind, dst + s.dst_offset);
    }
  }
}

void ReduceByKey::UpdateStateRow(uint8_t* dst, const uint8_t* row, size_t i,
                                 const ChunkScratch& sc) const {
  for (size_t j = 0; j < slots_.size(); ++j) {
    const AggSlot& s = slots_[j];
    // Only COUNT has no input (AggSource::kNone); it steps by 1.
    if (s.dst_float) {
      double v = 1;
      if (s.source == AggSource::kColumn) {
        v = LoadNumeric(row, s.src_offset, s.src_type);
      } else if (s.source != AggSource::kNone) {
        v = sc.lanes[j][i];
      }
      FoldAgg(s.kind, dst + s.dst_offset, v);
    } else {
      int64_t v = 1;
      if (s.source == AggSource::kColumn) {
        v = s.src_type == AtomType::kFloat64
                ? static_cast<int64_t>(LoadState<double>(row, s.src_offset))
                : LoadInteger(row, s.src_offset, s.src_type);
      } else if (s.source != AggSource::kNone) {
        v = sc.ilanes[j][i];
      }
      FoldAgg(s.kind, dst + s.dst_offset, v);
    }
  }
}

void ReduceByKey::MergeStateRow(uint8_t* dst, const uint8_t* src) const {
  for (const AggSlot& s : slots_) {
    if (s.dst_float) {
      FoldAgg(s.kind, dst + s.dst_offset,
              LoadState<double>(src, s.dst_offset));
    } else {
      FoldAgg(s.kind, dst + s.dst_offset,
              LoadState<int64_t>(src, s.dst_offset));
    }
  }
}

namespace {

// The slot count a state table needs for up to `keys` distinct keys under
// the 0.7 load factor (at least `min_slots`).
size_t StateSlotsFor(size_t keys, size_t min_slots = 1024) {
  size_t cap = min_slots;
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

// A chunk of the walk over zero key columns: every row has the key 0.
struct NoKeys {
  uint64_t Hash(size_t) const { return MixHash64(0); }
  template <typename Admit>
  uint32_t FindOrAdmit(StateTables* tables, size_t, Admit& admit,
                       bool* inserted) const {
    return tables->i64.FindOrAdmit(0, MixHash64(0), admit, inserted);
  }
};

}  // namespace

template <typename Fn>
Status ReduceByKey::WalkKeys(const KeyLayout& layout, const RowSpan& span,
                             size_t lo, size_t hi, ChunkScratch* sc, Fn&& fn,
                             const bool* stop) const {
  // keys_at(base, m) yields the key view of the chunk of m rows at base.
  auto walk = [&](auto&& keys_at) -> Status {
    for (size_t base = lo; base < hi && (stop == nullptr || !*stop);
         base += kKeyChunkRows) {
      const size_t m = std::min(hi - base, kKeyChunkRows);
      MODULARIS_RETURN_NOT_OK(fn(base, m, keys_at(base, m)));
    }
    return Status::OK();
  };
  if (layout.i64_col >= 0) {
    return walk([&](size_t base, size_t) {
      return I64Keys{span.data + base * span.stride, span.stride, span.schema,
                     layout.i64_col};
    });
  }
  if (!layout.prog.valid()) {
    return walk([](size_t, size_t) { return NoKeys{}; });
  }
  const uint32_t ks = layout.prog.key_size();
  sc->bytes.resize(std::min(hi - lo, kKeyChunkRows) * ks);
  sc->hash.resize(std::min(hi - lo, kKeyChunkRows));
  return walk([&](size_t base, size_t m) {
    layout.prog.SerializeAndHash(span, base, m, sc->bytes.data(),
                                 sc->hash.data());
    return ByteKeys{sc->bytes.data(), ks, sc->hash.data()};
  });
}

Status ReduceByKey::AggregateSpan(const uint8_t* rows, size_t n,
                                  const Schema& schema, const uint32_t* idx,
                                  AggLevel* level, ChunkScratch* sc,
                                  SpillScratch* scratch) {
  const size_t mem_limit = ctx_->options.memory_limit_bytes;
  const size_t state_row = out_schema_.row_size();
  RowVector* const states = level->states;
  StateTables* const tables = level->tables;
  // Asked on a miss only, with the table's bytes once the group is in. A
  // capped level admits up to its cap. Under a budget a level admits
  // while the state with the new group fits, and none from its first
  // refusal on, so every resident group's first occurrence precedes every
  // staged group's.
  auto admit = [&](size_t table_bytes) {
    if (level->admit_all) return true;
    if (level->max_groups != 0) return states->size() < level->max_groups;
    return level->overflow == nullptr &&
           StateFits(states->byte_size() + state_row + table_bytes,
                     mem_limit);
  };
  const uint32_t stride = schema.row_size();
  auto global = [idx](size_t j) {
    return idx != nullptr ? idx[j] : static_cast<uint32_t>(j);
  };
  return WalkKeys(
      in_keys_, RowSpan{rows, stride, &schema}, 0, n, sc,
      [&](size_t base, size_t m, const auto& keys) -> Status {
        const uint8_t* p = rows + base * stride;
        MODULARIS_RETURN_NOT_OK(EvalInputs(RowSpan{p, stride, &schema}, m, sc));
        for (size_t i = 0; i < m; ++i, p += stride) {
          bool inserted = false;
          const uint32_t state =
              keys.FindOrAdmit(tables, i, admit, &inserted);
          if (state == kNoState) {
            if (level->max_groups != 0) {
              level->full = true;  // one group too many: stop at once
              return Status::OK();
            }
            if (level->overflow == nullptr) {
              MODULARIS_RETURN_NOT_OK(OpenOverflow(level, schema, scratch));
            }
            const int pid = static_cast<int>(
                (keys.Hash(i) >> level->shift) & ((1 << kPartitionBits) - 1));
            MODULARIS_RETURN_NOT_OK(
                level->overflow->Add(pid, p, global(base + i)));
            continue;
          }
          if (inserted) {
            InitState(states, RowRef(p, &schema));
            if (level->first != nullptr) {
              level->first->push_back(global(base + i));
            }
          }
          UpdateStateRow(states->mutable_row(state), p, i, *sc);
        }
        return Status::OK();
      },
      &level->full);
}

Status ReduceByKey::ConsumeFewGroups(const RowVectorPtr& input, bool* taken) {
  *taken = false;
  const size_t n = input->size();
  const Schema& schema = input->schema();
  const uint32_t stride = input->row_size();
  const size_t chunks = (n + kFewGroupChunkRows - 1) / kFewGroupChunkRows;

  // Phase 1: each fixed chunk aggregates into a table of its own, capped
  // at kFewGroupsMax groups. Chunks are claimed dynamically — each is
  // owned by one worker and its run depends only on its rows — and the
  // first chunk that meets one group too many ends the kernel.
  std::vector<RowVectorPtr> runs(chunks);
  std::atomic<bool> many{false};
  MorselCursor cursor(chunks, 1, ctx_->cancel);
  MODULARIS_RETURN_NOT_OK(ParallelFor(
      ctx_, PlanWorkers(n, ctx_->options), [&](int) -> Status {
        StateTables tables;
        ChunkScratch sc;
        size_t c = 0, count = 0;
        while (!many.load() && cursor.Claim(&c, &count)) {
          const size_t lo = c * kFewGroupChunkRows;
          runs[c] = RowVector::Make(out_schema_);
          tables.Clear(kFewGroupSlots);
          AggLevel level{.states = runs[c].get(), .tables = &tables,
                         .admit_all = false, .max_groups = kFewGroupsMax};
          MODULARIS_RETURN_NOT_OK(AggregateSpan(
              input->data() + lo * stride,
              std::min(n - lo, kFewGroupChunkRows), schema, nullptr, &level,
              &sc, nullptr));
          if (level.full) many.store(true);
        }
        return Status::OK();
      }));
  if (many.load()) return Status::OK();

  size_t partial_bytes = 0;
  for (const RowVectorPtr& run : runs) partial_bytes += run->byte_size();
  mem_charge_.Add(partial_bytes);

  // Phase 2: the fixed pairwise tree over the chunk runs. Each merge keeps
  // first-occurrence order, and its shape depends only on the row count.
  StateTables tables;
  MODULARIS_RETURN_NOT_OK(PairwiseCombine(
      &runs, [&](RowVectorPtr* dst, RowVectorPtr* src) {
        return MergeRun(dst->get(), **src, &tables, &chunk_);
      }));
  if (!runs.empty()) states_ = std::move(runs[0]);
  AddStatCounter("parallel.reduce.chunks", static_cast<int64_t>(chunks));
  *taken = true;
  return Status::OK();
}

Status ReduceByKey::MergeRun(RowVector* dst, const RowVector& src,
                             StateTables* tables, ChunkScratch* sc) const {
  tables->Clear(StateSlotsFor(dst->size() + src.size(), kFewGroupSlots));
  auto admit = [](size_t) { return true; };
  // Key dst's groups first: state i is dst's row i.
  MODULARIS_RETURN_NOT_OK(WalkKeys(
      state_keys_, RowSpan{dst->data(), dst->row_size(), &out_schema_}, 0,
      dst->size(), sc, [&](size_t, size_t m, const auto& keys) -> Status {
        for (size_t i = 0; i < m; ++i) {
          bool inserted = false;
          keys.FindOrAdmit(tables, i, admit, &inserted);
        }
        return Status::OK();
      }));
  const uint32_t stride = src.row_size();
  return WalkKeys(
      state_keys_, RowSpan{src.data(), stride, &out_schema_}, 0, src.size(),
      sc, [&](size_t base, size_t m, const auto& keys) -> Status {
        for (size_t i = 0; i < m; ++i) {
          bool inserted = false;
          const uint32_t state = keys.FindOrAdmit(tables, i, admit, &inserted);
          const uint8_t* row = src.data() + (base + i) * stride;
          if (inserted) {
            dst->AppendRaw(row);
          } else {
            MergeStateRow(dst->mutable_row(state), row);
          }
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
    ChunkScratch sc;
    return WalkKeys(in_keys_, span, bounds[w], bounds[w + 1], &sc,
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
  std::vector<RowRun> runs(kFanout);
  std::vector<int64_t> wrehash(workers, 0);
  MorselCursor cursor(kFanout, 1, ctx_->cancel);
  MODULARIS_RETURN_NOT_OK(ParallelFor(ctx_, workers, [&](int w) -> Status {
    StateTables tables;
    ChunkScratch sc;
    size_t begin = 0, count = 0;
    while (cursor.Claim(&begin, &count)) {
      for (size_t p = begin; p < begin + count; ++p) {
        const size_t rows_p = prefix[p + 1] - prefix[p];
        if (rows_p == 0) continue;
        tables.Clear(StateSlotsFor(std::min(rows_p, kMaxReserveKeys)));
        RowRun& run = runs[p];
        run.rows = RowVector::Make(out_schema_);
        AggLevel level{.states = run.rows.get(), .first = &run.idx,
                       .tables = &tables};
        MODULARIS_RETURN_NOT_OK(AggregateSpan(
            scat->data() + prefix[p] * stride, rows_p, schema,
            idx.data() + prefix[p], &level, &sc, nullptr));
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
  for (const RowRun& run : runs) used_partitions += !run.idx.empty();
  MergeRowRuns(runs, states_.get(), nullptr);
  int64_t rehashes = 0;
  for (int w = 0; w < workers; ++w) rehashes += wrehash[w];
  AddStatCounter("reduce.rehash", rehashes);
  AddStatCounter("parallel.reduce.partitions", used_partitions);
  return Status::OK();
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
                                        &chunk_, &scratch));
  if (top.overflow == nullptr) return Status::OK();  // all stayed resident
  input.reset();  // drop our reference to the drained input
  return AggregateOverflow(&top, in_schema_, &scratch);
}

Status ReduceByKey::OpenOverflow(AggLevel* level, const Schema& schema,
                                 SpillScratch* scratch) {
  // The operator's first refused group decides whether spilling is
  // possible at all — before anything is written.
  if (scratch->spill == nullptr) {
    MODULARIS_ASSIGN_OR_RETURN(
        scratch->spill,
        storage::AdmitSpill(ctx_, "ReduceByKey", "reduce",
                            in_schema_.row_size(),
                            "group state exceeds half of"));
  }
  constexpr int kFanout = 1 << kPartitionBits;
  const size_t chunk_rows = std::max<size_t>(
      1, SpillQuotaBytes(ctx_->options.memory_limit_bytes) /
             (static_cast<size_t>(schema.row_size()) * kFanout));
  level->overflow = std::make_unique<storage::SpillWriter>(
      scratch->spill.get(), scratch->spill->NewPass(), schema, chunk_rows);
  AddStatCounter("spill.passes", 1);
  return Status::OK();
}

Status ReduceByKey::AggregateOverflow(AggLevel* level, const Schema& schema,
                                      SpillScratch* scratch) {
  constexpr int kFanout = 1 << kPartitionBits;
  storage::SpillSet* spill = scratch->spill.get();
  MODULARIS_RETURN_NOT_OK(level->overflow->Flush());
  const int pass = level->overflow->pass();

  // Partitions aggregate ascending by id; each yields one run ascending by
  // global first-occurrence index, and the merge restores global order.
  std::vector<RowRun> runs;
  for (int pid = 0; pid < kFanout; ++pid) {
    if (spill->NumChunks(pass, pid) == 0) continue;
    RowRun run{RowVector::Make(out_schema_), {}};
    MODULARIS_RETURN_NOT_OK(AggregateSpilledPartition(
        pass, pid, level->shift, schema, &run, scratch));
    runs.push_back(std::move(run));
  }
  AddStatCounter("spill.partitions", static_cast<int64_t>(runs.size()));
  MergeRowRuns(runs, level->states, level->first);
  return Status::OK();
}

Status ReduceByKey::AggregateSpilledPartition(int pass, int pid, int shift,
                                              const Schema& schema,
                                              RowRun* out,
                                              SpillScratch* scratch) {
  if (ctx_->cancel != nullptr) MODULARIS_RETURN_NOT_OK(ctx_->cancel->Check());
  // The tables are free again by the time the overflow recurses: this
  // level's groups only update while its chunks stream.
  scratch->tables.Clear(kHybridFirstSlots);
  // A partition cut by the last hash window cannot be split further (a
  // single hot key, practically): it keeps every group, which is the
  // operator's own irreducible output.
  AggLevel level{.states = out->rows.get(), .first = &out->idx,
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
                                          &chunk_, scratch));
  }
  spill->DeletePartition(pass, pid);
  if (level.overflow == nullptr) return Status::OK();
  return AggregateOverflow(&level, schema, scratch);
}

Status ReduceByKey::ConsumeAll() {
  timer_.Bind(ctx_->stats, timer_key_);
  ScopedPhase phase(&timer_);
  Status st = ConsumeAllInner();
  if (st.ok()) {
    mem_charge_.Add(states_->byte_size() + tables_.byte_size());
  }
  return st;
}

Status ReduceByKey::ConsumeAllInner() {
  // Drain → size → run at every thread count: the drain adopts a single
  // durable collection (every production input) zero-copy, so the kernel
  // choice, the spill decision and the worker count are pure functions of
  // the limit and the drained input (docs/DESIGN-parallel.md).
  RowVectorPtr input;
  MODULARIS_RETURN_NOT_OK(DrainRecordStream(child(0), &input));
  if (input == nullptr) return Status::OK();
  if (!input->schema().SameLayout(in_schema_)) {
    return Status::InvalidArgument(
        "ReduceByKey: rows " + input->schema().ToString() +
        " do not match the input schema " + in_schema_.ToString());
  }
  mem_charge_.Add(input->byte_size());
  // The few-group kernel is chosen first, so budgeted and unlimited runs
  // take the same kernel for the same input. Keyless input always takes
  // it (one group per chunk).
  bool taken = false;
  MODULARIS_RETURN_NOT_OK(ConsumeFewGroups(input, &taken));
  if (taken) return Status::OK();
  const size_t mem_limit = ctx_->options.memory_limit_bytes;
  if (mem_limit > 0 && ShouldSpill(input->byte_size(), mem_limit)) {
    return ConsumeAllSpill(std::move(input));
  }
  const int workers = PlanWorkers(input->size(), ctx_->options);
  if (workers > 1) return ConsumeAllParallel(input, workers);
  AggLevel level{.states = states_.get(), .tables = &tables_};
  return AggregateSpan(input->data(), input->size(), input->schema(), nullptr,
                       &level, &chunk_, nullptr);
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
               std::string timer_key, std::string name)
    : SubOperator(std::move(name)),
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
  // TopK spills under the Sort tag: one external-merge mechanism.
  MODULARIS_ASSIGN_OR_RETURN(
      spill_, storage::AdmitSpill(ctx_, "Sort", "sort", stride,
                                  "materialized input of " +
                                      std::to_string(rows_->byte_size()) +
                                      " bytes exceeds"));
  external_ = true;

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
    storage::SpillWriter writer(spill_.get(), pass0, schema_, chunk_rows);
    auto less = [this](uint32_t x, uint32_t y) { return RowBefore(x, y); };
    for (size_t base = 0; base < n; base += run_rows, ++num_runs) {
      const size_t m = std::min(n - base, run_rows);
      perm.resize(m);
      for (size_t i = 0; i < m; ++i) perm[i] = static_cast<uint32_t>(base + i);
      const size_t keep = std::min(emit_limit_, m);
      SortPrefix(perm.begin(), perm.end(), keep, less);
      for (size_t i = 0; i < keep; ++i) {
        MODULARIS_RETURN_NOT_OK(writer.Add(
            num_runs, rows_->data() + static_cast<size_t>(perm[i]) * stride,
            perm[i]));
      }
      MODULARIS_RETURN_NOT_OK(writer.Flush());  // the run's last chunk
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
    storage::SpillWriter writer(spill_.get(), dst_pass, schema_, chunk_rows);
    size_t emitted = 0;
    while (!hp.empty() && emitted < emit_limit_) {
      std::pop_heap(hp.begin(), hp.end(), cmp);
      const int ci = hp.back();
      hp.pop_back();
      RunCursor& c = cs[ci];
      MODULARIS_RETURN_NOT_OK(
          writer.Add(dst_run, c.rows->data() + c.pos * stride, c.idx[c.pos]));
      ++emitted;
      ++c.pos;
      bool has = false;
      MODULARIS_RETURN_NOT_OK(EnsureCursorRow(&c, &has));
      if (has) {
        hp.push_back(ci);
        std::push_heap(hp.begin(), hp.end(), cmp);
      }
    }
    MODULARIS_RETURN_NOT_OK(writer.Flush());
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
