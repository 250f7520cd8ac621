#ifndef MODULARIS_SUBOPERATORS_AGG_OPS_H_
#define MODULARIS_SUBOPERATORS_AGG_OPS_H_

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/expr.h"
#include "core/expr_bc.h"
#include "core/memory.h"
#include "core/parallel.h"
#include "core/sub_operator.h"
#include "storage/spill.h"

/// \file agg_ops.h
/// Aggregation, grouping, sorting and top-k sub-operators. ReduceByKey is
/// the "highly optimized parallel hash map" the paper credits for the Q1 /
/// Q18 speedups (§5.1.1): open-addressing tables probed a key chunk at a
/// time, aggregate inputs read by direct offset (bare columns) or computed
/// a chunk at a time by bytecode programs when fusion is enabled, and a
/// few-group kernel — fixed-chunk partial tables combined by a pairwise
/// tree — for the low-cardinality and keyless shapes
/// (docs/DESIGN-parallel.md).

namespace modularis {

/// The state tables' "no such key" index.
constexpr uint32_t kNoState = std::numeric_limits<uint32_t>::max();

/// Open-addressing hash map from i64 keys to dense state indices.
class I64StateMap {
 public:
  /// Returns the state index for `key`, whose hash is
  /// MixHash64(key). On a miss, inserts the key (sets `*inserted`) when
  /// `admit(byte_size_after_insert())` holds, and returns kNoState with
  /// the table unchanged otherwise — so every lookup is one probe, and
  /// the table only grows on an admitted insert.
  template <typename Admit>
  uint32_t FindOrAdmit(int64_t key, uint64_t hash, Admit&& admit,
                       bool* inserted) {
    size_t slot = 0;
    if (!keys_.empty()) {
      slot = Probe(key, hash);
      if (used_[slot]) return vals_[slot];
    }
    if (!admit(byte_size_after_insert())) return kNoState;
    const size_t slots = SlotsAfterInsert();
    if (slots != keys_.size()) {
      Rehash(slots);
      slot = Probe(key, hash);
    }
    keys_[slot] = key;
    vals_[slot] = static_cast<uint32_t>(size_);
    used_[slot] = 1;
    *inserted = true;
    return static_cast<uint32_t>(size_++);
  }
  /// Empties the table; the next insert allocates `first_slots` slots and
  /// growth doubles from there.
  void Clear(size_t first_slots = 1024);

  /// Growth steps that had to move live entries since the last Clear().
  int64_t rehashes() const { return rehashes_; }

  /// Allocated footprint in bytes, charged against the rank's
  /// MemoryBudget by the owning operator (docs/DESIGN-memory.md).
  size_t byte_size() const {
    return keys_.capacity() * sizeof(int64_t) +
           vals_.capacity() * sizeof(uint32_t) + used_.capacity();
  }
  /// byte_size() once one more key is inserted (the insert may grow the
  /// table first) — the hybrid aggregation's admission input.
  size_t byte_size_after_insert() const {
    return SlotsAfterInsert() *
           (sizeof(int64_t) + sizeof(uint32_t) + sizeof(uint8_t));
  }

 private:
  void Rehash(size_t cap);
  /// The slot count once one more key is inserted: the first insert
  /// allocates, and an insert at the 0.7 load factor doubles.
  size_t SlotsAfterInsert() const {
    if (keys_.empty()) return first_slots_;
    return size_ * 10 >= keys_.size() * 7 ? keys_.size() * 2 : keys_.size();
  }
  /// The slot holding `key`, or the empty slot that ends its probe run.
  size_t Probe(int64_t key, uint64_t hash) const;

  std::vector<int64_t> keys_;
  std::vector<uint32_t> vals_;
  std::vector<uint8_t> used_;
  size_t mask_ = 0;
  size_t size_ = 0;
  size_t first_slots_ = 1024;
  int64_t rehashes_ = 0;
};

/// Flat open-addressing hash table from serialized byte keys (KeyCodec
/// output) to dense state indices — the string / multi-column / float-key
/// analog of I64StateMap. Linear probing over a power-of-two slot array;
/// keys of up to 16 bytes live inline in the slot, longer keys spill into
/// an append-only overflow arena (offsets stay stable across growth, so
/// rehashing never touches key bytes).
class ByteStateTable {
 public:
  /// I64StateMap::FindOrAdmit for the key `key[0..len)`; `hash` must be
  /// HashKeyBytes(key, len).
  template <typename Admit>
  uint32_t FindOrAdmit(const uint8_t* key, uint32_t len, uint64_t hash,
                       Admit&& admit, bool* inserted) {
    size_t slot = 0;
    if (!slots_.empty()) {
      slot = Probe(key, len, hash);
      if (slots_[slot].len_plus1 != 0) return slots_[slot].val;
    }
    if (!admit(byte_size_after_insert(len))) return kNoState;
    const size_t slots = SlotsAfterInsert();
    if (slots != slots_.size()) {
      Rehash(slots);
      slot = Probe(key, len, hash);
    }
    Insert(&slots_[slot], key, len, hash);
    *inserted = true;
    return static_cast<uint32_t>(size_++);
  }
  /// See I64StateMap::Clear.
  void Clear(size_t first_slots = 1024);
  int64_t rehashes() const { return rehashes_; }
  /// Allocated footprint in bytes (slot array + overflow key arena).
  size_t byte_size() const;
  /// byte_size() once a `len`-byte key is inserted (see
  /// I64StateMap::byte_size_after_insert); a key past the inline bytes
  /// adds its length to the arena.
  size_t byte_size_after_insert(uint32_t len) const {
    return SlotsAfterInsert() * sizeof(Slot) + arena_.capacity() +
           (len > kInlineBytes ? len : 0);
  }

 private:
  static constexpr uint32_t kInlineBytes = 16;
  struct Slot {
    uint64_t hash = 0;
    uint32_t val = 0;
    uint32_t len_plus1 = 0;  // 0 = empty (len 0 is a valid key)
    uint8_t key[kInlineBytes];  // inline bytes, or a u64 arena offset
  };
  void Rehash(size_t cap);
  /// See I64StateMap::SlotsAfterInsert.
  size_t SlotsAfterInsert() const {
    if (slots_.empty()) return first_slots_;
    return size_ * 10 >= slots_.size() * 7 ? slots_.size() * 2 : slots_.size();
  }
  size_t Probe(const uint8_t* key, uint32_t len, uint64_t hash) const;
  /// Fills the empty slot `s` with the key as state index size_.
  void Insert(Slot* s, const uint8_t* key, uint32_t len, uint64_t hash);
  const uint8_t* SlotKey(const Slot& s) const;

  std::vector<Slot> slots_;
  std::vector<uint8_t> arena_;  // overflow storage for keys > 16 bytes
  size_t mask_ = 0;
  size_t size_ = 0;
  size_t first_slots_ = 1024;
  int64_t rehashes_ = 0;
};

/// The state tables of one aggregation level: the one the operator's key
/// kind probes is used, the other stays empty.
struct StateTables {
  I64StateMap i64;
  ByteStateTable bytes;

  void Clear(size_t first_slots = 1024) {
    i64.Clear(first_slots);
    bytes.Clear(first_slots);
  }
  size_t byte_size() const { return i64.byte_size() + bytes.byte_size(); }
  int64_t rehashes() const { return i64.rehashes() + bytes.rehashes(); }
};

/// ReduceByKey aggregates records by one or more key columns.
/// Output schema: the key fields followed by one field per AggSpec.
class ReduceByKey : public SubOperator {
 public:
  ReduceByKey(SubOpPtr child, std::vector<int> key_cols,
              std::vector<AggSpec> aggs, Schema in_schema,
              std::string timer_key = "phase.reduce_by_key")
      : SubOperator("ReduceByKey"),
        key_cols_(std::move(key_cols)),
        aggs_(std::move(aggs)),
        in_schema_(std::move(in_schema)),
        out_schema_(MakeOutputSchema(in_schema_, key_cols_, aggs_)),
        timer_key_(std::move(timer_key)) {
    AddChild(std::move(child));
  }

  /// Key fields followed by aggregate fields.
  static Schema MakeOutputSchema(const Schema& in,
                                 const std::vector<int>& key_cols,
                                 const std::vector<AggSpec>& aggs);

  const Schema& out_schema() const { return out_schema_; }
  const std::vector<AggSpec>& aggs() const { return aggs_; }
  const Schema& in_schema() const { return in_schema_; }
  const std::string& timer_key() const { return timer_key_; }

  Status Open(ExecContext* ctx) override;
  bool Next(Tuple* out) override;
  bool ProducesRecordStream() const override { return true; }

  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override {
    SubOpPtr child_clone = child(0)->CloneForWorker(cc);
    if (child_clone == nullptr) return nullptr;
    return std::make_unique<ReduceByKey>(std::move(child_clone), key_cols_,
                                         aggs_, in_schema_, timer_key_);
  }

 private:
  /// Hash-partition fanout of the partition-owned parallel pass: 256
  /// partitions bound the per-partition state tables L1/L2-resident at
  /// 1M-group inputs while leaving enough independent units for dynamic
  /// claiming to balance skew. Partition ids come from the key hash's
  /// HIGH bits (the state tables consume the low bits), so the two never
  /// alias — and the id is a pure function of the key, never of the
  /// worker count, which is what makes the plan deterministic.
  static constexpr int kPartitionBits = 8;
  /// Rows per chunk of the (key, hash) walk, and of the aggregate-input
  /// evaluation that runs alongside it.
  static constexpr size_t kKeyChunkRows = 1024;
  /// Fixed chunk size of the few-group kernel. A constant — NOT a
  /// thread-derived split — so the chunk partials, the pairwise tree over
  /// them, and with it every float partial sum, are identical at any
  /// thread count.
  static constexpr size_t kFewGroupChunkRows = 1 << 14;
  /// Distinct keys a few-group chunk admits. A chunk that meets one more
  /// hands the input back to the partition-owned / budgeted paths.
  static constexpr size_t kFewGroupsMax = 64;
  /// Slots of a few-group chunk table: kFewGroupsMax keys fit under the
  /// 0.7 load factor, so a chunk table never rehashes.
  static constexpr size_t kFewGroupSlots = 128;
  /// Slots a budgeted level's table starts with: small, so that tiny
  /// budgets still admit groups; the table doubles from there.
  static constexpr size_t kHybridFirstSlots = 8;

  /// How one row layout's group key is read by the (key, hash) walk: a
  /// single integer column, a serialized key (KeyProgram), or no key at
  /// all — the keyless case, where every row is the one group.
  struct KeyLayout {
    int i64_col = -1;
    KeyProgram prog;
  };
  static KeyLayout MakeKeyLayout(const Schema& schema,
                                 const std::vector<int>& cols);
  /// Per-worker buffers of one kKeyChunkRows chunk: the serialized keys
  /// and hashes of the walk, and each aggregate's input values.
  struct ChunkScratch {
    std::vector<uint8_t> bytes;
    std::vector<uint64_t> hash;
    std::vector<BcState> bc;                 // per aggregate program
    std::vector<BatchColumn> cols;           // per aggregate program
    // The chunk's input values in each state's own type: `lanes` for a
    // float state, `ilanes` for an integer one; converted lanes live in
    // `vals` / `ivals`.
    std::vector<std::vector<double>> vals;
    std::vector<std::vector<int64_t>> ivals;
    std::vector<const double*> lanes;
    std::vector<const int64_t*> ilanes;
  };
  /// What the budgeted levels share: the spill set (created at the
  /// operator's first refused group) and the recursion's reusable tables.
  struct SpillScratch {
    std::unique_ptr<storage::SpillSet> spill;
    StateTables tables;
  };
  /// The groups one pass of the aggregation kernel fills: their states in
  /// insertion order, optionally their global first-occurrence indices,
  /// and the tables keyed on them. A level either admits every new group,
  /// or admits at most `max_groups` and stops at once (`full`) at the next
  /// one — a few-group chunk — or, under a budget, admits one while
  /// StateFits and from its first refusal on stages every row of a
  /// non-resident group for its overflow, scattered by the hash window at
  /// `shift`.
  struct AggLevel {
    RowVector* states = nullptr;
    std::vector<uint32_t>* first = nullptr;  // or null: not recorded
    StateTables* tables = nullptr;
    /// Admit every new group: no budget binds the level, or its hash is
    /// exhausted (the terminal level keeps all).
    bool admit_all = true;
    size_t max_groups = 0;  // few-group chunk: the cap (0: none)
    bool full = false;      // the capped level met one group too many
    int shift = 0;  // overflow partition id = (hash >> shift) & 255
    /// The overflow pass's writer, opened at the first refusal.
    std::unique_ptr<storage::SpillWriter> overflow = nullptr;
  };

  Status ConsumeAll();
  Status ConsumeAllInner();
  /// Partition-owned parallel aggregation (docs/DESIGN-parallel.md):
  /// partition the input by the key hash's high bits with the ranged
  /// scatter (rows land grouped by key partition in original row order,
  /// their input indices alongside), then each partition is aggregated
  /// exclusively by one worker — zero cross-thread merging, so float SUM
  /// accumulates in exactly the serial order and N threads are
  /// byte-equal to 1 by construction. Groups are emitted in global
  /// first-occurrence order by MergeRowRuns over the per-partition runs
  /// (each a RowRun of group states and first-occurrence indices).
  Status ConsumeAllParallel(const RowVectorPtr& input, int workers);
  /// The few-group kernel (docs/DESIGN-parallel.md): aggregates each
  /// fixed kFewGroupChunkRows chunk into its own table of at most
  /// kFewGroupsMax groups, then folds the chunk runs through the fixed
  /// pairwise tree (MergeRun). Keyless aggregation is its zero-key case.
  /// Leaves `*taken` false, with nothing emitted, as soon as any chunk
  /// meets one key too many — a pure function of the drained input.
  Status ConsumeFewGroups(const RowVectorPtr& input, bool* taken);
  /// Folds the group run `src` into `dst`, whose rows all precede src's
  /// in the input: a group already in `dst` merges its state, any other
  /// appends in src's order, so `dst` stays in first-occurrence order.
  Status MergeRun(RowVector* dst, const RowVector& src, StateTables* tables,
                  ChunkScratch* sc) const;
  /// Combines one partial state row into another (associative merge).
  void MergeStateRow(uint8_t* dst, const uint8_t* src) const;
  void InitState(RowVector* states, const RowRef& row) const;
  /// Writes the aggregate identity values into a state row (keys
  /// untouched).
  void InitStateAggs(uint8_t* dst) const;
  /// Evaluates the aggregate inputs that are not read by direct offset
  /// for the `m` rows of `rows` into `sc->lanes` / `sc->ilanes` — bytecode
  /// programs, or the row interpreter when fusion is off. A non-numeric
  /// value is an InvalidArgument error.
  Status EvalInputs(const RowSpan& rows, size_t m, ChunkScratch* sc) const;
  /// The per-row update of state row `dst` by input row `row`, lane `i` of
  /// the chunk `sc` evaluated — safe to run from worker threads.
  void UpdateStateRow(uint8_t* dst, const uint8_t* row, size_t i,
                      const ChunkScratch& sc) const;

  /// The (key, hash) walk every pass shares, and the one place the key
  /// kind is read: walks rows [lo, hi) of `span`, whose key `layout`
  /// describes, one kKeyChunkRows chunk at a time and calls
  /// fn(base, m, keys) per chunk of `m` rows from `base`, until `*stop`
  /// (when given) is set. `keys` gives row i's Hash(i) and probes the
  /// row's key into the state table of its kind (FindOrAdmit); serialized
  /// keys are hashed a chunk at a time into `sc`.
  template <typename Fn>
  Status WalkKeys(const KeyLayout& layout, const RowSpan& span, size_t lo,
                  size_t hi, ChunkScratch* sc, Fn&& fn,
                  const bool* stop = nullptr) const;
  /// The one aggregation kernel: walks `n` rows (global indices `idx`, or
  /// 0..n-1 when null) through `level`, evaluating the aggregate inputs a
  /// key chunk at a time — a resident group updates in place, a new group
  /// the level admits is initialized, a capped level stops at the first
  /// group it refuses, and any other row is staged for the level's
  /// overflow. Safe to run from worker threads on a level that never
  /// stages.
  Status AggregateSpan(const uint8_t* rows, size_t n, const Schema& schema,
                       const uint32_t* idx, AggLevel* level, ChunkScratch* sc,
                       SpillScratch* scratch);

  // -- Hybrid hash aggregation under a budget (docs/DESIGN-memory.md) -------

  /// Budget-forced degradation: aggregates the drained input into the
  /// operator's own table while the group state fits half the budget,
  /// spills only the rows of the groups refused after that, and appends
  /// their aggregation behind the resident groups — byte-equal to the
  /// in-memory path at any budget and thread count.
  Status ConsumeAllSpill(RowVectorPtr input);
  /// At `level`'s first refused group: stops its admissions and opens its
  /// overflow pass's writer for rows of `schema` — and at the operator's
  /// first, its SpillSet (AdmitSpill), or fails fast when spilling cannot
  /// work.
  Status OpenOverflow(AggLevel* level, const Schema& schema,
                      SpillScratch* scratch);
  /// Writes out `level`'s staged rows, aggregates its overflow partitions
  /// in ascending id order and appends their merged runs behind its
  /// resident groups.
  Status AggregateOverflow(AggLevel* level, const Schema& schema,
                           SpillScratch* scratch);
  /// Aggregates one spilled partition into `out` (group states and
  /// first-occurrence indices) as a level of its own, recursing into its
  /// overflow on the next 8-bit hash window.
  Status AggregateSpilledPartition(int pass, int pid, int shift,
                                   const Schema& schema, RowRun* out,
                                   SpillScratch* scratch);

  std::vector<int> key_cols_;
  std::vector<AggSpec> aggs_;
  Schema in_schema_;
  Schema out_schema_;
  std::string timer_key_;
  PhaseTimer timer_;

  // Compiled update plan (set up at Open).
  enum class AggSource : uint8_t {
    kNone,         // COUNT: no input value
    kColumn,       // a bare column, read by direct offset (fusion on)
    kProgram,      // a computed input, run as bytecode (fusion on)
    kInterpreted,  // the row interpreter (the enable_fusion = false path)
  };
  struct AggSlot {
    AggKind kind;
    AggSource source;
    AtomType src_type;    // kColumn: the column's type
    uint32_t src_offset;  // kColumn: its byte offset in the input row
    uint32_t dst_offset;
    bool dst_float;
    const Expr* expr;  // kInterpreted
    BcProgram prog;    // kProgram
  };
  std::vector<AggSlot> slots_;

  RowVectorPtr states_;
  StateTables tables_;
  /// The group key as the input rows and as the state rows hold it.
  KeyLayout in_keys_;
  KeyLayout state_keys_;
  ChunkScratch chunk_;

  bool consumed_ = false;
  size_t emit_pos_ = 0;
  /// Accounting for the blocking state (drained input, state tables,
  /// group states) against the rank's MemoryBudget; released on
  /// destruction or re-Open.
  ScopedCharge mem_charge_;
};

/// Reduce: keyless aggregation producing exactly one record.
class Reduce : public SubOperator {
 public:
  Reduce(SubOpPtr child, std::vector<AggSpec> aggs, Schema in_schema,
         std::string timer_key = "phase.reduce")
      : SubOperator("Reduce"),
        inner_(std::move(child), {}, std::move(aggs), std::move(in_schema),
               std::move(timer_key)) {}

  const Schema& out_schema() const { return inner_.out_schema(); }
  /// The aggregated input (a child of the inner ReduceByKey), for EXPLAIN.
  const SubOperator* input() const { return inner_.child(0); }

  Status Open(ExecContext* ctx) override;
  bool Next(Tuple* out) override;
  bool ProducesRecordStream() const override { return true; }
  Status Close() override { return inner_.Close(); }

  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override {
    SubOpPtr child_clone = inner_.child(0)->CloneForWorker(cc);
    if (child_clone == nullptr) return nullptr;
    return std::make_unique<Reduce>(std::move(child_clone), inner_.aggs(),
                                    inner_.in_schema(), inner_.timer_key());
  }

 private:
  ReduceByKey inner_;
  RowVectorPtr empty_state_;
  bool emitted_ = false;
};

/// One sort criterion: column index + direction.
struct SortKey {
  int col = 0;
  bool desc = false;
};

/// Three-way compare of f64 sort keys under a TOTAL order: NaN is greater
/// than every non-NaN and equal to itself, so NaN sorts last ascending /
/// first descending — the same "NaN orders as greater" rule the
/// expression compare kernels document (core/expr_bc.cc). -0.0 == 0.0 as
/// in IEEE compares. The plain `x < y ? -1 : (x == y ? 0 : 1)` idiom is
/// NOT a strict weak ordering once a NaN appears (NaN would compare
/// "greater" than itself), which hands std::sort/std::stable_sort
/// undefined behaviour.
inline int CompareF64TotalOrder(double x, double y) {
  if (x < y) return -1;
  if (y < x) return 1;
  if (x == y) return 0;
  // Neither ordered nor equal: at least one side is NaN.
  const bool nx = std::isnan(x);
  return nx == std::isnan(y) ? 0 : (nx ? 1 : -1);
}

/// Compares two packed rows by a sequence of sort keys. Float64 keys use
/// CompareF64TotalOrder, so the result is a strict weak ordering even
/// with NaN keys present.
int CompareRows(const RowRef& a, const RowRef& b,
                const std::vector<SortKey>& keys);

/// Sort materializes its input and emits records in sorted order.
/// Deterministic parallel execution (docs/DESIGN-parallel.md):
/// morsel-parallel run formation — each worker sorts a static contiguous
/// index range by the total-order comparator, tie-broken by original row
/// index — followed by a K-way loser-tree merge of the per-worker runs,
/// so N-thread output is byte-identical to 1-thread output by
/// construction.
class SortOp : public SubOperator {
 public:
  /// `name` is the operator name plans and EXPLAIN show.
  SortOp(SubOpPtr child, std::vector<SortKey> keys, Schema schema,
         std::string timer_key = "phase.sort", std::string name = "Sort");
  ~SortOp() override;

  Status Open(ExecContext* ctx) override;
  bool Next(Tuple* out) override;
  /// Native batch path: gathers the sorted permutation into packed
  /// kDefaultRows batches (one full-stride memcpy per row instead of the
  /// default adapter's tuple loop). Shares the emit cursor with Next(),
  /// so the two protocols may be mixed mid-stream.
  bool NextBatch(RowBatch* out) override;
  bool ProducesRecordStream() const override { return true; }

  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override {
    SubOpPtr child_clone = child(0)->CloneForWorker(cc);
    if (child_clone == nullptr) return nullptr;
    return std::make_unique<SortOp>(std::move(child_clone), keys_, schema_,
                                    timer_key_);
  }

 protected:
  /// Emit limit: kNoLimit = the whole input. TopK overrides with k (a
  /// literal count: k = 0 emits nothing, like LIMIT 0); Next() and
  /// NextBatch() are shared verbatim (one emit path), so the limit
  /// semantics cannot drift between the two operators again.
  static constexpr size_t kNoLimit = std::numeric_limits<size_t>::max();
  virtual size_t SortLimit() const { return kNoLimit; }

  /// Lazily drains + sorts on first pull; false (status set) on error.
  bool EnsureSorted();

  /// The sort's strict TOTAL order over rows_ indices: the NaN-safe key
  /// comparator, tie-broken by the original row index. It makes the
  /// merged order independent of how the input is cut into runs — N
  /// workers byte-equal to 1 by construction.
  bool RowBefore(uint32_t x, uint32_t y) const;

  /// Materializes the input and produces the sorted index permutation.
  /// Under `limit`, per-run selection is bounded: each run partial-sorts
  /// only its top-`limit` prefix and the merge emits the global
  /// top-`limit` — the input is never fully sorted just to emit k rows.
  Status ConsumeAndSort(size_t limit);

  // -- External merge sort (docs/DESIGN-memory.md) --------------------------

  /// A streaming cursor over one spilled sorted run: loads one chunk at a
  /// time and walks its rows; `idx` carries the rows' global input
  /// indices (the comparator tie-break that keeps the external order
  /// byte-equal to the in-memory one).
  struct RunCursor {
    int pass = 0;
    int pid = 0;
    int chunk = 0;  // next chunk to load
    int num_chunks = 0;
    size_t pos = 0;  // position within the loaded chunk
    RowVectorPtr rows;
    std::vector<uint32_t> idx;
  };
  /// Budget-forced degradation: cut the drained input into quota-sized
  /// sorted runs on the blob store, cascade-merge them while the fan-in
  /// exceeds what the quota can keep resident, and leave the final merge
  /// streaming through Next()/NextBatch().
  Status ConsumeExternal(size_t limit);
  /// Ensures the cursor points at an unread row, loading chunks as
  /// needed; `*has_row` false when the run is exhausted.
  Status EnsureCursorRow(RunCursor* c, bool* has_row);
  /// True when cursor `a`'s head row orders strictly before `b`'s under
  /// (sort keys, global index).
  bool CursorBefore(const RunCursor& a, const RunCursor& b) const;
  /// Pops the next row of the final streaming merge into `*row`
  /// (`*done` when the merge or the emit limit is exhausted). The
  /// returned pointer is valid until the owning cursor advances past its
  /// loaded chunk, so callers must copy before the next pop.
  Status NextExternalRow(const uint8_t** row, bool* done);

  std::vector<SortKey> keys_;
  Schema schema_;
  std::string timer_key_;
  PhaseTimer timer_;
  RowVectorPtr rows_;
  std::vector<uint32_t> order_;
  bool sorted_ = false;
  size_t emit_pos_ = 0;
  size_t emit_limit_ = 0;

  // External-merge state (live only when a budget forced the spill).
  bool external_ = false;
  std::unique_ptr<storage::SpillSet> spill_;
  std::vector<RunCursor> runs_;
  std::vector<int> heap_;  // manual min-heap of cursor indices
  RowVectorPtr emit_row_;  // one-row scratch backing Next()'s RowRef
  /// Accounting for the materialized sort input against the rank's
  /// MemoryBudget (docs/DESIGN-memory.md).
  ScopedCharge mem_charge_;
};

/// TopK: sort + limit (paper Table 1; the final SELECT ... LIMIT k of
/// Q3/Q18 and the single-row result of Q12's plan in Fig. 6). Pure
/// configuration over SortOp: the bounded selection, the merge and both
/// emit protocols live in the base class.
class TopK : public SortOp {
 public:
  TopK(SubOpPtr child, std::vector<SortKey> keys, size_t k, Schema schema,
       std::string timer_key = "phase.topk")
      : SortOp(std::move(child), std::move(keys), std::move(schema),
               std::move(timer_key), "TopK"),
        k_(k) {}

  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override {
    SubOpPtr child_clone = child(0)->CloneForWorker(cc);
    if (child_clone == nullptr) return nullptr;
    return std::make_unique<TopK>(std::move(child_clone), keys_, k_, schema_,
                                  timer_key_);
  }

 protected:
  size_t SortLimit() const override { return k_; }

 private:
  size_t k_;
};

/// GroupBy merges ⟨pid, collection⟩ pairs by pid and emits one
/// ⟨pid, merged collection⟩ per distinct pid in ascending pid order
/// (used by the serverless exchange, §4.4).
class GroupByPid : public SubOperator {
 public:
  explicit GroupByPid(SubOpPtr child) : SubOperator("GroupBy") {
    AddChild(std::move(child));
  }

  Status Open(ExecContext* ctx) override {
    groups_.clear();
    grouped_ = false;
    return SubOperator::Open(ctx);
  }

  bool Next(Tuple* out) override;

  /// Record projection of the stream (docs/DESIGN-vectorized.md): each
  /// merged group forwarded as one durable borrowed batch in ascending
  /// pid order. The pid atom itself is only observable through Next();
  /// batch and row pulls share the emit cursor.
  bool NextBatch(RowBatch* out) override;

 private:
  /// Drains the input and merges collections per pid.
  Status GroupAll();

  std::map<int64_t, RowVectorPtr> groups_;
  std::map<int64_t, RowVectorPtr>::iterator emit_it_;
  bool grouped_ = false;
};

}  // namespace modularis

#endif  // MODULARIS_SUBOPERATORS_AGG_OPS_H_
