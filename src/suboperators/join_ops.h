#ifndef MODULARIS_SUBOPERATORS_JOIN_OPS_H_
#define MODULARIS_SUBOPERATORS_JOIN_OPS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/memory.h"
#include "core/parallel.h"
#include "core/sub_operator.h"
#include "suboperators/partition_ops.h"

/// \file join_ops.h
/// The hash build-and-probe sub-operator family. The paper argues (§3.4)
/// that inner/semi/anti variants (and flipped build sides) merit dedicated
/// configurations of one small operator rather than replicated monolithic
/// joins — here they are all modes of BuildProbe (103 SLOC in the paper's
/// Table 2 for the same reason).

namespace modularis {

/// Join variants supported by BuildProbe.
enum class JoinType : uint8_t { kInner, kSemi, kAnti };

/// Chained-bucket hash table over i64 keys mapping to row indices.
/// Open addressing on buckets; duplicate keys chain through `next`.
class JoinHashTable {
 public:
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  /// The one build (docs/DESIGN-parallel.md): entry i is build row i,
  /// keyed keys[i]. The bucket array is cut into `num_slices` (a power
  /// of two; fewer when the table is small) equal ranges and each worker
  /// inserts exactly the keys whose hash lands in its slice, probing with
  /// slice-local wraparound — no cross-worker writes. Duplicate chains
  /// come out in descending row order at any slice count, so probe
  /// emission is byte-identical. One slice's wraparound is the global
  /// one and never overflows; key skew that overfills a slice rebuilds
  /// the table with one slice.
  void Build(const int64_t* keys, size_t n, int num_slices);
  /// First entry matching `key`, or kNone.
  uint32_t Find(int64_t key) const;
  /// Bulk lookup with software prefetching; out[i] = Find(keys[i]).
  void FindBatch(const int64_t* keys, size_t n, uint32_t* out) const;
  /// Next entry with the same key, or kNone.
  uint32_t NextMatch(uint32_t entry) const { return entries_[entry].next; }
  uint32_t RowOf(uint32_t entry) const { return entries_[entry].row; }
  size_t size() const { return entries_.size(); }
  /// Resident bytes (entry array + bucket array), for budget accounting.
  size_t byte_size() const {
    return entries_.capacity() * sizeof(Entry) +
           buckets_.capacity() * sizeof(Bucket);
  }

 private:
  struct Entry {
    int64_t key;
    uint32_t row;
    uint32_t next;
  };

  struct Bucket {
    int64_t key;
    uint32_t head = kNone;
  };

  /// Inserts the keys whose home slot lies in slice `slice`; false when
  /// they overfill it.
  bool BuildSlice(const int64_t* keys, const uint32_t* home, size_t n,
                  size_t slice);

  /// Next bucket in the probe sequence: wraparound within the slot's
  /// slice (with one slice, the whole bucket array).
  size_t NextSlot(size_t slot) const {
    size_t next = slot + 1;
    return (next & (slice_rows_ - 1)) == 0 ? next - slice_rows_ : next;
  }

  std::vector<Entry> entries_;
  std::vector<Bucket> buckets_;
  size_t mask_ = 0;
  size_t slice_rows_ = 0;  // buckets per slice (power of two)
};

/// Byte-range copy instruction used to assemble concatenated output rows.
struct FieldCopy {
  uint32_t src_offset;
  uint32_t dst_offset;
  uint32_t bytes;
};

/// BuildProbe builds a hash table on its first upstream and probes it with
/// the second. Inner joins emit the concatenated ⟨build-row, probe-row⟩
/// record; semi/anti joins emit the probe record. Build/probe sides are
/// chosen by the plan (the "flipped" variants of §3.4 are expressed by
/// swapping children and key columns). Accepts record streams or whole
/// collections on either side (the latter is the fused form).
class BuildProbe : public SubOperator {
 public:
  /// `key_shift` is applied (arithmetic right shift) to both sides' keys
  /// before hashing/comparison; compressed exchange partitions join on
  /// `word >> P`, the packed high key bits (§4.1.2).
  BuildProbe(SubOpPtr build, SubOpPtr probe, Schema build_schema,
             Schema probe_schema, int build_key_col, int probe_key_col,
             JoinType type = JoinType::kInner, int key_shift = 0,
             std::string timer_key = "phase.build_probe")
      : SubOperator("BuildProbe"),
        build_schema_(std::move(build_schema)),
        probe_schema_(std::move(probe_schema)),
        out_schema_(type == JoinType::kInner
                        ? build_schema_.Concat(probe_schema_)
                        : probe_schema_),
        build_key_col_(build_key_col),
        probe_key_col_(probe_key_col),
        key_shift_(key_shift),
        type_(type),
        timer_key_(std::move(timer_key)) {
    AddChild(std::move(build));
    AddChild(std::move(probe));
  }

  Status Open(ExecContext* ctx) override;
  /// Emits the next row of the current output sink.
  bool Next(Tuple* out) override;
  bool ProducesRecordStream() const override { return true; }
  /// Hands over the unread rest of the current output sink as one
  /// released batch: a whole sink (the join output of one probe range) is
  /// adopted zero-copy by MaterializeRowVector; a sink Next() has partly
  /// read yields its remainder.
  bool NextBatch(RowBatch* out) override;

  const Schema& out_schema() const { return out_schema_; }

  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override {
    SubOpPtr build_clone = child(0)->CloneForWorker(cc);
    SubOpPtr probe_clone =
        build_clone == nullptr ? nullptr : child(1)->CloneForWorker(cc);
    if (probe_clone == nullptr) return nullptr;
    return std::make_unique<BuildProbe>(std::move(build_clone),
                                        std::move(probe_clone), build_schema_,
                                        probe_schema_, build_key_col_,
                                        probe_key_col_, type_, key_shift_,
                                        timer_key_);
  }

 private:
  /// Per-worker probe scratch: extracted keys, match entries and the one
  /// zero-initialized staging row used by the gapped emit path.
  struct ProbeScratch {
    std::vector<int64_t> keys;
    std::vector<uint32_t> matches;
    RowVectorPtr staging;
  };

  Status BuildTable();
  /// Builds table_ over build_rows_ — the whole build side, or one Grace
  /// group — with JoinHashTable::Build over `slices` slices.
  void HashBuildRows(int slices);
  /// The one probe loop: builds the table on first use, then pulls probe
  /// batches through PullBatch and probes each until a sink holds an
  /// unread row. On OK, sink_ == sinks_.size() means end of stream.
  Status FillSinks();
  /// Probes one batch: PlanWorkers sizes it, SplitRows cuts it into
  /// static ranges and each worker probes its range into its own sink.
  /// Sinks are emitted in range order, so one worker gives the same
  /// bytes as N.
  Status ProbeBatch(const RowBatch& batch);
  /// Assembles the concatenated ⟨build, probe⟩ row into `sink` via the
  /// given staging row.
  void EmitInnerInto(uint32_t entry, const uint8_t* probe_row,
                     RowVector* staging, RowVector* sink) const;
  /// Probes `n` packed rows starting at `base`, appending results.
  /// Read-only on the table/build side, so worker threads run it
  /// concurrently with private scratch and sinks. When `out_idx` is
  /// given, every emitted row's global probe index (`global_idx[i]`, or
  /// `i` when `global_idx` is null) is appended alongside — the Grace
  /// spill path's merge key. The direct gapless emission path requires
  /// out_idx == nullptr.
  void ProbeSpanInto(const uint8_t* base, size_t n, ProbeScratch* scratch,
                     RowVector* sink, const uint32_t* global_idx = nullptr,
                     std::vector<uint32_t>* out_idx = nullptr) const;
  /// Budget-forced degradation (docs/DESIGN-memory.md): co-partition
  /// both sides 256 ways by the join-key hash (greedy ascending-pid
  /// build prefix stays resident, everything else spills), join the
  /// partitions one at a time — oversized build partitions in
  /// quota-sized chunked groups — and merge the per-partition output
  /// runs (MergeRowRuns) back into global probe order. Byte-equal to the
  /// in-memory probe at any budget and thread count.
  Status GraceSpillJoin();
  Schema build_schema_;
  Schema probe_schema_;
  Schema out_schema_;
  int build_key_col_;
  int probe_key_col_;
  int key_shift_;
  JoinType type_;
  std::string timer_key_;
  PhaseTimer timer_;

  std::vector<FieldCopy> build_copies_;
  std::vector<FieldCopy> probe_copies_;

  JoinHashTable table_;
  RowVectorPtr build_rows_;
  RowBatch probe_in_;
  std::vector<ProbeScratch> probe_scratch_;  // one per probe worker
  std::vector<int64_t> key_scratch_;
  /// True when the inner-join copy plans cover every output byte, which
  /// enables direct emission into uninitialized sink rows.
  bool gapless_out_ = false;
  bool built_ = false;
  bool probe_done_ = false;

  // Output sinks of the last probed batch (or the Grace merge), emitted
  // in order; (sink_, row_) is the next unread row.
  std::vector<RowVectorPtr> sinks_;
  size_t sink_ = 0;
  size_t row_ = 0;

  /// Accounting for the blocking state (build side, hash table, and on
  /// the Grace path the drained probe and merged output) against the
  /// rank's MemoryBudget.
  ScopedCharge mem_charge_;
};

}  // namespace modularis

#endif  // MODULARIS_SUBOPERATORS_JOIN_OPS_H_
