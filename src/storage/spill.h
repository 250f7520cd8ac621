#ifndef MODULARIS_STORAGE_SPILL_H_
#define MODULARIS_STORAGE_SPILL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/exec_context.h"
#include "core/parallel.h"
#include "core/row_vector.h"
#include "core/status.h"
#include "storage/blob_store.h"

/// \file spill.h
/// Spill-file layer for the blocking operators' graceful-degradation
/// paths (docs/DESIGN-memory.md). A SpillSet is one operator instance's
/// collection of spilled partition chunks / sort runs in the blob store:
///
///   spill/<op>-r<rank>-<seq>/p<pass>/d<pid>/c<chunk>
///
/// Chunk payload: [u32 n][n * stride packed rows][n * u32 global indices].
/// The index array carries each row's position in the operator's drained
/// input, which is what the deterministic merges (first-occurrence order
/// for ReduceByKey, probe order for BuildProbe, sort tie-break for
/// Sort/TopK) key on to reproduce the in-memory output byte-for-byte.
///
/// The blocking operators share the rest of the toolkit too: one
/// admission (AdmitSpill) decides whether an operator denied its
/// in-memory path may spill, one writer (SpillWriter) stages rows per
/// partition into chunks, and one merge (MergeRowRuns, core/parallel.h)
/// restores the global order of the per-partition runs.
///
/// Every Put/Get goes through the shared RetryPolicy (core/fault.h) and
/// the spill client's fault injector (ExecOptions::spill_fault), so spill
/// IO participates in the PR 8 transient-failure discipline. The set
/// tracks every key it wrote and deletes them on destruction — including
/// query abort and cancellation unwinds — so no `spill/…` objects outlive
/// their operator.

namespace modularis::storage {

class SpillSet {
 public:
  /// Opens this operator instance's private spill client against
  /// `ctx->spill_store` (the store is thread-safe; clients are not, and
  /// cloned operators inside parallel NestedMap workers each build their
  /// own set). Requires ctx->spill_store != nullptr.
  SpillSet(ExecContext* ctx, const char* op_tag);
  ~SpillSet();
  SpillSet(const SpillSet&) = delete;
  SpillSet& operator=(const SpillSet&) = delete;

  const std::string& prefix() const { return prefix_; }

  /// Allocates the next recursion-pass namespace (pass 0 is the first).
  int NewPass() { return next_pass_++; }

  /// Writes rows [rows, rows + n·stride) and their global indices as the
  /// next chunk of (pass, pid). Retries transient failures; counts
  /// "spill.bytes" and "spill.chunks" on the bound stats registry.
  Status WriteChunk(int pass, int pid, const uint8_t* rows, size_t n,
                    uint32_t stride, const uint32_t* idx);

  int NumChunks(int pass, int pid) const;

  /// Reads chunk `chunk` of (pass, pid), appending its rows into *rows
  /// (required: its schema sizes the payload check) and its indices into
  /// *idx (null to skip). A blob whose size disagrees with its row count
  /// — truncated or corrupt — is a Status, never a read past its end.
  Status ReadChunk(int pass, int pid, int chunk, RowVector* rows,
                   std::vector<uint32_t>* idx);

  /// Deletes chunks of one partition (freed as soon as a recursion pass
  /// has re-scattered it) or everything this set ever wrote. Deletes go
  /// straight to the store — cleanup on an abort path must not throttle,
  /// fail or inject.
  void DeletePartition(int pass, int pid);
  void DeleteAll();

  int64_t bytes_written() const { return bytes_written_; }

 private:
  std::string ChunkKey(int pass, int pid, int chunk) const;

  ExecContext* ctx_;
  std::unique_ptr<BlobClient> client_;
  std::string prefix_;
  int next_pass_ = 0;
  /// Chunks written per (pass, pid); keys are re-derivable from counts.
  std::map<std::pair<int, int>, int> chunk_counts_;
  int64_t bytes_written_ = 0;
};

/// The spill admission of every blocking operator, called where the
/// budget denies it the in-memory path: notes the denial on the rank's
/// budget, then fails fast — before anything is written — when the spill
/// quota cannot hold one `stride`-byte row or no spill store is
/// configured, and otherwise counts "spill.ops.<op>" and opens the
/// operator's SpillSet under `tag`. `what` names the state over budget
/// in the no-store error: "<op>: <what> memory_limit_bytes=N and no spill
/// store is configured".
Result<std::unique_ptr<SpillSet>> AdmitSpill(ExecContext* ctx, const char* op,
                                             const char* tag, uint32_t stride,
                                             const std::string& what);

/// Stages rows and their global indices per partition of one pass, and
/// writes a partition's staged rows as its next chunk once it holds
/// `chunk_rows`. Each caller sizes chunk_rows from its quota, which caps
/// the resident staging; Flush() writes every remainder, ascending by
/// partition, and frees the staging.
class SpillWriter {
 public:
  SpillWriter(SpillSet* spill, int pass, Schema schema, size_t chunk_rows)
      : spill_(spill),
        pass_(pass),
        schema_(std::move(schema)),
        chunk_rows_(chunk_rows) {}

  int pass() const { return pass_; }

  Status Add(int pid, const uint8_t* row, uint32_t idx) {
    if (static_cast<size_t>(pid) >= stages_.size()) stages_.resize(pid + 1);
    RowRun& stage = stages_[pid];
    if (stage.rows == nullptr) stage.rows = RowVector::Make(schema_);
    stage.rows->AppendRaw(row);
    stage.idx.push_back(idx);
    return stage.idx.size() < chunk_rows_ ? Status::OK() : Write(pid);
  }

  Status Flush();

 private:
  Status Write(int pid);

  SpillSet* spill_;
  int pass_;
  Schema schema_;
  size_t chunk_rows_;
  std::vector<RowRun> stages_;  // by partition id
};

}  // namespace modularis::storage

#endif  // MODULARIS_STORAGE_SPILL_H_
