#ifndef MODULARIS_SUBOPERATORS_SCAN_OPS_H_
#define MODULARIS_SUBOPERATORS_SCAN_OPS_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/column_table.h"
#include "core/sub_operator.h"

/// \file scan_ops.h
/// Materialize and scan sub-operators (paper Table 1): the operators that
/// move between the "stream of tuples" world and physical collections.
/// Dedicating one sub-operator to each physical format is design principle
/// (2): it keeps every other operator independent of where data lives.

namespace modularis {

/// Test/driver source yielding a fixed list of tuples.
class TupleSource : public SubOperator {
 public:
  explicit TupleSource(std::vector<Tuple> tuples)
      : SubOperator("TupleSource"), tuples_(std::move(tuples)) {}

  Status Open(ExecContext* ctx) override {
    pos_ = 0;
    return SubOperator::Open(ctx);
  }

  bool Next(Tuple* out) override {
    if (pos_ >= tuples_.size()) return false;
    *out = tuples_[pos_++];
    return true;
  }

  /// Tuples are shallow-copied: atom items by value, collection items as
  /// shared read-only pointers.
  SubOpPtr CloneForWorker(WorkerCloneContext*) const override {
    return std::make_unique<TupleSource>(tuples_);
  }

 private:
  std::vector<Tuple> tuples_;
  size_t pos_ = 0;
};

/// Source yielding one single-item tuple per collection.
class CollectionSource : public SubOperator {
 public:
  explicit CollectionSource(std::vector<RowVectorPtr> collections)
      : SubOperator("CollectionSource"),
        collections_(std::move(collections)) {}

  Status Open(ExecContext* ctx) override {
    pos_ = 0;
    return SubOperator::Open(ctx);
  }

  bool Next(Tuple* out) override {
    if (pos_ >= collections_.size()) return false;
    out->clear();
    out->push_back(Item(collections_[pos_++]));
    return true;
  }

  /// Collections are shared read-only between workers.
  SubOpPtr CloneForWorker(WorkerCloneContext*) const override {
    return std::make_unique<CollectionSource>(collections_);
  }

 private:
  std::vector<RowVectorPtr> collections_;
  size_t pos_ = 0;
};

/// RowScan extracts individual records from RowVector collections: for
/// every input tuple (whose item `item_index` is a RowVector) it streams
/// one borrowed-row tuple per contained record.
///
/// A scan pipeline (MaterializeRowVector over Filter/MapOp over RowScan,
/// docs/DESIGN-parallel.md) may instead read the scan's whole input with
/// ReadSources() and pin the scan to one contiguous range of its rows
/// with SetRange(); the scan then walks that range in kDefaultRows
/// morsels. Open() drops both, restoring the unranged stream.
class RowScan : public SubOperator {
 public:
  explicit RowScan(SubOpPtr child, int item_index = 0)
      : SubOperator("RowScan"), item_index_(item_index) {
    AddChild(std::move(child));
  }

  Status Open(ExecContext* ctx) override {
    current_.reset();
    pos_ = 0;
    sources_.clear();
    read_sources_ = false;
    ranged_ = false;
    return SubOperator::Open(ctx);
  }

  bool Next(Tuple* out) override {
    while (true) {
      if (current_ != nullptr && pos_ < current_->size()) {
        if (ranged_) {
          if (remaining_ == 0) return false;
          --remaining_;
        }
        out->clear();
        out->push_back(Item(current_->row(pos_++)));
        return true;
      }
      if (!Advance()) return false;
    }
  }

  bool ProducesRecordStream() const override { return true; }

  /// Once ReadSources() has run, a clone scans the same collections
  /// through a CollectionSource, so the child need not be clonable.
  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override {
    if (read_sources_) {
      return std::make_unique<RowScan>(
          std::make_unique<CollectionSource>(sources_));
    }
    SubOpPtr child_clone = child(0)->CloneForWorker(cc);
    if (child_clone == nullptr) return nullptr;
    return std::make_unique<RowScan>(std::move(child_clone), item_index_);
  }

  /// Native batch path. Unranged, each input collection is forwarded as
  /// one zero-copy durable batch (the remainder of it, if Next() already
  /// consumed a prefix), which blocking consumers adopt without copying.
  /// Ranged, the range is borrowed in morsels of at most kDefaultRows
  /// rows, so the operators above work on cache-resident batches.
  bool NextBatch(RowBatch* out) override {
    out->Clear();
    while (true) {
      if (current_ != nullptr && pos_ < current_->size()) {
        size_t n = current_->size() - pos_;
        if (ranged_) {
          n = std::min({n, remaining_, RowBatch::kDefaultRows});
          if (n == 0) return false;
          remaining_ -= n;
        }
        out->BorrowRange(current_, pos_, n);
        out->MarkDurable();  // upstream-owned collection, read-only
        pos_ += n;
        return true;
      }
      if (!Advance()) return false;
    }
  }

  /// Reads the scan's whole input (every collection, in stream order) on
  /// the calling thread and sets `*rows` to their total row count. Call
  /// right after Open(), before any row is read.
  Status ReadSources(size_t* rows);

  /// Restricts this Open cycle to rows [begin, end) of the collections
  /// ReadSources() read, counted across them in order.
  void SetRange(size_t begin, size_t end);

 private:
  /// Moves to the next input collection; false at the end of the input
  /// (or of the range) or on error.
  bool Advance();

  int item_index_;
  RowVectorPtr current_;
  size_t pos_ = 0;
  // Ranged mode: the collections ReadSources() read, the next one to
  // scan, and the rows of the range not yet emitted.
  std::vector<RowVectorPtr> sources_;
  bool read_sources_ = false;
  bool ranged_ = false;
  size_t next_source_ = 0;
  size_t remaining_ = 0;
};

/// ColumnScan extracts individual records from columnar collections
/// (ColumnTable — our Arrow-table/column-chunk analog), materializing each
/// record into a scratch row.
class ColumnScan : public SubOperator {
 public:
  /// `schema` is the row schema of the produced records (must match the
  /// scanned tables' schemas).
  ColumnScan(SubOpPtr child, Schema schema, int item_index = 0)
      : SubOperator("ColumnScan"),
        schema_(std::move(schema)),
        item_index_(item_index) {
    AddChild(std::move(child));
  }

  Status Open(ExecContext* ctx) override {
    scratch_ = RowVector::Make(schema_);
    scratch_->AppendRow();
    current_.reset();
    pos_ = 0;
    return SubOperator::Open(ctx);
  }

  bool ProducesRecordStream() const override { return true; }

  bool Next(Tuple* out) override {
    while (true) {
      if (current_ != nullptr && pos_ < current_->num_rows()) {
        RowWriter w(scratch_->mutable_row(0), &scratch_->schema());
        current_->MaterializeRow(pos_++, &w);
        out->clear();
        out->push_back(Item(scratch_->row(0)));
        return true;
      }
      Tuple t;
      if (!child(0)->Next(&t)) return ChildEnd(child(0));
      const Item& item = t[item_index_];
      if (!item.is_table()) {
        return Fail(Status::InvalidArgument(
            "ColumnScan expects a table item, got " + item.ToString()));
      }
      current_ = item.table();
      pos_ = 0;
    }
  }

  /// Native batch path: materializes up to kDefaultRows records at a time
  /// column-wise (one type dispatch per column chunk instead of one per
  /// cell). Continues from wherever Next() left the scan.
  bool NextBatch(RowBatch* out) override;

  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override {
    SubOpPtr child_clone = child(0)->CloneForWorker(cc);
    if (child_clone == nullptr) return nullptr;
    return std::make_unique<ColumnScan>(std::move(child_clone), schema_,
                                        item_index_);
  }

 private:
  Schema schema_;
  int item_index_;
  RowVectorPtr scratch_;
  RowVectorPtr batch_rows_;
  ColumnTablePtr current_;
  size_t pos_ = 0;
};

/// Converts whole ColumnTable items into RowVector collections (the
/// "Arrow table to collection" operator of Table 1 / §4.5).
class TableToCollection : public SubOperator {
 public:
  explicit TableToCollection(SubOpPtr child, int item_index = 0)
      : SubOperator("TableToCollection"), item_index_(item_index) {
    AddChild(std::move(child));
  }

  bool Next(Tuple* out) override {
    Tuple t;
    if (!child(0)->Next(&t)) return ChildEnd(child(0));
    const Item& item = t[item_index_];
    if (!item.is_table()) {
      return Fail(Status::InvalidArgument(
          "TableToCollection expects a table item, got " + item.ToString()));
    }
    out->clear();
    for (size_t i = 0; i < t.size(); ++i) {
      if (static_cast<int>(i) == item_index_) {
        out->push_back(Item(item.table()->ToRowVector()));
      } else {
        out->push_back(t[i]);
      }
    }
    return true;
  }

  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override {
    SubOpPtr child_clone = child(0)->CloneForWorker(cc);
    if (child_clone == nullptr) return nullptr;
    return std::make_unique<TableToCollection>(std::move(child_clone),
                                               item_index_);
  }

 private:
  int item_index_;
};

/// MaterializeRowVector collects its input stream into one RowVector and
/// yields a single collection tuple. Every nested plan ends with one
/// (paper §4.1.2). Inputs may be borrowed-row tuples (fast packed copy)
/// or all-atom tuples matching `schema` (driver-side result assembly).
///
/// Over a scan pipeline — only record-stream Filters and MapOps down to
/// a RowScan — it splits the scan's rows into PlanWorkers() contiguous
/// ranges, drains one chain clone per range on the rank's workers, and
/// concatenates the blocks in range order (docs/DESIGN-parallel.md).
class MaterializeRowVector : public SubOperator {
 public:
  MaterializeRowVector(SubOpPtr child, Schema schema)
      : SubOperator("MaterializeRowVector"), schema_(std::move(schema)) {
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
    return std::make_unique<MaterializeRowVector>(std::move(child_clone),
                                                  schema_);
  }

 private:
  /// Batch drain of any other record stream: a released whole-vector
  /// batch is adopted zero-copy, every other batch appended.
  Status DrainStream(RowVectorPtr* result);
  /// The scan-pipeline drain over `scan`, the chain's leaf, timed as
  /// `phase.scan_pipeline`.
  Status DrainScanPipeline(RowScan* scan, RowVectorPtr* result);

  Schema schema_;
  bool done_ = false;
  PhaseTimer scan_timer_;
};

}  // namespace modularis

#endif  // MODULARIS_SUBOPERATORS_SCAN_OPS_H_
