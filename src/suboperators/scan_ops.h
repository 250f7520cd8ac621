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
class RowScan : public SubOperator {
 public:
  explicit RowScan(SubOpPtr child, int item_index = 0)
      : SubOperator("RowScan"), item_index_(item_index) {
    AddChild(std::move(child));
  }

  Status Open(ExecContext* ctx) override {
    current_.reset();
    pos_ = 0;
    return SubOperator::Open(ctx);
  }

  bool Next(Tuple* out) override {
    while (true) {
      if (current_ != nullptr && pos_ < current_->size()) {
        out->clear();
        out->push_back(Item(current_->row(pos_++)));
        return true;
      }
      if (!Advance()) return false;
    }
  }

  bool ProducesRecordStream() const override { return true; }

  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override {
    SubOpPtr child_clone = child(0)->CloneForWorker(cc);
    if (child_clone == nullptr) return nullptr;
    return std::make_unique<RowScan>(std::move(child_clone), item_index_);
  }

  /// Native batch path: each input collection is forwarded as one
  /// zero-copy durable batch (the remainder of it, if Next() already
  /// consumed a prefix), which blocking consumers adopt without copying.
  bool NextBatch(RowBatch* out) override {
    out->Clear();
    while (true) {
      if (current_ != nullptr && pos_ < current_->size()) {
        out->BorrowRange(current_, pos_, current_->size() - pos_);
        out->MarkDurable();  // upstream-owned collection, read-only
        pos_ = current_->size();
        return true;
      }
      if (!Advance()) return false;
    }
  }

 private:
  /// Moves to the next input collection; false at the end of the input
  /// or on error.
  bool Advance();

  int item_index_;
  RowVectorPtr current_;
  size_t pos_ = 0;
};

/// ColumnScan extracts individual records from columnar collections
/// (ColumnTable — our Arrow-table/column-chunk analog): for every input
/// tuple (whose item 0 is a table) it streams that table's rows, built
/// from the table columns `columns` (one per field of `schema`; empty =
/// all, in order) in the layout of `schema`. A table whose selected
/// columns do not have the types of `schema`'s fields is an
/// InvalidArgument error. Every base-table scan is a ColumnScan over its
/// platform's table source (docs/DESIGN-planner.md).
///
/// A scan pipeline (MaterializeRowVector over Filters over a ColumnScan,
/// docs/DESIGN-parallel.md) may instead read the scan's whole input with
/// ReadSources() and pin the scan to one contiguous range of its rows
/// with SetRange(); Next() and NextBatch() then stop at the range's end.
/// Open() drops both, restoring the unranged stream.
class ColumnScan : public SubOperator {
 public:
  ColumnScan(SubOpPtr child, Schema schema, std::vector<int> columns = {})
      : SubOperator("ColumnScan"),
        schema_(std::move(schema)),
        columns_(std::move(columns)) {
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

  bool ProducesRecordStream() const override { return true; }

  /// Row mode: one record at a time, through the same conversion as
  /// NextBatch().
  bool Next(Tuple* out) override;

  /// Native batch path: builds up to kDefaultRows records at a time,
  /// column by column (ColumnTable::WriteRows). Continues from wherever
  /// Next() left the scan.
  bool NextBatch(RowBatch* out) override;

  /// Once ReadSources() has run, a clone scans the same tables through a
  /// TupleSource, so the child need not be clonable.
  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override;

  /// Reads the scan's whole input (every table, in stream order) on the
  /// calling thread and sets `*rows` to their total row count. Call right
  /// after Open(), before any row is read.
  Status ReadSources(size_t* rows);

  /// Restricts this Open cycle to rows [begin, end) of the tables
  /// ReadSources() read, counted across them in order.
  void SetRange(size_t begin, size_t end);

  /// Drops the tables ReadSources() read; the scan yields no more rows
  /// until the next Open().
  void ReleaseSources() {
    sources_.clear();
    SetRange(0, 0);
  }

 private:
  /// Claims up to `cap` rows of the current table (moving to the next
  /// table as needed) and builds them into `rows_`; false at the end of
  /// the input or of the range, or on error.
  bool Fill(size_t cap);
  /// Moves to the next input table; false at the end of the input (or of
  /// the range) or on error.
  bool Advance();

  Schema schema_;
  std::vector<int> columns_;
  RowVectorPtr rows_;  // the records of the last Fill()
  ColumnTablePtr current_;
  size_t pos_ = 0;
  // Ranged mode: the tables ReadSources() read, the next one to scan,
  // and the rows of the range not yet emitted.
  std::vector<ColumnTablePtr> sources_;
  bool read_sources_ = false;
  bool ranged_ = false;
  size_t next_source_ = 0;
  size_t remaining_ = 0;
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
    *out = t;
    (*out)[item_index_] = Item(item.table()->ToRowVector());
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
/// Over a scan pipeline — only record-stream Filters down to a
/// ColumnScan — it splits the scan's rows into PlanWorkers() contiguous
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
  Status DrainScanPipeline(ColumnScan* scan, RowVectorPtr* result);

  Schema schema_;
  bool done_ = false;
  PhaseTimer scan_timer_;
};

}  // namespace modularis

#endif  // MODULARIS_SUBOPERATORS_SCAN_OPS_H_
