#ifndef MODULARIS_SUBOPERATORS_SCAN_OPS_H_
#define MODULARIS_SUBOPERATORS_SCAN_OPS_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/column_table.h"
#include "core/expr_bc.h"
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
/// tuple (whose item 0 is a table) it streams the rows of that table that
/// satisfy `predicate` (null = all), built from the table columns
/// `columns` (one per field of `schema`; empty = all, in order) in the
/// layout of `schema`. The predicate reads the source table's columns by
/// index: it is compiled once, against `source` (the source tables'
/// schema), and tested on the columns of each morsel as bytecode over a
/// column span, before any row is built; only survivors are written, and
/// only their selected columns. A table whose columns do not have the
/// types of `schema`'s fields (or of `source`'s, under a predicate) is an
/// InvalidArgument error. Every base-table scan is a ColumnScan over its
/// platform's table source (docs/DESIGN-planner.md).
///
/// A scan pipeline (MaterializeRowVector directly over a ColumnScan,
/// docs/DESIGN-parallel.md) reads the scan's whole input with
/// ReadSources() instead, then selects the survivors of disjoint ranges
/// of its rows with Select() and writes them with Write(), from any
/// number of threads at once.
class ColumnScan : public SubOperator {
 public:
  ColumnScan(SubOpPtr child, Schema schema, std::vector<int> columns = {},
             ExprPtr predicate = nullptr, Schema source = Schema());

  Status Open(ExecContext* ctx) override;

  bool ProducesRecordStream() const override { return true; }

  /// The layout of the records the scan builds.
  const Schema& schema() const { return schema_; }

  /// Row mode: one surviving record at a time, through the same Fill as
  /// NextBatch().
  bool Next(Tuple* out) override;

  /// Native batch path: tests the predicate on up to kDefaultRows rows at
  /// a time and builds their survivors (ColumnTable::WriteRows).
  /// Continues from wherever Next() left the scan.
  bool NextBatch(RowBatch* out) override;

  /// Clones share the compiled predicate.
  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override;

  /// Reads the scan's whole input (every table, in stream order) on the
  /// calling thread and sets `*rows` to their total row count. Call right
  /// after Open(), before any row is read.
  Status ReadSources(size_t* rows);

  /// The survivors of a range of the rows ReadSources() read: one piece
  /// per table the range touches.
  struct Selection {
    struct Piece {
      size_t source = 0;     // index of the table among the sources
      size_t begin = 0;      // first table row of the piece
      size_t rows = 0;       // rows of the piece
      size_t survivors = 0;  // rows of the piece that satisfy the predicate
    };
    std::vector<Piece> pieces;
    /// Under a predicate, the survivors' rows relative to their piece's
    /// begin, piece after piece; empty without one (every row survives).
    SelVector rows;
    size_t count = 0;  // survivors in all
  };

  /// Sizes `out` for a range of `rows` rows, so Select() allocates no
  /// buffer that outlives it. Call on the thread that owns `out`.
  void ReserveSelection(size_t rows, Selection* out) const;

  /// Tests the predicate on rows [begin, end) of the tables ReadSources()
  /// read, counted across them in order, and sets `*out` to the
  /// survivors. Const apart from `state`, so threads may select disjoint
  /// ranges at once, one BcState each.
  Status Select(size_t begin, size_t end, BcState* state,
                Selection* out) const;

  /// Writes the survivors of `sel`, in order, as sel.count packed rows of
  /// the scan's schema at `dst`.
  void Write(const Selection& sel, uint8_t* dst) const;

  /// Drops the tables ReadSources() read.
  void ReleaseSources() { sources_.clear(); }

 private:
  /// Checks that `table` provides the scan's columns (and the predicate's
  /// source columns).
  Status CheckTable(const ColumnTable& table) const;
  /// Claims up to `cap` rows of the input (moving to the next table as
  /// needed) and builds their survivors into `rows_`; false at the end of
  /// the input or on error.
  bool Fill(size_t cap);
  /// Moves to the next input table; false at the end of the input or on
  /// error.
  bool Advance();
  /// Narrows `sel`, rows of `table` relative to `begin`, by the predicate.
  Status RunPredicate(const ColumnTable& table, size_t begin, SelVector* sel,
                      BcState* state) const;

  Schema schema_;
  std::vector<int> columns_;
  ExprPtr predicate_;
  Schema source_;
  std::shared_ptr<const BcProgram> program_;  // null without a predicate
  BcState bc_state_;
  SelVector sel_;
  RowVectorPtr rows_;  // the records of the last Fill()
  ColumnTablePtr current_;
  size_t pos_ = 0;
  std::vector<ColumnTablePtr> sources_;  // the tables ReadSources() read
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
/// Over a scan pipeline — a ColumnScan child — it writes each survivor
/// once: the scan's rows split into PlanWorkers() contiguous ranges, each
/// worker selects the survivors of its range, their counts give each
/// worker its slice of the one result, and each worker writes its
/// survivors there (count → offsets → write; docs/DESIGN-parallel.md).
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
  /// The scan-pipeline drain over `scan`, timed as `phase.scan_pipeline`.
  Status DrainScanPipeline(ColumnScan* scan, RowVectorPtr* result);

  Schema schema_;
  bool done_ = false;
  PhaseTimer scan_timer_;
};

}  // namespace modularis

#endif  // MODULARIS_SUBOPERATORS_SCAN_OPS_H_
