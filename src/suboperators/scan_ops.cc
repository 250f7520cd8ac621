#include "suboperators/scan_ops.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "core/parallel.h"

namespace modularis {

// ---------------------------------------------------------------------------
// RowScan
// ---------------------------------------------------------------------------

bool RowScan::Advance() {
  Tuple t;
  if (!child(0)->Next(&t)) return ChildEnd(child(0));
  const Item& item = t[item_index_];
  if (!item.is_collection()) {
    return Fail(Status::InvalidArgument(
        "RowScan expects a collection item, got " + item.ToString()));
  }
  current_ = item.collection();
  pos_ = 0;
  return true;
}

// ---------------------------------------------------------------------------
// ColumnScan
// ---------------------------------------------------------------------------

ColumnScan::ColumnScan(SubOpPtr child, Schema schema, std::vector<int> columns,
                       ExprPtr predicate, Schema source)
    : SubOperator("ColumnScan"),
      schema_(std::move(schema)),
      columns_(std::move(columns)),
      predicate_(std::move(predicate)),
      source_(std::move(source)) {
  AddChild(std::move(child));
  if (predicate_ != nullptr) {
    program_ = std::make_shared<const BcProgram>(
        BcProgram::CompileFilter(predicate_, source_));
  }
}

Status ColumnScan::Open(ExecContext* ctx) {
  current_.reset();
  pos_ = 0;
  sources_.clear();
  MODULARIS_RETURN_NOT_OK(SubOperator::Open(ctx));
  if (program_ != nullptr && program_->fallback_count() > 0) {
    AddStatCounter("expr.bc_fallback.filter",
                   static_cast<int64_t>(program_->fallback_count()));
  }
  return Status::OK();
}

Status ColumnScan::CheckTable(const ColumnTable& table) const {
  auto provides = [&](size_t c, const Field& f) {
    return c < table.num_columns() && table.column(c).type() == f.type &&
           table.column(c).size() == table.num_rows();
  };
  bool ok = true;
  for (size_t k = 0; k < schema_.num_fields(); ++k) {
    ok = ok && provides(columns_.empty() ? k : static_cast<size_t>(columns_[k]),
                        schema_.field(k));
  }
  for (size_t k = 0; program_ != nullptr && k < source_.num_fields(); ++k) {
    ok = ok && provides(k, source_.field(k));
  }
  if (ok) return Status::OK();
  return Status::InvalidArgument("ColumnScan: table " +
                                 table.schema().ToString() +
                                 " does not provide the records " +
                                 schema_.ToString());
}

bool ColumnScan::Advance() {
  Tuple t;
  if (!child(0)->Next(&t)) return ChildEnd(child(0));
  const Item& item = t[0];
  if (!item.is_table()) {
    return Fail(Status::InvalidArgument(
        "ColumnScan expects a table item, got " + item.ToString()));
  }
  Status st = CheckTable(*item.table());
  if (!st.ok()) return Fail(std::move(st));
  current_ = item.table();
  pos_ = 0;
  return true;
}

Status ColumnScan::RunPredicate(const ColumnTable& table, size_t begin,
                                SelVector* sel, BcState* state) const {
  return program_->RunFilter(RowSpan::Columns(table, begin, source_), sel,
                             state);
}

bool ColumnScan::Fill(size_t cap) {
  while (true) {
    while (current_ == nullptr || pos_ >= current_->num_rows()) {
      if (!Advance()) return false;
    }
    const size_t n = std::min(current_->num_rows() - pos_, cap);
    const uint32_t* sel = nullptr;
    size_t m = n;
    if (program_ != nullptr) {
      sel_.resize(n);
      std::iota(sel_.begin(), sel_.end(), 0u);
      Status st = RunPredicate(*current_, pos_, &sel_, &bc_state_);
      if (!st.ok()) return Fail(std::move(st));
      sel = sel_.data();
      m = sel_.size();
    }
    if (rows_ == nullptr) rows_ = RowVector::Make(schema_);
    rows_->Clear();
    rows_->ResizeRowsUninitialized(m);
    current_->WriteRows(pos_, sel, m, columns_, schema_,
                        rows_->mutable_data());
    pos_ += n;
    if (m > 0) return true;
  }
}

bool ColumnScan::Next(Tuple* out) {
  if (!Fill(1)) return false;
  out->clear();
  out->push_back(Item(rows_->row(0)));
  return true;
}

bool ColumnScan::NextBatch(RowBatch* out) {
  out->Clear();
  if (!Fill(RowBatch::kDefaultRows)) return false;
  out->Borrow(rows_);
  return true;
}

SubOpPtr ColumnScan::CloneForWorker(WorkerCloneContext* cc) const {
  SubOpPtr child_clone = child(0)->CloneForWorker(cc);
  if (child_clone == nullptr) return nullptr;
  auto clone =
      std::make_unique<ColumnScan>(std::move(child_clone), schema_, columns_);
  clone->predicate_ = predicate_;
  clone->source_ = source_;
  clone->program_ = program_;
  return clone;
}

Status ColumnScan::ReadSources(size_t* rows) {
  *rows = 0;
  while (Advance()) {
    *rows += current_->num_rows();
    sources_.push_back(std::move(current_));
  }
  return status_;
}

void ColumnScan::ReserveSelection(size_t rows, Selection* out) const {
  out->pieces.reserve(sources_.size());
  if (program_ != nullptr) out->rows.reserve(rows);
}

Status ColumnScan::Select(size_t begin, size_t end, BcState* state,
                          Selection* out) const {
  out->pieces.clear();
  out->rows.clear();
  out->count = 0;
  SelVector morsel;
  size_t first = 0;  // the current table's first row, counted across tables
  for (size_t s = 0; s < sources_.size() && first < end; ++s) {
    const ColumnTable& table = *sources_[s];
    const size_t lo = std::max(begin, first);
    const size_t hi = std::min(end, first + table.num_rows());
    Selection::Piece piece{s, lo - first, hi > lo ? hi - lo : 0, 0};
    first += table.num_rows();
    if (piece.rows == 0) continue;
    if (program_ == nullptr) piece.survivors = piece.rows;
    // The predicate runs a cache-sized morsel at a time.
    for (size_t m = 0; program_ != nullptr && m < piece.rows;
         m += RowBatch::kDefaultRows) {
      morsel.resize(std::min(RowBatch::kDefaultRows, piece.rows - m));
      std::iota(morsel.begin(), morsel.end(), 0u);
      MODULARIS_RETURN_NOT_OK(
          RunPredicate(table, piece.begin + m, &morsel, state));
      for (uint32_t r : morsel) {
        out->rows.push_back(r + static_cast<uint32_t>(m));
      }
      piece.survivors += morsel.size();
    }
    out->count += piece.survivors;
    out->pieces.push_back(piece);
  }
  return Status::OK();
}

void ColumnScan::Write(const Selection& sel, uint8_t* dst) const {
  const size_t stride = schema_.row_size();
  const uint32_t* survivors = sel.rows.data();
  for (const Selection::Piece& piece : sel.pieces) {
    const ColumnTable& table = *sources_[piece.source];
    // Cache-sized runs, so each column pass writes rows still in cache.
    for (size_t c = 0; c < piece.survivors; c += RowBatch::kDefaultRows) {
      const size_t k = std::min(RowBatch::kDefaultRows, piece.survivors - c);
      if (program_ == nullptr) {
        table.WriteRows(piece.begin + c, nullptr, k, columns_, schema_, dst);
      } else {
        table.WriteRows(piece.begin, survivors + c, k, columns_, schema_, dst);
      }
      dst += k * stride;
    }
    if (program_ != nullptr) survivors += piece.survivors;
  }
}

Status MaterializeRowVector::DrainStream(RowVectorPtr* result) {
  RowBatch batch;
  while (child(0)->PullBatch(&batch)) {
    if ((*result)->empty() && batch.schema().Equals(schema_)) {
      RowVectorPtr stolen = batch.TakeReleased();
      if (stolen != nullptr) {
        *result = std::move(stolen);
        continue;
      }
    }
    if ((*result)->empty()) (*result)->Reserve(batch.size());
    (*result)->AppendRawBatch(batch.data(), batch.size());
  }
  return child(0)->status();
}

Status MaterializeRowVector::DrainScanPipeline(ColumnScan* scan,
                                               RowVectorPtr* result) {
  scan_timer_.Bind(ctx_->stats, "phase.scan_pipeline");
  ScopedPhase phase(&scan_timer_);
  if (!scan->schema().SameLayout(schema_)) {
    return Status::InvalidArgument(
        "MaterializeRowVector: scan rows " + scan->schema().ToString() +
        " do not match the stream schema " + schema_.ToString());
  }
  size_t total = 0;
  MODULARIS_RETURN_NOT_OK(scan->ReadSources(&total));
  // count → offsets → write, as RangedScatter: worker w selects the
  // survivors of global rows [bounds[w], bounds[w+1]), the survivor counts
  // place its slice of the one result, and it writes its survivors there.
  // The slices in worker order are the one-worker stream at any worker
  // count. Every buffer that outlives a region is allocated here, on the
  // calling thread; the workers allocate no output.
  const int workers = PlanWorkers(total, ctx_->options);
  const std::vector<size_t> bounds = SplitRows(total, workers);
  std::vector<ColumnScan::Selection> sels(workers);
  std::vector<BcState> states(workers);
  for (int w = 0; w < workers; ++w) {
    scan->ReserveSelection(bounds[w + 1] - bounds[w], &sels[w]);
  }
  Status st = ParallelFor(ctx_, workers, [&](int w) {
    return scan->Select(bounds[w], bounds[w + 1], &states[w], &sels[w]);
  });
  if (st.ok()) {
    std::vector<size_t> offsets(workers + 1, 0);
    for (int w = 0; w < workers; ++w) {
      offsets[w + 1] = offsets[w] + sels[w].count;
    }
    (*result)->ResizeRowsUninitialized(offsets[workers]);
    uint8_t* base = (*result)->mutable_data();
    const size_t stride = (*result)->row_size();
    st = ParallelFor(ctx_, workers, [&](int w) {
      scan->Write(sels[w], base + offsets[w] * stride);
      return Status::OK();
    });
  }
  scan->ReleaseSources();
  return st;
}

bool MaterializeRowVector::Next(Tuple* out) {
  if (done_) return false;
  RowVectorPtr result = RowVector::Make(schema_);
  // Batch drain when the upstream declares a record stream: batches land
  // with one bulk memcpy each, and a released whole-vector batch (the
  // common single-output-batch case of a nested BuildProbe) is adopted
  // zero-copy. Streams that may carry atom tuples (driver-side result
  // assembly) keep the tuple loop below.
  if (child(0)->ProducesRecordStream()) {
    auto* scan = dynamic_cast<ColumnScan*>(child(0));
    Status st = scan != nullptr ? DrainScanPipeline(scan, &result)
                                : DrainStream(&result);
    if (!st.ok()) return Fail(std::move(st));
    done_ = true;
    out->clear();
    out->push_back(Item(std::move(result)));
    return true;
  }
  Tuple t;
  while (true) {
    if (!child(0)->Next(&t)) break;
    if (t.size() == 1 && t[0].is_row()) {
      result->AppendRaw(t[0].row().data());
      continue;
    }
    if (t.size() == 1 && t[0].is_collection()) {
      // Fused form: upstream hands whole collections (no RowScan).
      result->AppendAll(*t[0].collection());
      continue;
    }
    // Atom tuple: positional write against the target schema.
    if (t.size() != schema_.num_fields()) {
      return Fail(Status::InvalidArgument(
          "MaterializeRowVector: tuple arity " + std::to_string(t.size()) +
          " does not match schema " + schema_.ToString()));
    }
    RowWriter w = result->AppendRow();
    for (size_t c = 0; c < t.size(); ++c) {
      int col = static_cast<int>(c);
      const Item& item = t[c];
      switch (schema_.field(c).type) {
        case AtomType::kInt32:
        case AtomType::kDate:
          w.SetInt32(col, static_cast<int32_t>(item.i64()));
          break;
        case AtomType::kInt64:
          w.SetInt64(col, item.i64());
          break;
        case AtomType::kFloat64:
          w.SetFloat64(col, item.AsDouble());
          break;
        case AtomType::kString:
          w.SetString(col, item.str());
          break;
      }
    }
  }
  if (!child(0)->status().ok()) return Fail(child(0)->status());
  done_ = true;
  out->clear();
  out->push_back(Item(std::move(result)));
  return true;
}

}  // namespace modularis
