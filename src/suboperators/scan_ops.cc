#include "suboperators/scan_ops.h"

#include <algorithm>
#include <cstring>

#include "suboperators/basic_ops.h"

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

bool ColumnScan::Advance() {
  if (ranged_) {
    if (remaining_ == 0 || next_source_ >= sources_.size()) return false;
    current_ = sources_[next_source_++];
    pos_ = 0;
    return true;
  }
  Tuple t;
  if (!child(0)->Next(&t)) return ChildEnd(child(0));
  const Item& item = t[0];
  if (!item.is_table()) {
    return Fail(Status::InvalidArgument(
        "ColumnScan expects a table item, got " + item.ToString()));
  }
  const ColumnTable& table = *item.table();
  for (size_t k = 0; k < schema_.num_fields(); ++k) {
    const size_t c = columns_.empty() ? k : static_cast<size_t>(columns_[k]);
    if (c >= table.num_columns() ||
        table.column(c).type() != schema_.field(k).type ||
        table.column(c).size() != table.num_rows()) {
      return Fail(Status::InvalidArgument(
          "ColumnScan: table " + table.schema().ToString() +
          " does not provide the records " + schema_.ToString()));
    }
  }
  current_ = item.table();
  pos_ = 0;
  return true;
}

bool ColumnScan::Fill(size_t cap) {
  while (current_ == nullptr || pos_ >= current_->num_rows()) {
    if (!Advance()) return false;
  }
  size_t n = std::min(current_->num_rows() - pos_, cap);
  if (ranged_) {
    n = std::min(n, remaining_);
    if (n == 0) return false;
    remaining_ -= n;
  }
  if (rows_ == nullptr) rows_ = RowVector::Make(schema_);
  rows_->Clear();
  rows_->ResizeRows(n);  // zero-filled: WriteRows leaves the padding
  current_->WriteRows(pos_, n, columns_, schema_, rows_->mutable_data());
  pos_ += n;
  return true;
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
  if (read_sources_) {
    std::vector<Tuple> tables;
    for (const ColumnTablePtr& table : sources_) tables.push_back({Item(table)});
    return std::make_unique<ColumnScan>(
        std::make_unique<TupleSource>(std::move(tables)), schema_, columns_);
  }
  SubOpPtr child_clone = child(0)->CloneForWorker(cc);
  if (child_clone == nullptr) return nullptr;
  return std::make_unique<ColumnScan>(std::move(child_clone), schema_,
                                      columns_);
}

Status ColumnScan::ReadSources(size_t* rows) {
  *rows = 0;
  while (Advance()) {
    *rows += current_->num_rows();
    sources_.push_back(std::move(current_));
  }
  MODULARIS_RETURN_NOT_OK(status_);
  read_sources_ = true;
  return Status::OK();
}

void ColumnScan::SetRange(size_t begin, size_t end) {
  ranged_ = true;
  remaining_ = end - begin;
  current_.reset();
  pos_ = 0;
  next_source_ = 0;
  // Skip the tables wholly before the range; the range starts `begin`
  // rows into the next one.
  while (next_source_ < sources_.size() &&
         begin >= sources_[next_source_]->num_rows()) {
    begin -= sources_[next_source_++]->num_rows();
  }
  if (next_source_ < sources_.size()) {
    current_ = sources_[next_source_++];
    pos_ = begin;
  }
}

namespace {

/// The ColumnScan under a scan pipeline: `op` and every operator below it
/// down to that scan are record-stream Filters. Null for any other chain.
ColumnScan* ScanPipelineLeaf(SubOperator* op) {
  while (dynamic_cast<Filter*>(op) != nullptr) {
    if (!op->ProducesRecordStream()) return nullptr;
    op = op->child(0);
  }
  return dynamic_cast<ColumnScan*>(op);
}

}  // namespace

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
  size_t total = 0;
  MODULARIS_RETURN_NOT_OK(scan->ReadSources(&total));
  // Worker w drains global rows [bounds[w], bounds[w+1]) across the
  // source tables in order into parts[w], so the parts concatenated in
  // worker order are the one-worker stream at any worker count. Filters
  // only drop rows, so each part is reserved to its range here, on the
  // calling thread, and never grows: the workers allocate no output.
  const int workers = PlanWorkers(total, ctx_->options);
  const std::vector<size_t> bounds = SplitRows(total, workers);
  std::vector<RowVectorPtr> parts(workers);
  for (int w = 0; w < workers; ++w) {
    parts[w] = RowVector::Make(schema_);
    parts[w]->Reserve(bounds[w + 1] - bounds[w]);
  }
  auto drain = [&](SubOperator* chain, ColumnScan* leaf, int w) -> Status {
    leaf->SetRange(bounds[w], bounds[w + 1]);
    RowBatch batch;
    while (chain->PullBatch(&batch)) {
      if (!batch.schema().SameLayout(schema_)) {
        return Status::InvalidArgument(
            chain->name() + ": rows " + batch.schema().ToString() +
            " do not match the stream schema " + schema_.ToString());
      }
      parts[w]->AppendRawBatch(batch.data(), batch.size());
    }
    return chain->status();
  };
  if (workers == 1) {
    MODULARIS_RETURN_NOT_OK(drain(child(0), scan, 0));
  } else {
    // Filters and a ColumnScan that has read its sources always clone.
    WorkerCloneContext cc;
    std::vector<SubOpPtr> chains;
    for (int w = 0; w < workers; ++w) {
      chains.push_back(child(0)->CloneForWorker(&cc));
    }
    WorkerSet ws(ctx_, workers);
    Status st = ParallelFor(ctx_, workers, [&](int w) -> Status {
      SubOperator* chain = chains[w].get();
      MODULARIS_RETURN_NOT_OK(chain->Open(ws.ctx(w)));
      ColumnScan* leaf = ScanPipelineLeaf(chain);
      size_t rows = 0;
      Status run = leaf->ReadSources(&rows);
      if (run.ok()) run = drain(chain, leaf, w);
      Status close = chain->Close();
      return run.ok() ? close : run;
    });
    ws.MergeStats();
    MODULARIS_RETURN_NOT_OK(st);
  }
  // The tables go before the result is allocated (the clones' went with
  // `chains`).
  scan->ReleaseSources();
  if (workers == 1) {
    *result = std::move(parts[0]);
    return Status::OK();
  }
  // Worker w copies its part to rows [offsets[w], offsets[w+1]) of the
  // result, so the concatenation runs on the workers too.
  std::vector<size_t> offsets(workers + 1, 0);
  for (int w = 0; w < workers; ++w) {
    offsets[w + 1] = offsets[w] + parts[w]->size();
  }
  (*result)->ResizeRowsUninitialized(offsets[workers]);
  uint8_t* base = (*result)->mutable_data();
  const size_t stride = (*result)->row_size();
  return ParallelFor(ctx_, workers, [&](int w) -> Status {
    if (!parts[w]->empty()) {
      std::memcpy(base + offsets[w] * stride, parts[w]->data(),
                  parts[w]->byte_size());
    }
    return Status::OK();
  });
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
    ColumnScan* scan = ScanPipelineLeaf(child(0));
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
