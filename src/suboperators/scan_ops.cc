#include "suboperators/scan_ops.h"

#include <algorithm>
#include <cstring>

#include "suboperators/basic_ops.h"

namespace modularis {

// ---------------------------------------------------------------------------
// RowScan
// ---------------------------------------------------------------------------

bool RowScan::Advance() {
  if (ranged_) {
    if (remaining_ == 0 || next_source_ >= sources_.size()) return false;
    current_ = sources_[next_source_++];
    pos_ = 0;
    return true;
  }
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

Status RowScan::ReadSources(size_t* rows) {
  *rows = 0;
  while (Advance()) {
    *rows += current_->size();
    sources_.push_back(std::move(current_));
  }
  MODULARIS_RETURN_NOT_OK(status_);
  read_sources_ = true;
  return Status::OK();
}

void RowScan::SetRange(size_t begin, size_t end) {
  ranged_ = true;
  remaining_ = end - begin;
  current_.reset();
  pos_ = 0;
  next_source_ = 0;
  // Skip the collections wholly before the range; the range starts
  // `begin` rows into the next one.
  while (next_source_ < sources_.size() &&
         begin >= sources_[next_source_]->size()) {
    begin -= sources_[next_source_++]->size();
  }
  if (next_source_ < sources_.size()) {
    current_ = sources_[next_source_++];
    pos_ = begin;
  }
}

// ---------------------------------------------------------------------------
// ColumnScan
// ---------------------------------------------------------------------------

bool ColumnScan::NextBatch(RowBatch* out) {
  out->Clear();
  while (true) {
    if (current_ != nullptr && pos_ < current_->num_rows()) {
      const size_t n =
          std::min(current_->num_rows() - pos_, RowBatch::kDefaultRows);
      if (batch_rows_ == nullptr) {
        batch_rows_ = RowVector::Make(schema_);
      } else {
        batch_rows_->Clear();
      }
      // Zero-filled rows so string padding matches the row path.
      batch_rows_->ResizeRows(n);
      uint8_t* base = batch_rows_->mutable_data();
      const uint32_t stride = batch_rows_->row_size();
      for (size_t c = 0; c < schema_.num_fields(); ++c) {
        const Column& column = current_->column(c);
        const uint32_t off = schema_.offset(c);
        const int col = static_cast<int>(c);
        switch (schema_.field(c).type) {
          case AtomType::kInt32:
          case AtomType::kDate: {
            const std::vector<int32_t>& v = column.i32_data();
            for (size_t i = 0; i < n; ++i) {
              std::memcpy(base + i * stride + off, &v[pos_ + i],
                          sizeof(int32_t));
            }
            break;
          }
          case AtomType::kInt64: {
            const std::vector<int64_t>& v = column.i64_data();
            for (size_t i = 0; i < n; ++i) {
              std::memcpy(base + i * stride + off, &v[pos_ + i],
                          sizeof(int64_t));
            }
            break;
          }
          case AtomType::kFloat64: {
            const std::vector<double>& v = column.f64_data();
            for (size_t i = 0; i < n; ++i) {
              std::memcpy(base + i * stride + off, &v[pos_ + i],
                          sizeof(double));
            }
            break;
          }
          case AtomType::kString: {
            for (size_t i = 0; i < n; ++i) {
              RowWriter w(base + i * stride, &schema_);
              w.SetString(col, column.GetString(pos_ + i));
            }
            break;
          }
        }
      }
      pos_ += n;
      out->Borrow(batch_rows_);
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

namespace {

/// The RowScan under a scan pipeline: `op` and every operator below it
/// down to that scan are record-stream Filters or MapOps. Null for any
/// other chain.
RowScan* ScanPipelineLeaf(SubOperator* op) {
  while (dynamic_cast<Filter*>(op) != nullptr ||
         dynamic_cast<MapOp*>(op) != nullptr) {
    if (!op->ProducesRecordStream()) return nullptr;
    op = op->child(0);
  }
  return dynamic_cast<RowScan*>(op);
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

Status MaterializeRowVector::DrainScanPipeline(RowScan* scan,
                                               RowVectorPtr* result) {
  scan_timer_.Bind(ctx_->stats, "phase.scan_pipeline");
  ScopedPhase phase(&scan_timer_);
  size_t total = 0;
  MODULARIS_RETURN_NOT_OK(scan->ReadSources(&total));
  // Worker w drains global rows [bounds[w], bounds[w+1]) across the
  // source collections in order, so the blocks concatenated in worker
  // order are the one-worker stream at any worker count.
  const int workers = PlanWorkers(total, ctx_->options);
  const std::vector<size_t> bounds = SplitRows(total, workers);
  std::vector<std::vector<RowVectorPtr>> blocks(workers);
  auto drain = [&](SubOperator* chain, RowScan* leaf, int w) {
    leaf->SetRange(bounds[w], bounds[w + 1]);
    return DrainRecordBlocks(chain, &schema_, &blocks[w]);
  };
  if (workers == 1) {
    MODULARIS_RETURN_NOT_OK(drain(child(0), scan, 0));
  } else {
    // Filter, MapOp and a RowScan that has read its sources always clone.
    WorkerCloneContext cc;
    std::vector<SubOpPtr> chains;
    for (int w = 0; w < workers; ++w) {
      chains.push_back(child(0)->CloneForWorker(&cc));
    }
    WorkerSet ws(ctx_, workers);
    Status st = ParallelFor(ctx_, workers, [&](int w) -> Status {
      SubOperator* chain = chains[w].get();
      MODULARIS_RETURN_NOT_OK(chain->Open(ws.ctx(w)));
      RowScan* leaf = ScanPipelineLeaf(chain);
      size_t rows = 0;
      Status run = leaf->ReadSources(&rows);
      if (run.ok()) run = drain(chain, leaf, w);
      Status close = chain->Close();
      return run.ok() ? close : run;
    });
    ws.MergeStats();
    MODULARIS_RETURN_NOT_OK(st);
  }
  // Worker w copies its blocks to rows [offsets[w], offsets[w+1]) of the
  // result, so the concatenation runs on the workers too.
  std::vector<size_t> offsets(workers + 1, 0);
  for (int w = 0; w < workers; ++w) {
    offsets[w + 1] = offsets[w];
    for (const RowVectorPtr& block : blocks[w]) offsets[w + 1] += block->size();
  }
  (*result)->ResizeRowsUninitialized(offsets[workers]);
  uint8_t* base = (*result)->mutable_data();
  const size_t stride = (*result)->row_size();
  return ParallelFor(ctx_, workers, [&](int w) -> Status {
    uint8_t* dst = base + offsets[w] * stride;
    for (const RowVectorPtr& block : blocks[w]) {
      std::memcpy(dst, block->data(), block->byte_size());
      dst += block->byte_size();
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
    RowScan* scan = ScanPipelineLeaf(child(0));
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
