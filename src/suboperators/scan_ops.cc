#include "suboperators/scan_ops.h"

#include <algorithm>
#include <cstring>

namespace modularis {

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

bool MaterializeRowVector::Next(Tuple* out) {
  if (done_) return false;
  RowVectorPtr result = RowVector::Make(schema_);
  // Batch drain when the upstream declares a record stream: batches land
  // with one bulk memcpy each, and a released whole-vector batch (the
  // common single-output-batch case of a nested BuildProbe) is adopted
  // zero-copy. Streams that may carry atom tuples (driver-side result
  // assembly) keep the tuple loop below.
  if (child(0)->ProducesRecordStream()) {
    RowBatch batch;
    while (child(0)->PullBatch(&batch)) {
      if (result->empty() && batch.schema().Equals(schema_)) {
        RowVectorPtr stolen = batch.TakeReleased();
        if (stolen != nullptr) {
          result = std::move(stolen);
          continue;
        }
      }
      if (result->empty()) result->Reserve(batch.size());
      result->AppendRawBatch(batch.data(), batch.size());
    }
    if (!child(0)->status().ok()) return Fail(child(0)->status());
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
