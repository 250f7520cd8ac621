#include "core/column_table.h"

#include <algorithm>
#include <cstring>

namespace modularis {

ColumnTable::ColumnTable(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) {
    columns_.emplace_back(f.type);
  }
}

void ColumnTable::AppendRow(const RowRef& row) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    switch (schema_.field(c).type) {
      case AtomType::kInt32:
      case AtomType::kDate:
        columns_[c].AppendInt32(row.GetInt32(static_cast<int>(c)));
        break;
      case AtomType::kInt64:
        columns_[c].AppendInt64(row.GetInt64(static_cast<int>(c)));
        break;
      case AtomType::kFloat64:
        columns_[c].AppendFloat64(row.GetFloat64(static_cast<int>(c)));
        break;
      case AtomType::kString:
        columns_[c].AppendString(row.GetString(static_cast<int>(c)));
        break;
    }
  }
  ++num_rows_;
}

void ColumnTable::FinishBulkLoad() {
  num_rows_ = columns_.empty() ? 0 : columns_[0].size();
}

void ColumnTable::WriteRows(size_t begin, size_t n,
                            const std::vector<int>& columns,
                            const Schema& layout, uint8_t* dst) const {
  const uint32_t stride = layout.row_size();
  for (size_t k = 0; k < layout.num_fields(); ++k) {
    const Column& col = columns_[columns.empty() ? k : columns[k]];
    uint8_t* out = dst + layout.offset(k);
    auto cells = [&](const auto& values) {
      for (size_t i = 0; i < n; ++i) {
        std::memcpy(out + i * stride, &values[begin + i], sizeof(values[0]));
      }
    };
    switch (layout.field(k).type) {
      case AtomType::kInt32:
      case AtomType::kDate:
        cells(col.i32_data());
        break;
      case AtomType::kInt64:
        cells(col.i64_data());
        break;
      case AtomType::kFloat64:
        cells(col.f64_data());
        break;
      case AtomType::kString: {
        // The length-prefixed cell is written in place; the zero-filled
        // row already holds its padding.
        const std::vector<uint32_t>& offsets = col.str_offsets();
        const std::string& arena = col.str_arena();
        const size_t width = layout.field(k).width;
        for (size_t i = 0, r = begin; i < n; ++i, ++r, out += stride) {
          const size_t end =
              r + 1 < offsets.size() ? offsets[r + 1] : arena.size();
          const uint16_t len =
              static_cast<uint16_t>(std::min(end - offsets[r], width));
          std::memcpy(out, &len, sizeof(len));
          std::memcpy(out + sizeof(len), arena.data() + offsets[r], len);
        }
        break;
      }
    }
  }
}

RowVectorPtr ColumnTable::ToRowVector() const {
  // Cache-sized pieces, so each column pass writes rows still in cache.
  constexpr size_t kPieceRows = 1024;
  RowVectorPtr out = RowVector::Make(schema_);
  out->ResizeRows(num_rows_);
  for (size_t begin = 0; begin < num_rows_; begin += kPieceRows) {
    WriteRows(begin, std::min(kPieceRows, num_rows_ - begin), {}, schema_,
              out->mutable_data() + begin * out->row_size());
  }
  return out;
}

ColumnTablePtr ColumnTable::FromRowVector(const RowVector& rows) {
  ColumnTablePtr table = Make(rows.schema());
  for (size_t i = 0; i < rows.size(); ++i) {
    table->AppendRow(rows.row(i));
  }
  return table;
}

}  // namespace modularis
