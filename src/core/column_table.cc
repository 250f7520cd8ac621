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

void ColumnTable::WriteRows(size_t begin, const uint32_t* sel, size_t n,
                            const std::vector<int>& columns,
                            const Schema& layout, uint8_t* dst) const {
  const uint32_t stride = layout.row_size();
  if (n == 0 || stride == 0) return;
  // Alignment gaps, the row tail and string padding are zero, as in a
  // RowWriter-built row: clear the rows first, while they are in cache.
  std::memset(dst, 0, n * stride);
  for (size_t k = 0; k < layout.num_fields(); ++k) {
    const Column& col = columns_[columns.empty() ? k : columns[k]];
    uint8_t* out = dst + layout.offset(k);
    auto cells = [&](const auto& values) {
      const auto* v = values.data() + begin;
      if (sel == nullptr) {
        for (size_t i = 0; i < n; ++i) {
          std::memcpy(out + i * stride, &v[i], sizeof(v[0]));
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          std::memcpy(out + i * stride, &v[sel[i]], sizeof(v[0]));
        }
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
        // The length-prefixed cell; the cleared row holds its padding.
        const uint32_t width = layout.field(k).width;
        for (size_t i = 0; i < n; ++i, out += stride) {
          const std::string_view v =
              col.GetString(begin + (sel != nullptr ? sel[i] : i), width);
          const uint16_t len = static_cast<uint16_t>(v.size());
          std::memcpy(out, &len, sizeof(len));
          std::memcpy(out + sizeof(len), v.data(), len);
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
  out->ResizeRowsUninitialized(num_rows_);
  for (size_t begin = 0; begin < num_rows_; begin += kPieceRows) {
    WriteRows(begin, nullptr, std::min(kPieceRows, num_rows_ - begin), {},
              schema_, out->mutable_data() + begin * out->row_size());
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
