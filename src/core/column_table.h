#ifndef MODULARIS_CORE_COLUMN_TABLE_H_
#define MODULARIS_CORE_COLUMN_TABLE_H_

#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/row_vector.h"
#include "core/types.h"

/// \file column_table.h
/// ColumnTable is the columnar in-memory collection format (the analog of
/// the Arrow tables of paper §4.5 and of Parquet column chunks in §4.4).
/// It is the second physical collection of the type system next to
/// RowVector, and the one every base table is held in: in-memory TPC-H
/// fragments, decoded ColumnFile row groups and parsed S3Select CSV.
/// WriteRows is the one column→row conversion: ColumnScan builds its
/// survivors with it after testing its predicate on the columns, and
/// ToRowVector (TableToCollection) converts whole tables.
///
/// String width. A Column keeps every string whole, whatever its length:
/// CSV and column files round-trip it unchanged. A row field, though, has
/// a fixed `width`, and every row view of a string longer than that width
/// sees its first `width` bytes: WriteRows writes that prefix, and the
/// bytecode's column-span string load (RowSpan over a ColumnTable) reads
/// the same prefix through Column::GetString(i, width). So a predicate
/// tested on the columns picks exactly the rows it picks on the rows
/// WriteRows builds; the cut is not an error.

namespace modularis {

class ColumnTable;
using ColumnTablePtr = std::shared_ptr<ColumnTable>;

/// A typed column: contiguous values; strings use offset+arena storage.
class Column {
 public:
  explicit Column(AtomType type) : type_(type) {}

  AtomType type() const { return type_; }
  size_t size() const { return size_; }

  void AppendInt32(int32_t v) { i32_.push_back(v); ++size_; }
  void AppendInt64(int64_t v) { i64_.push_back(v); ++size_; }
  void AppendFloat64(double v) { f64_.push_back(v); ++size_; }
  void AppendString(std::string_view v) {
    str_offsets_.push_back(static_cast<uint32_t>(str_arena_.size()));
    str_arena_.append(v);
    ++size_;
  }

  int32_t GetInt32(size_t i) const { return i32_[i]; }
  int64_t GetInt64(size_t i) const { return i64_[i]; }
  double GetFloat64(size_t i) const { return f64_[i]; }
  std::string_view GetString(size_t i) const {
    uint32_t begin = str_offsets_[i];
    uint32_t end = i + 1 < str_offsets_.size()
                       ? str_offsets_[i + 1]
                       : static_cast<uint32_t>(str_arena_.size());
    return std::string_view(str_arena_).substr(begin, end - begin);
  }
  /// String i as a row field of `width` bytes sees it: its first `width`
  /// bytes (the string-width contract above).
  std::string_view GetString(size_t i, uint32_t width) const {
    std::string_view v = GetString(i);
    return v.size() > width ? v.substr(0, width) : v;
  }

  const std::vector<int32_t>& i32_data() const { return i32_; }
  const std::vector<int64_t>& i64_data() const { return i64_; }
  const std::vector<double>& f64_data() const { return f64_; }
  /// String i spans [str_offsets()[i], str_offsets()[i + 1]) of
  /// str_arena(); the last one ends at the arena's end.
  const std::vector<uint32_t>& str_offsets() const { return str_offsets_; }
  const std::string& str_arena() const { return str_arena_; }

 private:
  AtomType type_;
  size_t size_ = 0;
  std::vector<int32_t> i32_;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<uint32_t> str_offsets_;
  std::string str_arena_;
};

/// An immutable-schema columnar table.
class ColumnTable {
 public:
  explicit ColumnTable(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  Column& column(size_t i) { return columns_[i]; }
  const Column& column(size_t i) const { return columns_[i]; }

  /// Appends one packed row (layout must match schema()).
  void AppendRow(const RowRef& row);
  /// Recomputes num_rows from column 0 after bulk column fills.
  void FinishBulkLoad();

  /// Writes n rows as packed rows of `layout` to `dst` (n rows of
  /// layout.row_size() bytes, every byte of which is written): row i is
  /// table row begin + sel[i], or begin + i when `sel` is null. Field k of
  /// `layout` takes table column `columns[k]` (empty = column k), whose
  /// type must be field k's. Strings are cut to their field's width.
  void WriteRows(size_t begin, const uint32_t* sel, size_t n,
                 const std::vector<int>& columns, const Schema& layout,
                 uint8_t* dst) const;

  /// Converts the whole table into a RowVector.
  RowVectorPtr ToRowVector() const;

  /// Builds a ColumnTable from a RowVector.
  static ColumnTablePtr FromRowVector(const RowVector& rows);

  static ColumnTablePtr Make(Schema schema) {
    return std::make_shared<ColumnTable>(std::move(schema));
  }

 private:
  Schema schema_;
  size_t num_rows_ = 0;
  std::vector<Column> columns_;
};

}  // namespace modularis

#endif  // MODULARIS_CORE_COLUMN_TABLE_H_
