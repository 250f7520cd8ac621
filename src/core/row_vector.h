#ifndef MODULARIS_CORE_ROW_VECTOR_H_
#define MODULARIS_CORE_ROW_VECTOR_H_

#include <cstring>
#include <memory>
#include <utility>
#include <string_view>
#include <vector>

#include "core/types.h"

/// \file row_vector.h
/// RowVector is the default physical collection of the execution layer:
/// a C-array of packed C-structs (paper §3.3, "RowVector⟨TupleType⟩").
/// All bulk data — base tables in memory, exchange partitions, nested-plan
/// materializations — travels inside RowVectors referenced by tuples.

namespace modularis {

class RowVector;
using RowVectorPtr = std::shared_ptr<RowVector>;

/// Minimal growable byte buffer with explicitly uninitialized resize.
/// std::vector value-initializes on resize, which memsets regions the
/// caller is about to overwrite anyway — measurable on the hot append
/// paths (pre-sized scatter, batched join emission).
class ByteBuffer {
 public:
  ByteBuffer() = default;
  ByteBuffer(const ByteBuffer& other) { *this = other; }
  ByteBuffer& operator=(const ByteBuffer& other) {
    if (this != &other) {
      reserve(other.size_);
      std::memcpy(data_.get(), other.data_.get(), other.size_);
      size_ = other.size_;
    }
    return *this;
  }
  ByteBuffer(ByteBuffer&& other) noexcept { *this = std::move(other); }
  ByteBuffer& operator=(ByteBuffer&& other) noexcept {
    if (this != &other) {
      data_ = std::move(other.data_);
      size_ = other.size_;
      cap_ = other.cap_;
      other.size_ = 0;  // leave the source empty-but-valid for reuse
      other.cap_ = 0;
    }
    return *this;
  }

  uint8_t* data() { return data_.get(); }
  const uint8_t* data() const { return data_.get(); }
  size_t size() const { return size_; }
  size_t capacity() const { return cap_; }

  void clear() { size_ = 0; }

  void reserve(size_t cap) {
    if (cap <= cap_) return;
    std::unique_ptr<uint8_t[]> grown(new uint8_t[cap]);
    if (size_ > 0) std::memcpy(grown.get(), data_.get(), size_);
    data_ = std::move(grown);
    cap_ = cap;
  }

  /// Grows to `n` bytes, zero-filling the new region (vector::resize
  /// semantics). Shrinks without touching memory.
  void resize_zero(size_t n) {
    if (n > size_) {
      reserve(n);
      std::memset(data_.get() + size_, 0, n - size_);
    }
    size_ = n;
  }

  /// Grows (or shrinks) to `n` bytes without initializing new memory.
  /// Callers must overwrite every grown byte they later read.
  void resize_uninit(size_t n) {
    reserve(n);
    size_ = n;
  }

  /// Appends `n` bytes (capacity must have been ensured by the caller).
  void append(const uint8_t* p, size_t n) {
    if (n == 0) return;  // empty source may be a null pointer (UB in memcpy)
    std::memcpy(data_.get() + size_, p, n);
    size_ += n;
  }

 private:
  std::unique_ptr<uint8_t[]> data_;
  size_t size_ = 0;
  size_t cap_ = 0;
};

/// A read-only view of one packed row. Cheap to copy; does not own memory.
class RowRef {
 public:
  RowRef() = default;
  RowRef(const uint8_t* data, const Schema* schema)
      : data_(data), schema_(schema) {}

  const uint8_t* data() const { return data_; }
  const Schema& schema() const { return *schema_; }
  bool valid() const { return data_ != nullptr; }

  int32_t GetInt32(int col) const {
    int32_t v;
    std::memcpy(&v, data_ + schema_->offset(col), sizeof(v));
    return v;
  }
  int64_t GetInt64(int col) const {
    int64_t v;
    std::memcpy(&v, data_ + schema_->offset(col), sizeof(v));
    return v;
  }
  double GetFloat64(int col) const {
    double v;
    std::memcpy(&v, data_ + schema_->offset(col), sizeof(v));
    return v;
  }
  int32_t GetDate(int col) const { return GetInt32(col); }
  std::string_view GetString(int col) const {
    const uint8_t* p = data_ + schema_->offset(col);
    uint16_t len;
    std::memcpy(&len, p, sizeof(len));
    return std::string_view(reinterpret_cast<const char*>(p + 2), len);
  }

 private:
  const uint8_t* data_ = nullptr;
  const Schema* schema_ = nullptr;
};

/// A mutable view of one packed row; used when filling freshly appended rows.
class RowWriter {
 public:
  RowWriter(uint8_t* data, const Schema* schema)
      : data_(data), schema_(schema) {}

  uint8_t* data() const { return data_; }

  void SetInt32(int col, int32_t v) {
    std::memcpy(data_ + schema_->offset(col), &v, sizeof(v));
  }
  void SetInt64(int col, int64_t v) {
    std::memcpy(data_ + schema_->offset(col), &v, sizeof(v));
  }
  void SetFloat64(int col, double v) {
    std::memcpy(data_ + schema_->offset(col), &v, sizeof(v));
  }
  void SetDate(int col, int32_t v) { SetInt32(col, v); }
  void SetString(int col, std::string_view v) {
    uint8_t* p = data_ + schema_->offset(col);
    uint32_t width = schema_->field(col).width;
    uint16_t len = static_cast<uint16_t>(v.size() > width ? width : v.size());
    std::memcpy(p, &len, sizeof(len));
    std::memcpy(p + 2, v.data(), len);
    if (len < width) std::memset(p + 2 + len, 0, width - len);
  }

 private:
  uint8_t* data_;
  const Schema* schema_;
};

/// A contiguous, append-only buffer of packed rows sharing one Schema.
/// RowVectors are the unit of materialization between pipelines and the
/// payload of collection-typed tuple items; they are reference counted
/// (shared_ptr) so multiple pipelines can consume one materialization.
class RowVector {
 public:
  explicit RowVector(Schema schema)
      : schema_(std::move(schema)), row_size_(schema_.row_size()) {}

  const Schema& schema() const { return schema_; }
  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }
  uint32_t row_size() const { return row_size_; }
  /// Total payload bytes (rows * row_size).
  size_t byte_size() const { return num_rows_ * static_cast<size_t>(row_size_); }

  const uint8_t* data() const { return buf_.data(); }
  uint8_t* mutable_data() { return buf_.data(); }

  void Reserve(size_t rows) { buf_.reserve(rows * row_size_); }

  /// Drops all rows but keeps the allocated capacity (scratch reuse).
  void Clear() {
    buf_.clear();
    num_rows_ = 0;
  }

  /// Resizes to exactly `rows` zero-initialized rows in one allocation
  /// (the pre-sized scatter path: partition sizes are known from the
  /// histogram, so rows are written in place via mutable_row()).
  void ResizeRows(size_t rows) {
    buf_.resize_zero(rows * row_size_);
    num_rows_ = rows;
  }

  /// ResizeRows without zero-filling: for scatter targets whose every
  /// row is about to be overwritten with a full-stride copy.
  void ResizeRowsUninitialized(size_t rows) {
    buf_.resize_uninit(rows * row_size_);
    num_rows_ = rows;
  }

  /// Appends one zero-initialized row and returns a writer for it.
  RowWriter AppendRow() {
    EnsureCapacity(row_size_);
    buf_.resize_zero(buf_.size() + row_size_);
    ++num_rows_;
    return RowWriter(buf_.data() + (num_rows_ - 1) * row_size_, &schema_);
  }

  /// Appends `rows` uninitialized rows and returns the write cursor for
  /// the first of them. Callers must overwrite every byte they later
  /// read (gap-free layouts only); pair with TruncateRows to drop an
  /// unused tail.
  uint8_t* AppendUninitialized(size_t rows) {
    EnsureCapacity(rows * row_size_);
    uint8_t* p = buf_.data() + buf_.size();
    buf_.resize_uninit(buf_.size() + rows * row_size_);
    num_rows_ += rows;
    return p;
  }

  /// Drops the last `rows` rows.
  void TruncateRows(size_t rows) {
    buf_.resize_uninit(buf_.size() - rows * row_size_);
    num_rows_ -= rows;
  }

  /// Appends a raw packed row (must match this schema's layout).
  void AppendRaw(const uint8_t* row) {
    EnsureCapacity(row_size_);
    buf_.append(row, row_size_);
    ++num_rows_;
  }

  /// Appends `count` packed rows from a contiguous buffer.
  void AppendRawBatch(const uint8_t* rows, size_t count) {
    EnsureCapacity(count * row_size_);
    buf_.append(rows, count * row_size_);
    num_rows_ += count;
  }

  /// Appends all rows of `other` (schemas must have identical layout).
  void AppendAll(const RowVector& other) {
    AppendRawBatch(other.data(), other.size());
  }

  RowRef row(size_t i) const {
    return RowRef(buf_.data() + i * row_size_, &schema_);
  }
  uint8_t* mutable_row(size_t i) { return buf_.data() + i * row_size_; }

  /// Creates an empty RowVector with the given schema.
  static RowVectorPtr Make(Schema schema) {
    return std::make_shared<RowVector>(std::move(schema));
  }

 private:
  /// Grows capacity geometrically ahead of an append of `extra` bytes,
  /// so per-row appends never pay a linear (exact-fit) reallocation.
  void EnsureCapacity(size_t extra) {
    size_t need = buf_.size() + extra;
    if (need <= buf_.capacity()) return;
    size_t cap = buf_.capacity() < 16 * row_size_ ? 16 * row_size_
                                                  : buf_.capacity() * 2;
    while (cap < need) cap *= 2;
    buf_.reserve(cap);
  }

  Schema schema_;
  uint32_t row_size_;
  size_t num_rows_ = 0;
  ByteBuffer buf_;
};

}  // namespace modularis

#endif  // MODULARIS_CORE_ROW_VECTOR_H_
