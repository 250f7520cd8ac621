#ifndef MODULARIS_CORE_TYPES_H_
#define MODULARIS_CORE_TYPES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

/// \file types.h
/// Atom types, fields, schemas and packed row layouts.
///
/// Modularis' type system (paper §3.3) distinguishes *atoms* (undividable
/// values) from *collections* (physical materialization formats of tuples).
/// This header defines the atoms and the Schema/RowLayout used by the
/// default collection, RowVector, which stores fixed-width packed rows.

namespace modularis {

/// The atomic value domains supported by the execution layer.
/// Dates are stored as int32 days since the Unix epoch; strings are
/// fixed-capacity inline byte sequences (TPC-H fields are bounded).
enum class AtomType : uint8_t {
  kInt32 = 0,
  kInt64 = 1,
  kFloat64 = 2,
  kString = 3,
  kDate = 4,
};

/// Human-readable name of an atom type ("i32", "i64", ...).
const char* AtomTypeName(AtomType type);

/// A named, typed column of a schema. `width` is the maximum byte length
/// of the value and is only meaningful for kString fields.
struct Field {
  std::string name;
  AtomType type = AtomType::kInt64;
  uint32_t width = 0;

  static Field I32(std::string name) {
    return Field{std::move(name), AtomType::kInt32, 0};
  }
  static Field I64(std::string name) {
    return Field{std::move(name), AtomType::kInt64, 0};
  }
  static Field F64(std::string name) {
    return Field{std::move(name), AtomType::kFloat64, 0};
  }
  static Field Str(std::string name, uint32_t width) {
    return Field{std::move(name), AtomType::kString, width};
  }
  static Field Date(std::string name) {
    return Field{std::move(name), AtomType::kDate, 0};
  }

  bool operator==(const Field& other) const {
    return name == other.name && type == other.type && width == other.width;
  }
};

/// An ordered list of fields plus the packed in-memory row layout derived
/// from it. Fixed-width atoms are stored at naturally aligned offsets;
/// strings are stored as a uint16 length followed by `width` bytes. The
/// row size is rounded up to 8 bytes so rows can be copied word-wise.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields);

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Byte offset of field `i` inside a packed row.
  uint32_t offset(size_t i) const { return offsets_[i]; }
  /// Total bytes of one packed row.
  uint32_t row_size() const { return row_size_; }

  /// Index of the field named `name`, or -1 if absent.
  int FieldIndex(std::string_view name) const;

  /// Returns a new schema with only the given field indices, in order.
  Schema Select(const std::vector<int>& indices) const;

  /// Returns the concatenation of this schema's fields and `other`'s.
  /// Duplicate names get a "_r" suffix (join output convention).
  Schema Concat(const Schema& other) const;

  bool Equals(const Schema& other) const;
  /// True when rows of `other` are byte-compatible with rows of this
  /// schema: the same field types and widths in order (names may differ).
  bool SameLayout(const Schema& other) const;
  std::string ToString() const;

 private:
  std::vector<Field> fields_;
  std::vector<uint32_t> offsets_;
  uint32_t row_size_ = 0;
};

/// The ubiquitous 16-byte workload of the paper's join/group-by studies:
/// an 8-byte key and an 8-byte payload.
Schema KeyValueSchema();

// -- Date utilities (proleptic Gregorian, days since 1970-01-01) -----------

/// Converts a civil date to days since the Unix epoch.
int32_t DateFromYMD(int year, int month, int day);
/// Inverse of DateFromYMD.
void YMDFromDate(int32_t days, int* year, int* month, int* day);
/// Parses "YYYY-MM-DD"; returns InvalidArgument on malformed input.
Result<int32_t> ParseDate(std::string_view text);
/// Formats days-since-epoch as "YYYY-MM-DD".
std::string FormatDate(int32_t days);
/// Adds `months` calendar months (day-of-month clamped), as SQL intervals do.
int32_t AddMonths(int32_t days, int months);

}  // namespace modularis

#endif  // MODULARIS_CORE_TYPES_H_
