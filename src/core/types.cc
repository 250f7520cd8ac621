#include "core/types.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace modularis {

namespace {

uint32_t AtomAlignment(AtomType type) {
  switch (type) {
    case AtomType::kInt32:
    case AtomType::kDate:
      return 4;
    case AtomType::kInt64:
    case AtomType::kFloat64:
      return 8;
    case AtomType::kString:
      return 2;  // uint16 length prefix
  }
  return 8;
}

uint32_t AtomStorageSize(const Field& f) {
  switch (f.type) {
    case AtomType::kInt32:
    case AtomType::kDate:
      return 4;
    case AtomType::kInt64:
    case AtomType::kFloat64:
      return 8;
    case AtomType::kString:
      return 2 + f.width;
  }
  return 8;
}

uint32_t AlignUp(uint32_t value, uint32_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

}  // namespace

const char* AtomTypeName(AtomType type) {
  switch (type) {
    case AtomType::kInt32: return "i32";
    case AtomType::kInt64: return "i64";
    case AtomType::kFloat64: return "f64";
    case AtomType::kString: return "str";
    case AtomType::kDate: return "date";
  }
  return "?";
}

Schema::Schema(std::vector<Field> fields) : fields_(std::move(fields)) {
  offsets_.reserve(fields_.size());
  uint32_t offset = 0;
  for (const Field& f : fields_) {
    offset = AlignUp(offset, AtomAlignment(f.type));
    offsets_.push_back(offset);
    offset += AtomStorageSize(f);
  }
  row_size_ = AlignUp(offset, 8);
}

int Schema::FieldIndex(std::string_view name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Schema Schema::Select(const std::vector<int>& indices) const {
  std::vector<Field> selected;
  selected.reserve(indices.size());
  for (int i : indices) selected.push_back(fields_[i]);
  return Schema(std::move(selected));
}

Schema Schema::Concat(const Schema& other) const {
  std::vector<Field> all = fields_;
  for (Field f : other.fields_) {
    if (FieldIndex(f.name) >= 0) f.name += "_r";
    all.push_back(std::move(f));
  }
  return Schema(std::move(all));
}

bool Schema::Equals(const Schema& other) const {
  return fields_ == other.fields_;
}

bool Schema::SameLayout(const Schema& other) const {
  if (fields_.size() != other.fields_.size()) return false;
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].type != other.fields_[i].type ||
        fields_[i].width != other.fields_[i].width) {
      return false;
    }
  }
  return true;
}

std::string Schema::ToString() const {
  std::string out = "<";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields_[i].name;
    out += ":";
    out += AtomTypeName(fields_[i].type);
    if (fields_[i].type == AtomType::kString) {
      out += "(" + std::to_string(fields_[i].width) + ")";
    }
  }
  out += ">";
  return out;
}

Schema KeyValueSchema() {
  return Schema({Field::I64("key"), Field::I64("value")});
}

// Days-from-civil / civil-from-days after Howard Hinnant's algorithms.
int32_t DateFromYMD(int year, int month, int day) {
  year -= month <= 2;
  const int era = (year >= 0 ? year : year - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(year - era * 400);
  const unsigned doy =
      (153 * (static_cast<unsigned>(month) + (month > 2 ? -3 : 9)) + 2) / 5 +
      static_cast<unsigned>(day) - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int>(doe) - 719468;
}

void YMDFromDate(int32_t days, int* year, int* month, int* day) {
  int32_t z = days + 719468;
  const int era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int y = static_cast<int>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : -9);
  *year = y + (m <= 2);
  *month = static_cast<int>(m);
  *day = static_cast<int>(d);
}

Result<int32_t> ParseDate(std::string_view text) {
  int year = 0, month = 0, day = 0;
  if (text.size() != 10 || text[4] != '-' || text[7] != '-') {
    return Status::InvalidArgument("malformed date: " + std::string(text));
  }
  for (int i : {0, 1, 2, 3, 5, 6, 8, 9}) {
    if (text[i] < '0' || text[i] > '9') {
      return Status::InvalidArgument("malformed date: " + std::string(text));
    }
  }
  year = (text[0] - '0') * 1000 + (text[1] - '0') * 100 + (text[2] - '0') * 10 +
         (text[3] - '0');
  month = (text[5] - '0') * 10 + (text[6] - '0');
  day = (text[8] - '0') * 10 + (text[9] - '0');
  if (month < 1 || month > 12 || day < 1 || day > 31) {
    return Status::InvalidArgument("date out of range: " + std::string(text));
  }
  return DateFromYMD(year, month, day);
}

std::string FormatDate(int32_t days) {
  int y, m, d;
  YMDFromDate(days, &y, &m, &d);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

namespace {
int DaysInMonth(int year, int month) {
  static const int kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (month == 2) {
    bool leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
    return leap ? 29 : 28;
  }
  return kDays[month - 1];
}
}  // namespace

int32_t AddMonths(int32_t days, int months) {
  int y, m, d;
  YMDFromDate(days, &y, &m, &d);
  int total = (y * 12 + (m - 1)) + months;
  int ny = total / 12;
  int nm = total % 12 + 1;
  int nd = std::min(d, DaysInMonth(ny, nm));
  return DateFromYMD(ny, nm, nd);
}

}  // namespace modularis
