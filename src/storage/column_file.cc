#include "storage/column_file.h"

#include <algorithm>
#include <cstring>
#include <map>

namespace modularis::storage {

namespace {

constexpr uint32_t kMagic = 0x3146434Du;  // "MCF1"

// -- Little-endian primitives ------------------------------------------------

template <typename T>
void PutFixed(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
T GetFixed(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void PutVarint64(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint64(const char** p, const char* end, uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  while (*p < end && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(**p);
    ++*p;
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

// -- Chunk encoders ----------------------------------------------------------

struct EncodedChunk {
  std::string data;
  Encoding encoding = Encoding::kPlain;
  ColumnFileReader::ChunkStats stats;
};

template <typename Get>
EncodedChunk EncodeIntChunk(size_t begin, size_t end, const Get& get) {
  EncodedChunk chunk;
  chunk.encoding = Encoding::kForVarint;
  int64_t min = 0, max = 0;
  if (begin < end) {
    min = max = get(begin);
    for (size_t i = begin + 1; i < end; ++i) {
      int64_t v = get(i);
      min = std::min(min, v);
      max = std::max(max, v);
    }
  }
  chunk.stats = {true, min, max};
  PutFixed<int64_t>(&chunk.data, min);
  for (size_t i = begin; i < end; ++i) {
    PutVarint64(&chunk.data, static_cast<uint64_t>(get(i) - min));
  }
  return chunk;
}

EncodedChunk EncodeF64Chunk(const Column& col, size_t begin, size_t end) {
  EncodedChunk chunk;
  chunk.encoding = Encoding::kPlain;
  for (size_t i = begin; i < end; ++i) {
    PutFixed<double>(&chunk.data, col.GetFloat64(i));
  }
  return chunk;
}

EncodedChunk EncodeStringChunk(const Column& col, size_t begin, size_t end,
                               size_t dict_threshold) {
  std::map<std::string_view, uint32_t> dict;
  for (size_t i = begin; i < end && dict.size() <= dict_threshold; ++i) {
    dict.emplace(col.GetString(i), 0);
  }
  EncodedChunk chunk;
  if (dict.size() <= dict_threshold) {
    chunk.encoding = Encoding::kDict;
    uint32_t code = 0;
    for (auto& [sv, c] : dict) c = code++;
    PutVarint64(&chunk.data, dict.size());
    for (const auto& [sv, c] : dict) {
      PutVarint64(&chunk.data, sv.size());
      chunk.data.append(sv);
    }
    for (size_t i = begin; i < end; ++i) {
      PutVarint64(&chunk.data, dict.at(col.GetString(i)));
    }
  } else {
    chunk.encoding = Encoding::kPlain;
    for (size_t i = begin; i < end; ++i) {
      std::string_view sv = col.GetString(i);
      PutVarint64(&chunk.data, sv.size());
      chunk.data.append(sv);
    }
  }
  return chunk;
}

void WriteSchemaHeader(const Schema& schema, std::string* directory) {
  PutVarint64(directory, schema.num_fields());
  for (const Field& f : schema.fields()) {
    PutVarint64(directory, f.name.size());
    directory->append(f.name);
    directory->push_back(static_cast<char>(f.type));
    PutVarint64(directory, f.width);
  }
}

void AppendRowGroup(const ColumnTable& table, size_t begin, size_t end,
                    const ColumnFileWriteOptions& options, std::string* out,
                    std::string* directory) {
  const Schema& schema = table.schema();
  PutVarint64(directory, end - begin);
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    const Column& col = table.column(c);
    EncodedChunk chunk;
    switch (schema.field(c).type) {
      case AtomType::kInt32:
      case AtomType::kDate:
        chunk = EncodeIntChunk(begin, end,
                               [&](size_t i) { return col.GetInt32(i); });
        break;
      case AtomType::kInt64:
        chunk = EncodeIntChunk(begin, end,
                               [&](size_t i) { return col.GetInt64(i); });
        break;
      case AtomType::kFloat64:
        chunk = EncodeF64Chunk(col, begin, end);
        break;
      case AtomType::kString:
        chunk = EncodeStringChunk(col, begin, end, options.dict_threshold);
        break;
    }
    PutVarint64(directory, out->size());         // chunk offset
    PutVarint64(directory, chunk.data.size());   // chunk size
    directory->push_back(static_cast<char>(chunk.encoding));
    directory->push_back(chunk.stats.valid ? 1 : 0);
    PutFixed<int64_t>(directory, chunk.stats.min);
    PutFixed<int64_t>(directory, chunk.stats.max);
    *out += chunk.data;
  }
}

// Whether a chunk of `encoding` can hold a column of `type`: exactly the
// pairs the writer emits.
bool EncodingFits(Encoding encoding, AtomType type) {
  const bool integer = type == AtomType::kInt32 || type == AtomType::kInt64 ||
                       type == AtomType::kDate;
  return encoding == Encoding::kForVarint ? integer
         : encoding == Encoding::kDict    ? type == AtomType::kString
                                          : encoding == Encoding::kPlain && !integer;
}

std::string Finish(std::string out, const std::string& directory) {
  uint64_t dir_offset = out.size();
  out += directory;
  PutFixed<uint64_t>(&out, dir_offset);
  PutFixed<uint32_t>(&out, static_cast<uint32_t>(directory.size()));
  PutFixed<uint32_t>(&out, kMagic);
  return out;
}

}  // namespace

std::string WriteColumnFile(const ColumnTable& table,
                            const ColumnFileWriteOptions& options) {
  std::string out;
  std::string directory;
  WriteSchemaHeader(table.schema(), &directory);

  size_t num_rows = table.num_rows();
  size_t rows_per_rg = std::max<size_t>(1, options.rows_per_row_group);
  size_t num_rgs =
      num_rows == 0 ? 0 : (num_rows + rows_per_rg - 1) / rows_per_rg;
  PutVarint64(&directory, num_rgs);
  for (size_t rg = 0; rg < num_rgs; ++rg) {
    size_t begin = rg * rows_per_rg;
    size_t end = std::min(begin + rows_per_rg, num_rows);
    AppendRowGroup(table, begin, end, options, &out, &directory);
  }
  return Finish(std::move(out), directory);
}

std::string WriteColumnFileFromParts(
    const std::vector<ColumnTablePtr>& parts,
    const ColumnFileWriteOptions& options) {
  std::string out;
  std::string directory;
  WriteSchemaHeader(parts.empty() ? Schema() : parts.front()->schema(),
                    &directory);
  PutVarint64(&directory, parts.size());
  for (const ColumnTablePtr& part : parts) {
    AppendRowGroup(*part, 0, part->num_rows(), options, &out, &directory);
  }
  return Finish(std::move(out), directory);
}

Result<std::unique_ptr<ColumnFileReader>> ColumnFileReader::Open(
    std::shared_ptr<RandomReader> source) {
  MODULARIS_ASSIGN_OR_RETURN(size_t file_size, source->Size());
  if (file_size < 16) return Status::InvalidArgument("not a ColumnFile");
  MODULARIS_ASSIGN_OR_RETURN(std::string footer,
                             source->ReadAt(file_size - 16, 16));
  uint64_t dir_offset = GetFixed<uint64_t>(footer.data());
  uint32_t dir_size = GetFixed<uint32_t>(footer.data() + 8);
  uint32_t magic = GetFixed<uint32_t>(footer.data() + 12);
  if (magic != kMagic) return Status::InvalidArgument("bad ColumnFile magic");
  if (dir_offset > file_size - 16 || dir_size != file_size - 16 - dir_offset) {
    return Status::InvalidArgument("corrupt ColumnFile directory");
  }
  MODULARIS_ASSIGN_OR_RETURN(std::string dir,
                             source->ReadAt(dir_offset, dir_size));

  auto reader = std::unique_ptr<ColumnFileReader>(new ColumnFileReader());
  reader->source_ = std::move(source);

  const char* p = dir.data();
  const char* end = dir.data() + dir.size();
  auto read_varint = [&](uint64_t* v) -> Status {
    if (!GetVarint64(&p, end, v)) {
      return Status::InvalidArgument("truncated ColumnFile directory");
    }
    return Status::OK();
  };

  uint64_t num_fields;
  MODULARIS_RETURN_NOT_OK(read_varint(&num_fields));
  std::vector<Field> fields;
  for (uint64_t f = 0; f < num_fields; ++f) {
    uint64_t name_len;
    MODULARIS_RETURN_NOT_OK(read_varint(&name_len));
    if (name_len >= static_cast<uint64_t>(end - p)) {
      return Status::InvalidArgument("truncated ColumnFile schema");
    }
    std::string name(p, name_len);
    p += name_len;
    const uint8_t type = static_cast<uint8_t>(*p++);
    uint64_t width;
    MODULARIS_RETURN_NOT_OK(read_varint(&width));
    if (type > static_cast<uint8_t>(AtomType::kDate) || width > 0xFFFF) {
      return Status::InvalidArgument("bad ColumnFile field " + name);
    }
    fields.push_back(Field{std::move(name), static_cast<AtomType>(type),
                           static_cast<uint32_t>(width)});
  }
  reader->schema_ = Schema(std::move(fields));

  uint64_t num_rgs;
  MODULARIS_RETURN_NOT_OK(read_varint(&num_rgs));
  for (uint64_t rg = 0; rg < num_rgs; ++rg) {
    RowGroup group;
    MODULARIS_RETURN_NOT_OK(read_varint(&group.num_rows));
    for (uint64_t c = 0; c < num_fields; ++c) {
      Chunk chunk;
      MODULARIS_RETURN_NOT_OK(read_varint(&chunk.offset));
      MODULARIS_RETURN_NOT_OK(read_varint(&chunk.size));
      if (end - p < 2 + 16) {
        return Status::InvalidArgument("truncated ColumnFile chunk meta");
      }
      chunk.encoding = static_cast<Encoding>(*p++);
      if (!EncodingFits(chunk.encoding, reader->schema_.field(c).type) ||
          chunk.offset > dir_offset || chunk.size > dir_offset - chunk.offset) {
        return Status::InvalidArgument("corrupt ColumnFile chunk meta");
      }
      chunk.stats.valid = *p++ != 0;
      chunk.stats.min = GetFixed<int64_t>(p);
      p += 8;
      chunk.stats.max = GetFixed<int64_t>(p);
      p += 8;
      group.chunks.push_back(chunk);
    }
    reader->row_groups_.push_back(std::move(group));
  }
  return reader;
}

size_t ColumnFileReader::total_rows() const {
  size_t n = 0;
  for (const RowGroup& rg : row_groups_) n += rg.num_rows;
  return n;
}

Result<ColumnTablePtr> ColumnFileReader::ReadRowGroup(
    size_t rg, const std::vector<int>& columns) const {
  if (rg >= row_groups_.size()) {
    return Status::OutOfRange("row group out of range");
  }
  const RowGroup& group = row_groups_[rg];

  std::vector<int> cols = columns;
  if (cols.empty()) {
    for (size_t c = 0; c < schema_.num_fields(); ++c) {
      cols.push_back(static_cast<int>(c));
    }
  }
  Schema out_schema = schema_.Select(cols);
  ColumnTablePtr table = ColumnTable::Make(out_schema);

  for (size_t oc = 0; oc < cols.size(); ++oc) {
    const Chunk& chunk = group.chunks[cols[oc]];
    MODULARIS_ASSIGN_OR_RETURN(std::string data,
                               source_->ReadAt(chunk.offset, chunk.size));
    if (data.size() != chunk.size) {
      return Status::InvalidArgument("truncated ColumnFile chunk");
    }
    const char* p = data.data();
    const char* end = data.data() + data.size();
    Column& col = table->column(oc);
    const AtomType type = out_schema.field(oc).type;

    switch (chunk.encoding) {
      case Encoding::kForVarint: {
        if (data.size() < 8) {
          return Status::InvalidArgument("truncated FOR chunk");
        }
        int64_t base = GetFixed<int64_t>(p);
        p += 8;
        for (uint64_t i = 0; i < group.num_rows; ++i) {
          uint64_t delta;
          if (!GetVarint64(&p, end, &delta)) {
            return Status::InvalidArgument("truncated FOR chunk payload");
          }
          // Unsigned: a corrupt delta wraps instead of overflowing.
          const auto v =
              static_cast<int64_t>(static_cast<uint64_t>(base) + delta);
          if (type == AtomType::kInt64) {
            col.AppendInt64(v);
          } else {
            col.AppendInt32(static_cast<int32_t>(v));
          }
        }
        break;
      }
      case Encoding::kPlain: {
        if (type == AtomType::kFloat64) {
          if (group.num_rows > data.size() / sizeof(double)) {
            return Status::InvalidArgument("truncated f64 chunk");
          }
          for (uint64_t i = 0; i < group.num_rows; ++i) {
            col.AppendFloat64(GetFixed<double>(p));
            p += 8;
          }
        } else {  // kString: Open admits no other plain chunk
          for (uint64_t i = 0; i < group.num_rows; ++i) {
            uint64_t len;
            if (!GetVarint64(&p, end, &len) ||
                len > static_cast<uint64_t>(end - p)) {
              return Status::InvalidArgument("truncated string chunk");
            }
            col.AppendString(std::string_view(p, len));
            p += len;
          }
        }
        break;
      }
      case Encoding::kDict: {
        uint64_t dict_size;
        // Every entry takes at least its length byte.
        if (!GetVarint64(&p, end, &dict_size) ||
            dict_size > static_cast<uint64_t>(end - p)) {
          return Status::InvalidArgument("truncated dict header");
        }
        std::vector<std::string_view> dict(dict_size);
        for (uint64_t d = 0; d < dict_size; ++d) {
          uint64_t len;
          if (!GetVarint64(&p, end, &len) ||
              len > static_cast<uint64_t>(end - p)) {
            return Status::InvalidArgument("truncated dict entry");
          }
          dict[d] = std::string_view(p, len);
          p += len;
        }
        for (uint64_t i = 0; i < group.num_rows; ++i) {
          uint64_t code;
          if (!GetVarint64(&p, end, &code) || code >= dict.size()) {
            return Status::InvalidArgument("bad dict code");
          }
          col.AppendString(dict[code]);
        }
        break;
      }
    }
  }
  table->FinishBulkLoad();
  return table;
}

}  // namespace modularis::storage
