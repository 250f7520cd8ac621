#include <cstring>
#include <random>

#include <gtest/gtest.h>

#include "storage/blob_store.h"
#include "storage/column_file.h"
#include "storage/csv.h"

namespace modularis::storage {
namespace {

Schema TestSchema() {
  return Schema({Field::I64("id"), Field::F64("price"),
                 Field::Str("name", 16), Field::Date("day"),
                 Field::I32("qty")});
}

ColumnTablePtr MakeTable(size_t rows, uint32_t seed) {
  ColumnTablePtr table = ColumnTable::Make(TestSchema());
  std::mt19937 rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    table->column(0).AppendInt64(static_cast<int64_t>(i));
    table->column(1).AppendFloat64(static_cast<double>(rng() % 10000) / 100);
    table->column(2).AppendString("name" + std::to_string(rng() % 50));
    table->column(3).AppendInt32(DateFromYMD(1995, 1 + rng() % 12,
                                             1 + rng() % 28));
    table->column(4).AppendInt32(static_cast<int32_t>(rng() % 100));
  }
  table->FinishBulkLoad();
  return table;
}

void ExpectTablesEqual(const ColumnTable& a, const ColumnTable& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_TRUE(a.schema().Equals(b.schema()));
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.schema().num_fields(); ++c) {
      switch (a.schema().field(c).type) {
        case AtomType::kInt32:
        case AtomType::kDate:
          ASSERT_EQ(a.column(c).GetInt32(r), b.column(c).GetInt32(r));
          break;
        case AtomType::kInt64:
          ASSERT_EQ(a.column(c).GetInt64(r), b.column(c).GetInt64(r));
          break;
        case AtomType::kFloat64:
          ASSERT_NEAR(a.column(c).GetFloat64(r), b.column(c).GetFloat64(r),
                      1e-6);
          break;
        case AtomType::kString:
          ASSERT_EQ(a.column(c).GetString(r), b.column(c).GetString(r));
          break;
      }
    }
  }
}

TEST(CsvTest, RoundTrip) {
  ColumnTablePtr table = MakeTable(500, 7);
  std::string csv = WriteCsv(*table);
  auto parsed = ReadCsv(csv, TestSchema());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectTablesEqual(*table, **parsed);
}

TEST(CsvTest, RejectsMalformedNumbers) {
  auto parsed = ReadCsv("abc,1.0,n,1995-01-01,2\n",
                        TestSchema());
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, EmptyInputYieldsEmptyTable) {
  auto parsed = ReadCsv("", TestSchema());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)->num_rows(), 0u);
}

class ColumnFileRoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(ColumnFileRoundTrip, PreservesAllRowsAcrossRowGroupSizes) {
  ColumnTablePtr table = MakeTable(3000, 11);
  ColumnFileWriteOptions opts;
  opts.rows_per_row_group = GetParam();
  std::string bytes = WriteColumnFile(*table, opts);

  auto reader = ColumnFileReader::Open(
      std::make_shared<StringReader>(bytes));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->total_rows(), 3000u);
  ASSERT_TRUE((*reader)->schema().Equals(TestSchema()));

  ColumnTablePtr all = ColumnTable::Make(TestSchema());
  for (size_t rg = 0; rg < (*reader)->num_row_groups(); ++rg) {
    auto part = (*reader)->ReadRowGroup(rg, {});
    ASSERT_TRUE(part.ok()) << part.status().ToString();
    for (size_t r = 0; r < (*part)->num_rows(); ++r) {
      for (size_t c = 0; c < TestSchema().num_fields(); ++c) {
        switch (TestSchema().field(c).type) {
          case AtomType::kInt32:
          case AtomType::kDate:
            all->column(c).AppendInt32((*part)->column(c).GetInt32(r));
            break;
          case AtomType::kInt64:
            all->column(c).AppendInt64((*part)->column(c).GetInt64(r));
            break;
          case AtomType::kFloat64:
            all->column(c).AppendFloat64((*part)->column(c).GetFloat64(r));
            break;
          case AtomType::kString:
            all->column(c).AppendString((*part)->column(c).GetString(r));
            break;
        }
      }
    }
  }
  all->FinishBulkLoad();
  ExpectTablesEqual(*table, *all);
}

INSTANTIATE_TEST_SUITE_P(RowGroupSizes, ColumnFileRoundTrip,
                         ::testing::Values(64, 500, 3000, 10000));

TEST(ColumnFileTest, ProjectionReturnsOnlySelectedColumns) {
  ColumnTablePtr table = MakeTable(100, 3);
  std::string bytes = WriteColumnFile(*table);
  auto reader = ColumnFileReader::Open(std::make_shared<StringReader>(bytes));
  ASSERT_TRUE(reader.ok());
  auto part = (*reader)->ReadRowGroup(0, {2, 0});
  ASSERT_TRUE(part.ok());
  ASSERT_EQ((*part)->num_columns(), 2u);
  EXPECT_EQ((*part)->schema().field(0).name, "name");
  EXPECT_EQ((*part)->schema().field(1).name, "id");
  EXPECT_EQ((*part)->column(1).GetInt64(5), 5);
}

TEST(ColumnFileTest, MinMaxStatsEnablePruning) {
  ColumnTablePtr table = MakeTable(1000, 5);
  ColumnFileWriteOptions opts;
  opts.rows_per_row_group = 100;  // ids 0..99, 100..199, ...
  std::string bytes = WriteColumnFile(*table, opts);
  auto reader = ColumnFileReader::Open(std::make_shared<StringReader>(bytes));
  ASSERT_TRUE(reader.ok());
  // id column (0) is monotonically increasing per construction.
  EXPECT_TRUE((*reader)->MayContain(0, 0, 50, 60));
  EXPECT_FALSE((*reader)->MayContain(0, 0, 150, 160));
  EXPECT_TRUE((*reader)->MayContain(1, 0, 150, 160));
  auto stats = (*reader)->stats(2, 0);
  EXPECT_TRUE(stats.valid);
  EXPECT_EQ(stats.min, 200);
  EXPECT_EQ(stats.max, 299);
}

TEST(ColumnFileTest, PartitionedWriterOneRowGroupPerPart) {
  std::vector<ColumnTablePtr> parts;
  for (int p = 0; p < 4; ++p) {
    ColumnTablePtr t = ColumnTable::Make(KeyValueSchema());
    for (int i = 0; i < p * 10; ++i) {  // part 0 is empty
      t->column(0).AppendInt64(p);
      t->column(1).AppendInt64(i);
    }
    t->FinishBulkLoad();
    parts.push_back(t);
  }
  std::string bytes = WriteColumnFileFromParts(parts);
  auto reader = ColumnFileReader::Open(std::make_shared<StringReader>(bytes));
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ((*reader)->num_row_groups(), 4u);
  for (size_t rg = 0; rg < 4; ++rg) {
    EXPECT_EQ((*reader)->row_group_rows(rg), rg * 10);
    auto part = (*reader)->ReadRowGroup(rg, {});
    ASSERT_TRUE(part.ok());
    for (size_t r = 0; r < (*part)->num_rows(); ++r) {
      EXPECT_EQ((*part)->column(0).GetInt64(r), static_cast<int64_t>(rg));
    }
  }
}

TEST(ColumnFileTest, RejectsCorruptFooter) {
  auto reader = ColumnFileReader::Open(
      std::make_shared<StringReader>("definitely not a column file"));
  EXPECT_FALSE(reader.ok());
}

// -- Corrupt ColumnFiles -------------------------------------------------------
// Column files are bytes from outside the process (S3 and NFS objects).
// Every corrupt input must give a non-OK Status or a table in which every
// column holds the row group's row count — never a read past a chunk, a
// throw, or a ragged table.

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

template <typename T>
void PutRaw(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::string Footer(uint64_t dir_offset, uint32_t dir_size) {
  std::string footer;
  PutRaw<uint64_t>(&footer, dir_offset);
  PutRaw<uint32_t>(&footer, dir_size);
  PutRaw<uint32_t>(&footer, 0x3146434Du);  // "MCF1"
  return footer;
}

struct RawField {
  uint8_t type;  // AtomType byte
  uint64_t width = 0;
};
struct RawChunk {
  uint8_t encoding;  // Encoding byte
  std::string data;
};

/// A one-row-group ColumnFile laid out by hand (column_file.h's layout),
/// so a test can state any directory it likes.
std::string RawColumnFile(const std::vector<RawField>& fields, uint64_t rows,
                          const std::vector<RawChunk>& chunks) {
  std::string out;
  std::string dir;
  PutVarint(&dir, fields.size());
  for (size_t f = 0; f < fields.size(); ++f) {
    PutVarint(&dir, 1);
    dir.push_back(static_cast<char>('a' + f));
    dir.push_back(static_cast<char>(fields[f].type));
    PutVarint(&dir, fields[f].width);
  }
  PutVarint(&dir, 1);
  PutVarint(&dir, rows);
  for (const RawChunk& c : chunks) {
    PutVarint(&dir, out.size());
    PutVarint(&dir, c.data.size());
    dir.push_back(static_cast<char>(c.encoding));
    dir.append(17, '\0');  // stats: invalid, min, max
    out += c.data;
  }
  const uint64_t dir_offset = out.size();
  return out + dir + Footer(dir_offset, static_cast<uint32_t>(dir.size()));
}

/// Opens `bytes` and reads every row group: the first error, or OK when
/// every table came out whole.
Status ReadAll(const std::string& bytes) {
  MODULARIS_ASSIGN_OR_RETURN(
      auto reader, ColumnFileReader::Open(std::make_shared<StringReader>(bytes)));
  for (size_t rg = 0; rg < reader->num_row_groups(); ++rg) {
    MODULARIS_ASSIGN_OR_RETURN(ColumnTablePtr table,
                               reader->ReadRowGroup(rg, {}));
    for (size_t c = 0; c < table->num_columns(); ++c) {
      EXPECT_EQ(table->column(c).size(), reader->row_group_rows(rg));
    }
    if (table->num_columns() > 0) {
      EXPECT_EQ(table->num_rows(), reader->row_group_rows(rg));
    }
  }
  return Status::OK();
}

constexpr uint8_t kI64 = static_cast<uint8_t>(AtomType::kInt64);
constexpr uint8_t kF64 = static_cast<uint8_t>(AtomType::kFloat64);
constexpr uint8_t kStr = static_cast<uint8_t>(AtomType::kString);
constexpr uint8_t kPlainEnc = static_cast<uint8_t>(Encoding::kPlain);
constexpr uint8_t kForEnc = static_cast<uint8_t>(Encoding::kForVarint);
constexpr uint8_t kDictEnc = static_cast<uint8_t>(Encoding::kDict);

TEST(ColumnFileCorruptTest, HandBuiltFileReadsBack) {
  // The builder's layout is the writer's: a sound file reads whole.
  std::string f64s;
  for (double v : {1.5, 2.5, 3.5, 4.5}) PutRaw(&f64s, v);
  const std::string bytes = RawColumnFile({{kF64}}, 4, {{kPlainEnc, f64s}});
  EXPECT_TRUE(ReadAll(bytes).ok()) << ReadAll(bytes).ToString();
}

TEST(ColumnFileCorruptTest, PlainChunkShorterThanItsRows) {
  // Four doubles, a directory claiming 100 rows.
  std::string f64s;
  for (double v : {1.5, 2.5, 3.5, 4.5}) PutRaw(&f64s, v);
  EXPECT_FALSE(ReadAll(RawColumnFile({{kF64}}, 100, {{kPlainEnc, f64s}})).ok());
  std::string strs;
  PutVarint(&strs, 3);
  strs += "abc";
  EXPECT_FALSE(
      ReadAll(RawColumnFile({{kStr, 8}}, 2, {{kPlainEnc, strs}})).ok());
}

TEST(ColumnFileCorruptTest, AbsurdDictionarySize) {
  std::string dict;
  PutVarint(&dict, uint64_t{1} << 60);
  PutVarint(&dict, 1);
  dict += "x";
  EXPECT_FALSE(ReadAll(RawColumnFile({{kStr, 8}}, 1, {{kDictEnc, dict}})).ok());
}

TEST(ColumnFileCorruptTest, UnknownEncodingByte) {
  std::string f64s;
  PutRaw(&f64s, 1.0);
  EXPECT_FALSE(ReadAll(RawColumnFile({{kF64}}, 1, {{7, f64s}})).ok());
}

TEST(ColumnFileCorruptTest, EncodingThatDoesNotFitTheColumn) {
  std::string for_chunk;
  PutRaw<int64_t>(&for_chunk, 5);
  PutVarint(&for_chunk, 1);
  EXPECT_FALSE(
      ReadAll(RawColumnFile({{kStr, 8}}, 1, {{kForEnc, for_chunk}})).ok());
  std::string dict;
  PutVarint(&dict, 1);
  PutVarint(&dict, 1);
  dict += "x";
  PutVarint(&dict, 0);
  EXPECT_FALSE(ReadAll(RawColumnFile({{kI64}}, 1, {{kDictEnc, dict}})).ok());
  std::string f64s;
  PutRaw(&f64s, 1.0);
  EXPECT_FALSE(ReadAll(RawColumnFile({{kI64}}, 1, {{kPlainEnc, f64s}})).ok());
}

TEST(ColumnFileCorruptTest, InvalidAtomTypeByte) {
  std::string for_chunk;
  PutRaw<int64_t>(&for_chunk, 5);
  PutVarint(&for_chunk, 1);
  EXPECT_FALSE(ReadAll(RawColumnFile({{9}}, 1, {{kForEnc, for_chunk}})).ok());
  std::string f64s;
  PutRaw(&f64s, 1.0);
  EXPECT_FALSE(ReadAll(RawColumnFile({{9}}, 1, {{kPlainEnc, f64s}})).ok());
}

TEST(ColumnFileCorruptTest, LengthsThatOverflowThePointer) {
  const uint64_t huge = ~uint64_t{0} - 8;
  std::string strs;
  PutVarint(&strs, huge);
  strs += "abc";
  EXPECT_FALSE(ReadAll(RawColumnFile({{kStr, 8}}, 1, {{kPlainEnc, strs}})).ok());
  std::string dict;
  PutVarint(&dict, 1);
  PutVarint(&dict, huge);
  dict += "x";
  EXPECT_FALSE(ReadAll(RawColumnFile({{kStr, 8}}, 1, {{kDictEnc, dict}})).ok());
  // A field name longer than the directory.
  std::string dir;
  PutVarint(&dir, 1);
  PutVarint(&dir, huge);
  dir += "ab";
  EXPECT_FALSE(ReadAll(dir + Footer(0, static_cast<uint32_t>(dir.size()))).ok());
  // A directory offset that wraps the footer arithmetic.
  EXPECT_FALSE(ReadAll(dir + Footer(~uint64_t{0} - 8, 0)).ok());
}

/// Two sound files over every column type: dictionary and plain strings,
/// several row groups.
std::vector<std::string> SoundFiles() {
  ColumnFileWriteOptions plain;
  plain.rows_per_row_group = 40;
  plain.dict_threshold = 0;
  return {WriteColumnFile(*MakeTable(100, 11)),
          WriteColumnFile(*MakeTable(100, 13), plain)};
}

TEST(ColumnFileCorruptTest, TruncationAtEveryDirectoryByte) {
  for (const std::string& bytes : SoundFiles()) {
    ASSERT_TRUE(ReadAll(bytes).ok());
    uint64_t dir_offset;
    std::memcpy(&dir_offset, bytes.data() + bytes.size() - 16, 8);
    const std::string data = bytes.substr(0, dir_offset);
    const std::string dir =
        bytes.substr(dir_offset, bytes.size() - 16 - dir_offset);
    for (size_t cut = 0; cut < dir.size(); ++cut) {
      // A shorter directory behind a consistent footer...
      EXPECT_FALSE(ReadAll(data + dir.substr(0, cut) +
                           Footer(dir_offset, static_cast<uint32_t>(cut)))
                       .ok())
          << "cut " << cut;
      // ...and the file itself cut inside its directory.
      EXPECT_FALSE(ReadAll(bytes.substr(0, dir_offset + cut)).ok());
    }
  }
}

TEST(ColumnFileCorruptTest, SeededBitFlips) {
  std::mt19937_64 rng(2024);
  for (const std::string& sound : SoundFiles()) {
    for (int trial = 0; trial < 3000; ++trial) {
      std::string bytes = sound;
      for (int flips = 1 + static_cast<int>(rng() % 3); flips > 0; --flips) {
        bytes[rng() % bytes.size()] ^= static_cast<char>(1u << (rng() % 8));
      }
      (void)ReadAll(bytes);  // any Status; whole tables when OK
    }
  }
}

TEST(BlobStoreTest, PutGetListDelete) {
  BlobStore store;
  BlobClient client(&store, BlobClientOptions::Unthrottled());
  ASSERT_TRUE(client.Put("a/1", "one").ok());
  ASSERT_TRUE(client.Put("a/2", "two").ok());
  ASSERT_TRUE(client.Put("b/1", "three").ok());

  auto got = client.Get("a/1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "one");
  EXPECT_EQ(client.List("a/").size(), 2u);
  EXPECT_FALSE(client.Get("missing").ok());
  EXPECT_EQ(client.Get("missing").status().code(), StatusCode::kNotFound);

  auto range = client.GetRange("b/1", 1, 3);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(*range, "hre");

  store.Delete("a/1");
  EXPECT_FALSE(client.Get("a/1").ok());
}

TEST(BlobStoreTest, ChargesLatencyAndBandwidth) {
  BlobStore store;
  BlobClientOptions opts;
  opts.request_latency_seconds = 0.01;
  opts.bandwidth_bytes_per_sec = 1000;  // 1 KB/s
  opts.throttle = false;                // account only
  BlobClient client(&store, opts);
  ASSERT_TRUE(client.Put("k", std::string(500, 'x')).ok());
  // 0.01 latency + 500/1000 transfer.
  EXPECT_NEAR(client.charged_seconds(), 0.51, 1e-9);
  EXPECT_EQ(client.bytes_transferred(), 500);
}

TEST(BlobStoreTest, TransientFailuresAndRetries) {
  BlobStore store;
  store.Put("k", "value");
  BlobClientOptions opts = BlobClientOptions::Unthrottled();
  opts.fault.transient_failure_rate = 0.5;
  BlobClient client(&store, opts, /*worker_id=*/1);

  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    if (!client.Get("k").ok()) ++failures;
  }
  EXPECT_GT(failures, 50);
  EXPECT_LT(failures, 150);
  EXPECT_EQ(client.fault_injector().injected(FaultSite::kBlobGet),
            static_cast<uint64_t>(failures));

  // RetryCall recovers with overwhelming probability (0.5^11 per op).
  RetryPolicy policy;
  policy.max_retries = 10;
  policy.sleep = false;
  for (int i = 0; i < 20; ++i) {
    auto result =
        RetryCall(policy, nullptr, "blob.get", [&] { return client.Get("k"); });
    ASSERT_TRUE(result.ok());
  }

  // Missing keys fail fast: kNotFound is not retryable, so the injector's
  // call counter must advance by exactly zero across the lookup.
  const uint64_t calls_before = client.fault_injector().injected(
      FaultSite::kBlobGet);
  auto missing =
      RetryCall(policy, nullptr, "blob.get", [&] { return client.Get("nope"); });
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client.fault_injector().injected(FaultSite::kBlobGet),
            calls_before);
}

}  // namespace
}  // namespace modularis::storage
