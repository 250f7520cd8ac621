/// \file test_expr_batch.cc
/// Differential/property harness for batch expression evaluation:
/// thousands of random (seeded, reproducible) Expr trees over a mixed
/// i64/f64/string/i32/date schema, asserting that the compiled bytecode
/// programs — value (RunValue) and selection-vector predicate (RunFilter)
/// forms, optimized and raw — are byte-equal to the row-at-a-time oracle
/// (EvalChecked / EvalBoolChecked), including division-by-zero (yields
/// f64 0.0), -0.0, empty strings, empty batches, subset selections, the
/// per-lane fallbacks for statically untyped nodes, and the hard-error
/// rule for non-numeric predicate results. Plus operator-level
/// regressions for the selection-vector flow through Filter → Map →
/// ReduceByKey.

#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/exec_context.h"
#include "core/expr.h"
#include "core/expr_bc.h"
#include "suboperators/agg_ops.h"
#include "suboperators/basic_ops.h"
#include "suboperators/scan_ops.h"

namespace modularis {
namespace {

// ---------------------------------------------------------------------------
// Random data / tree generation
// ---------------------------------------------------------------------------

Schema TestSchema() {
  return Schema({Field::I64("a"), Field::F64("b"), Field::Str("s", 8),
                 Field::I32("c"), Field::Date("d"), Field::I64("e")});
}

const std::vector<std::string>& StringPool() {
  static const std::vector<std::string> pool = {
      "", "a", "ab", "abc", "abcdefgh", "zz", "even", "odd", "a_c", "%"};
  return pool;
}

const std::vector<int64_t>& IntPool() {
  // "NULL-ish" and boundary-flavored values, bounded so arithmetic stays
  // away from signed-overflow UB (both paths would hit it identically,
  // but the harness should not rely on that).
  static const std::vector<int64_t> pool = {0,  1,  -1, 2,   -2,  7,
                                            42, -9, 50, 999, -999, 100000};
  return pool;
}

const std::vector<double>& DoublePool() {
  static const std::vector<double> pool = {0.0,  -0.0, 1.0,   -1.0, 0.5,
                                           -2.25, 3.75, 1e12, -1e12, 41.0};
  return pool;
}

RowVectorPtr MakeRows(std::mt19937_64* rng, size_t n) {
  RowVectorPtr rows = RowVector::Make(TestSchema());
  std::uniform_int_distribution<size_t> spick(0, StringPool().size() - 1);
  std::uniform_int_distribution<size_t> ipick(0, IntPool().size() - 1);
  std::uniform_int_distribution<size_t> dpick(0, DoublePool().size() - 1);
  for (size_t i = 0; i < n; ++i) {
    RowWriter w = rows->AppendRow();
    w.SetInt64(0, IntPool()[ipick(*rng)]);
    w.SetFloat64(1, DoublePool()[dpick(*rng)]);
    w.SetString(2, StringPool()[spick(*rng)]);
    w.SetInt32(3, static_cast<int32_t>(IntPool()[ipick(*rng)]));
    w.SetDate(4, static_cast<int32_t>(IntPool()[ipick(*rng)] & 0x7fff));
    w.SetInt64(5, IntPool()[ipick(*rng)]);
  }
  return rows;
}

enum class Want { kBool, kNum, kStr };

ExprPtr Gen(std::mt19937_64* rng, int depth, Want want);

ExprPtr GenStr(std::mt19937_64* rng, int depth) {
  std::uniform_int_distribution<int> pick(0, depth > 0 ? 3 : 2);
  switch (pick(*rng)) {
    case 0:
      return ex::Col(2);
    case 1:
    case 2: {
      std::uniform_int_distribution<size_t> s(0, StringPool().size() - 1);
      return ex::Lit(StringPool()[s(*rng)]);
    }
    default:
      return ex::If(Gen(rng, depth - 1, Want::kBool),
                    Gen(rng, depth - 1, Want::kStr),
                    Gen(rng, depth - 1, Want::kStr));
  }
}

ExprPtr GenNum(std::mt19937_64* rng, int depth) {
  std::uniform_int_distribution<int> pick(0, depth > 0 ? 9 : 4);
  switch (pick(*rng)) {
    case 0:
      return ex::Col(0);
    case 1:
      return ex::Col(1);
    case 2: {
      std::uniform_int_distribution<int> c(0, 2);
      return ex::Col(3 + c(*rng));  // i32 / date / i64
    }
    case 3: {
      std::uniform_int_distribution<size_t> s(0, IntPool().size() - 1);
      return ex::Lit(IntPool()[s(*rng)]);
    }
    case 4: {
      std::uniform_int_distribution<size_t> s(0, DoublePool().size() - 1);
      return ex::Lit(DoublePool()[s(*rng)]);
    }
    case 5:
    case 6:
    case 7: {
      std::uniform_int_distribution<int> op(0, 3);
      return ex::Arith(static_cast<ArithOp>(op(*rng)),
                       Gen(rng, depth - 1, Want::kNum),
                       Gen(rng, depth - 1, Want::kNum));
    }
    case 8:
      // Mixed-type IF branches exercise the per-lane kItem fallback.
      return ex::If(Gen(rng, depth - 1, Want::kBool),
                    Gen(rng, depth - 1, Want::kNum),
                    Gen(rng, depth - 1, Want::kNum));
    default:
      return Gen(rng, depth - 1, Want::kBool);  // 0/1 as a number
  }
}

ExprPtr GenBool(std::mt19937_64* rng, int depth) {
  std::uniform_int_distribution<int> pick(0, depth > 0 ? 11 : 1);
  std::uniform_int_distribution<int> cmp(0, 5);
  switch (pick(*rng)) {
    case 0:
    case 1:
      return ex::Cmp(static_cast<CmpOp>(cmp(*rng)),
                     Gen(rng, depth - 1, Want::kNum),
                     Gen(rng, depth - 1, Want::kNum));
    case 2:
      return ex::Cmp(static_cast<CmpOp>(cmp(*rng)),
                     Gen(rng, depth - 1, Want::kStr),
                     Gen(rng, depth - 1, Want::kStr));
    case 3:
      // Mixed string/number comparison: the empty-view CompareViews rule.
      return ex::Cmp(static_cast<CmpOp>(cmp(*rng)),
                     Gen(rng, depth - 1, Want::kNum),
                     Gen(rng, depth - 1, Want::kStr));
    case 4:
      return ex::And(Gen(rng, depth - 1, Want::kBool),
                     Gen(rng, depth - 1, Want::kBool));
    case 5:
      return ex::Or(Gen(rng, depth - 1, Want::kBool),
                    Gen(rng, depth - 1, Want::kBool));
    case 6:
      return ex::Not(Gen(rng, depth - 1, Want::kBool));
    case 7: {
      static const std::vector<std::string> patterns = {
          "a%", "%b", "_b%", "%", "", "ab", "a_c", "%e%"};
      std::uniform_int_distribution<size_t> p(0, patterns.size() - 1);
      return ex::Like(Gen(rng, depth - 1, Want::kStr), patterns[p(*rng)]);
    }
    case 8: {
      std::uniform_int_distribution<size_t> s(0, StringPool().size() - 1);
      return ex::InStr(Gen(rng, depth - 1, Want::kStr),
                       {StringPool()[s(*rng)], StringPool()[s(*rng)], "ab"});
    }
    case 9: {
      std::uniform_int_distribution<size_t> s(0, IntPool().size() - 1);
      return ex::InInt(Gen(rng, depth - 1, Want::kNum),
                       {IntPool()[s(*rng)], IntPool()[s(*rng)], 0});
    }
    case 10:
      return ex::Between(Gen(rng, depth - 1, Want::kNum),
                         ex::Lit(int64_t{-2}), ex::Lit(int64_t{50}));
    default:
      return ex::If(Gen(rng, depth - 1, Want::kBool),
                    Gen(rng, depth - 1, Want::kBool),
                    Gen(rng, depth - 1, Want::kBool));
  }
}

ExprPtr Gen(std::mt19937_64* rng, int depth, Want want) {
  switch (want) {
    case Want::kBool: return GenBool(rng, depth);
    case Want::kNum: return GenNum(rng, depth);
    case Want::kStr: return GenStr(rng, depth);
  }
  return ex::Lit(int64_t{0});
}

// ---------------------------------------------------------------------------
// Differential checks
// ---------------------------------------------------------------------------

/// Compares one bytecode-evaluated value against the row oracle.
void ExpectValueEqual(const BatchColumn& col, size_t i, const Item& expected,
                      const std::string& label) {
  switch (col.tag) {
    case BatchTag::kI64:
      ASSERT_TRUE(expected.is_i64()) << label;
      ASSERT_EQ(col.i64[i], expected.i64()) << label;
      break;
    case BatchTag::kF64: {
      ASSERT_TRUE(expected.is_f64()) << label;
      double got = col.f64[i], want = expected.f64();
      ASSERT_EQ(0, std::memcmp(&got, &want, sizeof(double)))
          << label << ": " << got << " vs " << want;
      break;
    }
    case BatchTag::kStr:
      ASSERT_TRUE(expected.is_str()) << label;
      ASSERT_EQ(std::string(col.str[i]), expected.str()) << label;
      break;
    case BatchTag::kItem:
      ASSERT_TRUE(col.items[i] == expected)
          << label << ": " << col.items[i].ToString() << " vs "
          << expected.ToString();
      break;
  }
}

/// How many compiled programs of a corpus contain each per-lane fallback
/// opcode, so the harness can prove both are exercised.
struct FallbackCoverage {
  size_t value_programs = 0;   // programs with a kEvalFallback
  size_t filter_programs = 0;  // programs with a kFilterFallback
};

void NoteFallbacks(const BcProgram& prog, FallbackCoverage* coverage) {
  if (prog.stats().value_fallbacks > 0) ++coverage->value_programs;
  if (prog.stats().filter_fallbacks > 0) ++coverage->filter_programs;
}

/// Runs every differential check for one expression over one row set:
/// the compiled bytecode programs, optimized and raw, against the
/// row-at-a-time oracle (EvalChecked / EvalBoolChecked) on values,
/// selections and error verdicts.
void CheckTree(const ExprPtr& expr, const RowVector& rows,
               const SelVector& sel, const std::string& label,
               FallbackCoverage* coverage) {
  RowSpan span{rows.data(), rows.row_size(), &rows.schema()};
  const size_t n = sel.size();
  const BatchTag static_tag = expr->BatchType(rows.schema());

  // 1. Value parity: RunValue vs per-row EvalChecked.
  std::vector<Item> expected(n);
  bool value_error = false;
  for (size_t i = 0; i < n && !value_error; ++i) {
    value_error = !expr->EvalChecked(rows.row(sel[i]), &expected[i]).ok();
  }
  BcState bc_state;
  for (bool optimize : {true, false}) {
    BcProgram prog = BcProgram::CompileValue(expr, rows.schema(), optimize);
    ASSERT_TRUE(prog.valid()) << label;
    NoteFallbacks(prog, coverage);
    // Dead-branch elimination may narrow a statically mixed-type (kItem)
    // IF to the taken branch's concrete tag; values are still checked
    // per row against the oracle below.
    if (static_tag != BatchTag::kItem) {
      ASSERT_EQ(prog.value_tag(), static_tag) << label;
    }
    BatchColumn col;
    Status st = prog.RunValue(span, sel.data(), n, &col, &bc_state);
    if (value_error) {
      ASSERT_FALSE(st.ok()) << label << " (value opt=" << optimize
                            << "): oracle errored, bytecode did not";
      continue;
    }
    ASSERT_TRUE(st.ok()) << label << " (value opt=" << optimize
                         << "): " << st.ToString();
    ASSERT_EQ(col.size(), n) << label;
    ASSERT_EQ(col.tag, prog.value_tag()) << label;
    for (size_t i = 0; i < n; ++i) {
      ExpectValueEqual(col, i, expected[i],
                       label + " (value opt=" + std::to_string(optimize) +
                           ") row " + std::to_string(i));
    }
  }

  // 2. Checked predicate parity: RunFilter vs per-row EvalBoolChecked —
  // identical selections, or the same error verdict.
  SelVector expected_sel;
  bool oracle_error = false;
  for (size_t i = 0; i < n && !oracle_error; ++i) {
    bool keep = false;
    Status est = expr->EvalBoolChecked(rows.row(sel[i]), &keep);
    if (!est.ok()) {
      oracle_error = true;
    } else if (keep) {
      expected_sel.push_back(sel[i]);
    }
  }
  for (bool optimize : {true, false}) {
    BcProgram prog = BcProgram::CompileFilter(expr, rows.schema(), optimize);
    ASSERT_TRUE(prog.valid()) << label;
    NoteFallbacks(prog, coverage);
    SelVector bc_sel = sel;
    Status st = prog.RunFilter(span, &bc_sel, &bc_state);
    if (oracle_error) {
      ASSERT_FALSE(st.ok())
          << label << " (filter opt=" << optimize
          << "): oracle errored, bytecode did not";
    } else {
      ASSERT_TRUE(st.ok()) << label << " (filter opt=" << optimize
                           << "): " << st.ToString();
      ASSERT_EQ(bc_sel, expected_sel)
          << label << " (filter opt=" << optimize << ")";
    }
  }

  // 3. Empty selection: trivially OK on both entry points.
  SelVector empty;
  BcProgram fprog = BcProgram::CompileFilter(expr, rows.schema());
  Status st = fprog.RunFilter(span, &empty, &bc_state);
  ASSERT_TRUE(st.ok()) << label;
  ASSERT_TRUE(empty.empty()) << label;
  BcProgram vprog = BcProgram::CompileValue(expr, rows.schema());
  BatchColumn col;
  st = vprog.RunValue(span, nullptr, 0, &col, &bc_state);
  ASSERT_TRUE(st.ok()) << label;
  ASSERT_EQ(col.size(), 0u) << label;
}

SelVector AllRows(const RowVector& rows) {
  SelVector all(rows.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  return all;
}

TEST(ExprBatchDifferentialTest, RandomTreesMatchInterpretedOracle) {
  const size_t kRows = 96;
  const int kTreesPerKind = 420;  // 3 kinds → 1260 trees total
  FallbackCoverage coverage;
  for (int kind = 0; kind < 3; ++kind) {
    for (int t = 0; t < kTreesPerKind; ++t) {
      std::mt19937_64 rng(1000003u * kind + t);  // seeded, reproducible
      RowVectorPtr rows = MakeRows(&rng, kRows);
      ExprPtr expr = Gen(&rng, 4, static_cast<Want>(kind));
      std::string label = "kind=" + std::to_string(kind) +
                          " tree=" + std::to_string(t) + " " +
                          expr->ToString();

      // Identity selection over the full batch.
      CheckTree(expr, *rows, AllRows(*rows), label, &coverage);

      // Random subset selection (kernels must honor gaps).
      SelVector subset;
      std::uniform_int_distribution<int> coin(0, 2);
      for (size_t i = 0; i < kRows; ++i) {
        if (coin(rng) == 0) subset.push_back(static_cast<uint32_t>(i));
      }
      CheckTree(expr, *rows, subset, label + " (subset)", &coverage);
    }
  }
  // Both per-lane fallback opcodes must actually run in the corpus, or
  // the checks above never cover them.
  EXPECT_GT(coverage.value_programs, 0u);
  EXPECT_GT(coverage.filter_programs, 0u);
}

TEST(ExprBatchDifferentialTest, EmptyBatchAllPaths) {
  RowVectorPtr rows = RowVector::Make(TestSchema());
  RowSpan span{rows->data(), rows->row_size(), &rows->schema()};
  ExprPtr expr = ex::And(ex::Lt(ex::Col(0), ex::Lit(int64_t{3})),
                         ex::Like(ex::Col(2), "a%"));
  BcState state;
  for (bool optimize : {true, false}) {
    SelVector sel;
    BcProgram fprog = BcProgram::CompileFilter(expr, rows->schema(), optimize);
    ASSERT_TRUE(fprog.RunFilter(span, &sel, &state).ok());
    EXPECT_TRUE(sel.empty());
    BcProgram vprog = BcProgram::CompileValue(expr, rows->schema(), optimize);
    BatchColumn col;
    ASSERT_TRUE(vprog.RunValue(span, nullptr, 0, &col, &state).ok());
    EXPECT_EQ(col.size(), 0u);
  }
}

TEST(ExprBatchDifferentialTest, DivisionByZeroYieldsFloat64Zero) {
  std::mt19937_64 rng(7);
  RowVectorPtr rows = MakeRows(&rng, 64);
  ExprPtr expr = ex::Div(ex::Col(0), ex::Lit(int64_t{0}));
  ASSERT_EQ(expr->BatchType(rows->schema()), BatchTag::kF64);
  const SelVector all = AllRows(*rows);
  FallbackCoverage coverage;
  CheckTree(expr, *rows, all, "div-by-zero", &coverage);
  RowSpan span{rows->data(), rows->row_size(), &rows->schema()};
  BcProgram prog = BcProgram::CompileValue(expr, rows->schema());
  BcState state;
  BatchColumn col;
  ASSERT_TRUE(prog.RunValue(span, all.data(), all.size(), &col, &state).ok());
  for (size_t i = 0; i < col.size(); ++i) EXPECT_EQ(col.f64[i], 0.0);
}

TEST(ExprBatchDifferentialTest, PerLaneFallbacksMatchOracle) {
  // Mixed-type IF branches are statically kItem: the compiler emits the
  // per-lane EvalChecked fallbacks for them, in value and in filter
  // position.
  std::mt19937_64 rng(29);
  RowVectorPtr rows = MakeRows(&rng, 64);
  RowSpan span{rows->data(), rows->row_size(), &rows->schema()};
  const SelVector all = AllRows(*rows);
  ExprPtr numeric = ex::If(ex::Gt(ex::Col(0), ex::Lit(int64_t{0})),
                           ex::Col(0), ex::Lit(0.5));  // i64 vs f64
  BcProgram vprog = BcProgram::CompileValue(numeric, rows->schema());
  EXPECT_EQ(vprog.stats().value_fallbacks, 1u) << vprog.Disassemble();
  EXPECT_EQ(vprog.value_tag(), BatchTag::kItem);
  BcProgram fprog = BcProgram::CompileFilter(numeric, rows->schema());
  EXPECT_EQ(fprog.stats().filter_fallbacks, 1u) << fprog.Disassemble();
  FallbackCoverage coverage;
  CheckTree(numeric, *rows, all, "numeric kItem IF", &coverage);
  EXPECT_GT(coverage.value_programs, 0u);
  EXPECT_GT(coverage.filter_programs, 0u);

  // A kItem predicate yielding a string on some lanes: the filter
  // fallback raises the oracle's exact error.
  ExprPtr stringy = ex::If(ex::Gt(ex::Col(0), ex::Lit(int64_t{0})),
                           ex::Lit(int64_t{1}), ex::Col(2));  // i64 vs str
  Status want;
  for (uint32_t r : all) {
    bool keep = false;
    want = stringy->EvalBoolChecked(rows->row(r), &keep);
    if (!want.ok()) break;
  }
  ASSERT_FALSE(want.ok());
  BcProgram sprog = BcProgram::CompileFilter(stringy, rows->schema());
  BcState state;
  SelVector sel = all;
  Status got = sprog.RunFilter(span, &sel, &state);
  EXPECT_EQ(got.ToString(), want.ToString());
}

// ---------------------------------------------------------------------------
// Non-numeric predicate results are hard errors (regression)
// ---------------------------------------------------------------------------

RowVectorPtr MixedRows(size_t n) {
  std::mt19937_64 rng(11);
  return MakeRows(&rng, n);
}

SubOpPtr ScanOf(const RowVectorPtr& data) {
  return std::make_unique<RowScan>(std::make_unique<CollectionSource>(
      std::vector<RowVectorPtr>{data}));
}

TEST(StringPredicateTest, ExprLevelCheckedError) {
  RowVectorPtr rows = MixedRows(8);
  ExprPtr pred = ex::Col(2);  // string column used as a predicate
  bool keep = false;
  Status st = pred->EvalBoolChecked(rows->row(0), &keep);
  EXPECT_FALSE(st.ok());
  // Legacy unchecked EvalBool keeps the silent-false behavior.
  EXPECT_FALSE(pred->EvalBool(rows->row(0)));

  // The bytecode tier raises the identical error, optimized or raw.
  RowSpan span{rows->data(), rows->row_size(), &rows->schema()};
  for (bool optimize : {true, false}) {
    BcProgram prog = BcProgram::CompileFilter(pred, rows->schema(), optimize);
    BcState state;
    SelVector sel = {0, 1, 2};
    Status bst = prog.RunFilter(span, &sel, &state);
    EXPECT_EQ(bst.ToString(), st.ToString()) << "opt=" << optimize;
  }
}

TEST(StringPredicateTest, FilterRowPathFailsHard) {
  Filter filter(ScanOf(MixedRows(16)), ex::Col(2));
  ExecContext ctx;
  ASSERT_TRUE(filter.Open(&ctx).ok());
  Tuple t;
  EXPECT_FALSE(filter.Next(&t));
  EXPECT_FALSE(filter.status().ok());
}

TEST(StringPredicateTest, FilterVectorizedPathFailsHard) {
  Filter filter(ScanOf(MixedRows(16)),
                ex::And(ex::Ge(ex::Col(0), ex::Lit(int64_t{-1000000})),
                        ex::Col(2)));
  ExecContext ctx;
  ASSERT_TRUE(filter.Open(&ctx).ok());
  RowBatch batch;
  EXPECT_FALSE(filter.NextBatch(&batch));
  EXPECT_FALSE(filter.status().ok());
}

// ---------------------------------------------------------------------------
// Selection-vector flow through the operator stack
// ---------------------------------------------------------------------------

TEST(SelectionFlowTest, FilterAttachesSelectionWithoutCopy) {
  RowVectorPtr data = RowVector::Make(KeyValueSchema());
  for (int64_t i = 0; i < 100; ++i) {
    RowWriter w = data->AppendRow();
    w.SetInt64(0, i % 10);
    w.SetInt64(1, i);
  }
  // Partial pass: selection attached, rows left in place.
  Filter partial(ScanOf(data), ex::Lt(ex::Col(0), ex::Lit(int64_t{5})));
  ExecContext ctx;
  ASSERT_TRUE(partial.Open(&ctx).ok());
  RowBatch batch;
  ASSERT_TRUE(partial.NextBatchSelective(&batch));
  EXPECT_TRUE(batch.has_selection());
  EXPECT_EQ(batch.size(), 50u);
  EXPECT_EQ(batch.dense_size(), 100u);
  EXPECT_EQ(batch.data(), data->data());  // zero copy
  EXPECT_EQ(batch.row(1).GetInt64(1), 1);
  ASSERT_TRUE(partial.Close().ok());

  // All-pass: forwarded dense, no selection.
  Filter all(ScanOf(data), ex::Lt(ex::Col(0), ex::Lit(int64_t{100})));
  ASSERT_TRUE(all.Open(&ctx).ok());
  ASSERT_TRUE(all.NextBatchSelective(&batch));
  EXPECT_FALSE(batch.has_selection());
  EXPECT_EQ(batch.size(), 100u);
  EXPECT_EQ(batch.data(), data->data());
}

TEST(SelectionFlowTest, ChainedFiltersNarrowOneSelection) {
  RowVectorPtr data = RowVector::Make(KeyValueSchema());
  for (int64_t i = 0; i < 1000; ++i) {
    RowWriter w = data->AppendRow();
    w.SetInt64(0, i);
    w.SetInt64(1, -i);
  }
  auto inner =
      std::make_unique<Filter>(ScanOf(data),
                               ex::Ge(ex::Col(0), ex::Lit(int64_t{100})));
  Filter outer(std::move(inner), ex::Lt(ex::Col(0), ex::Lit(int64_t{200})));
  ExecContext ctx;
  ASSERT_TRUE(outer.Open(&ctx).ok());
  RowBatch batch;
  ASSERT_TRUE(outer.NextBatchSelective(&batch));
  EXPECT_TRUE(batch.has_selection());
  EXPECT_EQ(batch.size(), 100u);
  EXPECT_EQ(batch.data(), data->data());  // still the base collection
  EXPECT_EQ(batch.row(0).GetInt64(0), 100);
  EXPECT_EQ(batch.row(99).GetInt64(0), 199);
}

/// Full Filter → Map → ReduceByKey plan: vectorized (selection-vector)
/// path must be byte-identical to the row-at-a-time oracle.
TEST(SelectionFlowTest, FilterMapReduceParity) {
  RowVectorPtr data = RowVector::Make(KeyValueSchema());
  std::mt19937_64 rng(23);
  std::uniform_int_distribution<int64_t> dist(0, 999);
  for (int64_t i = 0; i < 20000; ++i) {
    RowWriter w = data->AppendRow();
    w.SetInt64(0, dist(rng));
    w.SetInt64(1, i);
  }
  Schema mapped({Field::I64("g"), Field::F64("x")});
  auto make_plan = [&] {
    auto filter = std::make_unique<Filter>(
        ScanOf(data), ex::And(ex::Ge(ex::Col(0), ex::Lit(int64_t{100})),
                              ex::Lt(ex::Col(0), ex::Lit(int64_t{600}))));
    auto map = std::make_unique<MapOp>(
        std::move(filter), mapped,
        std::vector<MapOutput>{
            MapOutput::Compute(ex::Sub(ex::Col(0), ex::Lit(int64_t{100}))),
            MapOutput::Compute(ex::Div(ex::Col(1), ex::Lit(3.0)))});
    return std::make_unique<ReduceByKey>(
        std::move(map), std::vector<int>{0},
        std::vector<AggSpec>{
            AggSpec{AggKind::kSum, ex::Col(1), "sum", AtomType::kFloat64},
            AggSpec{AggKind::kCount, nullptr, "cnt", AtomType::kInt64}},
        mapped);
  };
  RowVectorPtr baseline, got;
  for (bool vectorized : {false, true}) {
    auto plan = make_plan();
    ExecContext ctx;
    ctx.options.enable_vectorized = vectorized;
    if (!vectorized) ctx.options.num_threads = 1;  // serial reference
    ASSERT_TRUE(plan->Open(&ctx).ok());
    RowVectorPtr result = RowVector::Make(plan->out_schema());
    Tuple t;
    while (plan->Next(&t)) result->AppendRaw(t[0].row().data());
    ASSERT_TRUE(plan->status().ok()) << plan->status().ToString();
    ASSERT_TRUE(plan->Close().ok());
    (vectorized ? got : baseline) = std::move(result);
  }
  ASSERT_GT(baseline->size(), 0u);
  ASSERT_EQ(baseline->size(), got->size());
  ASSERT_EQ(0, std::memcmp(baseline->data(), got->data(),
                           baseline->byte_size()));
}

/// Map over a mixed schema straight from the differential generator's
/// domain: passthroughs of every type plus computed columns.
TEST(SelectionFlowTest, MapMixedSchemaParity) {
  std::mt19937_64 rng(31);
  RowVectorPtr data = MakeRows(&rng, 5000);
  Schema out({Field::I64("a"), Field::Str("s", 8), Field::I32("c"),
              Field::F64("q"), Field::I64("flag")});
  auto make_plan = [&] {
    auto filter = std::make_unique<Filter>(
        ScanOf(data), ex::Or(ex::Like(ex::Col(2), "a%"),
                             ex::Gt(ex::Col(1), ex::Lit(0.0))));
    return std::make_unique<MapOp>(
        std::move(filter), out,
        std::vector<MapOutput>{
            MapOutput::Pass(0), MapOutput::Pass(2), MapOutput::Pass(3),
            MapOutput::Compute(ex::Add(ex::Col(1), ex::Col(0))),
            MapOutput::Compute(ex::If(ex::Eq(ex::Col(2), ex::Lit("ab")),
                                      ex::Lit(int64_t{1}),
                                      ex::Lit(int64_t{0})))});
  };
  RowVectorPtr baseline, got;
  for (bool vectorized : {false, true}) {
    auto plan = make_plan();
    ExecContext ctx;
    ctx.options.enable_vectorized = vectorized;
    if (!vectorized) ctx.options.num_threads = 1;  // serial reference
    MaterializeRowVector mat(std::move(plan), out);
    ASSERT_TRUE(mat.Open(&ctx).ok());
    Tuple t;
    ASSERT_TRUE(mat.Next(&t));
    ASSERT_TRUE(mat.status().ok());
    ASSERT_TRUE(mat.Close().ok());
    (vectorized ? got : baseline) = t[0].collection();
  }
  ASSERT_GT(baseline->size(), 0u);
  ASSERT_EQ(baseline->size(), got->size());
  ASSERT_EQ(0, std::memcmp(baseline->data(), got->data(),
                           baseline->byte_size()));
}

// ---------------------------------------------------------------------------
// Bytecode optimizer semantics
// ---------------------------------------------------------------------------

TEST(BytecodeOptimizerTest, ConstantFoldingDivByZeroMatchesEvaluation) {
  // Engine semantics: division always produces f64 and x/0 == 0.0. The
  // folder must bake in exactly that value — never a compile-time error.
  std::mt19937_64 rng(3);
  RowVectorPtr rows = MakeRows(&rng, 16);
  ExprPtr expr = ex::Add(ex::Div(ex::Lit(int64_t{7}), ex::Lit(int64_t{0})),
                         ex::Lit(1.5));
  BcProgram prog = BcProgram::CompileValue(expr, rows->schema());
  EXPECT_GT(prog.stats().folded, 0u) << prog.Disassemble();
  EXPECT_EQ(prog.fallback_count(), 0u);
  RowSpan span{rows->data(), rows->row_size(), &rows->schema()};
  SelVector all(rows->size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  BcState state;
  BatchColumn col;
  ASSERT_TRUE(
      prog.RunValue(span, all.data(), all.size(), &col, &state).ok());
  ASSERT_EQ(col.tag, BatchTag::kF64);
  for (size_t i = 0; i < col.size(); ++i) {
    const double want = expr->Eval(rows->row(i)).f64();
    ASSERT_EQ(0, std::memcmp(&col.f64[i], &want, sizeof(double)));
    EXPECT_EQ(col.f64[i], 1.5);  // 7/0 -> 0.0, + 1.5
  }
}

TEST(BytecodeOptimizerTest, ShortCircuitSkipsErroringChild) {
  // AND narrows child by child; once the selection is empty, a later
  // child that would raise (a statically string-typed predicate) must
  // never fire — on the row oracle or the compiled tier.
  std::mt19937_64 rng(5);
  RowVectorPtr rows = MakeRows(&rng, 32);
  ExprPtr never = ex::Eq(ex::Col(0), ex::Lit(int64_t{123456789}));
  ExprPtr raising = ex::Col(2);  // string column as a predicate
  ExprPtr expr = ex::And(never, raising);
  RowSpan span{rows->data(), rows->row_size(), &rows->schema()};
  const SelVector all = AllRows(*rows);

  for (uint32_t r : all) {
    bool keep = true;
    ASSERT_TRUE(expr->EvalBoolChecked(rows->row(r), &keep).ok());
    EXPECT_FALSE(keep);
  }

  SelVector sel;
  for (bool optimize : {true, false}) {
    BcProgram prog = BcProgram::CompileFilter(expr, rows->schema(), optimize);
    BcState state;
    sel = all;
    Status st = prog.RunFilter(span, &sel, &state);
    ASSERT_TRUE(st.ok()) << "opt=" << optimize << ": " << st.ToString()
                         << "\n" << prog.Disassemble();
    EXPECT_TRUE(sel.empty());
  }

  // Flipped order: every lane reaches the string predicate, so both
  // tiers must raise.
  ExprPtr always = ex::Ge(ex::Col(0), ex::Lit(int64_t{-10000000}));
  ExprPtr bad = ex::And(always, raising);
  bool keep = false;
  EXPECT_FALSE(bad->EvalBoolChecked(rows->row(0), &keep).ok());
  BcProgram bad_prog = BcProgram::CompileFilter(bad, rows->schema());
  BcState state;
  sel = all;
  EXPECT_FALSE(bad_prog.RunFilter(span, &sel, &state).ok());
}

TEST(BytecodeOptimizerTest, DeadBranchEliminationUnderItemChildren) {
  // A constant condition selects one branch at compile time. The dead
  // branch is a mixed-type IF (statically kItem) that would force a
  // per-lane fallback — eliminating it must leave zero fallbacks.
  std::mt19937_64 rng(9);
  RowVectorPtr rows = MakeRows(&rng, 24);
  ExprPtr item_branch =
      ex::If(ex::Gt(ex::Col(0), ex::Lit(int64_t{0})), ex::Lit(int64_t{1}),
             ex::Lit(0.5));  // i64 vs f64 branches -> kItem
  ASSERT_EQ(item_branch->BatchType(rows->schema()), BatchTag::kItem);
  ExprPtr expr =
      ex::If(ex::Lit(int64_t{1}), ex::Add(ex::Col(0), ex::Lit(int64_t{3})),
             item_branch);
  BcProgram prog = BcProgram::CompileValue(expr, rows->schema());
  EXPECT_EQ(prog.fallback_count(), 0u) << prog.Disassemble();
  RowSpan span{rows->data(), rows->row_size(), &rows->schema()};
  SelVector all(rows->size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  BcState state;
  BatchColumn col;
  ASSERT_TRUE(
      prog.RunValue(span, all.data(), all.size(), &col, &state).ok());
  ASSERT_EQ(col.tag, BatchTag::kI64);
  for (size_t i = 0; i < col.size(); ++i) {
    EXPECT_EQ(col.i64[i], rows->row(i).GetInt64(0) + 3);
  }
}

TEST(BytecodeOptimizerTest, ComparisonFusionKeepsSemantics) {
  // col < const compiles into a single fused filter opcode; the result
  // must match the unfused program and the row oracle.
  std::mt19937_64 rng(13);
  RowVectorPtr rows = MakeRows(&rng, 64);
  ExprPtr expr = ex::Lt(ex::Col(0), ex::Lit(int64_t{10}));
  BcProgram fused = BcProgram::CompileFilter(expr, rows->schema());
  EXPECT_GT(fused.stats().fused, 0u) << fused.Disassemble();
  BcProgram unfused =
      BcProgram::CompileFilter(expr, rows->schema(), /*optimize=*/false);
  EXPECT_EQ(unfused.stats().fused, 0u) << unfused.Disassemble();
  RowSpan span{rows->data(), rows->row_size(), &rows->schema()};
  const SelVector all = AllRows(*rows);
  SelVector want;
  for (uint32_t r : all) {
    bool keep = false;
    ASSERT_TRUE(expr->EvalBoolChecked(rows->row(r), &keep).ok());
    if (keep) want.push_back(r);
  }
  ASSERT_FALSE(want.empty());
  ASSERT_LT(want.size(), all.size());
  BcState state;
  for (const BcProgram* prog : {&fused, &unfused}) {
    SelVector got = all;
    ASSERT_TRUE(prog->RunFilter(span, &got, &state).ok());
    EXPECT_EQ(got, want) << prog->Disassemble();
  }
}

// ---------------------------------------------------------------------------
// String-valued IF conditions are hard errors on both tiers
// ---------------------------------------------------------------------------

TEST(StringPredicateTest, StringIfConditionHardErrorAllTiers) {
  RowVectorPtr rows = MixedRows(8);
  ExprPtr expr =
      ex::If(ex::Col(2), ex::Lit(int64_t{1}), ex::Lit(int64_t{0}));

  // Row tier (checked).
  Item out;
  Status st = expr->EvalChecked(rows->row(0), &out);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("non-numeric"), std::string::npos)
      << st.ToString();

  // Bytecode tier: both branches are i64, so the typed split path runs
  // the condition filter — which must raise the oracle's error.
  RowSpan span{rows->data(), rows->row_size(), &rows->schema()};
  const SelVector all = AllRows(*rows);
  BatchColumn col;
  for (bool optimize : {true, false}) {
    BcProgram prog = BcProgram::CompileValue(expr, rows->schema(), optimize);
    EXPECT_EQ(prog.fallback_count(), 0u) << prog.Disassemble();
    BcState state;
    Status bst = prog.RunValue(span, all.data(), all.size(), &col, &state);
    EXPECT_EQ(bst.ToString(), st.ToString())
        << "opt=" << optimize << "\n" << prog.Disassemble();
  }
}

// ---------------------------------------------------------------------------
// The strictly-ascending SelVector contract is defended
// ---------------------------------------------------------------------------

/// Emits one borrowed batch carrying a deliberately permuted selection.
class PermutedSelectionSource : public SubOperator {
 public:
  explicit PermutedSelectionSource(RowVectorPtr rows)
      : SubOperator("PermutedSelectionSource"),
        rows_(std::move(rows)),
        sel_{2, 0, 1} {}
  bool Next(Tuple*) override { return false; }
  bool ProducesRecordStream() const override { return true; }
  bool NextBatchSelective(RowBatch* out) override {
    if (done_) return false;
    done_ = true;
    out->Borrow(rows_);
    out->SetSelection(sel_.data(), sel_.size());
    return true;
  }

 private:
  RowVectorPtr rows_;
  SelVector sel_;
  bool done_ = false;
};

TEST(SelectionContractTest, MalformedSelectionIsCaughtNotGarbled) {
  EXPECT_TRUE(IsAscendingSel(nullptr, 0));
  const uint32_t ascending[] = {0, 3, 7};
  EXPECT_TRUE(IsAscendingSel(ascending, 3));
  const uint32_t permuted[] = {2, 0, 1};
  EXPECT_FALSE(IsAscendingSel(permuted, 3));
  const uint32_t duplicated[] = {0, 1, 1};
  EXPECT_FALSE(IsAscendingSel(duplicated, 3));
  EXPECT_FALSE(ValidateSelection("test", permuted, 3).ok());
  EXPECT_TRUE(ValidateSelection("test", ascending, 3).ok());

  // Bytecode entry points reject it outright.
  std::mt19937_64 rng(17);
  RowVectorPtr rows = MakeRows(&rng, 8);
  RowSpan span{rows->data(), rows->row_size(), &rows->schema()};
  ExprPtr pred = ex::Lt(ex::Col(0), ex::Lit(int64_t{50}));
  BcProgram fprog = BcProgram::CompileFilter(pred, rows->schema());
  BcState state;
  SelVector bad = {2, 0, 1};
  EXPECT_FALSE(fprog.RunFilter(span, &bad, &state).ok());
  BcProgram vprog = BcProgram::CompileValue(pred, rows->schema());
  BatchColumn col;
  EXPECT_FALSE(vprog.RunValue(span, permuted, 3, &col, &state).ok());

  // Operator entry: a permuted upstream selection fails the Filter pull
  // instead of silently mis-assigning lanes.
  Filter filter(std::make_unique<PermutedSelectionSource>(rows), pred);
  ExecContext ctx;
  ASSERT_TRUE(filter.Open(&ctx).ok());
  RowBatch batch;
  EXPECT_FALSE(filter.NextBatchSelective(&batch));
  EXPECT_FALSE(filter.status().ok());
  EXPECT_NE(filter.status().ToString().find("ascending"), std::string::npos)
      << filter.status().ToString();
}

// ---------------------------------------------------------------------------
// Fused serialize+hash key programs
// ---------------------------------------------------------------------------

TEST(KeyProgramTest, FusedSerializeHashMatchesCodecPlusHashSpan) {
  std::mt19937_64 rng(19);
  RowVectorPtr rows = MakeRows(&rng, 512);
  RowSpan span{rows->data(), rows->row_size(), &rows->schema()};
  const std::vector<std::vector<int>> key_sets = {
      {0}, {1}, {2}, {3}, {4}, {0, 5}, {3, 4}, {0, 2, 3}, {2, 0, 1, 5}};
  for (const auto& keys : key_sets) {
    KeyCodec codec(rows->schema(), keys);
    KeyProgram prog(rows->schema(), keys);
    ASSERT_TRUE(prog.valid());
    ASSERT_EQ(prog.key_size(), codec.key_size());
    const uint32_t ks = codec.key_size();
    const size_t n = rows->size();
    std::vector<uint8_t> want_keys(n * ks), got_keys(n * ks);
    std::vector<uint64_t> want_hashes(n), got_hashes(n);
    codec.SerializeKeys(span, 0, n, want_keys.data());
    HashKeysSpan(want_keys.data(), n, ks, want_hashes.data());
    // Run in two uneven chunks to exercise the `begin` offset.
    const size_t split = n / 3;
    prog.SerializeAndHash(span, 0, split, got_keys.data(),
                          got_hashes.data());
    prog.SerializeAndHash(span, split, n - split,
                          got_keys.data() + split * ks,
                          got_hashes.data() + split);
    std::string label = "keys={";
    for (int k : keys) label += std::to_string(k) + ",";
    label += "}";
    ASSERT_EQ(0, std::memcmp(want_keys.data(), got_keys.data(),
                             want_keys.size()))
        << label;
    ASSERT_EQ(want_hashes, got_hashes) << label;
  }
}

// ---------------------------------------------------------------------------
// Column spans: the same programs over a ColumnTable morsel
// ---------------------------------------------------------------------------

/// A seeded random table of TestSchema's types. The doubles include NaN,
/// -0.0 and infinity; some strings are longer than the 8-byte field.
ColumnTablePtr MakeColumns(std::mt19937_64* rng, size_t n) {
  static const std::vector<std::string> strings = {
      "", "a", "ab", "abc", "abcdefgh", "abcdefghij", "zz", "a_c", "%",
      "evenodd-longer"};
  static const std::vector<double> doubles = {
      0.0, -0.0, 1.0, -1.0, 0.5, 41.0, 1e12,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity()};
  std::uniform_int_distribution<size_t> spick(0, strings.size() - 1);
  std::uniform_int_distribution<size_t> ipick(0, IntPool().size() - 1);
  std::uniform_int_distribution<size_t> dpick(0, doubles.size() - 1);
  ColumnTablePtr table = ColumnTable::Make(TestSchema());
  for (size_t i = 0; i < n; ++i) {
    table->column(0).AppendInt64(IntPool()[ipick(*rng)]);
    table->column(1).AppendFloat64(doubles[dpick(*rng)]);
    table->column(2).AppendString(strings[spick(*rng)]);
    table->column(3).AppendInt32(
        static_cast<int32_t>(IntPool()[ipick(*rng)]));
    table->column(4).AppendInt32(
        static_cast<int32_t>(IntPool()[ipick(*rng)] & 0x7fff));
    table->column(5).AppendInt64(IntPool()[ipick(*rng)]);
  }
  table->FinishBulkLoad();
  return table;
}

bool SameLane(const BatchColumn& a, const BatchColumn& b, size_t i) {
  switch (a.tag) {
    case BatchTag::kI64: return a.i64[i] == b.i64[i];
    case BatchTag::kF64:
      return std::memcmp(&a.f64[i], &b.f64[i], sizeof(double)) == 0;
    case BatchTag::kStr: return a.str[i] == b.str[i];
    case BatchTag::kItem:
      return a.items[i].ToString() == b.items[i].ToString();
  }
  return false;
}

/// Runs `prog` from the same input selection over a column span and over
/// the row span of the same rows: the same lanes, values and errors.
void ExpectColumnSpanParity(const BcProgram& prog, bool filter,
                            const RowSpan& cols, const RowSpan& rows,
                            const SelVector& sel, const std::string& label) {
  BcState col_state, row_state;
  if (filter) {
    SelVector got = sel, want = sel;
    const Status gst = prog.RunFilter(cols, &got, &col_state);
    const Status wst = prog.RunFilter(rows, &want, &row_state);
    ASSERT_EQ(gst.ToString(), wst.ToString()) << label;
    if (wst.ok()) {
      ASSERT_EQ(got, want) << label;
    }
    return;
  }
  BatchColumn got, want;
  const Status gst = prog.RunValue(cols, sel.data(), sel.size(), &got,
                                   &col_state);
  const Status wst = prog.RunValue(rows, sel.data(), sel.size(), &want,
                                   &row_state);
  ASSERT_EQ(gst.ToString(), wst.ToString()) << label;
  if (!wst.ok()) return;
  ASSERT_EQ(got.tag, want.tag) << label;
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(SameLane(got, want, i)) << label << " lane " << i;
  }
}

/// Opcode names a program runs, from its listing.
void NoteOps(const BcProgram& prog, std::set<std::string>* ops) {
  std::istringstream listing(prog.Disassemble());
  std::string line;
  while (std::getline(listing, line)) {
    const size_t colon = line.find(": ");
    ops->insert(line.substr(colon + 2, line.find(' ', colon + 2) - colon - 2));
  }
}

TEST(ColumnSpanTest, ProgramsMatchTheRowSpanOfTheSameRows) {
  // The span starts 37 rows into the table, so every field base is
  // offset; the subset selection skips lanes.
  const size_t kBegin = 37, kRows = 96;
  std::set<std::string> ops;
  auto check = [&](const ExprPtr& expr, const ColumnTable& table,
                   const std::string& label, std::mt19937_64* rng) {
    RowVectorPtr all = table.ToRowVector();
    const RowSpan rows{all->data() + kBegin * all->row_size(),
                       all->row_size(), &all->schema()};
    const RowSpan cols = RowSpan::Columns(table, kBegin, table.schema());
    SelVector identity(kRows), subset;
    std::iota(identity.begin(), identity.end(), 0u);
    std::uniform_int_distribution<int> coin(0, 2);
    for (uint32_t r = 0; r < kRows; ++r) {
      if (coin(*rng) == 0) subset.push_back(r);
    }
    for (bool optimize : {true, false}) {
      for (bool filter : {true, false}) {
        const BcProgram prog =
            filter ? BcProgram::CompileFilter(expr, table.schema(), optimize)
                   : BcProgram::CompileValue(expr, table.schema(), optimize);
        NoteOps(prog, &ops);
        const std::string run = label + (filter ? " filter" : " value") +
                                " opt=" + std::to_string(optimize);
        ExpectColumnSpanParity(prog, filter, cols, rows, identity, run);
        ExpectColumnSpanParity(prog, filter, cols, rows, subset,
                               run + " (subset)");
      }
    }
  };
  // Hand-picked shapes: every fused filter, string IN/LIKE/compare over
  // cut strings, NaN and -0.0, and both per-lane fallbacks.
  const std::vector<ExprPtr> shapes = {
      ex::Lt(ex::Col(0), ex::Lit(int64_t{7})),
      ex::Ge(ex::Col(3), ex::Lit(int64_t{2})),
      ex::Le(ex::Col(4), ex::Lit(int64_t{42})),
      ex::Gt(ex::Col(1), ex::Lit(0.0)),
      ex::Lt(ex::Col(1), ex::Lit(-0.0)),
      ex::Ne(ex::Col(1), ex::Col(1)),
      ex::Between(ex::Col(5), ex::Lit(int64_t{-2}), ex::Lit(int64_t{50})),
      ex::Between(ex::Col(3), ex::Lit(int64_t{-1}), ex::Lit(int64_t{7})),
      ex::Between(ex::Col(1), ex::Lit(-1.0), ex::Lit(41.0)),
      ex::Eq(ex::Col(2), ex::Lit(std::string("abcdefgh"))),
      ex::Eq(ex::Col(2), ex::Lit(std::string("abcdefghij"))),
      ex::Gt(ex::Col(2), ex::Lit(std::string("ab"))),
      ex::InStr(ex::Col(2), {"abcdefghij", "zz", "%"}),
      ex::InStr(ex::Col(2), {"", "a", "ab", "abc", "abcdefgh", "q", "r",
                             "s", "t", "zz"}),
      ex::Like(ex::Col(2), "abcdefgh%"),
      ex::Like(ex::Col(2), "%j"),
      ex::Like(ex::Col(2), "even%"),
      ex::InInt(ex::Col(4), {0, 7, 42}),
      ex::If(ex::Gt(ex::Col(0), ex::Lit(int64_t{0})), ex::Col(0),
             ex::Lit(0.5)),
      ex::If(ex::Gt(ex::Col(0), ex::Lit(int64_t{0})), ex::Lit(int64_t{1}),
             ex::Col(2)),
      ex::Add(ex::Col(3), ex::Col(4)),
      ex::Mul(ex::Col(1), ex::Lit(2.0)),
      ex::Col(2),
  };
  std::mt19937_64 rng(4242);
  ColumnTablePtr table = MakeColumns(&rng, kBegin + kRows + 11);
  for (size_t i = 0; i < shapes.size(); ++i) {
    check(shapes[i], *table, "shape " + shapes[i]->ToString(), &rng);
  }
  // Random trees, as in the row differential harness.
  for (int kind = 0; kind < 3; ++kind) {
    for (int t = 0; t < 200; ++t) {
      std::mt19937_64 tree_rng(7000003u * kind + t);
      ColumnTablePtr data = MakeColumns(&tree_rng, kBegin + kRows);
      const ExprPtr expr = Gen(&tree_rng, 4, static_cast<Want>(kind));
      check(expr, *data, "tree " + expr->ToString(), &tree_rng);
    }
  }
  for (const char* op :
       {"load_i32", "load_i64", "load_f64", "load_str", "fcol_cmp_i32",
        "fcol_cmp_i64", "fcol_cmp_f64", "fcol_rng_i32", "fcol_rng_i64",
        "fcol_rng_f64", "fcmp_str", "flike", "fin_str", "fin_i64", "eval_fb",
        "filter_fb"}) {
    EXPECT_EQ(ops.count(op), 1u) << op << " never ran";
  }
}

TEST(ColumnSpanTest, StringsLongerThanTheirWidthReadAsTheirPrefix) {
  // The string-width contract (core/column_table.h): a row field of
  // width 4 holds the first 4 bytes of a longer string. The column-span
  // filter and the scan that owns it pick exactly the rows the row
  // oracle picks on ToRowVector()'s rows.
  const Schema schema({Field::Str("s", 4), Field::I64("k")});
  ColumnTablePtr table = ColumnTable::Make(schema);
  const std::vector<std::string> values = {
      "ab", "abcd", "abcdef", "abcdxyz", "abc", "zzzzzz", "", "abcdefgh",
      "xyzef", "abce"};
  for (size_t i = 0; i < 40; ++i) {
    table->column(0).AppendString(values[i % values.size()]);
    table->column(1).AppendInt64(static_cast<int64_t>(i));
  }
  table->FinishBulkLoad();
  RowVectorPtr rows = table->ToRowVector();
  ASSERT_EQ(rows->row(2).GetString(0), "abcd");
  const RowSpan row_span{rows->data(), rows->row_size(), &rows->schema()};
  const std::vector<ExprPtr> preds = {
      ex::Eq(ex::Col(0), ex::Lit(std::string("abcd"))),
      ex::Eq(ex::Col(0), ex::Lit(std::string("abcdef"))),
      ex::InStr(ex::Col(0), {"abcdef", "zzzz", "ab"}),
      ex::Like(ex::Col(0), "abcd%"),
      ex::Like(ex::Col(0), "%ef"),
      ex::Like(ex::Col(0), "____"),
  };
  for (const ExprPtr& pred : preds) {
    const std::string label = pred->ToString();
    SelVector want;
    RowVectorPtr want_rows = RowVector::Make(schema);
    for (uint32_t r = 0; r < rows->size(); ++r) {
      bool keep = false;
      ASSERT_TRUE(pred->EvalBoolChecked(rows->row(r), &keep).ok()) << label;
      if (!keep) continue;
      want.push_back(r);
      want_rows->AppendRaw(rows->row(r).data());
    }
    const BcProgram prog = BcProgram::CompileFilter(pred, schema);
    BcState state;
    SelVector got(rows->size());
    std::iota(got.begin(), got.end(), 0u);
    ASSERT_TRUE(
        prog.RunFilter(RowSpan::Columns(*table, 0, schema), &got, &state)
            .ok())
        << label;
    EXPECT_EQ(got, want) << label;
    SelVector on_rows(rows->size());
    std::iota(on_rows.begin(), on_rows.end(), 0u);
    ASSERT_TRUE(prog.RunFilter(row_span, &on_rows, &state).ok()) << label;
    EXPECT_EQ(on_rows, want) << label;

    MaterializeRowVector scan(
        std::make_unique<ColumnScan>(
            std::make_unique<TupleSource>(std::vector<Tuple>{{Item(table)}}),
            schema, std::vector<int>{}, pred, schema),
        schema);
    ExecContext ctx;
    ASSERT_TRUE(scan.Open(&ctx).ok());
    Tuple t;
    ASSERT_TRUE(scan.Next(&t)) << label << ": " << scan.status().ToString();
    const RowVector& out = *t[0].collection();
    ASSERT_EQ(out.size(), want_rows->size()) << label;
    if (!out.empty()) {
      EXPECT_EQ(0, std::memcmp(out.data(), want_rows->data(),
                               want_rows->byte_size()))
          << label;
    }
    EXPECT_TRUE(scan.Close().ok());
  }
}

}  // namespace
}  // namespace modularis
