#ifndef MODULARIS_TESTS_Q1_SKEW_H_
#define MODULARIS_TESTS_Q1_SKEW_H_

/// \file q1_skew.h
/// TPC-H Q1's aggregation shape for the few-group kernel tests: four
/// groups at ~50 / 25 / 25 / <1 % of the rows, keyed by one i64 column or
/// by two one-character strings (Q1's returnflag, linestatus), with a
/// bare and a computed f64 SUM, a COUNT and a MAX.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/expr.h"
#include "core/row_vector.h"

namespace modularis {
namespace testing_q1 {

/// (k i64, price f64, disc f64) or (flag str, status str, price, disc).
inline Schema Q1SkewSchema(bool str_keys) {
  if (str_keys) {
    return Schema({Field::Str("flag", 1), Field::Str("status", 1),
                   Field::F64("price"), Field::F64("disc")});
  }
  return Schema({Field::I64("k"), Field::F64("price"), Field::F64("disc")});
}

/// The key columns of Q1SkewSchema(str_keys).
inline std::vector<int> Q1SkewKeys(bool str_keys) {
  return str_keys ? std::vector<int>{0, 1} : std::vector<int>{0};
}

/// `rows` rows of the skewed four-group shape.
inline RowVectorPtr MakeQ1Skew(size_t rows, bool str_keys, uint32_t seed) {
  static const char* const kFlags[] = {"N", "R", "A", "N"};
  static const char* const kStatus[] = {"O", "F", "F", "F"};
  RowVectorPtr data = RowVector::Make(Q1SkewSchema(str_keys));
  data->Reserve(rows);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> price(900.0, 105000.0);
  for (size_t i = 0; i < rows; ++i) {
    const uint64_t r = rng() % 1000;
    const int g = r < 500 ? 0 : r < 750 ? 1 : r < 995 ? 2 : 3;
    RowWriter w = data->AppendRow();
    int col = 0;
    if (str_keys) {
      w.SetString(col++, kFlags[g]);
      w.SetString(col++, kStatus[g]);
    } else {
      w.SetInt64(col++, g);
    }
    w.SetFloat64(col++, price(rng));
    w.SetFloat64(col++, static_cast<double>(rng() % 11) / 100.0);
  }
  return data;
}

/// SUM(price), SUM(price * (1 - disc)), COUNT(*), MAX(disc).
inline std::vector<AggSpec> Q1SkewAggs(bool str_keys) {
  const int price = str_keys ? 2 : 1;
  const int disc = price + 1;
  std::vector<AggSpec> aggs;
  aggs.push_back(
      AggSpec{AggKind::kSum, ex::Col(price), "sum_price", AtomType::kFloat64});
  aggs.push_back(AggSpec{
      AggKind::kSum,
      ex::Mul(ex::Col(price), ex::Sub(ex::Lit(1.0), ex::Col(disc))),
      "sum_disc_price", AtomType::kFloat64});
  aggs.push_back(AggSpec{AggKind::kCount, nullptr, "count", AtomType::kInt64});
  aggs.push_back(
      AggSpec{AggKind::kMax, ex::Col(disc), "max_disc", AtomType::kFloat64});
  return aggs;
}

}  // namespace testing_q1
}  // namespace modularis

#endif  // MODULARIS_TESTS_Q1_SKEW_H_
