#ifndef MODULARIS_TESTS_REFERENCE_JOIN_H_
#define MODULARIS_TESTS_REFERENCE_JOIN_H_

/// \file reference_join.h
/// A nested-loop reference join for the BuildProbe byte-equality tests.
/// It shares no code with BuildProbe or JoinHashTable: keys are read with
/// the RowRef getters, matches are found by scanning the whole build side,
/// and inner rows are written field by field through RowWriter. Its
/// output rules are the join's contract:
///  * output follows probe order;
///  * a probe row's matches come in descending build-row order;
///  * an inner row is build ‖ probe with zeroed alignment gaps;
///  * semi/anti joins emit the probe row's bytes.
/// Inner rows copy strings by value, so string columns must have zeroed
/// tails (true for rows written with RowWriter::SetString).

#include <cstdint>
#include <vector>

#include "core/row_vector.h"
#include "suboperators/join_ops.h"

namespace modularis {
namespace testing_ref {

inline int64_t RefKey(const RowRef& row, int col) {
  switch (row.schema().field(col).type) {
    case AtomType::kInt32:
    case AtomType::kDate:
      return row.GetInt32(col);
    default:
      return row.GetInt64(col);
  }
}

/// Writes field `src_col` of `src` into field `dst_col` of `dst`.
inline void RefCopyField(const RowRef& src, int src_col, RowWriter* dst,
                         int dst_col) {
  switch (src.schema().field(src_col).type) {
    case AtomType::kInt32:
    case AtomType::kDate:
      dst->SetInt32(dst_col, src.GetInt32(src_col));
      break;
    case AtomType::kInt64:
      dst->SetInt64(dst_col, src.GetInt64(src_col));
      break;
    case AtomType::kFloat64:
      dst->SetFloat64(dst_col, src.GetFloat64(src_col));
      break;
    case AtomType::kString:
      dst->SetString(dst_col, src.GetString(src_col));
      break;
  }
}

/// Joins `probe` against `build` row by row; see the file comment for
/// the output rules.
inline RowVectorPtr ReferenceJoin(const RowVector& build,
                                  const RowVector& probe, int build_key,
                                  int probe_key, JoinType type) {
  const Schema& bs = build.schema();
  const Schema& ps = probe.schema();
  RowVectorPtr out =
      RowVector::Make(type == JoinType::kInner ? bs.Concat(ps) : ps);
  const int build_fields = static_cast<int>(bs.num_fields());
  for (size_t p = 0; p < probe.size(); ++p) {
    const RowRef prow = probe.row(p);
    const int64_t key = RefKey(prow, probe_key);
    bool matched = false;
    for (size_t b = build.size(); b-- > 0;) {
      const RowRef brow = build.row(b);
      if (RefKey(brow, build_key) != key) continue;
      matched = true;
      if (type != JoinType::kInner) break;
      RowWriter w = out->AppendRow();  // zero-initialized
      for (int c = 0; c < build_fields; ++c) RefCopyField(brow, c, &w, c);
      for (int c = 0; c < static_cast<int>(ps.num_fields()); ++c) {
        RefCopyField(prow, c, &w, build_fields + c);
      }
    }
    if (type != JoinType::kInner && matched == (type == JoinType::kSemi)) {
      out->AppendRaw(prow.data());
    }
  }
  return out;
}

}  // namespace testing_ref
}  // namespace modularis

#endif  // MODULARIS_TESTS_REFERENCE_JOIN_H_
