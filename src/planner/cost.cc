#include "planner/cost.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace modularis::planner {
namespace {

/// Fallback selectivity for predicates the statistics cannot price.
constexpr double kDefaultSel = 1.0 / 3.0;
/// Fallback row count for tables absent from the catalog.
constexpr double kDefaultRows = 1000.0;
/// Fraction of groups assumed to survive a HAVING filter.
constexpr double kHavingSel = 1.0 / 3.0;

const ColumnStats* FindStats(const LogicalPlan& input, int col,
                             const Catalog& catalog) {
  ColumnSite site = ColumnOrigin(input, col);
  if (site.table < 0) return nullptr;
  auto t = catalog.tables.find(site.table);
  if (t == catalog.tables.end()) return nullptr;
  auto c = t->second.columns.find(site.column);
  return c == t->second.columns.end() ? nullptr : &c->second;
}

/// A comparison normalized to column-op-literal form (operator flipped
/// when the literal was on the left).
struct ColCmp {
  int col = -1;
  CmpOp op = CmpOp::kEq;
  bool numeric = false;
  double value = 0;
};

CmpOp Flip(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
    default:
      return op;
  }
}

bool DecomposeCmp(const Expr& e, ColCmp* out) {
  CmpOp op;
  if (!e.AsCompare(&op) || e.NumExprChildren() != 2) return false;
  ExprPtr lhs = e.ExprChild(0);
  ExprPtr rhs = e.ExprChild(1);
  if (lhs == nullptr || rhs == nullptr) return false;
  int lc = lhs->AsColumnIndex();
  int rc = rhs->AsColumnIndex();
  Item lit;
  if (lc >= 0 && rhs->AsLiteral(&lit)) {
    out->col = lc;
    out->op = op;
  } else if (rc >= 0 && lhs->AsLiteral(&lit)) {
    out->col = rc;
    out->op = Flip(op);
  } else {
    return false;
  }
  out->numeric = lit.is_i64() || lit.is_f64();
  if (out->numeric) {
    out->value = lit.is_i64() ? static_cast<double>(lit.i64()) : lit.f64();
  }
  return true;
}

double Clamp01(double x) { return std::min(1.0, std::max(0.0, x)); }

double CmpSelectivity(const ColCmp& cc, const ColumnStats* st) {
  switch (cc.op) {
    case CmpOp::kEq:
      return st != nullptr && st->distinct > 0 ? 1.0 / st->distinct
                                               : kDefaultSel;
    case CmpOp::kNe:
      return st != nullptr && st->distinct > 0 ? 1.0 - 1.0 / st->distinct
                                               : 1.0 - kDefaultSel;
    default:
      break;
  }
  if (cc.numeric && st != nullptr && st->has_range && st->max > st->min) {
    const double width = st->max - st->min;
    const double frac = (cc.op == CmpOp::kLt || cc.op == CmpOp::kLe)
                            ? (cc.value - st->min) / width
                            : (st->max - cc.value) / width;
    return Clamp01(frac);
  }
  return kDefaultSel;
}

double SelImpl(const ExprPtr& e, const LogicalPlan& input,
               const Catalog& catalog);

/// AND of conjuncts with the range conjuncts on one column merged into a
/// single interval first (independence would price a BETWEEN as the
/// product of two half-open ranges, wildly overestimating narrow
/// windows — and with them the build sides of date-filtered joins).
double AndSelectivity(const Expr& e, const LogicalPlan& input,
                      const Catalog& catalog) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Interval {
    double lo = -kInf;
    double hi = kInf;
    const ColumnStats* st = nullptr;
  };
  std::map<int, Interval> intervals;
  double sel = 1.0;
  for (size_t i = 0; i < e.NumExprChildren(); ++i) {
    ExprPtr c = e.ExprChild(i);
    if (c == nullptr) continue;
    ColCmp cc;
    const ColumnStats* st = nullptr;
    const bool ranged =
        c->kind() == ExprKind::kCompare && DecomposeCmp(*c, &cc) &&
        cc.numeric && cc.op != CmpOp::kEq && cc.op != CmpOp::kNe &&
        (st = FindStats(input, cc.col, catalog)) != nullptr && st->has_range &&
        st->max > st->min;
    if (!ranged) {
      sel *= SelImpl(c, input, catalog);
      continue;
    }
    Interval& iv = intervals[cc.col];
    iv.st = st;
    if (cc.op == CmpOp::kLt || cc.op == CmpOp::kLe) {
      iv.hi = std::min(iv.hi, cc.value);
    } else {
      iv.lo = std::max(iv.lo, cc.value);
    }
  }
  for (const auto& [col, iv] : intervals) {
    (void)col;
    const double lo = std::max(iv.lo, iv.st->min);
    const double hi = std::min(iv.hi, iv.st->max);
    sel *= Clamp01((hi - lo) / (iv.st->max - iv.st->min));
  }
  return sel;
}

double SelImpl(const ExprPtr& e, const LogicalPlan& input,
               const Catalog& catalog) {
  if (e == nullptr) return 1.0;
  switch (e->kind()) {
    case ExprKind::kAnd:
      return AndSelectivity(*e, input, catalog);
    case ExprKind::kOr: {
      double none = 1.0;
      for (size_t i = 0; i < e->NumExprChildren(); ++i) {
        none *= 1.0 - SelImpl(e->ExprChild(i), input, catalog);
      }
      return 1.0 - none;
    }
    case ExprKind::kNot:
      return 1.0 - SelImpl(e->ExprChild(0), input, catalog);
    case ExprKind::kCompare: {
      ColCmp cc;
      if (!DecomposeCmp(*e, &cc)) return kDefaultSel;
      return CmpSelectivity(cc, FindStats(input, cc.col, catalog));
    }
    case ExprKind::kInStr:
    case ExprKind::kInInt: {
      const double n = static_cast<double>(e->InListSize());
      ExprPtr in = e->ExprChild(0);
      const int col = in != nullptr ? in->AsColumnIndex() : -1;
      const ColumnStats* st =
          col >= 0 ? FindStats(input, col, catalog) : nullptr;
      if (st != nullptr && st->distinct > 0) return Clamp01(n / st->distinct);
      return Clamp01(n * 0.1);
    }
    case ExprKind::kLike:
      return 0.1;
    case ExprKind::kLiteral: {
      Item lit;
      if (e->AsLiteral(&lit) && lit.is_i64()) return lit.i64() != 0 ? 1.0 : 0.0;
      return kDefaultSel;
    }
    default:
      return kDefaultSel;
  }
}

/// Effective key-value domain of one join side: the base column's
/// distinct count capped by the side's surviving rows (a filtered side
/// cannot carry more distinct keys than rows).
double KeyDomain(const LogicalPlan& side, int key, const Catalog& catalog) {
  const double est = EstimateRows(side, catalog);
  const ColumnStats* st = FindStats(side, key, catalog);
  if (st != nullptr && st->distinct > 0) return std::min(st->distinct, est);
  return est;
}

}  // namespace

ColumnSite ColumnOrigin(const LogicalPlan& node, int col) {
  if (col < 0 || static_cast<size_t>(col) >= node.schema.num_fields()) {
    return {};
  }
  switch (node.kind) {
    case NodeKind::kScan:
      return {node.table, node.scan_cols[col]};
    case NodeKind::kFilter:
    case NodeKind::kSort:
    case NodeKind::kLimit:
    case NodeKind::kExchange:
    case NodeKind::kGather:
      return ColumnOrigin(*node.children[0], col);
    case NodeKind::kProject: {
      const MapOutput& m = node.projections[col];
      const int src = m.passthrough_col >= 0
                          ? m.passthrough_col
                          : (m.expr != nullptr ? m.expr->AsColumnIndex() : -1);
      return src >= 0 ? ColumnOrigin(*node.children[0], src) : ColumnSite{};
    }
    case NodeKind::kJoin: {
      if (node.join_type == JoinType::kInner) {
        const int nb =
            static_cast<int>(node.children[0]->schema.num_fields());
        return col < nb ? ColumnOrigin(*node.children[0], col)
                        : ColumnOrigin(*node.children[1], col - nb);
      }
      return ColumnOrigin(*node.children[1], col);
    }
    case NodeKind::kAggregate: {
      if (static_cast<size_t>(col) < node.group_keys.size()) {
        return ColumnOrigin(*node.children[0], node.group_keys[col]);
      }
      return {};
    }
  }
  return {};
}

double Selectivity(const ExprPtr& pred, const LogicalPlan& input,
                   const Catalog& catalog) {
  return Clamp01(SelImpl(pred, input, catalog));
}

double EstimateRows(const LogicalPlan& node, const Catalog& catalog) {
  switch (node.kind) {
    case NodeKind::kScan: {
      auto t = catalog.tables.find(node.table);
      const double rows =
          t != catalog.tables.end() ? t->second.rows : kDefaultRows;
      if (node.scan_filter == nullptr) return rows;
      // The scan filter reads table columns: price it over the scan of
      // the whole table.
      LogicalPlan table = node;
      table.scan_cols.resize(node.table_schema.num_fields());
      std::iota(table.scan_cols.begin(), table.scan_cols.end(), 0);
      table.schema = node.table_schema;
      return rows * Selectivity(node.scan_filter, table, catalog);
    }
    case NodeKind::kFilter:
      return EstimateRows(*node.children[0], catalog) *
             Selectivity(node.predicate, *node.children[0], catalog);
    case NodeKind::kProject:
    case NodeKind::kSort:
    case NodeKind::kExchange:
    case NodeKind::kGather:
      return EstimateRows(*node.children[0], catalog);
    case NodeKind::kLimit:
      return std::min(EstimateRows(*node.children[0], catalog),
                      static_cast<double>(node.limit));
    case NodeKind::kAggregate: {
      const double in = EstimateRows(*node.children[0], catalog);
      if (node.group_keys.empty()) return 1.0;
      double groups = 1.0;
      for (int key : node.group_keys) {
        const ColumnStats* st = FindStats(*node.children[0], key, catalog);
        groups *= st != nullptr && st->distinct > 0 ? st->distinct : in;
      }
      double est = std::min(in, groups);
      if (node.having != nullptr) est *= kHavingSel;
      return est;
    }
    case NodeKind::kJoin: {
      const LogicalPlan& build = *node.children[0];
      const LogicalPlan& probe = *node.children[1];
      const double b = EstimateRows(build, catalog);
      const double p = EstimateRows(probe, catalog);
      const double db = KeyDomain(build, node.build_key, catalog);
      const double dp = KeyDomain(probe, node.probe_key, catalog);
      switch (node.join_type) {
        case JoinType::kInner:
          return b * p / std::max({db, dp, 1.0});
        case JoinType::kSemi:
          return p * std::min(1.0, db / std::max(dp, 1.0));
        case JoinType::kAnti:
          return p * (1.0 - std::min(1.0, db / std::max(dp, 1.0))) +
                 p * 0.05;
      }
      return p;
    }
  }
  return 0.0;
}

CostModel CostModel::FromJoinModel(const std::map<std::string, double>& phases,
                                   double rows_per_side) {
  CostModel m;
  if (rows_per_side <= 0) return m;
  auto get = [&phases](const char* key) {
    auto it = phases.find(key);
    return it == phases.end() ? 0.0 : it->second;
  };
  const double exchange = get("phase.local_histogram") +
                          get("phase.global_histogram") +
                          get("phase.network_partition");
  if (exchange > 0) m.exchange_per_row = exchange / (2.0 * rows_per_side);
  const double bp = get("phase.build_probe");
  if (bp > 0) {
    m.build_per_row = bp * (2.0 / 3.0) / rows_per_side;
    m.probe_per_row = bp * (1.0 / 3.0) / rows_per_side;
  }
  return m;
}

double JoinCost(const CostModel& model, double build_rows, double probe_rows) {
  return model.exchange_per_row * (build_rows + probe_rows) +
         model.build_per_row * build_rows + model.probe_per_row * probe_rows;
}

}  // namespace modularis::planner
