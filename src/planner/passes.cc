#include "planner/passes.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <utility>

#include "core/row_vector.h"

namespace modularis::planner {
namespace {

std::shared_ptr<LogicalPlan> Mutable(const LogicalPlan& n) {
  return std::make_shared<LogicalPlan>(n);
}

std::vector<int> IdentityMap(size_t n) {
  std::vector<int> m(n);
  std::iota(m.begin(), m.end(), 0);
  return m;
}

bool IsIdentity(const std::vector<int>& m) {
  for (size_t i = 0; i < m.size(); ++i) {
    if (m[i] != static_cast<int>(i)) return false;
  }
  return true;
}

void Count(StatsRegistry* stats, const char* key, int64_t delta) {
  if (stats != nullptr && delta != 0) stats->AddCounter(key, delta);
}

// -- Predicate pushdown -----------------------------------------------------

LogicalPlanPtr PushRec(const LogicalPlanPtr& n, int64_t* moved) {
  std::vector<LogicalPlanPtr> kids;
  kids.reserve(n->children.size());
  bool changed = false;
  for (const LogicalPlanPtr& c : n->children) {
    kids.push_back(PushRec(c, moved));
    changed = changed || kids.back() != c;
  }
  LogicalPlanPtr cur = n;
  if (changed) {
    auto m = Mutable(*n);
    m->children = std::move(kids);
    cur = m;
  }
  if (cur->kind != NodeKind::kFilter) return cur;
  const LogicalPlanPtr& child = cur->children[0];
  if (child->kind == NodeKind::kScan) {
    // The scan filter reads table columns: output column i is table
    // column scan_cols[i].
    ExprPtr pred = RemapColumns(cur->predicate, child->scan_cols);
    if (pred == nullptr) return cur;
    auto m = Mutable(*child);
    m->scan_filter =
        m->scan_filter != nullptr ? ex::And(m->scan_filter, pred) : pred;
    ++*moved;
    return m;
  }
  if (child->kind == NodeKind::kFilter) {
    auto m = Mutable(*child);
    m->predicate = ex::And(m->predicate, cur->predicate);
    ++*moved;
    return PushRec(m, moved);  // the merged filter may now sit on a scan
  }
  return cur;
}

// -- Constant folding -------------------------------------------------------

ExprPtr LiteralFromItem(const Item& v) {
  if (v.is_i64()) return ex::Lit(v.i64());
  if (v.is_f64()) return ex::Lit(v.f64());
  if (v.is_str()) return ex::Lit(v.str());
  return nullptr;
}

ExprPtr FoldExpr(const ExprPtr& e, const RowRef& dummy, int64_t* folded) {
  if (e == nullptr) return e;
  const ExprKind k = e->kind();
  if (k == ExprKind::kColumn || k == ExprKind::kLiteral) return e;
  const size_t nc = e->NumExprChildren();
  if (nc == 0) return e;  // opaque leaf
  std::vector<ExprPtr> kids;
  kids.reserve(nc);
  bool changed = false;
  bool all_literal = true;
  for (size_t i = 0; i < nc; ++i) {
    ExprPtr c = e->ExprChild(i);
    ExprPtr f = FoldExpr(c, dummy, folded);
    changed = changed || f != c;
    all_literal =
        all_literal && f != nullptr && f->kind() == ExprKind::kLiteral;
    kids.push_back(std::move(f));
  }
  ExprPtr cur = e;
  if (changed) {
    ExprPtr rebuilt = e->RebuildWithChildren(std::move(kids));
    if (rebuilt == nullptr) return e;  // not rewritable: keep original
    cur = std::move(rebuilt);
  }
  if (all_literal && k != ExprKind::kOther) {
    Item v;
    if (cur->EvalChecked(dummy, &v).ok()) {
      if (ExprPtr lit = LiteralFromItem(v); lit != nullptr) {
        ++*folded;
        return lit;
      }
    }
  }
  return cur;
}

LogicalPlanPtr FoldRec(const LogicalPlanPtr& n, const RowRef& dummy,
                       int64_t* folded) {
  std::vector<LogicalPlanPtr> kids;
  kids.reserve(n->children.size());
  bool changed = false;
  for (const LogicalPlanPtr& c : n->children) {
    kids.push_back(FoldRec(c, dummy, folded));
    changed = changed || kids.back() != c;
  }
  auto fold = [&](const ExprPtr& e) {
    ExprPtr f = FoldExpr(e, dummy, folded);
    changed = changed || f != e;
    return f;
  };
  ExprPtr scan_filter = fold(n->scan_filter);
  ExprPtr predicate = fold(n->predicate);
  ExprPtr having = fold(n->having);
  std::vector<MapOutput> projections = n->projections;
  for (MapOutput& m : projections) {
    if (m.passthrough_col < 0) m.expr = fold(m.expr);
  }
  std::vector<AggSpec> aggs = n->aggs;
  for (AggSpec& a : aggs) {
    if (a.input != nullptr) a.input = fold(a.input);
  }
  if (!changed) return n;
  auto m = Mutable(*n);
  m->children = std::move(kids);
  m->scan_filter = std::move(scan_filter);
  m->predicate = std::move(predicate);
  m->having = std::move(having);
  m->projections = std::move(projections);
  m->aggs = std::move(aggs);
  return m;
}

// -- Cost-based join ordering -----------------------------------------------

MapOutput RemapOutput(const MapOutput& m, const std::vector<int>& map,
                      bool* ok) {
  if (m.passthrough_col >= 0) {
    if (static_cast<size_t>(m.passthrough_col) >= map.size() ||
        map[m.passthrough_col] < 0) {
      *ok = false;
      return m;
    }
    return MapOutput::Pass(map[m.passthrough_col]);
  }
  ExprPtr e = RemapColumns(m.expr, map);
  if (e == nullptr) {
    *ok = false;
    return m;
  }
  return MapOutput::Compute(std::move(e));
}

int RemapCol(int col, const std::vector<int>& map, bool* ok) {
  if (col < 0 || static_cast<size_t>(col) >= map.size() || map[col] < 0) {
    *ok = false;
    return col;
  }
  return map[col];
}

struct Reordered {
  LogicalPlanPtr node;
  /// Old output position → new output position.
  std::vector<int> remap;
};

Reordered ReorderRec(const LogicalPlanPtr& n, const Catalog& catalog,
                     const CostModel& model, int64_t* swaps,
                     int64_t* broadcasts, bool* ok) {
  switch (n->kind) {
    case NodeKind::kScan:
      return {n, IdentityMap(n->schema.num_fields())};
    case NodeKind::kFilter: {
      Reordered c =
          ReorderRec(n->children[0], catalog, model, swaps, broadcasts, ok);
      ExprPtr pred = RemapColumns(n->predicate, c.remap);
      if (pred == nullptr) *ok = false;
      if (!*ok) return {n, {}};
      auto m = Mutable(*n);
      m->children = {c.node};
      m->predicate = std::move(pred);
      m->schema = c.node->schema;
      return {m, std::move(c.remap)};
    }
    case NodeKind::kProject: {
      Reordered c =
          ReorderRec(n->children[0], catalog, model, swaps, broadcasts, ok);
      std::vector<MapOutput> items;
      items.reserve(n->projections.size());
      for (const MapOutput& item : n->projections) {
        items.push_back(RemapOutput(item, c.remap, ok));
      }
      if (!*ok) return {n, {}};
      auto m = Mutable(*n);
      m->children = {c.node};
      m->projections = std::move(items);
      return {m, IdentityMap(n->schema.num_fields())};
    }
    case NodeKind::kAggregate: {
      Reordered c =
          ReorderRec(n->children[0], catalog, model, swaps, broadcasts, ok);
      std::vector<int> keys = n->group_keys;
      for (int& k : keys) k = RemapCol(k, c.remap, ok);
      std::vector<AggSpec> aggs = n->aggs;
      for (AggSpec& a : aggs) {
        if (a.input != nullptr) {
          a.input = RemapColumns(a.input, c.remap);
          if (a.input == nullptr) *ok = false;
        }
      }
      if (!*ok) return {n, {}};
      auto m = Mutable(*n);
      m->children = {c.node};
      m->group_keys = std::move(keys);
      m->aggs = std::move(aggs);
      m->schema =
          ReduceByKey::MakeOutputSchema(c.node->schema, m->group_keys, m->aggs);
      return {m, IdentityMap(n->schema.num_fields())};
    }
    case NodeKind::kSort: {
      Reordered c =
          ReorderRec(n->children[0], catalog, model, swaps, broadcasts, ok);
      std::vector<SortKey> keys = n->sort_keys;
      for (SortKey& k : keys) k.col = RemapCol(k.col, c.remap, ok);
      if (!*ok) return {n, {}};
      auto m = Mutable(*n);
      m->children = {c.node};
      m->sort_keys = std::move(keys);
      m->schema = c.node->schema;
      return {m, std::move(c.remap)};
    }
    case NodeKind::kLimit:
    case NodeKind::kGather: {
      Reordered c =
          ReorderRec(n->children[0], catalog, model, swaps, broadcasts, ok);
      if (!*ok) return {n, {}};
      auto m = Mutable(*n);
      m->children = {c.node};
      m->schema = c.node->schema;
      return {m, std::move(c.remap)};
    }
    case NodeKind::kExchange: {
      Reordered c =
          ReorderRec(n->children[0], catalog, model, swaps, broadcasts, ok);
      auto m = Mutable(*n);
      m->children = {c.node};
      m->exchange_key = RemapCol(n->exchange_key, c.remap, ok);
      m->schema = c.node->schema;
      if (!*ok) return {n, {}};
      return {m, std::move(c.remap)};
    }
    case NodeKind::kJoin:
      break;
  }
  Reordered b =
      ReorderRec(n->children[0], catalog, model, swaps, broadcasts, ok);
  Reordered p =
      ReorderRec(n->children[1], catalog, model, swaps, broadcasts, ok);
  int bk = RemapCol(n->build_key, b.remap, ok);
  int pk = RemapCol(n->probe_key, p.remap, ok);
  if (!*ok) return {n, {}};
  const double eb = EstimateRows(*b.node, catalog);
  const double ep = EstimateRows(*p.node, catalog);
  const bool swap = n->join_type == JoinType::kInner &&
                    JoinCost(model, ep, eb) < JoinCost(model, eb, ep);
  if (swap) ++*swaps;
  const LogicalPlanPtr& nb = swap ? p.node : b.node;
  const LogicalPlanPtr& np = swap ? b.node : p.node;
  auto m = Mutable(*n);
  m->children = {nb, np};
  m->build_key = swap ? pk : bk;
  m->probe_key = swap ? bk : pk;
  m->schema = n->join_type == JoinType::kInner
                  ? nb->schema.Concat(np->schema)
                  : np->schema;
  m->broadcast_ok = (swap ? ep : eb) <= (swap ? eb : ep);
  if (m->broadcast_ok) ++*broadcasts;
  std::vector<int> remap;
  if (n->join_type == JoinType::kInner) {
    const size_t ob = n->children[0]->schema.num_fields();
    const size_t op = n->children[1]->schema.num_fields();
    const size_t off_b = swap ? p.node->schema.num_fields() : 0;
    const size_t off_p = swap ? 0 : b.node->schema.num_fields();
    remap.resize(ob + op);
    for (size_t i = 0; i < ob; ++i) {
      remap[i] = static_cast<int>(off_b) + b.remap[i];
    }
    for (size_t j = 0; j < op; ++j) {
      remap[ob + j] = static_cast<int>(off_p) + p.remap[j];
    }
  } else {
    remap = std::move(p.remap);
  }
  return {m, std::move(remap)};
}

// -- Projection pruning -----------------------------------------------------

void RequireExprCols(const ExprPtr& e, std::vector<char>* required) {
  if (e == nullptr) return;
  std::vector<int> cols;
  e->CollectColumns(&cols);
  for (int c : cols) {
    if (c >= 0 && static_cast<size_t>(c) < required->size()) {
      (*required)[c] = 1;
    }
  }
}

/// Extracts min-max bounds from the scan filter's top-level date/integer
/// comparison conjuncts into `ranges` (full-table column indices). The
/// residual filter keeps every conjunct, so this only prunes chunks that
/// cannot contain qualifying rows.
void ExtractRanges(const LogicalPlan& scan,
                   std::vector<ColumnFileScan::Range>* ranges) {
  if (scan.scan_filter == nullptr) return;
  struct Bounds {
    int64_t lo = std::numeric_limits<int64_t>::min();
    int64_t hi = std::numeric_limits<int64_t>::max();
  };
  std::map<int, Bounds> bounds;
  auto consider = [&](const ExprPtr& e) {
    CmpOp op;
    if (e == nullptr || !e->AsCompare(&op) || e->NumExprChildren() != 2) {
      return;
    }
    ExprPtr lhs = e->ExprChild(0);
    ExprPtr rhs = e->ExprChild(1);
    if (lhs == nullptr || rhs == nullptr) return;
    int col = lhs->AsColumnIndex();
    ExprPtr lit = rhs;
    if (col < 0) {  // literal-on-the-left form: flip the comparison
      col = rhs->AsColumnIndex();
      lit = lhs;
      switch (op) {
        case CmpOp::kLt:
          op = CmpOp::kGt;
          break;
        case CmpOp::kLe:
          op = CmpOp::kGe;
          break;
        case CmpOp::kGt:
          op = CmpOp::kLt;
          break;
        case CmpOp::kGe:
          op = CmpOp::kLe;
          break;
        default:
          break;
      }
    }
    if (col < 0 || static_cast<size_t>(col) >= scan.table_schema.num_fields()) {
      return;
    }
    Item v;
    if (!lit->AsLiteral(&v) || !v.is_i64()) return;
    const AtomType type = scan.table_schema.field(col).type;
    if (type != AtomType::kDate && type != AtomType::kInt32 &&
        type != AtomType::kInt64) {
      return;
    }
    Bounds& b = bounds[col];
    switch (op) {
      case CmpOp::kEq:
        b.lo = std::max(b.lo, v.i64());
        b.hi = std::min(b.hi, v.i64());
        break;
      case CmpOp::kLt:
        b.hi = std::min(b.hi, v.i64() - 1);
        break;
      case CmpOp::kLe:
        b.hi = std::min(b.hi, v.i64());
        break;
      case CmpOp::kGt:
        b.lo = std::max(b.lo, v.i64() + 1);
        break;
      case CmpOp::kGe:
        b.lo = std::max(b.lo, v.i64());
        break;
      case CmpOp::kNe:
        break;
    }
  };
  const ExprPtr& f = scan.scan_filter;
  if (f->kind() == ExprKind::kAnd) {
    for (size_t i = 0; i < f->NumExprChildren(); ++i) consider(f->ExprChild(i));
  } else {
    consider(f);
  }
  for (const auto& [col, b] : bounds) {
    if (b.lo == std::numeric_limits<int64_t>::min() &&
        b.hi == std::numeric_limits<int64_t>::max()) {
      continue;
    }
    ranges->push_back({col, b.lo, b.hi});
  }
}

struct PrunedNode {
  LogicalPlanPtr node;
  /// Old output position → new output position (-1 = dropped).
  std::vector<int> map;
};

PrunedNode PruneRec(const LogicalPlanPtr& n, std::vector<char> required,
                    bool* ok, int64_t* dropped) {
  switch (n->kind) {
    case NodeKind::kScan: {
      // The scan filter reads table columns, not output ones, so a column
      // only the filter reads leaves the output too.
      const size_t nf = n->schema.num_fields();
      std::vector<int> keep;
      keep.reserve(nf);
      std::vector<int> map(nf, -1);
      for (size_t i = 0; i < nf; ++i) {
        if (required[i]) {
          map[i] = static_cast<int>(keep.size());
          keep.push_back(static_cast<int>(i));
        }
      }
      *dropped += static_cast<int64_t>(nf - keep.size());
      auto m = Mutable(*n);
      std::vector<int> cols;
      cols.reserve(keep.size());
      for (int i : keep) cols.push_back(n->scan_cols[i]);
      m->scan_cols = std::move(cols);
      m->schema = n->table_schema.Select(m->scan_cols);
      ExtractRanges(*n, &m->scan_ranges);
      return {m, std::move(map)};
    }
    case NodeKind::kFilter: {
      RequireExprCols(n->predicate, &required);
      PrunedNode c = PruneRec(n->children[0], std::move(required), ok, dropped);
      if (!*ok) return {n, {}};
      ExprPtr pred = RemapColumns(n->predicate, c.map);
      if (pred == nullptr) {
        *ok = false;
        return {n, {}};
      }
      auto m = Mutable(*n);
      m->children = {c.node};
      m->predicate = std::move(pred);
      m->schema = c.node->schema;
      return {m, std::move(c.map)};
    }
    case NodeKind::kProject: {
      std::vector<char> creq(n->children[0]->schema.num_fields(), 0);
      for (const MapOutput& item : n->projections) {
        if (item.passthrough_col >= 0) {
          creq[item.passthrough_col] = 1;
        } else {
          RequireExprCols(item.expr, &creq);
        }
      }
      PrunedNode c = PruneRec(n->children[0], std::move(creq), ok, dropped);
      std::vector<MapOutput> items;
      items.reserve(n->projections.size());
      for (const MapOutput& item : n->projections) {
        items.push_back(RemapOutput(item, c.map, ok));
      }
      if (!*ok) return {n, {}};
      auto m = Mutable(*n);
      m->children = {c.node};
      m->projections = std::move(items);
      return {m, IdentityMap(n->schema.num_fields())};
    }
    case NodeKind::kAggregate: {
      std::vector<char> creq(n->children[0]->schema.num_fields(), 0);
      for (int k : n->group_keys) creq[k] = 1;
      for (const AggSpec& a : n->aggs) RequireExprCols(a.input, &creq);
      PrunedNode c = PruneRec(n->children[0], std::move(creq), ok, dropped);
      if (!*ok) return {n, {}};
      std::vector<int> keys = n->group_keys;
      for (int& k : keys) k = RemapCol(k, c.map, ok);
      std::vector<AggSpec> aggs = n->aggs;
      for (AggSpec& a : aggs) {
        if (a.input != nullptr) {
          a.input = RemapColumns(a.input, c.map);
          if (a.input == nullptr) *ok = false;
        }
      }
      if (!*ok) return {n, {}};
      auto m = Mutable(*n);
      m->children = {c.node};
      m->group_keys = std::move(keys);
      m->aggs = std::move(aggs);
      m->schema =
          ReduceByKey::MakeOutputSchema(c.node->schema, m->group_keys, m->aggs);
      return {m, IdentityMap(n->schema.num_fields())};
    }
    case NodeKind::kSort: {
      for (const SortKey& k : n->sort_keys) required[k.col] = 1;
      PrunedNode c = PruneRec(n->children[0], std::move(required), ok, dropped);
      if (!*ok) return {n, {}};
      std::vector<SortKey> keys = n->sort_keys;
      for (SortKey& k : keys) k.col = RemapCol(k.col, c.map, ok);
      if (!*ok) return {n, {}};
      auto m = Mutable(*n);
      m->children = {c.node};
      m->sort_keys = std::move(keys);
      m->schema = c.node->schema;
      return {m, std::move(c.map)};
    }
    case NodeKind::kLimit:
    case NodeKind::kGather: {
      PrunedNode c = PruneRec(n->children[0], std::move(required), ok, dropped);
      if (!*ok) return {n, {}};
      auto m = Mutable(*n);
      m->children = {c.node};
      m->schema = c.node->schema;
      return {m, std::move(c.map)};
    }
    case NodeKind::kExchange: {
      required[n->exchange_key] = 1;
      PrunedNode c = PruneRec(n->children[0], std::move(required), ok, dropped);
      if (!*ok) return {n, {}};
      auto m = Mutable(*n);
      m->children = {c.node};
      m->exchange_key = RemapCol(n->exchange_key, c.map, ok);
      m->schema = c.node->schema;
      if (!*ok) return {n, {}};
      return {m, std::move(c.map)};
    }
    case NodeKind::kJoin:
      break;
  }
  const LogicalPlan& build = *n->children[0];
  const LogicalPlan& probe = *n->children[1];
  const size_t ob = build.schema.num_fields();
  std::vector<char> breq(ob, 0);
  std::vector<char> preq(probe.schema.num_fields(), 0);
  if (n->join_type == JoinType::kInner) {
    for (size_t i = 0; i < ob; ++i) breq[i] = required[i];
    for (size_t j = 0; j < preq.size(); ++j) preq[j] = required[ob + j];
  } else {
    preq = required;
  }
  breq[n->build_key] = 1;
  preq[n->probe_key] = 1;
  PrunedNode b = PruneRec(n->children[0], std::move(breq), ok, dropped);
  PrunedNode p = PruneRec(n->children[1], std::move(preq), ok, dropped);
  if (!*ok) return {n, {}};
  auto m = Mutable(*n);
  m->children = {b.node, p.node};
  m->build_key = RemapCol(n->build_key, b.map, ok);
  m->probe_key = RemapCol(n->probe_key, p.map, ok);
  if (!*ok) return {n, {}};
  m->schema = n->join_type == JoinType::kInner
                  ? b.node->schema.Concat(p.node->schema)
                  : p.node->schema;
  std::vector<int> map;
  if (n->join_type == JoinType::kInner) {
    const int nb = static_cast<int>(b.node->schema.num_fields());
    map.resize(n->schema.num_fields(), -1);
    for (size_t i = 0; i < ob; ++i) map[i] = b.map[i];
    for (size_t j = 0; j < p.map.size(); ++j) {
      map[ob + j] = p.map[j] < 0 ? -1 : nb + p.map[j];
    }
  } else {
    map = std::move(p.map);
  }
  return {m, std::move(map)};
}

}  // namespace

ExprPtr RemapColumns(const ExprPtr& e, const std::vector<int>& map) {
  if (e == nullptr) return e;
  const int col = e->AsColumnIndex();
  if (col >= 0) {
    if (static_cast<size_t>(col) >= map.size() || map[col] < 0) return nullptr;
    return map[col] == col ? e : ex::Col(map[col]);
  }
  const size_t nc = e->NumExprChildren();
  if (nc == 0) {
    if (e->kind() == ExprKind::kOther) {
      // Opaque leaf: only safe if it references no columns.
      std::vector<int> cols;
      e->CollectColumns(&cols);
      if (!cols.empty()) return nullptr;
    }
    return e;
  }
  std::vector<ExprPtr> kids;
  kids.reserve(nc);
  bool changed = false;
  for (size_t i = 0; i < nc; ++i) {
    ExprPtr c = e->ExprChild(i);
    ExprPtr r = RemapColumns(c, map);
    if (r == nullptr) return nullptr;
    changed = changed || r != c;
    kids.push_back(std::move(r));
  }
  if (!changed) return e;
  return e->RebuildWithChildren(std::move(kids));
}

LogicalPlanPtr PushDownPredicates(LogicalPlanPtr root, StatsRegistry* stats) {
  int64_t moved = 0;
  LogicalPlanPtr out = PushRec(root, &moved);
  Count(stats, "planner.passes.pushdown.moved", moved);
  return out;
}

LogicalPlanPtr FoldConstants(LogicalPlanPtr root, StatsRegistry* stats) {
  // Constant subtrees never read the input row; a zeroed single-row
  // vector satisfies the EvalChecked interface.
  RowVectorPtr dummy = RowVector::Make(Schema({Field::I64("zero")}));
  std::vector<uint8_t> zeros(dummy->schema().row_size(), 0);
  dummy->AppendRaw(zeros.data());
  int64_t folded = 0;
  LogicalPlanPtr out = FoldRec(root, dummy->row(0), &folded);
  Count(stats, "planner.passes.fold.folded", folded);
  return out;
}

LogicalPlanPtr ChooseJoinOrder(LogicalPlanPtr root, const Catalog& catalog,
                               const CostModel& model, StatsRegistry* stats) {
  if (catalog.empty()) return root;
  bool ok = true;
  int64_t swaps = 0;
  int64_t broadcasts = 0;
  Reordered r = ReorderRec(root, catalog, model, &swaps, &broadcasts, &ok);
  if (!ok || !IsIdentity(r.remap)) {
    // A swap would permute the root schema (no projection above it to
    // absorb the remap), or the tree contains a non-rewritable
    // expression: keep the authored order.
    Count(stats, "planner.passes.joinorder.bailouts", 1);
    return root;
  }
  Count(stats, "planner.passes.joinorder.swaps", swaps);
  Count(stats, "planner.passes.joinorder.broadcast_allowed", broadcasts);
  return r.node;
}

LogicalPlanPtr PruneColumns(LogicalPlanPtr root, StatsRegistry* stats) {
  bool ok = true;
  int64_t dropped = 0;
  PrunedNode r =
      PruneRec(root, std::vector<char>(root->schema.num_fields(), 1), &ok,
               &dropped);
  if (!ok || !IsIdentity(r.map)) return root;
  Count(stats, "planner.passes.prune.cols_dropped", dropped);
  return r.node;
}

LogicalPlanPtr Optimize(LogicalPlanPtr root, const PlannerOptions& options,
                        StatsRegistry* stats) {
  const auto start = std::chrono::steady_clock::now();
  root = PushDownPredicates(std::move(root), stats);
  root = FoldConstants(std::move(root), stats);
  root = ChooseJoinOrder(std::move(root), options.catalog, options.cost, stats);
  root = PruneColumns(std::move(root), stats);
  if (stats != nullptr) {
    stats->AddTime("planner.time.optimize",
                   std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count());
    if (!options.catalog.empty()) {
      stats->AddCounter(
          "planner.cost.root_rows",
          std::llround(EstimateRows(*root, options.catalog)));
    }
  }
  return root;
}

}  // namespace modularis::planner
