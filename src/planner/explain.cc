#include "planner/explain.h"

#include <cmath>
#include <limits>

#include "suboperators/agg_ops.h"
#include "suboperators/basic_ops.h"

namespace modularis::planner {
namespace {

std::string IntList(const std::vector<int>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(v[i]);
  }
  return out + "]";
}

std::string Bound(int64_t v) {
  if (v == std::numeric_limits<int64_t>::min()) return "min";
  if (v == std::numeric_limits<int64_t>::max()) return "max";
  return std::to_string(v);
}

std::string ProjectionItem(const MapOutput& m) {
  if (m.passthrough_col >= 0) return "$" + std::to_string(m.passthrough_col);
  return m.expr != nullptr ? m.expr->ToString() : "?";
}

std::string AggList(const std::vector<AggSpec>& aggs) {
  std::string out = "[";
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (i > 0) out += ", ";
    out += aggs[i].name + "=" + AggKindName(aggs[i].kind) + "(";
    out += aggs[i].input != nullptr ? aggs[i].input->ToString() : "*";
    out += ")";
  }
  return out + "]";
}

std::string SortList(const std::vector<SortKey>& keys) {
  std::string out = "[";
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) out += ", ";
    out += "$" + std::to_string(keys[i].col) +
           (keys[i].desc ? " desc" : " asc");
  }
  return out + "]";
}

void RenderLogical(const LogicalPlan& n, const Catalog* catalog, int depth,
                   std::string* out) {
  out->append(2 * static_cast<size_t>(depth), ' ');
  switch (n.kind) {
    case NodeKind::kScan: {
      *out += "Scan " + (n.table_name.empty() ? "?" : n.table_name) +
              " table=" + std::to_string(n.table) +
              " cols=" + IntList(n.scan_cols);
      if (n.scan_filter != nullptr) {
        *out += " filter=" + n.scan_filter->ToString();
      }
      if (!n.scan_ranges.empty()) {
        *out += " ranges=[";
        for (size_t i = 0; i < n.scan_ranges.size(); ++i) {
          if (i > 0) *out += ", ";
          *out += "$" + std::to_string(n.scan_ranges[i].col) + ":" +
                  Bound(n.scan_ranges[i].lo) + ".." +
                  Bound(n.scan_ranges[i].hi);
        }
        *out += "]";
      }
      break;
    }
    case NodeKind::kFilter:
      *out += "Filter " + n.predicate->ToString();
      break;
    case NodeKind::kProject: {
      *out += "Project [";
      for (size_t i = 0; i < n.projections.size(); ++i) {
        if (i > 0) *out += ", ";
        *out += ProjectionItem(n.projections[i]);
      }
      *out += "]";
      break;
    }
    case NodeKind::kJoin: {
      const char* type = n.join_type == JoinType::kInner  ? "inner"
                         : n.join_type == JoinType::kSemi ? "semi"
                                                          : "anti";
      *out += std::string("Join ") + type +
              " build=$" + std::to_string(n.build_key) + " probe=$" +
              std::to_string(n.probe_key) +
              (n.broadcast_ok ? "" : " no-broadcast");
      break;
    }
    case NodeKind::kAggregate:
      *out += "Aggregate keys=" + IntList(n.group_keys) +
              " aggs=" + AggList(n.aggs);
      if (n.having != nullptr) *out += " having=" + n.having->ToString();
      break;
    case NodeKind::kSort:
      *out += "Sort " + SortList(n.sort_keys);
      break;
    case NodeKind::kLimit:
      *out += "Limit " + std::to_string(n.limit);
      break;
    case NodeKind::kExchange:
      *out += "Exchange key=$" + std::to_string(n.exchange_key) +
              (n.compress ? " compress" : "");
      break;
    case NodeKind::kGather:
      *out += "Gather";
      break;
  }
  if (catalog != nullptr && !catalog->empty()) {
    *out += " rows~" +
            std::to_string(
                static_cast<long long>(std::llround(EstimateRows(n, *catalog))));
  }
  *out += "\n";
  for (const auto& child : n.children) {
    RenderLogical(*child, catalog, depth + 1, out);
  }
}

void RenderPhysical(const SubOperator& op, int depth, std::string* out);

void RenderPlan(const PipelinePlan& plan, int depth, std::string* out) {
  for (size_t i = 0; i < plan.num_pipelines(); ++i) {
    out->append(2 * static_cast<size_t>(depth), ' ');
    *out += "[" + plan.pipeline_name(i) + "]\n";
    RenderPhysical(*plan.pipeline_root(i), depth + 1, out);
  }
  if (plan.output_op() != nullptr) {
    out->append(2 * static_cast<size_t>(depth), ' ');
    *out += "[output]\n";
    RenderPhysical(*plan.output_op(), depth + 1, out);
  }
}

void RenderPhysical(const SubOperator& op, int depth, std::string* out) {
  if (const auto* plan = dynamic_cast<const PipelinePlan*>(&op)) {
    out->append(2 * static_cast<size_t>(depth), ' ');
    *out += "PipelinePlan\n";
    RenderPlan(*plan, depth + 1, out);
    return;
  }
  out->append(2 * static_cast<size_t>(depth), ' ');
  *out += op.name() + "\n";
  for (size_t i = 0; i < op.num_children(); ++i) {
    RenderPhysical(*op.child(i), depth + 1, out);
  }
  if (const auto* reduce = dynamic_cast<const Reduce*>(&op)) {
    RenderPhysical(*reduce->input(), depth + 1, out);
  }
  if (const auto* nm = dynamic_cast<const NestedMap*>(&op)) {
    out->append(2 * static_cast<size_t>(depth + 1), ' ');
    *out += "(nested)\n";
    RenderPhysical(*nm->nested_plan(), depth + 2, out);
  }
}

}  // namespace

std::string ExplainLogical(const LogicalPlan& root, const Catalog* catalog) {
  std::string out;
  RenderLogical(root, catalog, 0, &out);
  return out;
}

std::string ExplainPhysical(const SubOperator& op) {
  std::string out;
  RenderPhysical(op, 0, &out);
  return out;
}

}  // namespace modularis::planner
