#include "plans/common.h"

#include <cstdio>
#include <cstdlib>

#include "mpi/mpi_ops.h"
#include "mpi/tcp_exchange.h"
#include "planner/lower.h"
#include "serverless/serverless_ops.h"
#include "suboperators/agg_ops.h"
#include "suboperators/partition_ops.h"

namespace modularis::plans {

std::string AddExchangePipelines(PipelinePlan* plan, const std::string& base,
                                 const std::function<SubOpPtr()>& src,
                                 const ExchangeConfig& cfg) {
  switch (cfg.transport) {
    case ExchangeConfig::Transport::kTcp: {
      TcpExchange::Options topts;
      topts.key_col = cfg.key_col;
      plan->Add(base + "_tcp",
                std::make_unique<TcpExchange>(MaybeScan(src(), cfg.fused),
                                              cfg.schema, topts));
      return base + "_tcp";
    }
    case ExchangeConfig::Transport::kS3: {
      plan->Add(base + "_part",
                std::make_unique<GroupByPid>(std::make_unique<PartitionOp>(
                    MaybeScan(src(), cfg.fused), cfg.spec, cfg.key_col)));
      S3Exchange::Options xopts;
      xopts.prefix = cfg.prefix;
      xopts.write_combining = cfg.write_combining;
      xopts.retry = cfg.retry;
      plan->Add(base + "_s3x", std::make_unique<S3Exchange>(
                                   plan->MakeRef(base + "_part"), xopts));
      return base + "_s3x";
    }
    case ExchangeConfig::Transport::kMpi:
      break;
  }
  plan->Add(base + "_lh",
            std::make_unique<LocalHistogram>(MaybeScan(src(), cfg.fused),
                                             cfg.spec, cfg.key_col));
  plan->Add(base + "_mh",
            std::make_unique<MpiHistogram>(plan->MakeRef(base + "_lh")));
  MpiExchange::Options xopts;
  xopts.spec = cfg.spec;
  xopts.key_col = cfg.key_col;
  xopts.compress = cfg.compress;
  xopts.domain_bits = cfg.domain_bits;
  xopts.buffer_bytes = cfg.buffer_bytes;
  plan->Add(base + "_mx", std::make_unique<MpiExchange>(
                              MaybeScan(src(), cfg.fused),
                              plan->MakeRef(base + "_lh"),
                              plan->MakeRef(base + "_mh"), cfg.schema,
                              xopts));
  return base + "_mx";
}

SubOpPtr LowerRankTemplate(const planner::LogicalPlan& root,
                           const ExecOptions& exec) {
  planner::LoweringContext ctx;
  ctx.fused = exec.enable_fusion;
  ctx.exec = exec;
  auto plan = planner::LowerPlan(root, &ctx);
  if (!plan.ok()) {
    std::fprintf(stderr, "LowerRankTemplate: %s\n",
                 plan.status().ToString().c_str());
    std::abort();
  }
  return plan.TakeValue();
}

Result<RowVectorPtr> DrainCollections(SubOperator* root, ExecContext* ctx,
                                      const Schema& schema) {
  MODULARIS_RETURN_NOT_OK(root->Open(ctx));
  RowVectorPtr out = RowVector::Make(schema);
  Tuple t;
  while (root->Next(&t)) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].is_collection()) {
        out->AppendAll(*t[i].collection());
      } else if (t[i].is_row()) {
        out->AppendRaw(t[i].row().data());
      }
    }
  }
  MODULARIS_RETURN_NOT_OK(root->status());
  MODULARIS_RETURN_NOT_OK(root->Close());
  return out;
}

}  // namespace modularis::plans
