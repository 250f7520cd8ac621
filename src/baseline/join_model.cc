#include "baseline/join_model.h"

#include "core/exec_context.h"
#include "mpi/mpi_ops.h"
#include "suboperators/agg_ops.h"
#include "suboperators/join_ops.h"
#include "suboperators/partition_ops.h"
#include "suboperators/scan_ops.h"

namespace modularis::baseline {

namespace {

/// Drains an operator, discarding output (the microbenchmark contract:
/// consume everything, keep nothing).
Status DrainDiscard(SubOperator* op, ExecContext* ctx,
                    std::vector<Tuple>* keep = nullptr) {
  MODULARIS_RETURN_NOT_OK(op->Open(ctx));
  Tuple t;
  std::vector<RowVectorPtr> arena;
  while (op->Next(&t)) {
    if (keep != nullptr) keep->push_back(OwnTuple(t, &arena));
  }
  MODULARIS_RETURN_NOT_OK(op->status());
  return op->Close();
}

}  // namespace

Result<std::map<std::string, double>> RunJoinModel(
    const std::vector<RowVectorPtr>& inner,
    const std::vector<RowVectorPtr>& outer,
    const JoinModelOptions& options) {
  RadixSpec net_spec{options.network_radix_bits, 0, RadixHash::kIdentity};
  RadixSpec local_spec{options.local_radix_bits,
                       options.compress ? options.key_domain_bits
                                        : options.network_radix_bits,
                       RadixHash::kIdentity};
  const Schema part_schema =
      options.compress ? CompressedSchema() : KeyValueSchema();

  std::vector<StatsRegistry> rank_stats(options.world_size);
  Status st = mpi::MpiRuntime::Run(
      options.world_size, options.fabric,
      [&](mpi::Communicator& comm) -> Status {
        const int r = comm.rank();
        ExecContext ctx;
        ctx.rank = r;
        ctx.world = comm.size();
        ctx.comm = &comm;
        ctx.stats = &rank_stats[r];
        ctx.options.network_radix_bits = options.network_radix_bits;
        ctx.options.local_radix_bits = options.local_radix_bits;
        ctx.options.key_domain_bits = options.key_domain_bits;

        // Phase 1 (isolated): local histograms straight over the inputs.
        std::vector<Tuple> hists[2];
        for (int side = 0; side < 2; ++side) {
          LocalHistogram lh(std::make_unique<CollectionSource>(
                                std::vector<RowVectorPtr>{
                                    side == 0 ? inner[r] : outer[r]}),
                            net_spec, 0);
          MODULARIS_RETURN_NOT_OK(DrainDiscard(&lh, &ctx, &hists[side]));
        }

        // Phase 2 (isolated): both allreduces back to back.
        std::vector<Tuple> global_hists[2];
        for (int side = 0; side < 2; ++side) {
          MpiHistogram mh(std::make_unique<TupleSource>(
              std::vector<Tuple>{hists[side][0]}));
          MODULARIS_RETURN_NOT_OK(
              DrainDiscard(&mh, &ctx, &global_hists[side]));
        }

        // Phase 3 (isolated): the network exchange alone, fed with the
        // precomputed histograms.
        std::vector<Tuple> exchanged[2];
        for (int side = 0; side < 2; ++side) {
          MpiExchange::Options xopts;
          xopts.spec = net_spec;
          xopts.compress = options.compress;
          xopts.domain_bits = options.key_domain_bits;
          xopts.buffer_bytes = options.buffer_bytes;
          MpiExchange mx(
              std::make_unique<CollectionSource>(std::vector<RowVectorPtr>{
                  side == 0 ? inner[r] : outer[r]}),
              std::make_unique<TupleSource>(
                  std::vector<Tuple>{hists[side][0]}),
              std::make_unique<TupleSource>(
                  std::vector<Tuple>{global_hists[side][0]}),
              KeyValueSchema(), xopts);
          MODULARIS_RETURN_NOT_OK(DrainDiscard(&mx, &ctx, &exchanged[side]));
        }

        // Phase 4 (isolated): local histogram + partition per network
        // partition, directly on the exchanged collections.
        std::vector<std::vector<Tuple>> local_parts[2];
        for (int side = 0; side < 2; ++side) {
          for (const Tuple& part : exchanged[side]) {
            const RowVectorPtr& data = part[1].collection();
            LocalHistogram lh(
                std::make_unique<CollectionSource>(
                    std::vector<RowVectorPtr>{data}),
                local_spec, 0, "phase.local_partition");
            std::vector<Tuple> hist;
            MODULARIS_RETURN_NOT_OK(DrainDiscard(&lh, &ctx, &hist));
            LocalPartition lp(std::make_unique<CollectionSource>(
                                  std::vector<RowVectorPtr>{data}),
                              std::make_unique<TupleSource>(
                                  std::vector<Tuple>{hist[0]}),
                              local_spec, 0, "phase.local_partition");
            std::vector<Tuple> out;
            MODULARIS_RETURN_NOT_OK(DrainDiscard(&lp, &ctx, &out));
            local_parts[side].push_back(std::move(out));
          }
        }

        // Phase 5 (isolated): build-probe per local partition pair.
        for (size_t np = 0; np < local_parts[0].size(); ++np) {
          const auto& build_parts = local_parts[0][np];
          const auto& probe_parts = local_parts[1][np];
          for (size_t lp_id = 0; lp_id < build_parts.size(); ++lp_id) {
            BuildProbe bp(
                std::make_unique<CollectionSource>(std::vector<RowVectorPtr>{
                    build_parts[lp_id][1].collection()}),
                std::make_unique<CollectionSource>(std::vector<RowVectorPtr>{
                    probe_parts[lp_id][1].collection()}),
                part_schema, part_schema, 0, 0, JoinType::kInner,
                options.compress ? options.key_domain_bits : 0);
            MODULARIS_RETURN_NOT_OK(DrainDiscard(&bp, &ctx));
          }
        }
        return Status::OK();
      });
  MODULARIS_RETURN_NOT_OK(st);

  StatsRegistry merged;
  for (const StatsRegistry& rs : rank_stats) merged.MergeMax(rs);
  return merged.times();
}

}  // namespace modularis::baseline
